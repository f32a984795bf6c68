#!/usr/bin/env python3
"""End-to-end benchmark of the one-shot runtime (see perfbench/README.md).

Run from the root of the repository:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It builds perfbench.exe with dune, starts it several times to time
set-up from outside (process start to a ready session, scaled to the
host's reference speed), runs one
measured process, checks that the counts of the determinism guard are
identical in every process of the same seed, and prints the result as
the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
The line before it carries the provenance of the result: seed, the
workload's generator parameters and why it exists, and a host
fingerprint.  Wall-clock figures from different fingerprints are not
comparable.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time

EXE = os.path.join("_build", "default", "perfbench", "perfbench.exe")
BENCHMARK = "BENCHMARK.json"

# Processes that only set up (and run the guard), besides the measured
# one: set-up is timed in each, and setup_s is the median.
SETUP_PROCESSES = 7

BUILD_TIMEOUT = 850
PROCESS_TIMEOUT = 150


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def check_layout():
    for path in ("dune-project", os.path.join("lib", "scheme", "scheme.ml"),
                 os.path.join("perfbench", "dune"), BENCHMARK):
        if not os.path.exists(path):
            die("run from the repository root: %s is missing" % path)


def build():
    try:
        r = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=BUILD_TIMEOUT)
    except (OSError, subprocess.TimeoutExpired) as e:
        die("build failed: %s" % e)
    if r.returncode != 0:
        die("build failed:\n" + r.stdout)


def run_process(args):
    """Start perfbench.exe; return (seconds to READY, its JSON result)."""
    t0 = time.perf_counter()
    p = subprocess.Popen([EXE] + args, stdout=subprocess.PIPE, text=True)
    # Read stdout through one buffered reader only (communicate would
    # bypass what readline has already buffered); a timer kills a
    # process that hangs.
    watchdog = threading.Timer(PROCESS_TIMEOUT, p.kill)
    watchdog.start()
    try:
        first = p.stdout.readline()
        ready_s = time.perf_counter() - t0
        out = p.stdout.read()
        p.wait()
    finally:
        watchdog.cancel()
    if first.strip() != "READY":
        die("%s: no READY line (got %r)" % (" ".join(args), first))
    if p.returncode != 0:
        die("%s: exited with %d" % (" ".join(args), p.returncode))
    lines = out.strip().splitlines()
    if not lines:
        die("%s: no result line" % " ".join(args))
    return ready_s, json.loads(lines[-1])


def source_digest():
    """Digest of the sources the benchmark builds: identifies the code
    where no git metadata is present."""
    h = hashlib.sha256()
    files = []
    for top in ("lib", "perfbench"):
        for d, _, names in os.walk(top):
            files += [os.path.join(d, n) for n in names
                      if n.endswith((".ml", ".mli", "dune"))]
    for f in sorted(files):
        h.update(f.encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def git_rev():
    if not os.path.isdir(".git"):
        return None
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else None
    except (OSError, subprocess.TimeoutExpired):
        return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args()

    check_layout()
    with open(BENCHMARK) as f:
        spec = json.load(f)
    if a.workload not in [w["name"] for w in spec["workloads"]]:
        die("unknown workload %r" % a.workload)
    wanted = spec["per_layer"] if a.trace else spec["end_to_end"]
    build()

    common = ["--workload", a.workload, "--seed", str(a.seed)]
    setups = [run_process(common + ["--mode", "setup"])
              for _ in range(SETUP_PROCESSES)]
    trace_file = None
    main_args = common + ["--mode", "run", "--seconds", str(a.seconds),
                          "--trace", str(a.trace)]
    if a.trace:
        os.makedirs(os.path.join("perfbench", "out"), exist_ok=True)
        trace_file = os.path.join(
            "perfbench", "out", "trace-%s-%d.json" % (a.workload, a.seed))
        main_args += ["--trace-out", trace_file]
    ready_s, res = run_process(main_args)
    procs = [r for _, r in setups] + [res]

    # Determinism guard: the exact counts of one seed repeat in every
    # process, or the benchmark fails.
    ref = res["guard"]
    for r in procs:
        diff = sorted(k for k in set(ref) | set(r["guard"])
                      if ref.get(k) != r["guard"].get(k))
        if diff:
            die("determinism guard: counts differ between same-seed runs: "
                + ", ".join("%s %s vs %s" % (k, ref.get(k), r["guard"].get(k))
                            for k in diff))

    metrics = dict(res["metrics"])
    # Set-up phases: the median over every process of this run.
    for k in res["setup"]:
        if k in metrics:
            metrics[k]["value"] = statistics.median(
                r["setup"][k] for r in procs)
    # Each process times the host's speed right after READY (the
    # calibration kernel of pb_calib.ml); its set-up time is scaled to
    # the reference speed, as op times are.
    setup_raw = [s for s, _ in setups] + [ready_s]
    setup_factors = [r["setup_factor"] for r in procs]
    metrics["setup_s"] = {
        "value": statistics.median(t / f for t, f in zip(setup_raw,
                                                         setup_factors)),
        "unit": "s"}
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        die("metrics not measured: " + ", ".join(missing))

    attempted, failed = res["attempted"], res["failed"]
    provenance = {
        "workload": a.workload, "seed": a.seed, "seconds": a.seconds,
        "trace": a.trace, "params": res["params"], "why": res["why"],
        "op_samples": attempted,
        "op_fail_ratio": failed / attempted if attempted else None,
        "checker_selftest": res["selftest"], "pool_jobs": res["jobs"],
        # Equal for every run of one seed with one build on one host:
        # compare it between runs to check the guard across invocations.
        "guard_digest": hashlib.sha256(
            json.dumps(ref, sort_keys=True).encode()).hexdigest()[:16],
        "setup_samples_s": setup_raw, "setup_host_factors": setup_factors,
        "host_speed": res["host_speed"], "trace_file": trace_file,
        "host": {"nproc": res["nproc"], "ocaml": res["ocaml"],
                 "machine": platform.machine(), "git_rev": git_rev(),
                 "source_digest": source_digest()},
    }
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": failed == 0 and attempted > 0 and res["selftest"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted},
    }))


if __name__ == "__main__":
    main()
