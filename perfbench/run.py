#!/usr/bin/env python3
"""SCMP simulator benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. It builds perfbench/scmp_bench.exe and
perfbench/calib.exe with dune under .bench_build/, then runs the
workload one run after another, each in a fresh process (a run is the
workload's simulations in turn; see perfbench/README.md):

  1. an untimed reference process: the fingerprint of a check-off run,
     then a --check run of each simulation whose invariant verifier must
     pass;
  2. timed processes, back to back, until S seconds have passed (at least
     MIN_RUNS), each of which must reproduce the reference fingerprint,
     with one run of the calibration kernel (calib.exe) before the first
     and after each;
  3. with --trace 1 only: one traced process (spans around each layer's
     public call) and one DCDM replay process.

The last line of stdout is one JSON object: correct, attempted, failed and
the medians of the end-to-end metrics (--trace 0) or the per-layer metrics
(--trace 1) that BENCHMARK.json names. Each timed run's times are its host
seconds scaled by KERNEL_REF_S / (mean seconds of the kernel runs just
before and just after it), and its rates divided by the same factor. With
--trace 1 the line before it is an "info" object: layer shares, replayed
operation counts and the unscaled medians, which are not metrics.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

MIN_RUNS = 3
CHILD_TIMEOUT_S = 120
BUILD_DIR = ".bench_build"
EXE_DIR = os.path.join(BUILD_DIR, "_build", "default", "perfbench")
EXE = os.path.join(EXE_DIR, "scmp_bench.exe")
CALIB = os.path.join(EXE_DIR, "calib.exe")
# The calibration kernel's median seconds on the host the bounds were set
# on (2-vCPU Intel Xeon VM at 2.0 GHz). It fixes the unit of the scaled
# times; it does not need to match the host the benchmark runs on.
KERNEL_REF_S = 0.072
# Metrics that are host times (scaled by the kernel) or rates (divided).
TIMES = ("wall_s", "setup_s", "run_s")
RATES = ("events_per_s",)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def child_env():
    tmp = os.path.abspath(os.path.join(BUILD_DIR, "tmp"))
    os.makedirs(tmp, exist_ok=True)
    # No dune cache and a private TMPDIR: the benchmark writes only
    # inside the checkout.
    return dict(os.environ, DUNE_CACHE="disabled", TMPDIR=tmp)


def build(env):
    cmd = ["dune", "build", "--root", ".",
           "--build-dir", os.path.abspath(os.path.join(BUILD_DIR, "_build")),
           "./perfbench/scmp_bench.exe", "./perfbench/calib.exe"]
    try:
        proc = subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr)
    except FileNotFoundError:
        log("perfbench: dune not found")
        return False
    if proc.returncode != 0:
        log("perfbench: build failed")
        return False
    return True


def spawn(args, env, exe=EXE):
    """Run one benchmark process; (exit code, stdout lines, stderr)."""
    try:
        proc = subprocess.run([exe] + args, env=env, capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return 124, [], "timed out after %d s" % CHILD_TIMEOUT_S
    return proc.returncode, proc.stdout.splitlines(), proc.stderr.strip()


def measured(args, env):
    """A timed, traced or replay process: (ok, its JSON fields or None)."""
    code, out, err = spawn(args, env)
    fields = None
    if out:
        try:
            fields = json.loads(out[-1])
        except ValueError:
            fields = None
    ok = code == 0 and fields is not None and fields.get("error") is None
    if not ok:
        reason = (fields or {}).get("error") or err or "exit code %d" % code
        log("perfbench: %s %s failed: %s" % (args[0], args[1], reason))
    return ok, fields


def median_of(runs, name):
    return statistics.median(r[name] for r in runs)


def run_kernel(env):
    """Seconds of one calibration-kernel run, or None if it failed."""
    code, out, err = spawn([], env, exe=CALIB)
    if code == 0 and out:
        try:
            return float(out[-1])
        except ValueError:
            pass
    log("perfbench: calibration kernel failed: %s" % (err or "exit code %d" % code))
    return None


def scaled(run, name):
    """A timed run's metric, a time or rate in reference-kernel units."""
    if name in TIMES:
        return run[name] * run["scale"]
    if name in RATES:
        return run[name] / run["scale"]
    return run[name]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        log("perfbench: cannot read BENCHMARK.json: %s" % e)
        return 2
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log("perfbench: unknown workload %r" % args.workload)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    env = child_env()
    if not build(env):
        return 1
    w, seed = args.workload, str(args.seed)
    attempted = failed = 0

    # 1. Reference.
    code, out, err = spawn(["ref", w, seed], env)
    attempted += 1
    if code != 0:
        failed += 1
        log("perfbench: reference run failed: %s" % (err or "exit code %d" % code))
    if not out:
        return 1
    fingerprint = out[0]

    # 2. Timed runs, each in a fresh process, with a run of the
    #    calibration kernel before the first and after each one.
    runs, bad, kernel = [], [], [run_kernel(env)]
    timed = 0
    start = time.monotonic()
    while timed < MIN_RUNS or time.monotonic() - start < args.seconds:
        if kernel[-1] is None:
            return 1
        ok, fields = measured(["run", w, seed, fingerprint], env)
        timed += 1
        attempted += 1
        kernel.append(run_kernel(env))
        if kernel[-1] is None:
            return 1
        if not ok:
            failed += 1
        if fields is not None:
            # The run's times in units of the reference kernel: scaled by
            # the mean of the kernel runs on either side of it.
            fields["scale"] = KERNEL_REF_S / ((kernel[-2] + kernel[-1]) / 2)
            log("perfbench: run %d: wall_s %.6f, kernel %.6f %.6f" % (
                timed, fields["wall_s"], kernel[-2], kernel[-1]))
            (runs if ok else bad).append(fields)
    # A failed run's timings still describe the program, so they are
    # reported (with correct = false) when no run passed.
    runs = runs or bad
    if not runs:
        return 1
    kernel_s = statistics.median(kernel)

    if args.trace:
        ops_file = os.path.join(BUILD_DIR, "ops-%s-%s.txt" % (w, seed))
        ok, traced = measured(["trace", w, seed, fingerprint, ops_file], env)
        attempted += 1
        failed += 0 if ok else 1
        if traced is None:
            return 1
        ok, dcdm = measured(["replay", w, seed, ops_file], env)
        attempted += 1
        failed += 0 if ok else 1
        if dcdm is None:
            return 1
        values = dict(traced, **dcdm)
        wall = traced["traced.wall_s"]
        host_wall_s = median_of(runs, "wall_s")
        values["trace.overhead_s"] = wall - host_wall_s
        info = {
            "host.wall_s": host_wall_s,
            "calib.kernel_s": kernel_s,
            "dcdm.joins": values.pop("dcdm.joins"),
            "dcdm.leaves": values.pop("dcdm.leaves"),
            "share.topology": traced["topology.generate_s"] / wall,
            "share.placement": traced["placement.pick_s"] / wall,
            "share.dcdm": traced["scmp.tree_compute_s"] / wall,
            "share.distribution":
                (traced["phase.join_s"] - traced["dcdm.join_phase_s"]) / wall,
            "share.data_minus_dcdm": traced["phase.data_minus_dcdm_s"] / wall,
            "share.report": traced["report.emit_s"] / wall,
            "share.faulted_sims": traced["faulted.run_s"] / wall,
        }
        print(json.dumps({"info": info}))
    else:
        log("perfbench: unscaled medians: %s; kernel %.6f s" % (
            ", ".join("%s %.6g" % (n, median_of(runs, n)) for n in TIMES + RATES),
            kernel_s))
        values = {m["name"]: statistics.median(scaled(r, m["name"]) for r in runs)
                  for m in wanted}

    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        log("perfbench: no value for %s" % ", ".join(missing))
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    log("perfbench: %s seed %s: %d timed runs" % (w, seed, len(runs)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
