#!/usr/bin/env python3
"""End-to-end benchmark of msim (see README.md in this directory).

    python3 e2ebench/run.py --workload W --seed N --seconds S --trace 0|1

Builds the benchmark's program from the checkout's sources, then, for
--seconds, runs single-thread passes of workload W, one fresh process
per pass.  With --trace 1 it alternates each pass with a traced run of
the same jobs, which times the calls into each layer.  Every job of
every process is checked against expected/W.tsv, and the traced
results must equal the passes'.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

The workloads' inputs are fixed (the registry's synthetic images and
sequences), so --seed is accepted and recorded but changes nothing.

Other options:
  --expected-dir D        check against D/W.tsv instead of expected/
  --regenerate-expected   rewrite expected/W.tsv from one pass and exit

Exit code: 0 when every job matched, 1 when a job failed, 2 when the
benchmark could not run (no sources, failed build, unknown workload).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Jobs in one pass of each workload (msim_e2e.cpp's makeJobs).
WORKLOADS = {"fig1-ilp": 18, "l1-sweep": 20, "l1-sweep-sampled": 20}

# Set-up-only processes per round of passes: set-up takes about a
# millisecond, so its median needs more samples than the passes give.
SETUP_PROBES_PER_ROUND = 10

# Host-speed correction (README.md, "Host noise"): a sample's time is
# scaled by (CALIBRATION_REF_S / its calibration loop time) ** HOST_EXPONENT,
# i.e. reported as if the calibration loop had taken CALIBRATION_REF_S.
# The exponent comes from slow host phases on the 4-vCPU Xeon VM this
# was built on, where the simulator slowed 2.0x and the loop 1.6x:
# log 2.0 / log 1.6 = 1.47.
CALIBRATION_REF_S = 0.07
HOST_EXPONENT = 1.5

# One process of the slowest workload takes ~20 s on a slow host phase.
PROCESS_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(d):
        d = os.path.join(ROOT, d)
    return os.path.join(d, "e2ebench")


def build():
    """Configure (once) and build msim_e2e; return its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no simulator sources at src/ beside e2ebench/")
    out = build_dir()
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out])
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if r.returncode != 0:
            raise BenchError("build step failed: " + " ".join(cmd))
    exe = os.path.join(out, "msim_e2e")
    if not os.path.isfile(exe):
        raise BenchError("build produced no " + exe)
    return exe


def child_env():
    """The environment minus MSIM_* toggles, so passes run the defaults."""
    return {k: v for k, v in os.environ.items() if not k.startswith("MSIM_")}


def run_child(exe, mode, workload, expected_dir, extra=()):
    """One sample process: returns (record or None, text lines, stderr)."""
    cmd = [exe, mode, "--workload", workload, "--expected-dir",
           expected_dir, *extra]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           env=child_env(), timeout=PROCESS_TIMEOUT_S,
                           cwd=ROOT)
    except subprocess.TimeoutExpired:
        return None, [], "%s timed out after %d s" % (mode, PROCESS_TIMEOUT_S)
    lines = r.stdout.splitlines()
    if r.returncode != 0 or not lines:
        return None, lines, r.stderr.strip() or "exit code %d" % r.returncode
    try:
        return json.loads(lines[-1]), lines[:-1], r.stderr.strip()
    except json.JSONDecodeError:
        return None, lines, "unparsable result line: " + lines[-1]


def host_factor(calibration_s):
    """Multiplier that takes a time to the reference host speed."""
    return (CALIBRATION_REF_S / calibration_s) ** HOST_EXPONENT


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q = statistics.quantiles(values, n=4)
    return (q[2] - q[0]) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--expected-dir", default=os.path.join(HERE, "expected"))
    ap.add_argument("--regenerate-expected", action="store_true")
    args = ap.parse_args()

    if args.workload not in WORKLOADS:
        raise BenchError("unknown workload %r (known: %s)"
                         % (args.workload, ", ".join(WORKLOADS)))
    exe = build()
    expected_dir = os.path.abspath(args.expected_dir)

    if args.regenerate_expected:
        rec, text, err = run_child(exe, "pass", args.workload, expected_dir,
                                   ["--regenerate"])
        if rec is None:
            raise BenchError("regeneration failed: " + err)
        print("\n".join(text))
        return 0

    jobs = WORKLOADS[args.workload]
    problems = []  # one message per failed process or job
    setups = []
    passes, traces = [], []
    attempted = failed = 0
    accuracy = []
    start = time.monotonic()
    while True:
        round_start = time.monotonic()
        for _ in range(SETUP_PROBES_PER_ROUND):
            rec, _, err = run_child(exe, "setup", args.workload, expected_dir)
            if rec is None:
                raise BenchError("set-up probe failed: " + err)
            setups.append(rec["setup_s"])
        for mode in ("pass", "trace") if args.trace else ("pass",):
            rec, text, err = run_child(exe, mode, args.workload, expected_dir)
            attempted += jobs
            if rec is None:
                failed += jobs
                problems.append("%s process failed: %s" % (mode, err))
                continue
            failed += rec["failed"]
            problems.extend(rec["failures"])
            (passes if mode == "pass" else traces).append(rec)
            if mode == "pass" and not accuracy:
                accuracy = text
        # Start another round only if one as long as the last still
        # fits, so a run takes --seconds however long a pass is.
        now = time.monotonic()
        if now + (now - round_start) - start > args.seconds:
            break

    # Every process must simulate the same results: a pass or traced
    # run whose digest differs from the first pass's fails all its jobs.
    if passes:
        ref = passes[0]["digest"]
        for rec in passes[1:] + traces:
            if rec["digest"] != ref:
                failed += jobs
                problems.append("%s run's results differ from the first "
                                "pass's" % rec["mode"])

    for rec in passes + traces:
        host = dict(rec["host"], mode=rec["mode"], pass_s=rec["pass_s"])
        print("host: " + json.dumps(host, sort_keys=True))
    for line in accuracy:
        print(line)
    for p in problems:
        print("FAILED: " + p, file=sys.stderr)

    rates = [r["sim_instructions"] / r["pass_s"] / 1e6 for r in passes]
    if rates:
        print("passes: %d, uncorrected sim_minst_per_s per pass: %s "
              "(quartile spread %.1f%%)"
              % (len(rates), " ".join("%.3f" % x for x in rates),
                 100 * quartile_spread(rates)))

    metrics = {}
    if args.trace == 0 and passes:
        setups += [r["setup_s"] for r in passes]
        # All the run's simulated instructions over all its pass time,
        # each pass's time taken to the reference host speed.
        insts = sum(r["sim_instructions"] for r in passes)
        seconds = sum(r["pass_s"] * host_factor(r["host"]["calibration_s"])
                      for r in passes)
        calibration = statistics.median(r["host"]["calibration_s"]
                                        for r in passes)
        print("uncorrected: sim_minst_per_s %.4f, setup_s %.6f; median "
              "calibration loop %.4f s" % (
                  insts / sum(r["pass_s"] for r in passes) / 1e6,
                  statistics.median(setups), calibration))
        metrics = {
            "sim_minst_per_s": (insts / seconds / 1e6, "Minst/s"),
            "setup_s": (statistics.median(setups) * host_factor(calibration),
                        "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"]
                                              for r in passes), "MiB"),
        }
    elif args.trace == 1 and traces:
        units = layer_units()
        for name in units:
            if name == "traced.overhead_pct":
                continue
            metrics[name] = (statistics.median(t["layers"][name]
                                               for t in traces), units[name])
        if passes:
            pass_s = statistics.median(
                r["pass_s"] * host_factor(r["host"]["calibration_s"])
                for r in passes)
            traced_s = statistics.median(
                t["layers"]["traced.pass_s"]
                * host_factor(t["host"]["calibration_s"]) for t in traces)
            metrics["traced.overhead_pct"] = (100.0 * (traced_s / pass_s - 1),
                                              "%")
    if not metrics:
        failed = max(failed, 1)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in
                    metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def layer_units():
    """Per-layer metric names and units, as BENCHMARK.json lists them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        print("e2ebench: " + str(e), file=sys.stderr)
        sys.exit(2)
