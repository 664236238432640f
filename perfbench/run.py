#!/usr/bin/env python3
"""Repository benchmark entry point.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    python3 perfbench/run.py --self-test

Builds the library and the benchmark program from source into .bench_build
(an incremental no-op after the first build), runs one workload, checks its
outputs, prints a readable report, and prints as the last stdout line one
JSON object: {"correct", "attempted", "failed", "metrics"}. With --trace 0
the metrics are BENCHMARK.json's end_to_end list, with --trace 1 its
per_layer list. Workload names, their reasons, and every metric's unit come
from BENCHMARK.json. See perfbench/README.md for the layer map.
"""

import argparse
import json
import os
import subprocess
import sys
import time

BUILD_DIR = ".bench_build"
BINARY = os.path.join(BUILD_DIR, "perfbench")
# A seed that was never used while the benchmark or a change was tuned;
# confirm any claim on it as well.
HOLDOUT_SEED = 1009
# A run must end within 180 s; leave room to report.
RUN_DEADLINE_S = 175.0
# s = 40, dL = 18 exact-solver mean indegree committed in
# BENCH_analysis.json (degree_mc.after.points), compared to 1e-9.
REFERENCE_FILE = "BENCH_analysis.json"
REFERENCE_TOLERANCE = 1e-9


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def load_spec():
    with open("BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def build():
    """Configures (once) and builds the benchmark; returns True on success."""
    jobs = str(max(1, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            log(f"perfbench: build step failed: {e}")
            return False
        if proc.returncode != 0:
            log(f"perfbench: '{' '.join(cmd)}' exited {proc.returncode}")
            return False
    return True


def run_binary(args, deadline):
    """Runs the benchmark program; returns its last-line JSON, or None."""
    timeout = max(1.0, deadline - time.monotonic())
    try:
        proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log("perfbench: the benchmark program exceeded the run deadline")
        return None
    except OSError as e:
        log(f"perfbench: cannot run the benchmark program: {e}")
        return None
    if proc.returncode != 0:
        log(f"perfbench: the benchmark program exited {proc.returncode}")
        return None
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        log(line)
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log("perfbench: the benchmark program printed no result")
        return None


def check_reference(report):
    """Adds the BENCH_analysis.json mean-indegree check to the report."""
    failures = []
    try:
        with open(REFERENCE_FILE, encoding="utf-8") as f:
            points = json.load(f)["degree_mc"]["after"]["points"]
        reference = {p["loss"]: p["mean_in"] for p in points}
    except (OSError, KeyError, TypeError, ValueError) as e:
        reference = {}
        failures.append(f"cannot read the reference {REFERENCE_FILE}: {e}")
    measured = {p["loss"]: p["mean_in"] for p in report["detail"]["points"]
                if p["s"] == 40 and p["dL"] == 18}
    checked = 0
    for loss, want in sorted(reference.items()):
        if loss not in measured:
            continue
        checked += 1
        got = measured[loss]
        if abs(got - want) > REFERENCE_TOLERANCE:
            failures.append(f"s=40 mean_in at l={loss}: {got!r} vs committed "
                            f"{want!r}")
    if checked == 0 and not failures:
        failures.append("no s=40 point matches the committed reference")
    report["checks_run"] += max(checked, 1)
    report["check_failures"] += len(failures)
    report["failures"] += failures
    if failures:
        report["failed"] += 1
    for f in failures:
        log(f"check failed: {f}")


def git_state():
    if not os.path.isdir(".git"):
        return "unknown (not a git checkout)", None
    try:
        head = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        status = subprocess.run(["git", "status", "--porcelain",
                                 "--untracked-files=no"],
                                capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown", None
    if head.returncode != 0:
        return "unknown", None
    return head.stdout.strip(), bool(status.stdout.strip())


def print_report(spec, workload, report, metric_specs):
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload)
    manifest = report["manifest"]
    print(f"workload {workload}: {why}")
    print("manifest: " + ", ".join(f"{k}={v}" for k, v in manifest.items()))
    l3 = manifest["l3_bytes"]
    if l3:
        print(f"working set: view slab {manifest['slab_bytes'] / 2**20:.1f} "
              f"MiB (computed from array sizes) vs L3 {l3 / 2**20:.0f} MiB "
              f"= {manifest['slab_bytes'] / l3:.2f}x")
    title = "per-layer (traced run)" if report["trace"] else "end-to-end"
    print(f"{title}:")
    for m in metric_specs:
        value = report["metrics"][m["name"]]
        print(f"  {m['name']:42s} {value:>16.6g} {m['unit']}")
    detail = report["detail"]
    for key in ("verdict", "traced_verdict"):
        if key in detail:
            print(f"{key}: " + ", ".join(f"{k}={v}"
                                         for k, v in detail[key].items()))
    print(f"checks: {report['checks_run'] - report['check_failures']}/"
          f"{report['checks_run']} passed; operations {report['attempted']} "
          f"attempted, {report['failed']} failed")
    for f in report["failures"]:
        print(f"  FAILED: {f}")


def run_workload(spec, workload, seed, seconds, trace, quick, deadline):
    names = [w["name"] for w in spec["workloads"]]
    if workload not in names:
        log(f"perfbench: unknown workload '{workload}' (one of {names})")
        return None
    args = ["--workload", workload, "--seed", str(seed), "--seconds",
            str(seconds), "--trace", "1" if trace else "0"]
    if quick:
        args.append("--quick")
    report = run_binary(args, deadline)
    if report is None:
        return None
    if workload == "certify_thresholds":
        check_reference(report)
    commit, dirty = git_state()
    report["manifest"]["commit"] = commit
    report["manifest"]["dirty"] = dirty
    report["manifest"]["holdout_seed"] = HOLDOUT_SEED
    metric_specs = spec["per_layer"] if trace else spec["end_to_end"]
    missing = [m["name"] for m in metric_specs
               if m["name"] not in report["metrics"]]
    if missing:
        log(f"perfbench: the benchmark program did not report {missing}")
        return None
    print_report(spec, workload, report, metric_specs)
    result = {
        "correct": report["failed"] == 0 and report["check_failures"] == 0,
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {m["name"]: {"value": report["metrics"][m["name"]],
                                "unit": m["unit"]} for m in metric_specs},
    }
    return result


def self_test(spec):
    """Quick mode: every workload end to end, untraced and traced, with every
    check; then the observer-replay equivalence test at 1 and 4 workers."""
    ok = True
    for w in spec["workloads"]:
        for trace in (False, True):
            deadline = time.monotonic() + RUN_DEADLINE_S
            result = run_workload(spec, w["name"], 1, 2, trace, True,
                                  deadline)
            good = result is not None and result["correct"]
            log(f"self-test {w['name']} trace={int(trace)}: "
                f"{'PASS' if good else 'FAIL'}")
            ok = ok and good
    try:
        replay = subprocess.run([BINARY, "--replay-test"], timeout=170)
        replay_ok = replay.returncode == 0
    except (OSError, subprocess.TimeoutExpired):
        replay_ok = False
    log(f"self-test observer replay: {'PASS' if replay_ok else 'FAIL'}")
    return ok and replay_ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="tiny n, for checking the benchmark itself")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    deadline = time.monotonic() + RUN_DEADLINE_S

    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        log("perfbench: run from the root of a full checkout (src/ missing)")
        return 2
    try:
        spec = load_spec()
    except (OSError, ValueError) as e:
        log(f"perfbench: cannot read BENCHMARK.json: {e}")
        return 2
    if not build():
        return 1
    if args.self_test:
        return 0 if self_test(spec) else 1
    if not args.workload:
        log("perfbench: --workload is required")
        return 2
    if args.seed < 0 or not 0 < args.seconds <= 600:
        log("perfbench: --seed must be >= 0 and --seconds in (0, 600]")
        return 2
    result = run_workload(spec, args.workload, args.seed, args.seconds,
                          args.trace == 1, args.quick, deadline)
    if result is None:
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
