#!/usr/bin/env python3
"""Builds and runs the rc4b benchmark for one workload (README.md here).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The benchmark is compiled from the
checkout's sources into .bench_build/ (first run only; later runs rebuild
incrementally), then the rc4b_perfbench binary runs the workload. Its last
stdout line is checked against BENCHMARK.json — every end-to-end metric (--trace 0)
or every per-layer metric (--trace 1), each with its declared unit — and
printed as this script's last line. Exits nonzero, without a result line,
when the build or the run fails or the result does not match.
"""

import argparse
import json
import math
import os
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 170


def expected_metrics(benchmark, trace):
    """Name -> unit of the metrics a run with this --trace must print."""
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in benchmark[key]}


def validate_result(line, expected):
    """Parses rc4b_perfbench's result line; returns (result, error)."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as e:
        return None, f"result line is not JSON: {e}"
    if not isinstance(result, dict) or set(result) != {
            "correct", "attempted", "failed", "metrics"}:
        return None, "result must have exactly correct, attempted, failed, metrics"
    if not isinstance(result["correct"], bool):
        return None, "correct must be a boolean"
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            return None, f"{key} must be a whole number"
    if result["attempted"] < 1 or not 0 <= result["failed"] <= result["attempted"]:
        return None, "need attempted >= 1 and 0 <= failed <= attempted"
    metrics = result["metrics"]
    if not isinstance(metrics, dict) or set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics or {}))
        extra = sorted(set(metrics or {}) - set(expected))
        return None, f"metric set differs: missing {missing}, unexpected {extra}"
    for name, unit in expected.items():
        entry = metrics[name]
        if not isinstance(entry, dict) or set(entry) != {"value", "unit"}:
            return None, f"{name}: need exactly value and unit"
        if entry["unit"] != unit:
            return None, f"{name}: unit {entry['unit']!r}, declared {unit!r}"
        value = entry["value"]
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            return None, f"{name}: value must be a finite number"
    return result, None


def git_rev():
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    return out.stdout.strip() if out.returncode == 0 else "none"


def build(build_dir):
    """Configures (once) and builds the benchmark; returns the binary path."""
    jobs = str(os.cpu_count() or 1)
    if not (build_dir / "CMakeCache.txt").exists():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(build_dir),
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "rc4b_perfbench", "-j", jobs], check=True, stdout=sys.stderr)
    return build_dir / "rc4b_perfbench"


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "engine" / "keystream_engine.cc").exists():
        print(f"rc4b sources not found under {ROOT / 'src'}: run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = {w["name"] for w in benchmark["workloads"]}
    if args.workload not in workloads:
        print(f"unknown workload {args.workload}; one of {sorted(workloads)}",
              file=sys.stderr)
        return 2

    build_dir = ROOT / ".bench_build" / "perfbench"
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"build failed: {e}", file=sys.stderr)
        return 2

    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--scratch-dir", str(ROOT / ".bench_build" / "perfbench-runs"),
           "--git-rev", git_rev()]
    # Own process group, so a timeout also stops the campaign's forked
    # workers; the group is always waited for before returning.
    run = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, cwd=ROOT, start_new_session=True)
    try:
        stdout, stderr = run.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(run.pid, signal.SIGKILL)
        run.communicate()
        print(f"run exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
        return 1
    sys.stderr.write(stderr)
    lines = stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    if run.returncode != 0 or not lines:
        print(f"rc4b_perfbench exited with {run.returncode}", file=sys.stderr)
        if lines:
            print(f"# {lines[-1]}")
        return run.returncode or 1
    result, error = validate_result(lines[-1],
                                    expected_metrics(benchmark, args.trace))
    if error:
        print(f"invalid result: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
