#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload ctl-small --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the repository root. The first run configures and builds the
program and the benchmark binary (CMake, Release) into .bench_build/perfbench;
later runs rebuild incrementally. The binary's report goes to stdout and its
last line is the result JSON, checked here against BENCHMARK.json before it
is printed. Exits non-zero when the build fails, a request fails, an output
check fails or the result does not match BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
RUN_TIMEOUT_S = 175
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; returns the build directory."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"program sources not found under {ROOT / 'src'}")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(ROOT / "perfbench"), "-B",
                      str(BUILD_DIR), "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, check=False)
        if done.returncode != 0:
            raise RuntimeError(f"build step failed: {' '.join(step)}")
    return BUILD_DIR


def source_id():
    """Git commit when available, else a digest of the program sources."""
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=False)
        if head.returncode == 0 and head.stdout.strip():
            return head.stdout.strip()
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return "src-sha256-" + digest.hexdigest()[:16]


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = spec["per_layer"] if trace else spec["end_to_end"]
    return {row["name"]: row["unit"] for row in rows}


def check_result(line, trace):
    """Returns a list of problems with the binary's result line."""
    try:
        result = json.loads(line)
    except json.JSONDecodeError as err:
        return [f"last line is not JSON: {err}"]
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return [f"result keys are not {sorted(RESULT_KEYS)}"]
    problems = []
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    expected = expected_metrics(trace)
    metrics = result["metrics"]
    if set(metrics) != set(expected):
        missing = sorted(set(expected) - set(metrics))
        extra = sorted(set(metrics) - set(expected))
        problems.append(f"metric names differ: missing {missing}, extra {extra}")
    for name, body in metrics.items():
        if name in expected and body.get("unit") != expected[name]:
            problems.append(f"{name}: unit {body.get('unit')!r}, "
                            f"expected {expected[name]!r}")
        if not isinstance(body.get("value"), (int, float)):
            problems.append(f"{name}: value is not a number")
    if result["correct"] is not True:
        problems.append("correctness checks failed")
    return problems


def run_binary(build_dir, workload, seed, seconds, trace, smoke=False):
    """Runs one measurement; echoes the report and returns the exit code and
    the result line (None when the binary printed none)."""
    command = [str(build_dir / "perfbench"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds),
               "--trace", "1" if trace else "0", "--commit", source_id()]
    if smoke:
        command.append("--smoke")
    try:
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        log(f"{workload}: no result within {RUN_TIMEOUT_S} s")
        return 1, None
    sys.stderr.write(done.stderr)
    lines = done.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if not lines:
        log(f"{workload}: binary printed nothing (exit {done.returncode})")
        return done.returncode or 1, None
    problems = check_result(lines[-1], trace)
    for problem in problems:
        log(f"{workload}: {problem}")
    return (done.returncode or int(bool(problems))), lines[-1]


def self_test(build_dir):
    """The arithmetic self-test plus a smoke run of every workload."""
    done = subprocess.run([str(build_dir / "perfbench_selftest")], cwd=ROOT,
                          check=False)
    failures = 0 if done.returncode == 0 else 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (False, True):
            start = time.monotonic()
            code, _ = run_binary(build_dir, workload, 1, 1, trace, smoke=True)
            status = "ok" if code == 0 else f"FAILED ({code})"
            log(f"smoke {workload} trace={int(trace)}: {status} in "
                f"{time.monotonic() - start:.1f} s")
            failures += code != 0
    return 0 if failures == 0 else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    try:
        build_dir = build()
    except (RuntimeError, OSError) as err:
        log(str(err))
        return 2
    if args.self_test:
        return self_test(build_dir)
    code, result = run_binary(build_dir, args.workload, args.seed,
                              args.seconds, bool(args.trace))
    if result is not None:
        print(result, flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
