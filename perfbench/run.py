#!/usr/bin/env python3
"""Build and run the repository's serving benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds perfbench/ with CMake (Release) into <checkout>/$CARGO_TARGET_DIR/
perfbench (default .bench_build/perfbench), runs gcod_perfbench with the
engine's environment overrides cleared, and checks that the summary line
names exactly the metrics BENCHMARK.json lists for the run's mode. The last
line of stdout is the JSON summary. Exit status: 0 on success, 1 when a
correctness, determinism or metric check fails, 2 on a usage or build
error, 3 when the run overruns its time limit.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Environment the engine reads at run time; a stray value would change
# tracing, fault injection or the kernel pool size under the benchmark.
PINNED_ENV = ("GCOD_TRACE", "GCOD_FAULT_SEED", "GCOD_THREADS")
RUN_TIMEOUT_S = 170
WORKLOADS = ("sampled_sage", "zoo_refresh", "live_updates")


def die(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    # Only a relative directory inside the checkout is honoured.
    if target.is_absolute() or ".." in target.parts:
        target = Path(".bench_build")
    return ROOT / target / "perfbench"


def build():
    if not (ROOT / "src" / "serve" / "engine.hpp").is_file():
        die("library sources (src/) not found next to perfbench/; "
            "run from a full checkout", 2)
    out = build_dir()
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release", *generator])
    steps.append(["cmake", "--build", str(out), "-j", "4"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the JSON summary.
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT).returncode != 0:
            die("build failed: " + " ".join(cmd), 2)
    return out / "gcod_perfbench"


def child_env():
    env = dict(os.environ)
    for key in PINNED_ENV:
        env.pop(key, None)
    return env


def run_binary(binary, args):
    try:
        proc = subprocess.run([str(binary), *args], stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S,
                              env=child_env(), cwd=ROOT)
    except subprocess.TimeoutExpired:
        die(f"run exceeded {RUN_TIMEOUT_S} s and was stopped", 3)
    return proc.returncode, proc.stdout.splitlines()


def expected_metrics(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["end_to_end" if trace == 0 else "per_layer"]}


def summary_of(lines):
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def check_summary(lines, trace):
    """Problems with a run's summary line, as a list of messages."""
    summary = summary_of(lines)
    if summary is None:
        return ["no JSON summary on the last line"]
    if not summary.get("correct"):
        return ["the run reported correct=false"]
    names = set(summary["metrics"])
    want = expected_metrics(trace)
    problems = []
    if names != want:
        problems.append("metrics differ from BENCHMARK.json: missing "
                        f"{sorted(want - names)}, unlisted {sorted(names - want)}")
    for name, metric in summary["metrics"].items():
        value = metric.get("value")
        if not isinstance(value, (int, float)) or value != value:
            problems.append(f"{name} has no numeric value")
    return problems


def bench(args):
    binary = build()
    trace = args.trace
    code, lines = run_binary(binary, [
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(trace)])
    if code != 0:
        print("\n".join(lines))
        sys.exit(code)
    problems = check_summary(lines, trace)
    if problems:
        print("\n".join(lines[:-1]))
        die("; ".join(problems), 1)
    print("\n".join(lines))
    return 0


def signature(lines):
    for line in lines:
        match = re.search(r"signature (0x[0-9a-f]+)", line)
        if match:
            return match.group(1)
    return None


def selftest():
    """Percentile helper, a tiny run of each workload, cross-process
    determinism and a traced run with its tracing overhead."""
    binary = build()
    failures = []

    code, lines = run_binary(binary, ["--selftest"])
    print("\n".join(lines))
    if code != 0:
        failures.append("percentile/determinism helper self-test")

    tiny = ["--seed", "7", "--seconds", "1"]
    signatures = {}
    for workload in WORKLOADS:
        code, lines = run_binary(binary, ["--workload", workload, *tiny,
                                          "--trace", "0"])
        problems = check_summary(lines, 0) if code == 0 else [f"exit {code}"]
        print(f"smoke {workload}: {'ok' if not problems else problems}")
        if problems:
            failures.append(f"smoke {workload}")
        signatures[workload] = signature(lines)

    # Same seed in a second process: identical dispatch, precision,
    # batch and dyn/shard outcomes; another seed: different requests.
    code, lines = run_binary(binary, ["--workload", "sampled_sage", *tiny,
                                      "--trace", "0"])
    same = code == 0 and signature(lines) == signatures["sampled_sage"]
    code, lines = run_binary(binary, ["--workload", "sampled_sage", "--seed",
                                      "8", "--seconds", "1", "--trace", "0"])
    other = code == 0 and signature(lines) != signatures["sampled_sage"]
    print(f"determinism across processes: same seed "
          f"{'identical' if same else 'DIFFERENT'}, other seed "
          f"{'different' if other else 'IDENTICAL'}")
    if not (same and other):
        failures.append("cross-process determinism")

    code, lines = run_binary(binary, ["--workload", "live_updates", *tiny,
                                      "--trace", "1"])
    problems = check_summary(lines, 1) if code == 0 else [f"exit {code}"]
    summary = summary_of(lines) or {}
    overhead = summary.get("metrics", {}).get("obs.trace_overhead", {})
    print(f"traced smoke live_updates: {'ok' if not problems else problems}; "
          f"obs.trace_overhead = {overhead.get('value')}")
    if problems:
        failures.append("traced smoke")

    print("selftest:", "ok" if not failures else "FAILED " + ", ".join(failures))
    return 0 if not failures else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    if args.workload is None:
        parser.error("--workload is required")
    return bench(args)


if __name__ == "__main__":
    sys.exit(main())
