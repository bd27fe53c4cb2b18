#!/usr/bin/env python3
"""Build and run one workload of the CHAOS end-to-end benchmark.

    python3 perfbench/run.py --workload wire_fleet --seed 7 --seconds 10 --trace 0

Run from the root of a source checkout. The first call configures and
builds perfbench/ (the library sources under src/ plus the benchmark
binary) into $CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench,
and runs the benchmark's self-tests; later calls only rebuild what
changed.

--trace 0 runs the workload once, untraced, in a fresh process and
reports the end-to-end metrics. --trace 1 runs it twice, each in a fresh
process: untraced, then with spans recorded around the calls into the
library. It reports the per-layer metrics of the traced run, the
per-module self-time table and the tracing overhead (traced minus
untraced) of every end-to-end metric.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. The full record of each run
(host, gates, diagnostics, self time) is written to
<build>/results/. Exits 0 only when every correctness gate passed.
"""

import argparse
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("wire_fleet", "replay_fleet", "train_cluster")

def process_timeout(seconds):
    """Limit on one measured process: five set-ups, then up to 2.5 times
    --seconds of measuring (wire_fleet's closed loop, then its open loop
    extended to find quiet windows; replay_fleet's minimum episodes)."""
    return 60.0 + 2.5 * seconds


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_logged(cmd, timeout):
    """Run a build step with its output on stderr; True on success."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as err:
        log(f"{cmd[0]}: {err}")
        return False
    return proc.returncode == 0


def build(out):
    """Configure (once) and build the benchmark and its self-tests."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("no library sources next to perfbench/: nothing to build")
        return False
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if not run_logged(cmd, 300):
            return False
    jobs = str(os.cpu_count() or 2)
    return run_logged(["cmake", "--build", out, "-j", jobs], 850)


def git_commit():
    """HEAD of the checkout's own .git, read without leaving it."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as f:
            for line in f:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    except OSError:
        pass
    return "unknown"


def run_workload(binary, args, traced, results):
    """One fresh process; returns its JSON record or None."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "1" if traced else "0",
           "--out-dir", results]
    timeout = process_timeout(args.seconds)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=timeout, check=False)
    except subprocess.TimeoutExpired:
        log(f"{args.workload} did not finish within {timeout:.0f} s")
        return None
    lines = proc.stdout.rstrip("\n").split("\n")
    try:
        record = json.loads(lines[-1])
    except (ValueError, IndexError):
        log(f"{args.workload} printed no result (exit {proc.returncode})")
        return None
    for line in lines[:-1]:
        print(line)
    record["exit_code"] = proc.returncode
    return record


def finite(metrics):
    return all(isinstance(m.get("value"), (int, float)) and
               math.isfinite(m["value"]) for m in metrics.values())


def declared_names(section):
    """Metric names BENCHMARK.json declares, when it is present."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
            return [m["name"] for m in json.load(f)[section]]
    except (OSError, ValueError, KeyError):
        return None


def print_overhead(untraced, traced):
    print("tracing overhead (traced - untraced, end-to-end):")
    for name, base in untraced["end_to_end"].items():
        with_spans = traced["end_to_end"].get(name, {}).get("value")
        if with_spans is None:
            continue
        delta = with_spans - base["value"]
        pct = 100.0 * delta / base["value"] if base["value"] else float("nan")
        print(f"  {name:<20} {base['value']:>14.6g} -> {with_spans:<14.6g}"
              f" {delta:+.6g} {base['unit']} ({pct:+.2f}%)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = build_dir()
    if not build(out):
        log("build failed")
        return 2
    selftest = subprocess.run([os.path.join(out, "perfbench_selftest")],
                              stdout=subprocess.DEVNULL, stderr=sys.stderr,
                              check=False)
    if selftest.returncode != 0:
        log("benchmark self-tests failed")
        return 2

    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    binary = os.path.join(out, "chaosbench")
    records = [run_workload(binary, args, False, results)]
    if args.trace and records[0] is not None:
        records.append(run_workload(binary, args, True, results))
    if any(r is None for r in records):
        return 1

    commit = git_commit()
    for r in records:
        r["host"]["git_commit"] = commit
        suffix = "-traced" if r["traced"] else ""
        path = os.path.join(results,
                            f"{args.workload}-seed{args.seed}{suffix}.json")
        with open(path, "w", encoding="utf-8") as f:
            json.dump(r, f, indent=1)
    print(f"git commit: {commit}")

    final = records[-1]
    section = "per_layer" if args.trace else "end_to_end"
    metrics = final[section]
    if args.trace:
        print_overhead(records[0], final)
    declared = declared_names(section)
    missing = [n for n in declared or [] if n not in metrics]
    if missing:
        log(f"metrics missing from the run: {', '.join(missing)}")
    correct = (all(r["correct"] and r["exit_code"] == 0 for r in records)
               and finite(metrics) and not missing)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(int(r["attempted"]) for r in records),
        "failed": sum(int(r["failed"]) for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
