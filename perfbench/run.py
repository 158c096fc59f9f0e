#!/usr/bin/env python3
"""The InFilter repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke      # all workloads at toy size, seconds
    python3 perfbench/run.py --selftest   # the benchmark's own arithmetic tests

Builds the benchmark package (perfbench/CMakeLists.txt, which compiles the
InFilter libraries from ../src) into .bench_build/perfbench, runs the benchmark
under a watchdog, checks that it reported exactly the metrics BENCHMARK.json
names, and prints the binary's JSON result as the last line of stdout. With
--trace 1 it also prints the per-layer table with each metric's target
(perfbench/targets.json). See perfbench/README.md.
"""

import argparse
import json
import os
import re
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
RESULTS = os.path.join(ROOT, ".bench_build", "results")
WORKLOADS = ["wide_fused_replay", "live_ingest"]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds the binary; returns False on failure."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "perfbench_selftest",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
        if done.returncode != 0:
            log(done.stdout[-4000:])
            log("perfbench: build failed: " + " ".join(step))
            return False
    return True


def build_refusal():
    """Why this build must not report numbers, or None."""
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as cache:
            text = cache.read()
    except OSError:
        return "no CMakeCache.txt"
    build_type = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", text, re.M)
    if build_type and build_type.group(1).strip().lower() == "debug":
        return "Debug build"
    if "-fsanitize" in text:
        return "sanitizer build"
    return None


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def print_layer_table(metrics):
    with open(os.path.join(HERE, "targets.json")) as f:
        targets = json.load(f)["per_layer"]
    print(f"{'per-layer metric':34s} {'value':>16s}  unit    should move")
    for name, m in metrics.items():
        t = targets.get(name, {})
        moves = ", ".join(t.get("moves", [])) or "-"
        on = ", ".join(t.get("on", []))
        print(f"{name:34s} {m['value']:16.4f}  {m['unit']:7s} {moves}{' on ' + on if on else ''}")


def run_binary(workload, seed, seconds, trace, smoke=False):
    """Runs one measurement; returns (exit code, result dict or None)."""
    cmd = [os.path.join(BUILD, "perfbench"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out-dir", RESULTS]
    if smoke:
        cmd.append("--smoke")
    # Watchdog: a healthy run takes about --seconds plus 10 s of generation
    # and warm-up; a hang is killed and reported as a failed operation, and
    # the whole command still ends inside 180 s.
    limit = min(2 * seconds + 60, 150)
    child = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = child.communicate(timeout=limit)
    except subprocess.TimeoutExpired:
        child.kill()
        out, _ = child.communicate()
        sys.stdout.write(out)
        log(f"perfbench: watchdog killed {workload} seed {seed} after {limit} s")
        return 3, {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    lines = out.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except (json.JSONDecodeError, IndexError):
        sys.stdout.write(out)
        log(f"perfbench: binary exited {child.returncode} without a result")
        return child.returncode or 1, None
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    want = expected_metrics(trace)
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != want:
        log(f"perfbench: metrics differ from BENCHMARK.json: missing "
            f"{sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
            f"units {sorted(k for k in want if k in got and got[k] != want[k])}")
        result["correct"] = False
    if trace:
        print_layer_table(result["metrics"])
    code = child.returncode if child.returncode != 0 else (0 if result["correct"] else 1)
    return code, result


def selftest():
    done = subprocess.run([os.path.join(BUILD, "perfbench_selftest")])
    return done.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.smoke or args.selftest):
        parser.error("one of --workload, --smoke or --selftest is required")

    if not build():
        return 2
    refusal = build_refusal()
    if refusal:
        log(f"perfbench: refusing to report from a {refusal}")
        return 2
    if not selftest():
        return 2
    if args.selftest:
        return 0

    if args.smoke:
        failures = 0
        for workload in WORKLOADS:
            for trace in (0, 1):
                start = time.time()
                code, result = run_binary(workload, args.seed, 1, trace, smoke=True)
                ok = code == 0 and result is not None and result["correct"]
                failures += 0 if ok else 1
                print(f"smoke {workload} trace={trace}: {'ok' if ok else 'FAILED'} "
                      f"({time.time() - start:.1f} s)", flush=True)
        return 1 if failures else 0

    code, result = run_binary(args.workload, args.seed, args.seconds, args.trace)
    if result is not None:
        print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
