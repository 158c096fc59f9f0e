#!/usr/bin/env python3
"""Collate BENCH_*.json perf files into one trajectory document, and
validate flight-recorder trace exports.

Collation (default mode):

    scripts/bench_summary.py [--dir build] [--out BENCH_summary.json]
                             [--expect NAME ...]

  Scans --dir (recursively) for BENCH_*.json files written by the bench
  binaries, and writes one {"benches": {name: doc, ...}} document plus a
  flat "trajectory" list of every records_per_sec / speedup headline it
  finds -- the file a perf dashboard or a later PR's regression check can
  diff in one read.

  An unparseable BENCH_*.json is an error (exit 1), not something to
  silently collate around -- a truncated file means a bench crashed
  mid-write. --expect NAME (repeatable; NAME with or without the
  BENCH_/.json decoration) additionally fails the run when that bench
  document was not found at all. --expect NAME:key1,key2 further fails
  when no run in that document carries every listed key -- e.g.
  `--expect throughput:producers,shard_queue_peak_min,shard_queue_peak_max`
  gates on the multi-producer occupancy fields being recorded.

Trace validation:

    scripts/bench_summary.py --validate-trace TRACE.json [--against BENCH.json]

  Asserts TRACE.json is valid Chrome trace-event JSON of the shape
  Perfetto loads ({"traceEvents": [...]}, every "X" event carrying
  name/ph/pid/tid/ts/dur), that each journey's spans tile (every span
  starts where the previous one ended), and -- when --against names the
  bench document -- that the per-journey span durations sum to the
  exported e2e latency histogram within tolerance. Exit 0 = valid.
"""

import argparse
import json
import os
import sys

# Perfetto's trace-event importer needs these on every complete ("X") event.
REQUIRED_X_KEYS = ("name", "ph", "pid", "tid", "ts", "dur")


def collate(root, out_path, expected):
    benches = {}
    broken = []
    for dirpath, _dirnames, filenames in os.walk(root):
        for filename in sorted(filenames):
            if not (filename.startswith("BENCH_") and filename.endswith(".json")):
                continue
            if filename.endswith("_trace.json") or filename == os.path.basename(out_path):
                continue
            path = os.path.join(dirpath, filename)
            try:
                with open(path) as f:
                    doc = json.load(f)
            except (OSError, json.JSONDecodeError) as error:
                print(f"bench_summary: error: cannot read {path}: {error}",
                      file=sys.stderr)
                broken.append(path)
                continue
            benches[filename[len("BENCH_"):-len(".json")]] = doc

    # Normalize --expect names ("ttl_detect", "BENCH_ttl_detect.json", ...)
    # to the bare bench name used as the benches key. "NAME:key1,key2"
    # additionally requires a run carrying every listed key.
    missing = []
    for name in expected:
        spec = name.split(":", 1)
        bare = os.path.basename(spec[0])
        if bare.startswith("BENCH_"):
            bare = bare[len("BENCH_"):]
        if bare.endswith(".json"):
            bare = bare[:-len(".json")]
        if bare not in benches:
            missing.append(name)
            continue
        if len(spec) == 2:
            keys = [k for k in spec[1].split(",") if k]
            runs = benches[bare].get("runs", [])
            if not any(all(k in run for k in keys) for run in runs):
                print(f"bench_summary: error: no run in bench '{bare}' carries "
                      f"all of {keys}", file=sys.stderr)
                missing.append(name)
    for name in missing:
        print(f"bench_summary: error: expectation '{name}' not met under "
              f"{root}", file=sys.stderr)
    if broken or missing:
        return 1

    trajectory = []
    for name, doc in sorted(benches.items()):
        for run in doc.get("runs", []):
            point = {"bench": name, "mode": run.get("mode", "?")}
            for key in ("records_per_sec", "flows_per_sec", "speedup_vs_serial",
                        "throughput_vs_untraced", "seconds", "producers",
                        "shard_queue_peak_min", "shard_queue_peak_max",
                        "memory_bytes", "lookup_ns_per_flow", "resizes",
                        "migrated_entries", "resize_pause_p99_us",
                        "entries_expired", "entries_relearned",
                        "min_detection_rate", "benign_suspect_delta"):
                if key in run:
                    point[key] = run[key]
            trajectory.append(point)

    summary = {"benches": benches, "trajectory": trajectory}
    with open(out_path, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"bench_summary: {len(benches)} bench file(s), "
          f"{len(trajectory)} trajectory point(s) -> {out_path}")
    return 0


def validate_trace(trace_path, against_path, tolerance_us):
    with open(trace_path) as f:
        doc = json.load(f)  # a parse error here is the failure we're testing for
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        print("bench_summary: traceEvents missing or not a list", file=sys.stderr)
        return 1

    spans = [e for e in events if e.get("ph") == "X"]
    for event in spans:
        missing = [k for k in REQUIRED_X_KEYS if k not in event]
        if missing:
            print(f"bench_summary: X event missing {missing}: {event}", file=sys.stderr)
            return 1

    # Per-journey tiling: sorted by start, span N+1 begins where span N ends
    # (the pipeline re-stamps hop_ns at every hand-off, so any gap or
    # overlap beyond export rounding is a plumbing bug).
    journeys = {}
    for event in spans:
        journeys.setdefault(event.get("args", {}).get("id"), []).append(event)
    span_sum_us = 0.0
    for journey_id, journey in journeys.items():
        journey.sort(key=lambda e: e["ts"])
        for prev, nxt in zip(journey, journey[1:]):
            gap = abs(prev["ts"] + prev["dur"] - nxt["ts"])
            if gap > 0.002:  # export prints microseconds with 3 decimals
                print(f"bench_summary: journey {journey_id} spans do not tile "
                      f"(gap {gap:.3f}us)", file=sys.stderr)
                return 1
        span_sum_us += sum(e["dur"] for e in journey)

    checked = f"{len(spans)} spans over {len(journeys)} journey(s)"
    if against_path:
        with open(against_path) as f:
            bench = json.load(f)
        trace = bench.get("trace", {})
        e2e_sum = trace.get("e2e_sum_us")
        if trace.get("journeys") != len(journeys):
            print(f"bench_summary: {len(journeys)} journeys in the trace, "
                  f"{trace.get('journeys')} in the e2e histogram", file=sys.stderr)
            return 1
        if e2e_sum is None or abs(span_sum_us - e2e_sum) > tolerance_us:
            print(f"bench_summary: span durations sum to {span_sum_us:.3f}us, "
                  f"e2e histogram to {e2e_sum}us (tolerance {tolerance_us}us)",
                  file=sys.stderr)
            return 1
        checked += f"; span sum {span_sum_us:.1f}us == e2e sum {e2e_sum:.1f}us"
    print(f"bench_summary: {trace_path} OK ({checked})")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--dir", default=".", help="directory to scan for BENCH_*.json")
    parser.add_argument("--out", default="BENCH_summary.json")
    parser.add_argument("--expect", action="append", default=[],
                        metavar="NAME[:KEY,...]",
                        help="fail unless this bench document was collated "
                             "(repeatable; with or without BENCH_/.json); "
                             "NAME:key1,key2 also requires a run carrying "
                             "every listed key")
    parser.add_argument("--validate-trace", metavar="TRACE_JSON",
                        help="validate a Chrome trace-event export instead of collating")
    parser.add_argument("--against", metavar="BENCH_JSON",
                        help="bench document with the e2e histogram to cross-check")
    parser.add_argument("--tolerance-us", type=float, default=None,
                        help="span-sum vs e2e-sum tolerance (default: 0.1%% of e2e sum, "
                             "min 5us -- double rounding at 3 decimals per span)")
    args = parser.parse_args()

    if args.validate_trace:
        tolerance = args.tolerance_us
        if tolerance is None and args.against:
            with open(args.against) as f:
                e2e_sum = json.load(f).get("trace", {}).get("e2e_sum_us") or 0.0
            tolerance = max(5.0, 0.001 * e2e_sum)
        return validate_trace(args.validate_trace, args.against, tolerance or 5.0)
    return collate(args.dir, args.out, args.expect)


if __name__ == "__main__":
    sys.exit(main())
