#!/usr/bin/env bash
# Local CI: the tier-1 gate plus sanitizer lanes.
#
#   scripts/check.sh             # tier-1: release build + full ctest
#   scripts/check.sh --asan      # + AddressSanitizer lane (full suite)
#   scripts/check.sh --tsan      # + ThreadSanitizer lane (runtime tests)
#   scripts/check.sh --ubsan     # + UndefinedBehaviorSanitizer lane (full suite)
#   scripts/check.sh --producers # + TSan multi-producer sweep only (the
#                                #   shard-ring merge, shards x producers
#                                #   equivalence, flush/snapshot-under-load,
#                                #   the early-stop and oversized-claim
#                                #   liveness cases, and multi-receiver
#                                #   ingest tests)
#   scripts/check.sh --soak      # + TSan lifecycle lane: resize vs live
#                                #   producers, aging properties, and the
#                                #   short churn-soak harness tests
#   scripts/check.sh --all       # tier-1 + asan + tsan + ubsan + soak
#
# The TSan lane runs the concurrency tests only (Runtime/Node/Ingest/Trace):
# the full suite under TSan takes far longer and the single-threaded
# tests cannot race. --producers is the focused subset to iterate on when
# touching the multi-producer dispatch path (a strict subset of --tsan's
# filter, so --all already covers it).
#
# Every requested lane runs even when an earlier one fails; the script
# names the failed lanes at the end and exits non-zero if there are any.

set -uo pipefail
cd "$(dirname "$0")/.."

run_asan=0
run_tsan=0
run_ubsan=0
run_producers=0
run_soak=0
for arg in "$@"; do
  case "$arg" in
    --asan) run_asan=1 ;;
    --tsan) run_tsan=1 ;;
    --ubsan) run_ubsan=1 ;;
    --producers) run_producers=1 ;;
    --soak) run_soak=1 ;;
    --all) run_asan=1; run_tsan=1; run_ubsan=1; run_soak=1 ;;
    *) echo "usage: scripts/check.sh [--asan] [--tsan] [--ubsan] [--producers] [--soak] [--all]" >&2; exit 2 ;;
  esac
done

jobs="$(nproc 2>/dev/null || echo 2)"

# Each lane is one && chain: it stops at its own first failing step.
tier1() {
  cmake --preset release &&
    cmake --build --preset release -j "$jobs" &&
    ctest --preset release
}

asan() {
  cmake --preset asan &&
    cmake --build --preset asan -j "$jobs" &&
    ctest --preset asan
}

tsan_build() {
  cmake --preset tsan && cmake --build --preset tsan -j "$jobs"
}

tsan() {
  # EiaTable*/EiaIo* ride along so the EIA sets (engine-private state the
  # shard sweeps exercise concurrently) get sanitizer coverage next to the
  # runtime tests.
  tsan_build &&
    ./build-tsan/tests/infilter_tests \
      --gtest_filter='ShardedRuntime*:SpscRing*:InFilterNode*:Ingest*:Tracer*:TraceRuntime*:TraceRing*:ThreadLane*:EiaTable*:EiaIo*'
}

producers() {
  tsan_build &&
    ./build-tsan/tests/infilter_tests \
      --gtest_filter='ShardedRuntime.MergeKeepsSeqStrictlyMonotonePerShard:ShardedRuntime.MultiProducerSweepReplaysIdenticalAlertStream:ShardedRuntime.SnapshotAndFlushAreSafeWhileProducersSubmit:ShardedRuntime.ProducerStopsEarlyWithoutBeacon:ShardedRuntime.ClaimsLargerThanRingsDoNotDeadlock:IngestPipeline.TagsArePartitionedAndMonotonePerReceiver:IngestStress.MultiSocketMultiReceiverWithConcurrentQuiesce'
}

soak() {
  # The resize/flush/snapshot-vs-producers race, the resize bit-consistency
  # sweep, NNS across a scan-off resize, the aging property tests, and the
  # short churn-soak harness (tests/test_lifecycle.cpp) under TSan.
  tsan_build &&
    ./build-tsan/tests/infilter_tests \
      --gtest_filter='Lifecycle*:ShardedRuntime.ScanOffNnsSurvivesResize:EiaAging*:EiaSetRemove*:EiaIoLifecycle*'
}

ubsan() {
  cmake --preset ubsan &&
    cmake --build --preset ubsan -j "$jobs" &&
    ctest --preset ubsan
}

failed=()
# Runs one lane and records it when it fails; later lanes still run.
lane() {
  local title="$1" fn="$2"
  echo "== $title =="
  if ! "$fn"; then
    failed+=("$fn")
  fi
}

lane "tier-1: release build + ctest" tier1
[[ "$run_asan" == 1 ]] && lane "lane: AddressSanitizer" asan
[[ "$run_tsan" == 1 ]] && lane "lane: ThreadSanitizer (concurrency tests)" tsan
[[ "$run_producers" == 1 ]] && lane "lane: ThreadSanitizer multi-producer sweep" producers
[[ "$run_soak" == 1 ]] && lane "lane: ThreadSanitizer lifecycle soak" soak
[[ "$run_ubsan" == 1 ]] && lane "lane: UndefinedBehaviorSanitizer" ubsan

if (( ${#failed[@]} > 0 )); then
  echo "== failed lanes: ${failed[*]} ==" >&2
  exit 1
fi
echo "== all requested lanes passed =="
