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

set -euo pipefail
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

echo "== tier-1: release build + ctest =="
cmake --preset release
cmake --build --preset release -j "$jobs"
ctest --preset release

if [[ "$run_asan" == 1 ]]; then
  echo "== lane: AddressSanitizer =="
  cmake --preset asan
  cmake --build --preset asan -j "$jobs"
  ctest --preset asan
fi

if [[ "$run_tsan" == 1 ]]; then
  echo "== lane: ThreadSanitizer (concurrency tests) =="
  # EiaBackend*/EiaTable*/EiaIo* ride along so the Bloom/counting-Bloom
  # membership backends (engine-private state the shard sweeps exercise
  # concurrently) get sanitizer coverage next to the runtime tests.
  cmake --preset tsan
  cmake --build --preset tsan -j "$jobs"
  ./build-tsan/tests/infilter_tests \
    --gtest_filter='ShardedRuntime*:SpscRing*:Node*:InFilterNode*:Ingest*:Tracer*:TraceRuntime*:TraceRing*:ThreadLane*:EiaBackend*:EiaBackendParse*:EiaTable*:EiaIo*'
fi

if [[ "$run_producers" == 1 ]]; then
  echo "== lane: ThreadSanitizer multi-producer sweep =="
  cmake --preset tsan
  cmake --build --preset tsan -j "$jobs"
  ./build-tsan/tests/infilter_tests \
    --gtest_filter='ShardedRuntime.MergeKeepsSeqStrictlyMonotonePerShard:ShardedRuntime.MultiProducerSweepReplaysIdenticalAlertStream:ShardedRuntime.SnapshotAndFlushAreSafeWhileProducersSubmit:ShardedRuntime.ProducerStopsEarlyWithoutBeacon:ShardedRuntime.ClaimsLargerThanRingsDoNotDeadlock:IngestPipeline.TagsArePartitionedAndMonotonePerReceiver:IngestStress.MultiSocketMultiReceiverWithConcurrentQuiesce'
fi

if [[ "$run_soak" == 1 ]]; then
  echo "== lane: ThreadSanitizer lifecycle soak =="
  # The resize/flush/snapshot-vs-producers race, the resize bit-consistency
  # sweep, NNS across a scan-off resize, the aging property tests, and the
  # short churn-soak harness (tests/test_lifecycle.cpp) under TSan.
  cmake --preset tsan
  cmake --build --preset tsan -j "$jobs"
  ./build-tsan/tests/infilter_tests \
    --gtest_filter='Lifecycle*:ShardedRuntime.ScanOffNnsSurvivesResize:EiaAging*:EiaSetRemove*:EiaIoLifecycle*'
fi

if [[ "$run_ubsan" == 1 ]]; then
  echo "== lane: UndefinedBehaviorSanitizer =="
  cmake --preset ubsan
  cmake --build --preset ubsan -j "$jobs"
  ctest --preset ubsan
fi

echo "== all requested lanes passed =="
