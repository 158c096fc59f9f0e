// Tests for the concurrent sharded detection runtime (runtime/):
// the SPSC ring's boundary behavior, the runtime's serial-equivalence and
// self-determinism guarantees, backpressure accounting, and the
// alert/metrics plumbing that makes N shards look like one engine.

#include "runtime/runtime.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <thread>

#include "runtime/affinity.h"

#include "obs/metrics.h"
#include "runtime_fixtures.h"
#include "sim/testbed.h"

namespace infilter::runtime {
namespace {

using namespace fixtures;

// -- SpscRing --

TEST(SpscRing, CapacityRoundsUpToPowerOfTwo) {
  SpscRing<int> ring(3);
  EXPECT_EQ(ring.capacity(), 4u);
  SpscRing<int> big(1000);
  EXPECT_EQ(big.capacity(), 1024u);
}

TEST(SpscRing, FullAndEmptyBoundaries) {
  SpscRing<int> ring(4);
  EXPECT_TRUE(ring.empty());
  int out = -1;
  EXPECT_FALSE(ring.try_pop(out));

  for (int i = 0; i < 4; ++i) EXPECT_TRUE(ring.try_push(i));
  EXPECT_EQ(ring.size(), 4u);
  EXPECT_FALSE(ring.try_push(99));  // full

  EXPECT_TRUE(ring.try_pop(out));
  EXPECT_EQ(out, 0);
  EXPECT_TRUE(ring.try_push(4));  // freed slot is reusable
  for (int expect = 1; expect <= 4; ++expect) {
    ASSERT_TRUE(ring.try_pop(out));
    EXPECT_EQ(out, expect);
  }
  EXPECT_TRUE(ring.empty());
}

TEST(SpscRing, FifoOrderAcrossManyWraparounds) {
  SpscRing<int> ring(8);
  int next_push = 0;
  int next_pop = 0;
  // Uneven push/pop rhythm so head and tail cross the wrap point at
  // different offsets.
  for (int round = 0; round < 1000; ++round) {
    const int burst = 1 + round % 7;
    for (int i = 0; i < burst; ++i) {
      if (!ring.try_push(next_push)) break;
      ++next_push;
    }
    int out = -1;
    for (int i = 0; i < 1 + round % 5 && ring.try_pop(out); ++i) {
      ASSERT_EQ(out, next_pop);
      ++next_pop;
    }
  }
  int out = -1;
  while (ring.try_pop(out)) {
    ASSERT_EQ(out, next_pop);
    ++next_pop;
  }
  EXPECT_EQ(next_pop, next_push);
}

TEST(SpscRing, BatchedPushAcceptsOnlyFreeSpace) {
  SpscRing<int> ring(4);
  const int items[6] = {0, 1, 2, 3, 4, 5};
  EXPECT_EQ(ring.try_push_batch(items), 4u);  // capacity-bounded
  EXPECT_EQ(ring.try_push_batch(items), 0u);  // full

  int out[8] = {};
  EXPECT_EQ(ring.try_pop_batch(out, 2), 2u);  // max-bounded
  EXPECT_EQ(out[0], 0);
  EXPECT_EQ(out[1], 1);
  EXPECT_EQ(ring.try_pop_batch(out, 8), 2u);  // drains the rest
  EXPECT_EQ(out[0], 2);
  EXPECT_EQ(out[1], 3);
  EXPECT_EQ(ring.try_pop_batch(out, 8), 0u);  // empty
}

TEST(SpscRing, BatchedOpsPreserveOrderAcrossWraparound) {
  SpscRing<int> ring(8);
  std::vector<int> sent(64);
  std::iota(sent.begin(), sent.end(), 0);
  std::vector<int> received;
  std::size_t pushed = 0;
  int scratch[8];
  while (received.size() < sent.size()) {
    pushed += ring.try_push_batch(
        std::span<const int>(sent).subspan(pushed, std::min<std::size_t>(
                                                       3, sent.size() - pushed)));
    const std::size_t got = ring.try_pop_batch(scratch, 5);
    received.insert(received.end(), scratch, scratch + got);
  }
  EXPECT_EQ(received, sent);
}

TEST(SpscRing, ThreadedProducerConsumerDeliversEverythingInOrder) {
  SpscRing<std::uint32_t> ring(64);
  constexpr std::uint32_t kCount = 200000;
  std::thread producer([&] {
    std::uint32_t batch[16];
    std::uint32_t next = 0;
    while (next < kCount) {
      const std::uint32_t n = std::min<std::uint32_t>(16, kCount - next);
      for (std::uint32_t i = 0; i < n; ++i) batch[i] = next + i;
      std::size_t sent = 0;
      while (sent < n) {
        sent += ring.try_push_batch(
            std::span<const std::uint32_t>(batch + sent, n - sent));
      }
      next += n;
    }
  });
  std::uint32_t expect = 0;
  std::uint32_t out[32];
  while (expect < kCount) {
    const std::size_t n = ring.try_pop_batch(out, 32);
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(out[i], expect);
      ++expect;
    }
  }
  producer.join();
  EXPECT_TRUE(ring.empty());
}

// -- merge_snapshots --

TEST(MergeSnapshots, SumsCountersAndMergesEqualBoundHistograms) {
  obs::Registry a;
  obs::Registry b;
  a.counter("flows").inc(3);
  b.counter("flows").inc(4);
  b.counter("only_b").inc(1);
  a.histogram("lat", {1.0, 10.0}).observe(0.5);
  b.histogram("lat", {1.0, 10.0}).observe(5.0);
  b.histogram("lat", {1.0, 10.0}).observe(5.0);

  const auto merged = obs::merge_snapshots({a.snapshot(), b.snapshot()});
  EXPECT_DOUBLE_EQ(merged.value("flows"), 7.0);
  EXPECT_DOUBLE_EQ(merged.value("only_b"), 1.0);
  const auto* lat = merged.histogram("lat");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count, 3u);
  EXPECT_DOUBLE_EQ(lat->sum, 10.5);
  EXPECT_EQ(lat->counts[0], 1u);  // <= 1.0
  EXPECT_EQ(lat->counts[1], 2u);  // <= 10.0
}

TEST(MergeSnapshots, BoundsMismatchKeepsFirstHistogramIntact) {
  obs::Registry a;
  obs::Registry b;
  a.histogram("lat", {1.0, 10.0}).observe(0.5);
  b.histogram("lat", {2.0, 20.0}).observe(5.0);
  b.histogram("lat", {2.0, 20.0}).observe(15.0);

  const auto merged = obs::merge_snapshots({a.snapshot(), b.snapshot()});
  const auto* lat = merged.histogram("lat");
  ASSERT_NE(lat, nullptr);
  // The first snapshot's histogram wins wholesale: no count/sum/bucket
  // contribution from the incompatible layout leaks in.
  EXPECT_EQ(lat->bounds, (std::vector<double>{1.0, 10.0}));
  EXPECT_EQ(lat->count, 1u);
  EXPECT_DOUBLE_EQ(lat->sum, 0.5);
  EXPECT_EQ(lat->counts[0], 1u);
  EXPECT_EQ(lat->counts[1], 0u);
}

// -- ShardedRuntime --

sim::ExperimentConfig runtime_config() {
  sim::ExperimentConfig c;
  c.normal_flows_per_source = 1200;
  c.training_flows = 500;
  c.attack_volume = 0.04;
  c.engine.cluster.bits_per_feature = 48;
  c.seed = 77;
  return c;
}

TEST(ShardedRuntime, ShardOfIsStableAndCoversAllShards) {
  const auto source = *net::IPv4Address::parse("10.1.2.3");
  const auto s = ShardedRuntime::shard_of(source, 4);
  EXPECT_EQ(ShardedRuntime::shard_of(source, 4), s);
  // Same source /24 always lands together, whatever the ingress -- the
  // grain of every (ingress, /24)-keyed learning structure.
  EXPECT_EQ(ShardedRuntime::shard_of(*net::IPv4Address::parse("10.1.2.200"), 4), s);
  std::set<std::size_t> seen;
  for (std::uint32_t i = 0; i < 256; ++i) {
    seen.insert(ShardedRuntime::shard_of(net::IPv4Address{i << 8}, 4));
  }
  EXPECT_EQ(seen.size(), 4u);  // hash actually spreads over the shards
}

// With scan analysis off, every pipeline stage keys its state on data
// colocated by the shard hash, so N shards must reproduce the serial
// engine's verdicts *exactly* -- the runtime's headline guarantee.
TEST(ShardedRuntime, ScanOffShardedExactlyMatchesSerial) {
  auto config = runtime_config();
  config.engine.use_scan_analysis = false;
  const auto serial = run_experiment(config);
  config.runtime_shards = 4;
  config.runtime_queue_depth = 256;
  const auto sharded = run_experiment(config);
  expect_same_result(serial, sharded);
  EXPECT_DOUBLE_EQ(sharded.metrics.value("infilter_runtime_dropped_total"), 0.0);
}

// The tentpole guarantee: with scan analysis ENABLED, every shard count
// (one included) reproduces the serial engine's verdicts exactly. The destination-keyed
// suspect buffer lives on the shared scan stage, which replays suspects
// in global dispatch order, so worker interleaving is invisible.
TEST(ShardedRuntime, ShardSweepFullPipelineExactlyMatchesSerial) {
  auto config = runtime_config();
  ASSERT_TRUE(config.engine.use_scan_analysis);
  const auto serial = run_experiment(config);
  // The property is only meaningful if the scan stage actually fires.
  EXPECT_GT(serial.alerts_scan, 0u);
  for (const int shards : {1, 2, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto sharded_config = config;
    sharded_config.runtime_shards = shards;
    const auto sharded = run_experiment(sharded_config);
    expect_same_result(serial, sharded);
  }
}

// The TTL-fusion extension of the same guarantee: hop-count classification
// and learning are keyed by the same (ingress, source /24) shard key as the
// EIA check and run in the worker half; the fused verdict is a pure
// function of the SuspectFlow, decided on the shared scan stage in global
// dispatch order. Every shard count must stay bit-identical to serial with
// TTL detection on.
TEST(ShardedRuntime, ShardSweepWithTtlDetectionExactlyMatchesSerial) {
  auto config = runtime_config();
  config.ttl_scenario = true;
  config.engine.use_hopcount = true;
  const auto serial = run_experiment(config);
  // Meaningful only if the fusion path actually fires (spoofed standard
  // kinds are EIA miss + TTL miss) and benign TTL learning happened.
  EXPECT_GT(serial.alerts_fused, 0u);
  for (const int shards : {1, 2, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    auto sharded_config = config;
    sharded_config.runtime_shards = shards;
    const auto sharded = run_experiment(sharded_config);
    expect_same_result(serial, sharded);
  }
}

// Reproducibility across runs of the same configuration, independent of
// thread interleaving (a weaker property than serial equality, pinned
// separately so a failure distinguishes "nondeterministic" from "wrong").
TEST(ShardedRuntime, FullPipelineShardedIsSelfDeterministic) {
  auto config = runtime_config();
  config.runtime_shards = 3;
  const auto first = run_experiment(config);
  const auto second = run_experiment(config);
  expect_same_result(first, second);
}

// Field-level exactness on the raw streams: the sharded runtime's alert
// sequence (ids, contents, order) and the shared scan stage's internal
// stats must be bit-identical to the serial engine's, not just equal in
// aggregate.
TEST(ShardedRuntime, AlertStreamAndScanStatsBitIdenticalToSerial) {
  const auto config = runtime_config();
  const auto stream = sim::generate_stream(config);
  const auto clusters = sim::train_clusters(config);
  core::EngineConfig engine_config = config.engine;
  engine_config.seed = config.seed;

  alert::CollectingSink serial_sink;
  core::InFilterEngine serial(engine_config, &serial_sink);
  serial.set_clusters(clusters);
  sim::preload_eia(config, serial);
  std::vector<FlowItem> items;
  for (const auto& flow : stream.flows) {
    (void)serial.process(flow.record, flow.arrival_port, flow.record.last);
    items.push_back(FlowItem{flow.record, flow.arrival_port, flow.record.last});
  }
  ASSERT_GT(serial_sink.alerts().size(), 0u);
  ASSERT_GT(serial.scan().stats().network_scans + serial.scan().stats().host_scans,
            0u);

  for (const int shards : {2, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    RuntimeConfig runtime_config;
    runtime_config.shards = shards;
    runtime_config.engine = engine_config;
    alert::CollectingSink sharded_sink;
    ShardedRuntime rt(runtime_config, &sharded_sink);
    rt.set_clusters(clusters);
    sim::preload_eia(config, rt);
    ASSERT_EQ(rt.submit_batch(items), items.size());
    rt.flush();

    const auto& serial_scan = serial.scan().stats();
    const auto& sharded_scan = rt.scan_engine().scan().stats();
    EXPECT_EQ(sharded_scan.observed, serial_scan.observed);
    EXPECT_EQ(sharded_scan.network_scans, serial_scan.network_scans);
    EXPECT_EQ(sharded_scan.host_scans, serial_scan.host_scans);
    EXPECT_EQ(sharded_scan.evictions, serial_scan.evictions);
    EXPECT_EQ(rt.scan_engine().scan().buffered_flows(),
              serial.scan().buffered_flows());

    expect_same_alerts(sharded_sink.alerts(), serial_sink.alerts());

    const auto merged = rt.snapshot();
    EXPECT_DOUBLE_EQ(merged.value("infilter_flows_total"),
                     static_cast<double>(stream.flows.size()));
    EXPECT_DOUBLE_EQ(merged.value("infilter_alerts_total"),
                     static_cast<double>(serial_sink.alerts().size()));
  }
}

TEST(ShardedRuntime, MergedSnapshotAccountsForEveryFlow) {
  auto config = runtime_config();
  config.runtime_shards = 4;
  const auto result = run_experiment(config);
  // Per-shard engine counters merge into one coherent view.
  EXPECT_DOUBLE_EQ(result.metrics.value("infilter_flows_total"),
                   static_cast<double>(result.attack_flows + result.benign_flows));
  EXPECT_DOUBLE_EQ(result.metrics.value("infilter_runtime_shards"), 4.0);
  EXPECT_DOUBLE_EQ(
      result.metrics.value("infilter_runtime_submitted_total"),
      static_cast<double>(result.attack_flows + result.benign_flows));
  EXPECT_GT(result.metrics.value("infilter_runtime_batches_total"), 0.0);
}

// Mid-stream snapshots must not race worker engine state: runtime-level
// metrics are always present, busy shards' engine registries are skipped,
// and after flush() the merged view is complete. Run under
// INFILTER_SANITIZE=thread this pins the absence of the data race.
TEST(ShardedRuntime, LiveSnapshotSkipsBusyShardsAndIsCompleteAfterFlush) {
  RuntimeConfig config;
  config.shards = 2;
  config.queue_depth = 64;
  config.engine.use_scan_analysis = config.engine.use_nns = false;
  // A slow hook keeps workers mid-flow while the dispatcher snapshots.
  ShardedRuntime rt(config, nullptr,
                    [](const FlowItem&, const core::Verdict&) {
                      std::this_thread::sleep_for(std::chrono::microseconds(200));
                    });
  constexpr std::uint32_t kFlows = 300;
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    submit_one(rt, simple_flow(i), 9001, i);
    if (i % 50 == 0) {
      const auto live = rt.snapshot();
      EXPECT_GE(live.value("infilter_runtime_submitted_total"),
                static_cast<double>(i));
      EXPECT_DOUBLE_EQ(live.value("infilter_runtime_shards"), 2.0);
    }
  }
  rt.flush();
  const auto drained = rt.snapshot();
  EXPECT_DOUBLE_EQ(drained.value("infilter_flows_total"),
                   static_cast<double>(kFlows));
}

TEST(ShardedRuntime, DropPolicyShedsAndCountsWhenRingsStayFull) {
  RuntimeConfig config;
  config.shards = 1;
  config.queue_depth = 2;
  config.backpressure = BackpressurePolicy::kDrop;
  config.engine.use_scan_analysis = config.engine.use_nns = false;
  // A slow hook keeps the single worker busy so the tiny ring fills. It
  // records which tags reached a verdict: exactly the accepted ones.
  std::mutex hooked_mutex;
  std::set<std::uint64_t> hooked;
  ShardedRuntime rt(config, nullptr,
                    [&](const FlowItem& item, const core::Verdict&) {
                      std::this_thread::sleep_for(std::chrono::milliseconds(2));
                      std::lock_guard lock(hooked_mutex);
                      hooked.insert(item.tag);
                    });
  constexpr std::uint64_t kFlows = 64;
  std::set<std::uint64_t> accepted;
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    if (submit_one(rt, simple_flow(i), 9001, i, /*tag=*/i)) accepted.insert(i);
  }
  // A multi-flow batch against the full ring: the returned count is the
  // accepted prefix, the rest is shed and counted.
  std::vector<FlowItem> burst;
  for (std::uint32_t i = kFlows; i < 2 * kFlows; ++i) {
    burst.push_back(FlowItem{simple_flow(i), 9001, i, i});
  }
  const std::size_t burst_accepted = rt.submit_batch(burst);
  EXPECT_LE(burst_accepted, config.queue_depth);
  for (std::size_t i = 0; i < burst_accepted; ++i) accepted.insert(burst[i].tag);
  rt.flush();
  const auto stats = rt.stats();
  EXPECT_EQ(stats.submitted, 2 * kFlows);
  EXPECT_EQ(stats.dispatched, accepted.size());
  EXPECT_EQ(stats.processed, accepted.size());
  EXPECT_EQ(stats.dropped, 2 * kFlows - accepted.size());
  EXPECT_GT(stats.dropped, 0u);  // 64 x 2ms against a depth-2 ring must shed
  EXPECT_EQ(stats.backpressure_waits, 0u);
  std::lock_guard lock(hooked_mutex);
  EXPECT_EQ(hooked, accepted);
}

TEST(ShardedRuntime, BlockPolicyLosesNothingThroughTinyRings) {
  RuntimeConfig config;
  config.shards = 2;
  config.queue_depth = 2;
  config.backpressure = BackpressurePolicy::kBlock;
  config.engine.use_scan_analysis = config.engine.use_nns = false;
  ShardedRuntime rt(config);
  constexpr std::uint64_t kFlows = 2000;
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    EXPECT_TRUE(submit_one(rt, simple_flow(i), 9001, i));
  }
  rt.flush();
  const auto stats = rt.stats();
  EXPECT_EQ(stats.dispatched, kFlows);
  EXPECT_EQ(stats.processed, kFlows);
  EXPECT_EQ(stats.dropped, 0u);
}

// Drain completeness across the scan stage: flush() must not return while
// any suspect sits in a worker ring, the reorder window, or the scan
// thread's hands. Tiny rings and single-flow batches maximize in-flight
// hand-offs; every flow is an EIA miss, so every flow crosses both rings.
TEST(ShardedRuntime, FlushCompletesEveryInFlightSuspect) {
  RuntimeConfig config;
  config.shards = 4;
  config.queue_depth = 2;
  config.max_batch = 1;
  config.engine.use_scan_analysis = true;
  config.engine.use_nns = false;  // no training needed; scan still runs
  std::atomic<std::uint64_t> hooks{0};
  std::atomic<std::uint64_t> suspect_hooks{0};
  ShardedRuntime rt(config, nullptr,
                    [&](const FlowItem&, const core::Verdict& verdict) {
                      hooks.fetch_add(1);
                      if (verdict.suspect) suspect_hooks.fetch_add(1);
                    });
  constexpr std::uint64_t kFlows = 3000;
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    ASSERT_TRUE(submit_one(rt, simple_flow(i), 9001, i));  // no EIA entries: all miss
  }
  rt.flush();
  const auto stats = rt.stats();
  EXPECT_EQ(stats.processed, kFlows);
  EXPECT_EQ(stats.suspects_forwarded, kFlows);
  EXPECT_EQ(stats.suspects_completed, kFlows);
  EXPECT_EQ(hooks.load(), kFlows);
  EXPECT_EQ(suspect_hooks.load(), kFlows);
  EXPECT_EQ(rt.scan_engine().scan().stats().observed, kFlows);
  // The merged view reconciles: the EIA halves on the shards, the scan
  // half on the stage engine, no flow double-counted or lost.
  const auto merged = rt.snapshot();
  EXPECT_DOUBLE_EQ(merged.value("infilter_flows_total"),
                   static_cast<double>(kFlows));
  EXPECT_DOUBLE_EQ(merged.value("infilter_scan_analyzed_total"),
                   static_cast<double>(kFlows));
  rt.shutdown();
  EXPECT_EQ(hooks.load(), kFlows);  // shutdown added nothing
}

TEST(ShardedRuntime, ShutdownIsIdempotentAndRejectsLateSubmits) {
  RuntimeConfig config;
  config.shards = 2;
  config.engine.use_scan_analysis = config.engine.use_nns = false;
  ShardedRuntime rt(config);
  EXPECT_TRUE(submit_one(rt, simple_flow(1), 9001, 1));
  rt.shutdown();
  rt.shutdown();
  EXPECT_FALSE(submit_one(rt, simple_flow(2), 9001, 2));
  const auto stats = rt.stats();
  EXPECT_EQ(stats.processed, 1u);
  EXPECT_EQ(stats.dropped, 1u);
}

// -- Multi-producer dispatch --

// The merge property behind every multi-producer guarantee: whatever the
// producer interleaving, each shard worker consumes its multi-SPSC fan-in
// in strictly increasing seq order, and each producer's claims stay
// monotone in its own submission order. Small rings + kBlock maximize
// merge pressure. TSan-clean under scripts/check.sh's --producers lane.
TEST(ShardedRuntime, MergeKeepsSeqStrictlyMonotonePerShard) {
  constexpr int kShards = 4;
  constexpr int kProducers = 4;
  constexpr std::uint64_t kPerProducer = 4000;
  RuntimeConfig config;
  config.shards = kShards;
  config.producers = kProducers;
  config.queue_depth = 32;
  config.backpressure = BackpressurePolicy::kBlock;
  config.engine.use_scan_analysis = config.engine.use_nns = false;
  // Every flow is legal (the 0.0.0.0/0 preload below), so its verdict is
  // final on the owning worker and the hook fires there: one writer per
  // shard log, no lock needed, and each log is that worker's merge order.
  std::array<std::vector<std::uint64_t>, kShards> seq_log;
  std::array<std::vector<std::uint64_t>, kShards> tag_log;
  {
    ShardedRuntime rt(config, nullptr,
                      [&](const FlowItem& item, const core::Verdict&) {
                        const auto shard =
                            ShardedRuntime::shard_of(item.record.src_ip, kShards);
                        seq_log[shard].push_back(item.seq);
                        tag_log[shard].push_back(item.tag);
                      });
    ASSERT_EQ(rt.producer_count(), static_cast<std::size_t>(kProducers));
    rt.add_expected(9001, *net::Prefix::parse("0.0.0.0/0"));
    std::vector<std::thread> producers;
    for (int p = 0; p < kProducers; ++p) {
      producers.emplace_back([&, p] {
        std::vector<FlowItem> batch;
        for (std::uint64_t i = 0; i < kPerProducer; ++i) {
          const auto salt = static_cast<std::uint32_t>(i);
          batch.push_back(FlowItem{simple_flow(salt), 9001,
                                   static_cast<util::TimeMs>(i),
                                   (static_cast<std::uint64_t>(p) << 32) | i});
          if (batch.size() == 8) {
            rt.submit_batch(batch, p);
            batch.clear();
          }
        }
        if (!batch.empty()) rt.submit_batch(batch, p);
      });
    }
    for (auto& t : producers) t.join();
    rt.flush();
    const auto stats = rt.stats();
    EXPECT_EQ(stats.processed, kPerProducer * kProducers);
    EXPECT_EQ(stats.dropped, 0u);
    EXPECT_EQ(stats.suspects_forwarded, 0u);  // no hook ran on the scan thread
  }

  std::size_t total = 0;
  std::set<std::uint64_t> seqs;
  std::array<std::vector<std::uint64_t>, kProducers> seq_by_producer;
  for (auto& per : seq_by_producer) per.resize(kPerProducer, 0);
  for (int s = 0; s < kShards; ++s) {
    SCOPED_TRACE("shard=" + std::to_string(s));
    total += seq_log[s].size();
    for (std::size_t i = 1; i < seq_log[s].size(); ++i) {
      ASSERT_LT(seq_log[s][i - 1], seq_log[s][i]) << "merge out of order at " << i;
    }
    for (std::size_t i = 0; i < seq_log[s].size(); ++i) {
      seqs.insert(seq_log[s][i]);
      const auto p = static_cast<std::size_t>(tag_log[s][i] >> 32);
      seq_by_producer[p][tag_log[s][i] & 0xFFFFFFFFu] = seq_log[s][i];
    }
  }
  EXPECT_EQ(total, kPerProducer * kProducers);
  EXPECT_EQ(seqs.size(), total);  // seqs globally unique across producers
  // Each producer's seq claims are monotone in its own submission order.
  for (int p = 0; p < kProducers; ++p) {
    SCOPED_TRACE("producer=" + std::to_string(p));
    for (std::uint64_t i = 1; i < kPerProducer; ++i) {
      ASSERT_LT(seq_by_producer[p][i - 1], seq_by_producer[p][i]);
    }
  }
}

// The tentpole equivalence guarantee, multi-producer form: for every
// (shard count, producer count), the realized dispatch order replayed
// through a fresh serial engine yields the sharded run's exact verdicts,
// alert stream and scan stats. With one producer the realized order is
// submission order, so this subsumes the single-dispatcher sweep above.
TEST(ShardedRuntime, MultiProducerSweepReplaysIdenticalAlertStream) {
  const ReplayFixture fx;
  for (const int shards : {1, 2, 4, 8}) {
    for (const int producers : {1, 2, 4}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " producers=" + std::to_string(producers));
      RuntimeConfig rc;
      rc.shards = shards;
      expect_realized_order_replays(
          fx, rc, round_robin_plans(fx.stream.flows.size(), producers), 128);
    }
  }
}

/// A sink slow enough that the scan thread, not the workers, bounds the
/// pipeline: suspects back up into the suspect rings and the reorder heap.
class SleepingSink final : public alert::AlertSink {
 public:
  void consume(const alert::Alert& alert) override {
    std::this_thread::sleep_for(std::chrono::microseconds(20));
    collected_.consume(alert);
  }
  [[nodiscard]] const std::vector<alert::Alert>& alerts() const {
    return collected_.alerts();
  }

 private:
  alert::CollectingSink collected_;
};

// The scan stage's reorder heap is bounded: behind a slow sink, where the
// scan thread is the bottleneck and the workers run ahead, it never holds
// more than max_batch + shards x ring capacity suspects, and the bounded
// release still yields the serial engine's verdicts and alert stream.
// Every fourth flow comes from an unexpected, never-repeated source /24:
// a suspect that raises an alert. The rest are legal.
// `claim` flows per submit_batch call.
void expect_scan_backlog_bounded(std::size_t claim) {
  constexpr std::uint32_t kFlows = 16000;
  const auto expected = *net::Prefix::parse("10.0.0.0/8");
  core::EngineConfig engine;
  engine.use_nns = false;  // no training needed; scan still runs
  std::vector<FlowItem> items;
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    netflow::V5Record record = simple_flow(i);
    if (i % 4 == 0) record.src_ip = net::IPv4Address{record.src_ip.value() + (1u << 24)};
    items.push_back(FlowItem{record, 9001, i, i});
  }
  alert::CollectingSink serial_sink;
  core::InFilterEngine serial(engine, &serial_sink);
  serial.add_expected(9001, expected);
  std::vector<core::Verdict> reference;
  for (const auto& item : items) {
    reference.push_back(serial.process(item.record, item.ingress, item.now));
  }
  ASSERT_EQ(serial_sink.alerts().size(), kFlows / 4);

  for (const int shards : {1, 2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    RuntimeConfig rc;
    rc.shards = shards;
    rc.queue_depth = 64;  // a power of two: the ring capacity
    rc.max_batch = 32;
    rc.engine = engine;
    SleepingSink sink;
    std::vector<core::Verdict> verdicts(kFlows);  // one writer per tag
    ShardedRuntime rt(rc, &sink, [&](const FlowItem& item, const core::Verdict& v) {
      verdicts[item.tag] = v;
    });
    rt.add_expected(9001, expected);
    for (std::size_t begin = 0; begin < kFlows; begin += claim) {
      const std::span<const FlowItem> batch(items.data() + begin,
                                            std::min<std::size_t>(claim, kFlows - begin));
      ASSERT_EQ(rt.submit_batch(batch), batch.size());
    }
    rt.flush();

    std::size_t mismatches = 0;
    for (std::size_t k = 0; k < kFlows; ++k) {
      mismatches += same_verdict(reference[k], verdicts[k]) ? 0 : 1;
    }
    EXPECT_EQ(mismatches, 0u);
    expect_same_alerts(sink.alerts(), serial_sink.alerts());
    const auto stats = rt.stats();
    EXPECT_EQ(stats.suspects_completed, kFlows / 4);
    EXPECT_GT(stats.scan_backlog_peak, 0u);
    EXPECT_LE(stats.scan_backlog_peak,
              rc.max_batch + static_cast<std::size_t>(shards) * rc.queue_depth);
  }
}

// Claims of 16 flows, like a receiver's datagrams.
TEST(ShardedRuntime, ScanBacklogStaysBoundedBehindASlowSink) {
  expect_scan_backlog_bounded(16);
}

// All 16000 flows in one call: submit_batch claims, pushes and publishes
// them one ring capacity at a time, so no claim holds the watermarks of
// the shards it has already filled while it waits on a full ring.
TEST(ShardedRuntime, ScanBacklogStaysBoundedForOneLargeSubmit) {
  expect_scan_backlog_bounded(16000);
}

// Liveness regression: a producer that submits once and returns -- no
// idle announcement of any kind -- must never hold back a producer that
// keeps submitting far more than its rings hold. The merge bounds the
// finished producer at the claim counter itself.
TEST(ShardedRuntime, ProducerStopsEarlyWithoutBeacon) {
  const ReplayFixture fx;
  for (const std::size_t depth : {std::size_t{16}, std::size_t{4096}}) {
    SCOPED_TRACE("queue_depth=" + std::to_string(depth));
    constexpr std::size_t kFirst = 32;
    std::vector<std::vector<std::size_t>> plans(2);
    for (std::size_t k = 0; k < kFirst + 64 * depth; ++k) {
      plans[k < kFirst ? 0 : 1].push_back(k);
    }
    RuntimeConfig rc;
    rc.shards = 2;
    rc.queue_depth = depth;
    ReplayOptions staggered;
    staggered.stagger = true;
    expect_realized_order_replays(fx, rc, plans, 128, staggered);
  }
}

// Liveness regression: tag ranges claimed 512 flows at a time through
// 16-slot rings. Each claim spans many ring refills on both shards, so
// producers wait on workers that wait on other producers' claims; the
// in-flight claim with the lowest base must always make progress.
TEST(ShardedRuntime, ClaimsLargerThanRingsDoNotDeadlock) {
  const ReplayFixture fx;
  constexpr std::size_t kClaim = 512;
  for (const int producers : {2, 4}) {
    SCOPED_TRACE("producers=" + std::to_string(producers));
    std::vector<std::vector<std::size_t>> plans(
        static_cast<std::size_t>(producers));
    const std::size_t total = plans.size() * 4 * kClaim;
    for (std::size_t k = 0; k < total; ++k) {
      plans[(k / kClaim) % plans.size()].push_back(k);
    }
    RuntimeConfig rc;
    rc.shards = 2;
    rc.queue_depth = 16;
    expect_realized_order_replays(fx, rc, plans, kClaim);
  }
}

// With scan analysis off and NNS on, a resize must keep the NNS stage
// running: the trained clusters live on the scan engine, which a resize
// keeps. Verdicts and alerts on both sides of a mid-stream resize(3) must
// equal a serial engine's.
TEST(ShardedRuntime, ScanOffNnsSurvivesResize) {
  const ReplayFixture fx;
  core::EngineConfig engine = fx.engine;
  engine.use_scan_analysis = false;
  const auto items = fx.items();
  const std::size_t half = items.size() / 2;

  alert::CollectingSink serial_sink;
  core::InFilterEngine serial(engine, &serial_sink);
  serial.set_clusters(fx.clusters);
  sim::preload_eia(fx.config, serial);
  std::vector<core::Verdict> expected;
  for (const auto& item : items) {
    expected.push_back(serial.process(item.record, item.ingress, item.now));
  }
  // The property needs NNS verdicts past the boundary.
  ASSERT_TRUE(std::any_of(expected.begin() + static_cast<std::ptrdiff_t>(half),
                          expected.end(),
                          [](const core::Verdict& v) { return v.nns.has_value(); }));

  RuntimeConfig rc;
  rc.shards = 2;
  rc.engine = engine;
  std::vector<core::Verdict> verdicts(items.size());  // one writer per tag
  alert::CollectingSink sharded_sink;
  ShardedRuntime rt(rc, &sharded_sink,
                    [&](const FlowItem& item, const core::Verdict& verdict) {
                      verdicts[item.tag] = verdict;
                    });
  rt.set_clusters(fx.clusters);
  sim::preload_eia(fx.config, rt);
  const std::span<const FlowItem> all(items);
  ASSERT_EQ(rt.submit_batch(all.first(half)), half);
  ASSERT_TRUE(rt.resize(3));
  ASSERT_EQ(rt.submit_batch(all.subspan(half)), items.size() - half);
  rt.flush();
  std::size_t mismatches = 0;
  for (std::size_t k = 0; k < items.size(); ++k) {
    mismatches += !same_verdict(verdicts[k], expected[k]);
  }
  EXPECT_EQ(mismatches, 0u);
  expect_same_alerts(sharded_sink.alerts(), serial_sink.alerts());
}

// The one trained cluster set is shared state, so a merged snapshot must
// report its counters once, whatever the shard count. Each run trains its own clusters: the query counters live
// on the cluster object, and a shared one would mix the runs' counts.
TEST(ShardedRuntime, SnapshotCountsSharedNnsStateOnce) {
  const ReplayFixture fx;
  const auto items = fx.items();
  const auto nns_metrics = [](const obs::RegistrySnapshot& snap) {
    return std::array<double, 3>{snap.value("infilter_nns_index_assessments_total"),
                                 snap.value("infilter_nns_no_neighbor_total"),
                                 snap.value("infilter_nns_trained_flows")};
  };
  core::InFilterEngine serial(fx.engine);
  serial.set_clusters(sim::train_clusters(fx.config));
  sim::preload_eia(fx.config, serial);
  for (const auto& item : items) (void)serial.process(item.record, item.ingress, item.now);
  const auto expected = nns_metrics(serial.registry().snapshot());
  ASSERT_GT(expected[0], 0.0);
  ASSERT_GT(expected[2], 0.0);

  for (const int shards : {1, 2, 4}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    RuntimeConfig rc;
    rc.shards = shards;
    rc.engine = fx.engine;
    ShardedRuntime rt(rc);
    rt.set_clusters(sim::train_clusters(fx.config));
    sim::preload_eia(fx.config, rt);
    ASSERT_EQ(rt.submit_batch(items), items.size());
    rt.flush();
    const auto actual = nns_metrics(rt.snapshot());
    EXPECT_DOUBLE_EQ(actual[0], expected[0]) << "assessments";
    EXPECT_DOUBLE_EQ(actual[1], expected[1]) << "no-neighbor queries";
    EXPECT_DOUBLE_EQ(actual[2], expected[2]) << "trained flows";
  }
}

// Satellite regression for the old single-dispatcher precondition:
// snapshot() and flush() must be safe while producer threads are
// mid-submit -- the submit gate stalls producers, and nothing is lost or
// double-counted. TSan-clean.
TEST(ShardedRuntime, SnapshotAndFlushAreSafeWhileProducersSubmit) {
  constexpr int kProducers = 3;
  constexpr std::uint64_t kPerProducer = 2000;
  RuntimeConfig config;
  config.shards = 2;
  config.producers = kProducers;
  config.queue_depth = 64;
  config.backpressure = BackpressurePolicy::kBlock;
  config.engine.use_scan_analysis = config.engine.use_nns = false;
  ShardedRuntime rt(config);
  std::atomic<int> live{kProducers};
  auto producers = start_producers(rt, kProducers, kPerProducer, live);
  // Hammer the gate from the control thread while producers are live.
  while (live.load() > 0) {
    const auto snap = rt.snapshot();
    EXPECT_DOUBLE_EQ(snap.value("infilter_runtime_shards"), 2.0);
    rt.flush();  // mid-stream flush: drains what was claimed, loses nothing
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  for (auto& t : producers) t.join();
  rt.flush();
  const auto stats = rt.stats();
  EXPECT_EQ(stats.submitted, kPerProducer * kProducers);
  EXPECT_EQ(stats.dispatched, kPerProducer * kProducers);
  EXPECT_EQ(stats.processed, kPerProducer * kProducers);
  EXPECT_EQ(stats.dropped, 0u);
  EXPECT_DOUBLE_EQ(rt.snapshot().value("infilter_flows_total"),
                   static_cast<double>(kPerProducer * kProducers));
}

// -- CPU placement (runtime/affinity.h) --

TEST(Affinity, ParseCpuSetExpandsRangesDedupsAndSorts) {
  const auto cpus = parse_cpu_set("8,0-3,2");
  ASSERT_TRUE(cpus.has_value());
  EXPECT_EQ(*cpus, (std::vector<int>{0, 1, 2, 3, 8}));
  const auto one = parse_cpu_set("7");
  ASSERT_TRUE(one.has_value());
  EXPECT_EQ(*one, std::vector<int>{7});
}

TEST(Affinity, ParseCpuSetRejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(parse_cpu_set("", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(parse_cpu_set("a").has_value());
  EXPECT_FALSE(parse_cpu_set("1,,2").has_value());
  EXPECT_FALSE(parse_cpu_set("3-1").has_value());  // reversed range
  EXPECT_FALSE(parse_cpu_set("0-").has_value());
  EXPECT_FALSE(parse_cpu_set("4096").has_value());  // above the id cap
}

TEST(Affinity, PinCurrentThreadIsGracefulOnAnyHost) {
  // Empty set: placement disabled, trivially succeeds.
  EXPECT_TRUE(pin_current_thread({}, 3));
  // Pin a scratch thread (not the test runner) to cpu 0, which exists on
  // any host; slot wraps round-robin past the set size.
  bool pinned = false;
  std::thread([&] { pinned = pin_current_thread({0}, 5); }).join();
#if defined(__linux__)
  EXPECT_TRUE(pinned);
#else
  EXPECT_FALSE(pinned);  // no-affinity platforms report the graceful no
#endif
}

TEST(ShardedRuntime, AlertsFromAllShardsArriveWithDenseIds) {
  RuntimeConfig config;
  config.shards = 4;
  config.queue_depth = 128;
  config.engine.use_scan_analysis = config.engine.use_nns = false;  // every flow alerts (no EIA)
  alert::CollectingSink ui;
  ShardedRuntime rt(config, &ui);
  constexpr std::uint64_t kFlows = 500;
  for (std::uint32_t i = 0; i < kFlows; ++i) {
    submit_one(rt, simple_flow(i), 9001, i);
  }
  rt.shutdown();
  ASSERT_EQ(ui.alerts().size(), kFlows);
  std::set<std::uint64_t> ids;
  for (const auto& a : ui.alerts()) ids.insert(a.id);
  EXPECT_EQ(ids.size(), kFlows);
  EXPECT_EQ(*ids.begin(), 1u);
  EXPECT_EQ(*ids.rbegin(), kFlows);
}

}  // namespace
}  // namespace infilter::runtime
