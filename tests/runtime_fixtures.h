// Shared fixtures for the tests that drive the sharded runtime, the node or
// the ingest pipeline: synthetic flows and training traffic, producer
// threads, the field-by-field comparisons behind every serial-equivalence
// check, and the realized-order replay harness.

#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "runtime/runtime.h"
#include "sim/testbed.h"

namespace infilter::fixtures {

/// A TCP flow from 10.<salt>.0/24 (one source /24 per salt) to one host
/// and port, spanning virtual time [salt, salt + 10].
inline netflow::V5Record simple_flow(std::uint32_t salt) {
  netflow::V5Record r;
  r.src_ip = net::IPv4Address{(10u << 24) | (salt << 8)};
  r.dst_ip = *net::IPv4Address::parse("100.64.0.1");
  r.proto = 6;
  r.src_port = 40000;
  r.dst_port = 80;
  r.packets = 10;
  r.bytes = 5000;
  r.first = salt;
  r.last = salt + 10;
  return r;
}

/// Normal traffic replayed from sub-block 1a: the training set of the node
/// and ingest tests.
inline std::vector<netflow::V5Record> training_records(std::uint64_t seed) {
  traffic::NormalTrafficModel model;
  util::Rng rng{seed};
  const auto trace = model.generate(600, 0, rng);
  dagflow::Dagflow replayer(
      dagflow::DagflowConfig{},
      dagflow::AddressPool::from_subblocks({*net::SubBlock::parse("1a")}), seed);
  std::vector<netflow::V5Record> records;
  for (const auto& labeled : replayer.replay(trace)) records.push_back(labeled.record);
  return records;
}

/// Starts `producers` threads. Producer p submits simple_flow(i) at
/// ingress 9001, i < per_producer, in batches of 16 through slot p, then
/// decrements `live`.
inline std::vector<std::thread> start_producers(runtime::ShardedRuntime& rt,
                                                int producers,
                                                std::uint64_t per_producer,
                                                std::atomic<int>& live) {
  std::vector<std::thread> threads;
  for (int p = 0; p < producers; ++p) {
    threads.emplace_back([&rt, &live, p, per_producer] {
      std::vector<runtime::FlowItem> batch;
      for (std::uint64_t i = 0; i < per_producer; ++i) {
        batch.push_back(runtime::FlowItem{simple_flow(static_cast<std::uint32_t>(i)),
                                          9001, static_cast<util::TimeMs>(i)});
        if (batch.size() == 16) {
          rt.submit_batch(batch, p);
          batch.clear();
        }
      }
      if (!batch.empty()) rt.submit_batch(batch, p);
      live.fetch_sub(1);
    });
  }
  return threads;
}

/// One flow through producer 0 as a batch of one: true when accepted.
inline bool submit_one(runtime::ShardedRuntime& rt, const netflow::V5Record& record,
                       core::IngressId ingress, util::TimeMs now,
                       std::uint64_t tag = 0) {
  const runtime::FlowItem item{record, ingress, now, tag};
  return rt.submit_batch({&item, 1}) == 1;
}

inline bool same_verdict(const core::Verdict& x, const core::Verdict& y) {
  if (x.attack != y.attack || x.stage != y.stage || x.suspect != y.suspect ||
      x.nns.has_value() != y.nns.has_value()) {
    return false;
  }
  return !x.nns.has_value() ||
         (x.nns->anomalous == y.nns->anomalous && x.nns->cluster == y.nns->cluster &&
          x.nns->distance == y.nns->distance && x.nns->threshold == y.nns->threshold);
}

inline void expect_same_result(const sim::ExperimentResult& x,
                               const sim::ExperimentResult& y) {
  EXPECT_EQ(x.attack_instances, y.attack_instances);
  EXPECT_EQ(x.detected_instances, y.detected_instances);
  EXPECT_EQ(x.attack_flows, y.attack_flows);
  EXPECT_EQ(x.detected_attack_flows, y.detected_attack_flows);
  EXPECT_EQ(x.benign_flows, y.benign_flows);
  EXPECT_EQ(x.false_positives, y.false_positives);
  EXPECT_EQ(x.benign_suspects, y.benign_suspects);
  EXPECT_EQ(x.alerts_eia, y.alerts_eia);
  EXPECT_EQ(x.alerts_scan, y.alerts_scan);
  EXPECT_EQ(x.alerts_nns, y.alerts_nns);
  EXPECT_EQ(x.alerts_fused, y.alerts_fused);
  EXPECT_DOUBLE_EQ(x.mean_detection_latency_ms, y.mean_detection_latency_ms);
  for (std::size_t k = 0; k < x.per_kind.size(); ++k) {
    EXPECT_EQ(x.per_kind[k], y.per_kind[k]) << "attack kind " << k;
  }
}

inline void expect_same_alert(const alert::Alert& x, const alert::Alert& y) {
  EXPECT_EQ(x.id, y.id);
  EXPECT_EQ(x.create_time, y.create_time);
  EXPECT_EQ(x.stage, y.stage);
  EXPECT_EQ(x.source_ip.value(), y.source_ip.value());
  EXPECT_EQ(x.target_ip.value(), y.target_ip.value());
  EXPECT_EQ(x.target_port, y.target_port);
  EXPECT_EQ(x.proto, y.proto);
  EXPECT_EQ(x.ingress_port, y.ingress_port);
  EXPECT_EQ(x.expected_ingress, y.expected_ingress);
  EXPECT_EQ(x.nns_distance, y.nns_distance);
  EXPECT_EQ(x.nns_threshold, y.nns_threshold);
  EXPECT_DOUBLE_EQ(x.detection_latency_ms, y.detection_latency_ms);
}

/// Alert streams equal element-wise: same length, same order, every field.
inline void expect_same_alerts(const std::vector<alert::Alert>& x,
                               const std::vector<alert::Alert>& y) {
  ASSERT_EQ(x.size(), y.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    SCOPED_TRACE("alert " + std::to_string(i));
    expect_same_alert(x[i], y[i]);
  }
}

/// The small testbed workload of the replay checks: many shard x producer
/// combinations run it, so it stays cheap.
inline sim::ExperimentConfig small_testbed_config() {
  sim::ExperimentConfig config;
  config.normal_flows_per_source = 600;
  config.training_flows = 300;
  config.attack_volume = 0.04;
  config.engine.cluster.bits_per_feature = 48;
  config.seed = 77;
  return config;
}

/// A testbed stream with its trained clusters and engine config.
struct ReplayFixture {
  explicit ReplayFixture(sim::ExperimentConfig experiment = small_testbed_config())
      : config(std::move(experiment)),
        stream(sim::generate_stream(config)),
        clusters(sim::train_clusters(config)),
        engine(config.engine) {
    engine.seed = config.seed;
  }

  /// Flow index k of an arbitrarily long run cycles through the stream.
  [[nodiscard]] const dagflow::LabeledFlow& flow(std::size_t k) const {
    return stream.flows[k % stream.flows.size()];
  }

  /// The stream as runtime items, each tagged with its stream index.
  [[nodiscard]] std::vector<runtime::FlowItem> items() const {
    std::vector<runtime::FlowItem> out;
    for (std::size_t k = 0; k < stream.flows.size(); ++k) {
      const auto& f = stream.flows[k];
      out.push_back(runtime::FlowItem{f.record, f.arrival_port, f.record.last, k});
    }
    return out;
  }

  sim::ExperimentConfig config;
  sim::TestbedStream stream;
  std::shared_ptr<const core::TrainedClusters> clusters;
  core::EngineConfig engine;
};

/// plans[p] holds the flow indices k < n with k % producers == p.
inline std::vector<std::vector<std::size_t>> round_robin_plans(std::size_t n,
                                                               int producers) {
  std::vector<std::vector<std::size_t>> plans(static_cast<std::size_t>(producers));
  for (std::size_t k = 0; k < n; ++k) plans[k % plans.size()].push_back(k);
  return plans;
}

struct ReplayOptions {
  /// Producers p > 0 start only after producer 0 has returned.
  bool stagger = false;
  /// Runs on the calling thread while the producers submit; `live` counts
  /// the producers still submitting.
  std::function<void(runtime::ShardedRuntime&, const std::atomic<int>& live)> during;
  /// Inspects the runtime after the final flush.
  std::function<void(runtime::ShardedRuntime&)> after;
};

/// Producer p submits the flow indices in plans[p] (tagged with the index;
/// together a permutation of [0, total)) in `batch_size`-flow submit_batch
/// calls from its own thread, through a runtime built from `rc` (its
/// producer count and engine are filled in here). The realized dispatch
/// order, read back through FlowItem::seq and replayed through a fresh
/// serial engine, must yield the runtime's exact verdicts, alert stream
/// and scan stats.
inline void expect_realized_order_replays(const ReplayFixture& fx,
                                          runtime::RuntimeConfig rc,
                                          const std::vector<std::vector<std::size_t>>& plans,
                                          std::size_t batch_size,
                                          const ReplayOptions& options = {}) {
  std::size_t total = 0;
  for (const auto& plan : plans) total += plan.size();
  rc.producers = static_cast<int>(plans.size());
  rc.engine = fx.engine;
  // One writer per tag: race-free.
  std::vector<std::uint64_t> seq_of(total, 0);
  std::vector<core::Verdict> verdict_of(total);
  alert::CollectingSink sharded_sink;
  runtime::ShardedRuntime rt(
      rc, &sharded_sink, [&](const runtime::FlowItem& item, const core::Verdict& verdict) {
        seq_of[item.tag] = item.seq;
        verdict_of[item.tag] = verdict;
      });
  rt.set_clusters(fx.clusters);
  sim::preload_eia(fx.config, rt);
  std::atomic<int> live{rc.producers};
  std::vector<std::thread> threads;
  for (std::size_t p = 0; p < plans.size(); ++p) {
    threads.emplace_back([&, p] {
      while (options.stagger && p > 0 && live.load() == rc.producers) {
        std::this_thread::yield();
      }
      std::vector<runtime::FlowItem> batch;
      for (const std::size_t k : plans[p]) {
        const auto& flow = fx.flow(k);
        batch.push_back(runtime::FlowItem{flow.record, flow.arrival_port,
                                          static_cast<util::TimeMs>(flow.record.last), k});
        if (batch.size() == batch_size) {
          rt.submit_batch(batch, static_cast<int>(p));
          batch.clear();
        }
      }
      if (!batch.empty()) rt.submit_batch(batch, static_cast<int>(p));
      live.fetch_sub(1);
    });
  }
  if (options.during) options.during(rt, live);
  for (auto& t : threads) t.join();
  rt.flush();
  EXPECT_EQ(rt.stats().processed, total);

  // Replay the realized total order through a fresh serial engine.
  std::vector<std::size_t> order(total);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return seq_of[a] < seq_of[b]; });
  alert::CollectingSink replay_sink;
  core::InFilterEngine replay(fx.engine, &replay_sink);
  replay.set_clusters(fx.clusters);
  sim::preload_eia(fx.config, replay);
  std::size_t mismatches = 0;
  for (const auto k : order) {
    const auto& flow = fx.flow(k);
    mismatches += !same_verdict(
        replay.process(flow.record, flow.arrival_port, flow.record.last), verdict_of[k]);
  }
  EXPECT_EQ(mismatches, 0u);
  ASSERT_GT(replay_sink.alerts().size(), 0u);
  expect_same_alerts(sharded_sink.alerts(), replay_sink.alerts());
  const auto& replay_scan = replay.scan().stats();
  const auto& sharded_scan = rt.scan_engine().scan().stats();
  EXPECT_EQ(sharded_scan.observed, replay_scan.observed);
  EXPECT_EQ(sharded_scan.network_scans, replay_scan.network_scans);
  EXPECT_EQ(sharded_scan.host_scans, replay_scan.host_scans);
  EXPECT_EQ(sharded_scan.evictions, replay_scan.evictions);
  if (options.after) options.after(rt);
}

}  // namespace infilter::fixtures
