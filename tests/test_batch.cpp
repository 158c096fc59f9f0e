// Batch/per-flow equivalence: the batched NNS hot path (KorNns::search_batch,
// TrainedClusters::assess_batch, InFilterEngine::process_batch) promises
// verdicts bit-for-bit identical to the per-flow path. These tests pin that
// promise at every layer, up to a golden run of the full testbed workload.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <optional>
#include <span>
#include <vector>

#include "core/engine.h"
#include "runtime/runtime.h"
#include "sim/testbed.h"

namespace infilter {
namespace {

using core::InFilterEngine;
using core::TrainedClusters;

sim::ExperimentConfig workload_config() {
  sim::ExperimentConfig config;
  config.normal_flows_per_source = 1500;
  config.training_flows = 600;
  config.attack_volume = 0.04;
  config.engine.cluster.bits_per_feature = 48;  // d = 240: fast tests
  config.seed = 21;
  return config;
}

core::EngineConfig workload_engine_config(const sim::ExperimentConfig& config) {
  core::EngineConfig engine = config.engine;
  engine.seed = config.seed ^ 0xe191eULL;
  return engine;
}

void preload_eia(InFilterEngine& engine, const sim::ExperimentConfig& config) {
  for (int s = 0; s < config.sources; ++s) {
    const auto port = static_cast<core::IngressId>(config.first_port + s);
    const auto range = dagflow::eia_range(s, config.blocks_per_source);
    for (int b = range.first.index(); b <= range.last.index(); ++b) {
      engine.add_expected(port, net::SubBlock{b}.prefix());
    }
  }
}

void expect_same_verdict(const core::Verdict& a, const core::Verdict& b,
                         std::size_t flow) {
  EXPECT_EQ(a.attack, b.attack) << "flow " << flow;
  EXPECT_EQ(a.stage, b.stage) << "flow " << flow;
  EXPECT_EQ(a.suspect, b.suspect) << "flow " << flow;
  ASSERT_EQ(a.nns.has_value(), b.nns.has_value()) << "flow " << flow;
  if (a.nns.has_value()) {
    EXPECT_EQ(a.nns->anomalous, b.nns->anomalous) << "flow " << flow;
    EXPECT_EQ(a.nns->cluster, b.nns->cluster) << "flow " << flow;
    EXPECT_EQ(a.nns->distance, b.nns->distance) << "flow " << flow;
    EXPECT_EQ(a.nns->threshold, b.nns->threshold) << "flow " << flow;
  }
}

void expect_same_alerts(const std::vector<alert::Alert>& a,
                        const std::vector<alert::Alert>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "alert " << i;
    EXPECT_EQ(a[i].create_time, b[i].create_time) << "alert " << i;
    EXPECT_EQ(a[i].stage, b[i].stage) << "alert " << i;
    EXPECT_EQ(a[i].source_ip, b[i].source_ip) << "alert " << i;
    EXPECT_EQ(a[i].target_ip, b[i].target_ip) << "alert " << i;
    EXPECT_EQ(a[i].target_port, b[i].target_port) << "alert " << i;
    EXPECT_EQ(a[i].ingress_port, b[i].ingress_port) << "alert " << i;
    EXPECT_EQ(a[i].expected_ingress, b[i].expected_ingress) << "alert " << i;
    EXPECT_EQ(a[i].nns_distance, b[i].nns_distance) << "alert " << i;
    EXPECT_EQ(a[i].nns_threshold, b[i].nns_threshold) << "alert " << i;
  }
}

/// Golden test: the full testbed workload (normal traffic + every attack
/// tool + route drift) through process_batch at several batch sizes must
/// reproduce the per-flow verdict and alert streams exactly.
TEST(BatchGolden, TestbedWorkloadMatchesPerFlowBitForBit) {
  const sim::ExperimentConfig config = workload_config();
  const sim::TestbedStream stream = sim::generate_stream(config);
  ASSERT_GT(stream.flows.size(), 1000u);
  const auto clusters = sim::train_clusters(config);

  // Reference: the per-flow path.
  alert::CollectingSink serial_sink;
  InFilterEngine serial(workload_engine_config(config), &serial_sink);
  preload_eia(serial, config);
  serial.set_clusters(clusters);
  std::vector<core::Verdict> reference;
  reference.reserve(stream.flows.size());
  for (const auto& flow : stream.flows) {
    reference.push_back(
        serial.process(flow.record, flow.arrival_port, flow.record.last));
  }

  for (const std::size_t batch_size : {std::size_t{1}, std::size_t{7},
                                       std::size_t{256}}) {
    SCOPED_TRACE(batch_size);
    alert::CollectingSink batch_sink;
    InFilterEngine batched(workload_engine_config(config), &batch_sink);
    preload_eia(batched, config);
    batched.set_clusters(clusters);

    std::vector<core::FlowInput> inputs(batch_size);
    std::vector<core::Verdict> verdicts(batch_size);
    for (std::size_t begin = 0; begin < stream.flows.size();
         begin += batch_size) {
      const std::size_t n = std::min(batch_size, stream.flows.size() - begin);
      for (std::size_t i = 0; i < n; ++i) {
        const auto& flow = stream.flows[begin + i];
        inputs[i] =
            core::FlowInput{flow.record, flow.arrival_port, flow.record.last};
      }
      batched.process_batch(std::span<const core::FlowInput>(inputs.data(), n),
                            std::span<core::Verdict>(verdicts.data(), n));
      for (std::size_t i = 0; i < n; ++i) {
        expect_same_verdict(reference[begin + i], verdicts[i], begin + i);
      }
      if (::testing::Test::HasFailure()) return;  // don't flood the log
    }
    expect_same_alerts(serial_sink.alerts(), batch_sink.alerts());
    EXPECT_EQ(serial.flows_processed(), batched.flows_processed());
    EXPECT_EQ(serial.alerts_emitted(), batched.alerts_emitted());
  }
}

/// Counter totals must also agree with the per-flow path, including the
/// latency histogram sample counts the metrics-reconciliation tests pin.
TEST(BatchGolden, MetricsTotalsMatchPerFlow) {
  const sim::ExperimentConfig config = workload_config();
  const sim::TestbedStream stream = sim::generate_stream(config);
  const auto clusters = sim::train_clusters(config);

  InFilterEngine serial(workload_engine_config(config));
  preload_eia(serial, config);
  serial.set_clusters(clusters);
  for (const auto& flow : stream.flows) {
    (void)serial.process(flow.record, flow.arrival_port, flow.record.last);
  }

  InFilterEngine batched(workload_engine_config(config));
  preload_eia(batched, config);
  batched.set_clusters(clusters);
  constexpr std::size_t kBatch = 64;
  std::vector<core::FlowInput> inputs(kBatch);
  std::vector<core::Verdict> verdicts(kBatch);
  for (std::size_t begin = 0; begin < stream.flows.size(); begin += kBatch) {
    const std::size_t n = std::min(kBatch, stream.flows.size() - begin);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& flow = stream.flows[begin + i];
      inputs[i] =
          core::FlowInput{flow.record, flow.arrival_port, flow.record.last};
    }
    batched.process_batch(std::span<const core::FlowInput>(inputs.data(), n),
                          std::span<core::Verdict>(verdicts.data(), n));
  }

  const auto serial_snapshot = serial.registry().snapshot();
  const auto batch_snapshot = batched.registry().snapshot();
  for (const auto& metric : serial_snapshot.metrics) {
    // The NNS index totals aggregate over every sharer of the one
    // TrainedClusters, so both engines read the combined count -- equal by
    // construction, not informative here.
    if (metric.name.starts_with("infilter_nns_index") ||
        metric.name.starts_with("infilter_nns_no_neighbor")) {
      continue;
    }
    const auto* other = batch_snapshot.find(metric.name);
    ASSERT_NE(other, nullptr) << metric.name;
    if (metric.histogram.has_value()) {
      ASSERT_TRUE(other->histogram.has_value()) << metric.name;
      EXPECT_EQ(metric.histogram->count, other->histogram->count) << metric.name;
    } else {
      EXPECT_EQ(metric.value, other->value) << metric.name;
    }
  }
}

/// The sharded runtime now drives engines through process_batch; an odd
/// max_batch exercises ragged dequeue batches. With scan analysis off the
/// sharded pipeline is exactly serial-equivalent (runtime/runtime.h), so
/// every verdict must match the per-flow serial engine's.
TEST(BatchRuntime, OddMaxBatchMatchesSerialVerdicts) {
  sim::ExperimentConfig config = workload_config();
  config.engine.use_scan_analysis = false;
  const sim::TestbedStream stream = sim::generate_stream(config);
  const auto clusters = sim::train_clusters(config);

  InFilterEngine serial(workload_engine_config(config));
  preload_eia(serial, config);
  serial.set_clusters(clusters);
  std::vector<core::Verdict> reference;
  reference.reserve(stream.flows.size());
  for (const auto& flow : stream.flows) {
    reference.push_back(
        serial.process(flow.record, flow.arrival_port, flow.record.last));
  }

  runtime::RuntimeConfig runtime_config;
  runtime_config.shards = 3;
  runtime_config.max_batch = 7;
  runtime_config.engine = workload_engine_config(config);
  std::atomic<std::uint64_t> mismatches{0};
  std::atomic<std::uint64_t> hooked{0};
  runtime::ShardedRuntime runtime(
      runtime_config, nullptr,
      [&](const runtime::FlowItem& item, const core::Verdict& verdict) {
        hooked.fetch_add(1, std::memory_order_relaxed);
        const core::Verdict& expected = reference[item.tag];
        const bool same =
            expected.attack == verdict.attack && expected.stage == verdict.stage &&
            expected.suspect == verdict.suspect &&
            expected.nns.has_value() == verdict.nns.has_value() &&
            (!expected.nns.has_value() ||
             (expected.nns->distance == verdict.nns->distance &&
              expected.nns->anomalous == verdict.nns->anomalous));
        if (!same) mismatches.fetch_add(1, std::memory_order_relaxed);
      });
  for (int s = 0; s < config.sources; ++s) {
    const auto port = static_cast<core::IngressId>(config.first_port + s);
    const auto range = dagflow::eia_range(s, config.blocks_per_source);
    for (int b = range.first.index(); b <= range.last.index(); ++b) {
      runtime.add_expected(port, net::SubBlock{b}.prefix());
    }
  }
  runtime.set_clusters(clusters);
  std::vector<runtime::FlowItem> items;
  for (std::size_t i = 0; i < stream.flows.size(); ++i) {
    const auto& flow = stream.flows[i];
    items.push_back(
        runtime::FlowItem{flow.record, flow.arrival_port, flow.record.last, i});
  }
  ASSERT_EQ(runtime.submit_batch(items), items.size());
  runtime.flush();
  runtime.shutdown();

  EXPECT_EQ(hooked.load(), stream.flows.size());
  EXPECT_EQ(mismatches.load(), 0u);
}

}  // namespace
}  // namespace infilter
