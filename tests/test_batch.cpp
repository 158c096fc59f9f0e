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
#include "runtime_fixtures.h"
#include "sim/testbed.h"

namespace infilter {
namespace {

using core::InFilterEngine;
using core::TrainedClusters;
using fixtures::expect_same_alerts;

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
  sim::preload_eia(config, serial);
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
    sim::preload_eia(config, batched);
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
  sim::preload_eia(config, serial);
  serial.set_clusters(clusters);
  for (const auto& flow : stream.flows) {
    (void)serial.process(flow.record, flow.arrival_port, flow.record.last);
  }

  InFilterEngine batched(workload_engine_config(config));
  sim::preload_eia(config, batched);
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
  sim::preload_eia(config, serial);
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
        if (!fixtures::same_verdict(reference[item.tag], verdict)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      });
  sim::preload_eia(config, runtime);
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
