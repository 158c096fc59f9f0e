#include "app/node.h"

#include <algorithm>
#include <chrono>
#include <thread>

namespace infilter::app {

InFilterNode::InFilterNode(const NodeConfig& config, alert::AlertSink* alert_consumer)
    : traceback_(config.traceback, alert_consumer),
      tracer_(config.tracer) {
  // One producer slot per ingest receiver (receiver i dispatches as
  // producer i). Receivers take cpu slots 0..R-1 of the affinity list, so
  // the runtime's workers and scan thread start after them. The runtime
  // serializes shard alerts, so the (single-threaded) traceback aggregator
  // works unmodified.
  const auto receivers = std::max<std::size_t>(
      std::min(static_cast<std::size_t>(config.ingest_threads), config.ports.size()),
      1);
  runtime::RuntimeConfig runtime_config;
  runtime_config.shards = config.threads;
  runtime_config.producers = static_cast<int>(receivers);
  runtime_config.queue_depth = config.queue_depth;
  runtime_config.backpressure = config.backpressure;
  runtime_config.engine = config.engine;
  runtime_config.tracer = tracer_;
  runtime_config.cpu_set = config.affinity;
  runtime_config.cpu_slot_offset = receivers;
  runtime_ = std::make_unique<runtime::ShardedRuntime>(
      std::move(runtime_config), &traceback_,
      [this](const runtime::FlowItem&, const core::Verdict& verdict) {
        if (verdict.suspect) hook_suspects_.fetch_add(1, std::memory_order_relaxed);
        if (verdict.attack) hook_attacks_.fetch_add(1, std::memory_order_relaxed);
      });
}

util::Result<std::unique_ptr<InFilterNode>> InFilterNode::create(
    const NodeConfig& config, alert::AlertSink* alert_consumer) {
  if (config.threads < 1) return util::Error{"node: threads must be >= 1"};
  if (config.ingest_threads < 1) {
    return util::Error{"node: ingest_threads must be >= 1"};
  }
  // unique_ptr because the runtime's hook, the traceback sink and the
  // pipeline's dispatch all point into the node: it must not move. The
  // pipeline attaches once the node is at its final address.
  auto node = std::unique_ptr<InFilterNode>(new InFilterNode(config, alert_consumer));
  ingest::IngestConfig ingest_config;
  ingest_config.ports = config.ports;
  ingest_config.receiver_threads = config.ingest_threads;
  ingest_config.tracer = config.tracer;
  ingest_config.cpu_set = config.affinity;  // receivers take slots 0..R-1
  auto pipeline = ingest::IngestPipeline::create(std::move(ingest_config),
                                                 *node->runtime_);
  if (!pipeline) return pipeline.error();
  node->ingest_ = std::move(*pipeline);
  return node;
}

// The runtime's training calls are gate-exclusive and safe under live
// producers; quiescing the receivers on top keeps the whole pipeline empty
// while the tables change, in case traffic is already arriving.

void InFilterNode::add_expected(core::IngressId ingress, const net::Prefix& prefix) {
  ingest_->quiesce([&] { runtime_->add_expected(ingress, prefix); });
}

void InFilterNode::install_eia(const core::EiaTable& table) {
  ingest_->quiesce([&] { runtime_->install_eia(table); });
}

void InFilterNode::install_hopcount(const hopcount::HopCountTable& table) {
  ingest_->quiesce([&] { runtime_->install_hopcount(table); });
}

void InFilterNode::train(std::span<const netflow::V5Record> normal_flows) {
  ingest_->quiesce([&] { runtime_->train(normal_flows); });
}

util::Result<std::size_t> InFilterNode::poll_once(int timeout_ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(timeout_ms));
  refresh_stats();
  const auto delta = stats_.flows_processed - reported_;
  reported_ = stats_.flows_processed;
  return static_cast<std::size_t>(delta);
}

void InFilterNode::flush() {
  // Two-phase: park the receivers with everything they accepted already
  // dispatched, then flush the runtime inside the quiet window so no new
  // submits race the drain accounting.
  ingest_->quiesce([&] { runtime_->flush(); });
  refresh_stats();
}

bool InFilterNode::resize(int new_shards) { return runtime_->resize(new_shards); }

void InFilterNode::refresh_stats() {
  const auto ingest_stats = ingest_->stats();
  stats_.flows_processed = ingest_stats.records_dispatched;
  stats_.dropped_flows = ingest_stats.records_shed;
  stats_.datagrams = ingest_stats.datagrams_received;
  stats_.malformed_datagrams = ingest_stats.datagrams_malformed;
  stats_.sequence_gaps = ingest_stats.sequence_gaps;
  stats_.suspects = hook_suspects_.load(std::memory_order_relaxed);
  stats_.attacks_flagged = hook_attacks_.load(std::memory_order_relaxed);
}

obs::RegistrySnapshot InFilterNode::metrics() const {
  // runtime_->snapshot() is safe under live producers, but taking it (and
  // the pipeline's private gauges) inside the pipeline's quiet window
  // gives one coherent, nothing-in-flight view.
  obs::RegistrySnapshot merged;
  ingest_->quiesce([&] {
    std::vector<obs::RegistrySnapshot> parts{runtime_->snapshot(), ingest_->snapshot()};
    if (tracer_ != nullptr) parts.push_back(tracer_->snapshot());
    merged = obs::merge_snapshots(parts);
  });
  return merged;
}

}  // namespace infilter::app
