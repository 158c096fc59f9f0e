// The deployable analysis node: Figure 9 assembled.
//
// One object owning the whole receiving side of the architecture --
// flow-capture sockets (one per Peer AS / BR collector port) read by the
// ingest receivers, the sharded Enhanced InFilter engines, the traceback
// aggregator and an alert sink. This is what an operator actually runs
// (tools/infilter-monitor); the testbed and benches drive the same engine
// in-process instead. The node holds no registry of its own: the runtime,
// the ingest pipeline and the tracer each own theirs, and metrics()
// merges their snapshots.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/engine.h"
#include "core/traceback.h"
#include "ingest/ingest.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "util/result.h"

namespace infilter::app {

struct NodeConfig {
  /// Collector UDP ports, one per emulated Peer AS / border router.
  std::vector<std::uint16_t> ports{9001, 9002, 9003, 9004, 9005,
                                   9006, 9007, 9008, 9009, 9010};
  core::EngineConfig engine;
  core::TracebackConfig traceback;

  // -- Concurrent runtime (src/runtime) --
  /// Worker shards (>= 1). The default, 1 shard behind 1 receiver, is the
  /// serial node: one engine sees every flow in receive order. Verdict
  /// stats trail reception by whatever is still in flight -- call flush()
  /// before reading them exactly.
  int threads = 1;
  /// Per-(receiver, shard) ring capacity.
  std::size_t queue_depth = 4096;
  runtime::BackpressurePolicy backpressure = runtime::BackpressurePolicy::kBlock;

  // -- Live ingest (src/ingest) --
  /// Receiver threads (>= 1; capped at ports.size()): each recvmmsg()s
  /// into pooled buffers, decodes inline, and dispatches directly into the
  /// runtime as its own producer -- receiver i is runtime producer i.
  int ingest_threads = 1;

  // -- CPU placement (src/runtime/affinity.h) --
  /// Cpu ids for the pipeline's threads (--cpu-set): ingest receivers
  /// take the first slots, runtime shard workers the next, then the scan
  /// thread; assignment is round-robin over the list. Empty = unpinned.
  /// Pinning is a hint -- failures are counted in the affinity metrics,
  /// never fatal, so the same config runs on a 1-CPU host.
  std::vector<int> affinity;

  // -- Flight recorder (src/obs/trace.h) --
  /// Not owned; null = no tracing. Shared by the ingest pipeline and the
  /// runtime, so one tracer sees the whole record journey. Must outlive
  /// the node.
  obs::Tracer* tracer = nullptr;
};

/// Counters the monitor reports.
struct NodeStats {
  /// Flows *accepted for analysis* (dispatched to a shard ring, possibly
  /// still queued), while suspects/attacks_flagged count completed flows
  /// -- so a live reading can show fewer verdicts than flows. flush()
  /// reconciles them exactly.
  std::uint64_t flows_processed = 0;
  /// Flows shed by a full shard ring (kDrop backpressure only).
  std::uint64_t dropped_flows = 0;
  std::uint64_t suspects = 0;
  std::uint64_t attacks_flagged = 0;
  std::uint64_t datagrams = 0;
  std::uint64_t malformed_datagrams = 0;
  std::uint64_t sequence_gaps = 0;
};

/// One reception/processing path: an IngestPipeline (receivers decoding
/// inline) dispatching into a ShardedRuntime, whose serialized alerts feed
/// the traceback aggregator.
class InFilterNode {
 public:
  /// Binds the collector sockets and starts the receiver and worker
  /// threads. `alert_consumer` (optional, not owned) receives every alert
  /// after traceback aggregation. Fails on threads or ingest_threads < 1
  /// and on socket errors.
  static util::Result<std::unique_ptr<InFilterNode>> create(
      const NodeConfig& config, alert::AlertSink* alert_consumer = nullptr);

  /// Training-phase helpers (Figure 11), fanned out to every shard with
  /// the receivers parked.
  void add_expected(core::IngressId ingress, const net::Prefix& prefix);
  /// Installs a whole EIA table, learned state included
  /// (runtime::ShardedRuntime::install_eia).
  void install_eia(const core::EiaTable& table);
  /// Preloads a learned hop-count table (TTL detection; src/hopcount).
  void install_hopcount(const hopcount::HopCountTable& table);
  void train(std::span<const netflow::V5Record> normal_flows);

  /// Reception, decode, and dispatch run on the pipeline's own threads, so
  /// this just sleeps `timeout_ms` and returns how many flows were
  /// dispatched since the previous poll. Flow timestamps come from the
  /// records (virtual time), so analysis is deterministic for a given
  /// per-socket input stream.
  util::Result<std::size_t> poll_once(int timeout_ms);

  /// Blocks until every received flow has been analyzed, making stats()
  /// and metrics() exact. Two-phase: the receivers park with everything
  /// they accepted dispatched, then the runtime flushes.
  void flush();

  /// Live-resizes the worker shard pool, migrating per-shard engine state
  /// (see runtime::ShardedRuntime::resize). Safe while receivers are
  /// dispatching -- they stall on the submit gate for the pause. Returns
  /// false when the runtime rejects the request.
  bool resize(int new_shards);

  [[nodiscard]] const NodeStats& stats() const { return stats_; }
  [[nodiscard]] const core::TracebackEngine& traceback() const { return traceback_; }
  [[nodiscard]] std::vector<std::uint16_t> ports() const { return ingest_->ports(); }
  /// Worker shards processing flows.
  [[nodiscard]] int threads() const { return static_cast<int>(runtime_->shard_count()); }

  /// Every metric of the node in one view: the runtime's merged snapshot
  /// (per-shard engine registries included, see ShardedRuntime::snapshot),
  /// the pipeline's, and the tracer's, taken with the receivers parked.
  /// Call from the polling thread only, and flush() first for a complete
  /// view -- busy shards' engine registries are omitted.
  [[nodiscard]] obs::RegistrySnapshot metrics() const;

 private:
  InFilterNode(const NodeConfig& config, alert::AlertSink* alert_consumer);

  void refresh_stats();

  core::TracebackEngine traceback_;
  obs::Tracer* tracer_ = nullptr;  ///< NodeConfig::tracer; may be null
  /// Verdict counts from the runtime's verdict hook (worker/scan threads).
  std::atomic<std::uint64_t> hook_suspects_{0};
  std::atomic<std::uint64_t> hook_attacks_{0};
  std::unique_ptr<runtime::ShardedRuntime> runtime_;
  /// Declared after runtime_, so it is destroyed -- its receivers stopped
  /// -- before the runtime they dispatch into. Set in create(), once the
  /// node is at its final address.
  std::unique_ptr<ingest::IngestPipeline> ingest_;
  NodeStats stats_;
  /// Flows already reported by previous polls.
  std::uint64_t reported_ = 0;
};

}  // namespace infilter::app
