// Threaded live ingest: the receiving half of Figure 9 at line rate.
//
// "A NetFlow enabled router will periodically send datagrams to a
// pre-designated receiver node" -- this subsystem is that node's receiving
// side, and the live node's (app/node) only one: R receiver threads each
// run the whole receive -> decode -> dispatch lane to completion on their
// own core, and the hot path runs without a single steady-state heap
// allocation.
//
//   socket(s) --recvmmsg--> [receiver thread r]*R --decode inline--> submit_batch(items, r)
//                             pooled slot arena     netflow v5 parse,    ShardedRuntime's
//                             (recv_batch slots,    stream accounting,   per-(producer, shard)
//                              reused per batch)    FlowItem batching    SPSC rings
//
// Stage contract:
//   * Each receiver thread owns a pooled buffer arena, its share of the
//     sockets (distributed round-robin), and one downstream producer
//     slot. It recvmmsg()s a batch of export datagrams into arena slots,
//     parses them in place with the allocation-free netflow::decode_into(),
//     tracks per-(engine, ingress) export-sequence gaps, and hands the
//     records straight to the dispatch function as that producer -- no
//     hand-off ring, no dedicated decode/dispatcher thread, no cross-core
//     hop between the socket and the shard rings. Slots recycle within
//     the batch (records are copied out at decode), so the arena is
//     exactly recv_batch slots and never runs dry.
//   * A receiver with nothing to dispatch does nothing for the runtime:
//     its tag-order merge bounds an idle producer slot at the claim
//     counter itself (runtime.h), so a quiet socket never holds back the
//     other receivers' flows. The poll timeout only bounds how fast a
//     receiver notices stop() and quiesce().
//
// Overload: the pipeline itself does not queue, so overload lives at its
// two edges. Upstream, a receiver that cannot keep up (or one blocked by a
// kBlock runtime) backs traffic into the kernel socket queue, whose drops
// stay visible through the SO_RXQ_OVFL readout
// (infilter_ingest_kernel_drops_total). Downstream, a kDrop runtime
// refuses records at submit_batch, counted as records_shed.
//
// Drain/shutdown is two-phase, mirroring ShardedRuntime::flush():
//   phase 1  drain(): every datagram the receivers accepted is decoded
//            and its records handed to the dispatcher;
//   phase 2  the caller flushes the runtime (quiesce() parks every
//            receiver with no dispatch in flight while the caller runs
//            flush or snapshot; the kernel socket buffers absorb traffic
//            for the duration).
//
// Ordering semantics: each socket's datagram stream is decoded by one
// fixed receiver in kernel receive order, so single-socket verdict
// streams are bit-identical to one serial engine fed the same datagrams
// in receive order (pinned by tests/test_ingest.cpp). Across sockets the
// interleaving is whatever the threads make it -- the same
// nondeterminism a serial collector already has across ports -- and the
// runtime's sequence tags capture whichever interleaving was realized.
//
// CPU placement: with a non-empty cpu_set, receiver r pins itself to
// cpu_set[(cpu_slot_offset + r) % size] (runtime/affinity.h). app/node
// gives receivers the first slots and offsets the runtime's workers past
// them, so one --cpu-set list lays out the whole pipeline. Failures are
// counted, never fatal.
//
// Metrics: the pipeline owns one registry (the infilter_ingest_* counters
// and its pull gauges); snapshot() exports it for the caller to merge
// with the runtime's.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <vector>

#include "core/eia.h"
#include "flowtools/udp.h"
#include "obs/metrics.h"
#include "runtime/runtime.h"
#include "util/result.h"

namespace infilter::ingest {

/// Bytes per receive-arena slot. A v5 export datagram is at most 1464
/// bytes; longer datagrams are counted truncated and dropped before decode.
inline constexpr std::size_t kSlotBytes = 2048;
/// Kernel receive buffer per socket (SO_RCVBUF). This is the only queue in
/// front of the receivers -- all slack lives here.
inline constexpr int kSocketRcvbuf = 1 << 20;

struct IngestConfig {
  /// Collector UDP ports, one socket each (0 entries bind ephemeral
  /// ports; read the assignments from ports()).
  std::vector<std::uint16_t> ports;
  /// Ingress id attributed to each port's traffic, parallel to `ports`.
  /// Empty = use the bound port number itself (the flowtools capture
  /// convention). An explicit mapping keeps ingress ids stable when
  /// binding ephemeral ports.
  std::vector<core::IngressId> ingress_ids;
  /// Receiver threads. Each is a full receive+decode+dispatch lane and
  /// maps to downstream producer slot r; sockets are distributed
  /// round-robin; clamped to [1, ports.size()].
  int receiver_threads = 1;
  /// Datagrams per recvmmsg() batch; also the receiver's arena size in
  /// slots (one batch is all that is ever in flight).
  std::size_t recv_batch = 32;
  /// FlowItems accumulated before a dispatch call.
  std::size_t dispatch_batch = 256;
  /// CPU placement (runtime/affinity.h): empty = unpinned. Receiver r
  /// pins to cpu_set[(cpu_slot_offset + r) % size].
  std::vector<int> cpu_set;
  std::size_t cpu_slot_offset = 0;
  /// Flight recorder (obs/trace.h), not owned; null = no tracing. When
  /// set, receiver threads register liveness lanes, stamp each sampled
  /// record's socket-receive time while tracer->enabled(), and emit the
  /// receive->dispatch kDecode span the downstream runtime's spans then
  /// tile against. Use the same tracer as the runtime's
  /// RuntimeConfig::tracer so one export holds the whole pipeline. Must
  /// outlive the pipeline.
  obs::Tracer* tracer = nullptr;
};

/// Monotone pipeline accounting. Every received datagram is decoded or
/// malformed (datagrams_received == datagrams_decoded +
/// datagrams_malformed once drained); truncated ones are counted and
/// recycled receiver-side on top.
struct IngestStats {
  std::uint64_t datagrams_received = 0;   ///< accepted into the pipeline
  std::uint64_t datagrams_decoded = 0;    ///< parsed as NetFlow v5
  std::uint64_t datagrams_malformed = 0;  ///< failed v5 parse (incl. zero-length)
  std::uint64_t datagrams_truncated = 0;  ///< longer than kSlotBytes, dropped
  std::uint64_t kernel_drops = 0;         ///< SO_RXQ_OVFL readout (socket queue)
  std::uint64_t records_decoded = 0;      ///< flow records parsed
  std::uint64_t records_dispatched = 0;   ///< accepted by the dispatcher
  std::uint64_t records_shed = 0;         ///< refused by the dispatcher (kDrop)
  std::uint64_t sequence_gaps = 0;        ///< export-sequence gaps (lost upstream)
  std::uint64_t socket_errors = 0;        ///< hard recv/poll failures on a socket
  std::uint64_t pinned_threads = 0;       ///< receivers pinned from cpu_set
  std::uint64_t affinity_failures = 0;    ///< pin attempts the kernel refused
};

class IngestPipeline {
 public:
  /// Hands one decoded batch to the next stage as `producer` (the
  /// receiver index, < receiver_count()); returns how many items it
  /// accepted (ShardedRuntime::submit_batch's contract). Each producer
  /// index is called from its one receiver thread only; different indices
  /// are called concurrently.
  using DispatchFn = std::function<std::size_t(
      std::span<const runtime::FlowItem> items, int producer)>;
  /// Binds the sockets and spawns the receiver threads.
  static util::Result<std::unique_ptr<IngestPipeline>> create(IngestConfig config,
                                                              DispatchFn dispatch);
  /// Convenience: dispatch straight into a runtime (not owned; must
  /// outlive the pipeline). The runtime must have at least as many
  /// producer slots as the pipeline has receiver threads.
  static util::Result<std::unique_ptr<IngestPipeline>> create(
      IngestConfig config, runtime::ShardedRuntime& runtime);

  /// stop()s.
  ~IngestPipeline();
  IngestPipeline(const IngestPipeline&) = delete;
  IngestPipeline& operator=(const IngestPipeline&) = delete;

  [[nodiscard]] std::vector<std::uint16_t> ports() const;
  [[nodiscard]] std::size_t receiver_count() const { return producers_.size(); }

  /// Phase 1 of the two-phase drain: blocks until every datagram the
  /// receivers had accepted when the call was made is decoded and its
  /// records handed to the dispatcher (or counted shed). A receiver is
  /// between batches exactly when it has dispatched everything it
  /// accepted, so this only ever waits out an in-flight batch. Does not
  /// stop the pipeline and does not flush the downstream runtime -- that
  /// is phase 2, the caller's (see quiesce()). Single-owner like
  /// quiesce(): do not call concurrently with quiesce() from another
  /// thread.
  void drain() const;

  /// Parks every receiver with its current batch fully dispatched, runs
  /// `fn` with no dispatch in flight anywhere, and resumes. This is how a
  /// caller gets a quiescent view of the downstream runtime
  /// (flush()/snapshot()) with zero records mid-pipeline; the kernel
  /// socket buffers absorb traffic for the duration. Serialized against
  /// concurrent quiesce() and stop() callers, so a destructor racing a
  /// metrics/flush quiesce on another thread cannot strand the waiter;
  /// after stop() it degenerates to running `fn`. `fn` must not call back
  /// into stop()/quiesce() on this pipeline.
  void quiesce(const std::function<void()>& fn) const;

  /// Drains whatever the receivers accepted, then stops and joins all
  /// threads. Idempotent, and serialized against quiesce() (a stop cannot
  /// interleave with a quiesce in flight). The downstream runtime is
  /// untouched -- flush or shut it down afterwards (two-phase shutdown).
  void stop();

  [[nodiscard]] IngestStats stats() const;

  /// The pipeline's metrics (value counters and pull gauges). Callers
  /// merge it with the runtime's snapshot (obs::merge_snapshots).
  [[nodiscard]] obs::RegistrySnapshot snapshot() const { return registry_.snapshot(); }

 private:
  /// One received datagram awaiting inline decode: an arena slot plus
  /// what recv told us about it. Never crosses a thread.
  struct DatagramRef {
    std::uint32_t slot = 0;
    std::uint32_t bytes = 0;
    std::uint16_t socket = 0;  ///< index into sockets_ (port + ingress id)
    /// Socket-receive stamp for the trace journey (one clock read per
    /// recv batch); 0 when tracing is off.
    std::uint64_t recv_ns = 0;
  };

  /// One bound socket and its attribution.
  struct Socket {
    flowtools::UdpReceiver receiver;
    core::IngressId ingress = 0;
    std::uint32_t last_rxq_ovfl = 0;  ///< previous SO_RXQ_OVFL reading
  };

  /// One receiver lane: arena + its share of the sockets + the drain and
  /// quiesce handshakes.
  struct Producer {
    std::vector<std::size_t> sockets;  ///< indices into sockets_
    std::unique_ptr<std::uint8_t[]> arena;
    std::thread thread;
    /// Datagrams accepted off the sockets (bumped at receive).
    std::atomic<std::uint64_t> received{0};
    /// Datagrams fully handled: decoded and dispatched, or malformed.
    /// Bumped once the batch's records have been handed to the
    /// dispatcher, so received == handled means "nothing in flight".
    std::atomic<std::uint64_t> handled{0};
    /// quiesce() handshake (see quiesce()).
    std::atomic<bool> pause_requested{false};
    std::atomic<bool> paused{false};

    explicit Producer(std::size_t slots)
        : arena(std::make_unique<std::uint8_t[]>(slots * kSlotBytes)) {}
  };

  IngestPipeline(IngestConfig config, DispatchFn dispatch);

  void receiver_main(Producer& producer, std::size_t index);
  /// Receives up to recv_batch datagrams from `socket` into free arena
  /// slots, appending descriptors to `refs` (slots move from free_slots
  /// to refs; truncated ones bounce straight back). Returns how many
  /// descriptors were appended.
  std::size_t receive_batch(Producer& producer, Socket& socket,
                            std::vector<std::uint32_t>& free_slots,
                            std::vector<DatagramRef>& refs);

  IngestConfig config_;
  DispatchFn dispatch_;
  std::vector<Socket> sockets_;
  std::vector<std::unique_ptr<Producer>> producers_;
  std::atomic<bool> stopping_{false};
  bool stopped_ = false;

  // Quiesce handshake (mutable: synchronization state, used by const
  // quiesce()).
  mutable std::mutex pause_mutex_;
  mutable std::condition_variable pause_cv_;
  mutable std::mutex quiesce_mutex_;  ///< serializes quiesce() and stop() callers

  /// CPU placement accounting (a hint; failures counted, never fatal).
  std::atomic<std::uint64_t> pinned_threads_{0};
  std::atomic<std::uint64_t> affinity_failures_{0};

  /// Value counters and the `this`-capturing pull gauges.
  obs::Registry registry_;
  obs::Counter* datagrams_;
  obs::Counter* decoded_;
  obs::Counter* malformed_;
  obs::Counter* truncated_;
  obs::Counter* kernel_drops_;
  obs::Counter* records_;
  obs::Counter* dispatched_;
  obs::Counter* shed_;
  obs::Counter* sequence_gaps_;
  obs::Counter* socket_errors_;
};

}  // namespace infilter::ingest
