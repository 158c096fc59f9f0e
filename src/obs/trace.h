// Flight-recorder tracing and thread liveness for the ingest -> runtime ->
// scan pipeline.
//
// The per-stage histograms (obs/pipeline.h) measure time spent *inside* a
// stage; nothing so far measured the time between stages -- the queue
// waits that dominate end-to-end latency once the pipeline is threaded,
// and exactly the numbers the receiver-direct-dispatch and adaptive-
// sharding work need before either can be judged. This module is that
// missing layer, in the always-on, low-overhead shape a carrier-grade
// deployment needs (Scheitle et al.: telemetry that runs at line rate or
// not at all):
//
//   * A Tracer owns one fixed-capacity SPSC TraceRing per registered
//     pipeline thread (receivers, shard workers, scan stage). Writers
//     emit compact span events with a single try_push -- no locks, no
//     heap; a full ring drops the event and counts the drop
//     (infilter_trace_dropped_total), so the recorder can run forever.
//   * A sampled per-record journey: a monotonic timestamp is stamped at
//     socket receive (ingest::DatagramRef::recv_ns), carried through the
//     pipeline in FlowItem::{recv_ns, hop_ns}, and re-stamped at every
//     hand-off. Each hop emits one span whose end is the next hop's
//     start, so a record's spans tile the interval from socket receive to
//     final verdict exactly:
//
//       decode | queue_shard | eia | queue_scan | scan_nns
//       ^ recv_ns                                 t_verdict ^
//
//     `decode` runs inline on the receiver lane that read the datagram
//     (receiver-direct dispatch), so there is no receiver->decoder queue
//     hop -- the old `queue_ingest` span no longer occurs, and the ingest
//     bench fails if one appears in an export. (Legal flows end at `eia`;
//     direct-submit callers start at `decode`'s end.) The same
//     stamps feed always-on histograms -- infilter_e2e_latency_us and
//     infilter_queue_wait_{shard,scan}_us -- so p50/p99/p999 queue-wait
//     attribution is one scrape away even when nobody exports the event
//     stream.
//   * Liveness: every registered thread publishes a progress heartbeat
//     and a current-state gauge with relaxed stores; scan_liveness() is
//     the monitor-side stall detector, flagging threads whose progress
//     counter stops advancing while their input queue is non-empty.
//
// Cost discipline: with tracing disabled every hop is one relaxed load
// and one branch (enabled()); nothing else runs -- no clock reads, no
// sampling arithmetic. Enabled, the clock is read once per *batch* at
// each hop and only sampled records (1 in sample_every) emit events.
// Ring memory is allocated at thread registration (setup time); the
// steady-state write path never touches the heap. bench/ingest_throughput
// pins the disabled-overhead and zero-allocation claims.
//
// Threading contract: emit()/heartbeat()/set_state() are single-writer
// per lane (the owning thread). drain()/chrome_trace_json() are the
// single consumer side of every ring -- call them from one thread at a
// time. register_thread() and scan_liveness() lock; they are setup- and
// scrape-time operations. Lanes are never unregistered (the flight
// recorder keeps a dead thread's last events); retire() detaches the
// queue probe so a Tracer may outlive the pipeline it instrumented.

#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace infilter::obs {

/// One hop of a sampled record's journey (or a whole serial process()).
/// Values are stable: they index kSpanNames and appear in trace exports.
enum class SpanKind : std::uint8_t {
  kQueueIngest = 0,  ///< retired: receiver->decoder ring wait. Unused since
                     ///< receivers decode inline; value kept for export
                     ///< stability and old-trace readers.
  kDecode,           ///< socket receive -> dispatch entry (inline parse)
  kQueueShard,       ///< dispatch -> shard-worker pop (shard ring wait)
  kEia,              ///< worker pop -> EIA stage done (legal flows: verdict)
  kProcess,          ///< retired: worker pop -> verdict, from when workers
                     ///< could run the whole pipeline. Every suspect now
                     ///< finishes on the scan stage; value kept for export
                     ///< stability and old-trace readers.
  kQueueScan,        ///< suspect forward -> scan-stage release (reorder wait)
  kScanNns,          ///< scan release -> verdict (scan -> NNS -> alert)
  kSerial,           ///< serial engine process(), no pipeline
};

[[nodiscard]] std::string_view span_name(SpanKind kind);

/// What a registered pipeline thread is doing right now.
enum class ThreadState : std::uint8_t {
  kIdle = 0,  ///< parked or polling with nothing queued
  kBusy,      ///< actively receiving / decoding / processing
  kBlocked,   ///< waiting on a downstream resource (backpressure, quiesce)
  kStopped,   ///< thread exited (lane retired)
};

[[nodiscard]] std::string_view thread_state_name(ThreadState state);

/// One compact span event. 32 bytes; a lane's ring is an array of these.
struct TraceEvent {
  std::uint64_t start_ns = 0;  ///< monotonic (steady_clock) start
  std::uint64_t dur_ns = 0;
  std::uint64_t id = 0;  ///< record journey id (the FlowItem tag)
  SpanKind kind = SpanKind::kSerial;
};

/// Fixed-capacity SPSC ring of TraceEvents. Same wait-free head/tail
/// discipline as runtime::SpscRing (obs cannot depend on runtime), plus
/// drop-on-full: a flight recorder must never block its writer.
class TraceRing {
 public:
  /// `capacity` is rounded up to a power of two (minimum 2).
  explicit TraceRing(std::size_t capacity);

  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

  /// Producer side. Returns false (event lost) when the ring is full.
  bool try_push(const TraceEvent& event) noexcept;
  /// Consumer side. Returns false when the ring is empty.
  bool try_pop(TraceEvent& out) noexcept;

  [[nodiscard]] std::size_t size() const noexcept;
  [[nodiscard]] bool empty() const noexcept { return size() == 0; }

 private:
  static constexpr std::size_t kCacheLine = 64;

  const std::size_t capacity_;
  const std::size_t mask_;
  std::unique_ptr<TraceEvent[]> slots_;

  alignas(kCacheLine) std::atomic<std::size_t> head_{0};  ///< consumer
  alignas(kCacheLine) std::size_t cached_tail_{0};
  alignas(kCacheLine) std::atomic<std::size_t> tail_{0};  ///< producer
  alignas(kCacheLine) std::size_t cached_head_{0};
};

/// Per-thread handle: one trace ring plus the liveness slots. Obtained
/// from Tracer::register_thread(); the pointer stays valid for the
/// Tracer's lifetime (lanes are never destroyed, only retired).
class ThreadLane {
 public:
  ThreadLane(std::string name, std::string role, std::size_t ring_capacity,
             std::function<std::size_t()> queue_depth);

  ThreadLane(const ThreadLane&) = delete;
  ThreadLane& operator=(const ThreadLane&) = delete;

  // -- Writer side (the owning thread only) --

  /// Records one span; a full ring counts the event as dropped instead.
  void emit(SpanKind kind, std::uint64_t start_ns, std::uint64_t dur_ns,
            std::uint64_t id) noexcept {
    if (ring_.try_push(TraceEvent{start_ns, dur_ns, id, kind})) {
      emitted_.fetch_add(1, std::memory_order_relaxed);
    } else {
      dropped_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  /// Publishes forward progress: bump once per unit of work handled.
  void heartbeat(std::uint64_t n = 1) noexcept {
    progress_.fetch_add(n, std::memory_order_relaxed);
  }
  void set_state(ThreadState state) noexcept {
    state_.store(static_cast<std::uint8_t>(state), std::memory_order_relaxed);
  }
  /// Thread exit: marks the lane kStopped and detaches the queue probe,
  /// so a Tracer outliving the pipeline never calls into freed state.
  void retire();

  // -- Reader side --

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const std::string& role() const noexcept { return role_; }
  [[nodiscard]] ThreadState state() const noexcept {
    return static_cast<ThreadState>(state_.load(std::memory_order_relaxed));
  }
  [[nodiscard]] std::uint64_t progress() const noexcept {
    return progress_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t events_emitted() const noexcept {
    return emitted_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t events_dropped() const noexcept {
    return dropped_.load(std::memory_order_relaxed);
  }
  /// Single-consumer: appends every queued event to `out`.
  void drain(std::vector<TraceEvent>& out);
  /// The lane's input-queue depth (0 when no probe / retired).
  [[nodiscard]] std::size_t queue_depth() const;

 private:
  friend class Tracer;

  std::string name_;
  std::string role_;
  TraceRing ring_;
  std::atomic<std::uint64_t> progress_{0};
  std::atomic<std::uint8_t> state_{static_cast<std::uint8_t>(ThreadState::kIdle)};
  std::atomic<std::uint64_t> emitted_{0};
  std::atomic<std::uint64_t> dropped_{0};

  /// Guarded by probe_mutex_: scan_liveness() samples it while retire()
  /// may clear it from the exiting thread.
  mutable std::mutex probe_mutex_;
  std::function<std::size_t()> queue_depth_;

  // Stall-detector state, owned by the scanning thread (scan_liveness()).
  std::uint64_t last_progress_ = 0;
  std::uint64_t last_change_ns_ = 0;
  bool seen_ = false;
};

/// One stalled thread, as diagnosed by Tracer::scan_liveness().
struct ThreadStall {
  std::string name;
  ThreadState state = ThreadState::kIdle;
  std::size_t queued = 0;        ///< input-queue depth at scan time
  double stalled_for_ms = 0.0;   ///< time since the progress counter last moved
};

struct TracerConfig {
  /// Span events buffered per registered thread before drops begin.
  std::size_t ring_capacity = 1 << 14;
  /// 1 in `sample_every` records gets the full journey treatment
  /// (timestamps, span events, histogram observations). 1 = every record.
  std::uint64_t sample_every = 64;
  /// Master switch; also settable at runtime (set_enabled()).
  bool enabled = false;
  /// Value metrics (event/drop counters, journey histograms) land here;
  /// null = a tracer-private registry. Pull gauges that call back into the
  /// tracer always stay private (obs::Registry has no unregistration --
  /// same dangling-callback discipline as ShardedRuntime).
  Registry* registry = nullptr;
};

/// The flight recorder: owns every lane, the journey histograms, and the
/// stall detector. One per process (or per pipeline under test); every
/// stage holds a `Tracer*` that may be null (tracing not compiled out,
/// just absent).
class Tracer {
 public:
  explicit Tracer(TracerConfig config = {});

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// The per-hop fast-path gate: one relaxed load. Every other Tracer
  /// facility sits behind this check on hot paths.
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }
  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  /// Whether record `id` is on the sampled journey (enabled() callers
  /// check that first; this is pure arithmetic).
  [[nodiscard]] bool sampled(std::uint64_t id) const noexcept {
    return id % sample_every_ == 0;
  }
  [[nodiscard]] std::uint64_t sample_every() const noexcept { return sample_every_; }

  /// Monotonic (steady_clock) nanoseconds. Never 0, so a zero recv_ns
  /// reliably means "not sampled".
  [[nodiscard]] static std::uint64_t now_ns() noexcept;

  /// Registers the calling pipeline thread: allocates its ring (setup
  /// time) and returns the lane handle, valid for the tracer's lifetime.
  /// `queue_depth` (optional) probes the thread's input queue for the
  /// stall detector; it must stay callable until the lane is retired.
  /// Roles get a `infilter_pipeline_threads_<role>` count gauge.
  ThreadLane* register_thread(std::string name, std::string role,
                              std::function<std::size_t()> queue_depth = {});

  /// The monitor-side stall detector: a thread is stalled when its
  /// progress counter has not advanced for `stall_after_ms` while its
  /// input queue is non-empty (work waiting, nobody moving). Call
  /// periodically from one thread; each call refreshes the per-lane
  /// progress bookkeeping and the infilter_trace_threads_stalled gauge.
  [[nodiscard]] std::vector<ThreadStall> scan_liveness(double stall_after_ms = 100.0);

  /// Drains every lane's ring into one Chrome trace-event / Perfetto
  /// JSON document ({"traceEvents":[...]}, ts/dur in microseconds, one
  /// tid per lane with thread_name metadata). Single-consumer; events
  /// already drained are gone (flight-recorder semantics).
  [[nodiscard]] std::string chrome_trace_json();

  /// Aggregate accounting across all lanes.
  [[nodiscard]] std::uint64_t events_emitted() const;
  [[nodiscard]] std::uint64_t events_dropped() const;

  /// The tracer-private registry view (thread-count and stall gauges,
  /// plus the value metrics when no external registry was configured).
  /// Merge with the pipeline's own snapshot (obs::merge_snapshots).
  [[nodiscard]] RegistrySnapshot snapshot() const { return owned_registry_->snapshot(); }

  // -- Journey histograms (value instruments; thread-safe observe) --
  Histogram* e2e_us = nullptr;           ///< infilter_e2e_latency_us
  Histogram* queue_wait_shard_us = nullptr;
  Histogram* queue_wait_scan_us = nullptr;

 private:
  std::uint64_t sample_every_;
  std::size_t ring_capacity_;
  std::atomic<bool> enabled_;

  /// Guards lanes_ structure (registration, liveness scans, exports);
  /// never taken on an emit path.
  mutable std::mutex mutex_;
  /// Deque for stable lane addresses across registrations.
  std::deque<std::unique_ptr<ThreadLane>> lanes_;
  std::atomic<std::uint64_t> stalled_count_{0};

  std::unique_ptr<Registry> owned_registry_;
  Registry* registry_;  ///< external or owned_registry_.get(); never null
};

}  // namespace infilter::obs
