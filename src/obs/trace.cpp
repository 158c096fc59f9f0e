#include "obs/trace.h"

#include <chrono>
#include <iterator>
#include <sstream>
#include <utility>

namespace infilter::obs {
namespace {

constexpr std::string_view kSpanNames[] = {
    "queue_ingest", "decode", "queue_shard", "eia",
    "process",      "queue_scan", "scan_nns", "serial",
};

constexpr std::string_view kStateNames[] = {"idle", "busy", "blocked", "stopped"};

std::size_t round_up_pow2(std::size_t n) {
  std::size_t cap = 2;
  while (cap < n) cap <<= 1;
  return cap;
}

/// Journey histograms share one bound set: 1us .. ~1s, x2 per bucket.
std::vector<double> journey_bounds() {
  return Histogram::exponential_bounds(1.0, 2.0, 20);
}

}  // namespace

std::string_view span_name(SpanKind kind) {
  const auto index = static_cast<std::size_t>(kind);
  return index < std::size(kSpanNames) ? kSpanNames[index] : "unknown";
}

std::string_view thread_state_name(ThreadState state) {
  const auto index = static_cast<std::size_t>(state);
  return index < std::size(kStateNames) ? kStateNames[index] : "unknown";
}

// -- TraceRing ---------------------------------------------------------------

TraceRing::TraceRing(std::size_t capacity)
    : capacity_(round_up_pow2(capacity < 2 ? 2 : capacity)),
      mask_(capacity_ - 1),
      slots_(new TraceEvent[capacity_]) {}

bool TraceRing::try_push(const TraceEvent& event) noexcept {
  const auto tail = tail_.load(std::memory_order_relaxed);
  if (tail - cached_head_ >= capacity_) {
    cached_head_ = head_.load(std::memory_order_acquire);
    if (tail - cached_head_ >= capacity_) return false;
  }
  slots_[tail & mask_] = event;
  tail_.store(tail + 1, std::memory_order_release);
  return true;
}

bool TraceRing::try_pop(TraceEvent& out) noexcept {
  const auto head = head_.load(std::memory_order_relaxed);
  if (head == cached_tail_) {
    cached_tail_ = tail_.load(std::memory_order_acquire);
    if (head == cached_tail_) return false;
  }
  out = slots_[head & mask_];
  head_.store(head + 1, std::memory_order_release);
  return true;
}

std::size_t TraceRing::size() const noexcept {
  const auto tail = tail_.load(std::memory_order_acquire);
  const auto head = head_.load(std::memory_order_acquire);
  return tail - head;
}

// -- ThreadLane --------------------------------------------------------------

ThreadLane::ThreadLane(std::string name, std::string role,
                       std::size_t ring_capacity,
                       std::function<std::size_t()> queue_depth)
    : name_(std::move(name)),
      role_(std::move(role)),
      ring_(ring_capacity),
      queue_depth_(std::move(queue_depth)) {}

void ThreadLane::retire() {
  set_state(ThreadState::kStopped);
  const std::lock_guard<std::mutex> lock(probe_mutex_);
  queue_depth_ = nullptr;
}

void ThreadLane::drain(std::vector<TraceEvent>& out) {
  TraceEvent event;
  while (ring_.try_pop(event)) out.push_back(event);
}

std::size_t ThreadLane::queue_depth() const {
  const std::lock_guard<std::mutex> lock(probe_mutex_);
  return queue_depth_ ? queue_depth_() : 0;
}

// -- Tracer ------------------------------------------------------------------

Tracer::Tracer(TracerConfig config)
    : sample_every_(config.sample_every == 0 ? 1 : config.sample_every),
      ring_capacity_(config.ring_capacity),
      enabled_(config.enabled) {
  e2e_us = &registry_.histogram(
      "infilter_e2e_latency_us", journey_bounds(),
      "Sampled end-to-end latency, socket receive to final verdict (us)");
  queue_wait_shard_us = &registry_.histogram(
      "infilter_queue_wait_shard_us", journey_bounds(),
      "Sampled wait in the producer->shard-worker rings (us)");
  queue_wait_scan_us = &registry_.histogram(
      "infilter_queue_wait_scan_us", journey_bounds(),
      "Sampled wait from suspect forward to scan-stage release (us)");
  registry_.counter_fn(
      "infilter_trace_events_total", [this] { return events_emitted(); },
      "Span events recorded across all lanes");
  registry_.counter_fn(
      "infilter_trace_dropped_total", [this] { return events_dropped(); },
      "Span events lost to full trace rings (flight recorder never blocks)");
  registry_.gauge_fn(
      "infilter_trace_threads",
      [this] {
        const std::lock_guard<std::mutex> lock(mutex_);
        double live = 0;
        for (const auto& lane : lanes_) {
          if (lane->state() != ThreadState::kStopped) live += 1;
        }
        return live;
      },
      "Registered pipeline threads that have not exited");
  registry_.gauge_fn(
      "infilter_trace_threads_stalled",
      [this] {
        return static_cast<double>(stalled_count_.load(std::memory_order_relaxed));
      },
      "Threads flagged by the last liveness scan (no progress, queue non-empty)");
}

std::uint64_t Tracer::now_ns() noexcept {
  const auto since_epoch = std::chrono::steady_clock::now().time_since_epoch();
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(since_epoch).count();
  // Never 0: a zero recv_ns means "record not sampled" throughout the
  // pipeline, and steady_clock could in principle start at 0 at boot.
  return static_cast<std::uint64_t>(ns) | 1U;
}

ThreadLane* Tracer::register_thread(std::string name, std::string role,
                                    std::function<std::size_t()> queue_depth) {
  ThreadLane* handle = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto lane = std::make_unique<ThreadLane>(std::move(name), role,
                                             ring_capacity_,
                                             std::move(queue_depth));
    handle = lane.get();
    lanes_.push_back(std::move(lane));
  }
  // Per-role thread-count gauge (idempotent on re-registration). Counts
  // live (non-retired) lanes so exporters see the pipeline's true shape.
  // Registered after dropping mutex_: a concurrent Registry::snapshot()
  // invokes pull gauges under the registry mutex and those gauges take
  // mutex_, so taking the registry mutex while holding mutex_ would
  // invert that lock order.
  registry_.gauge_fn(
      "infilter_pipeline_threads_" + role,
      [this, role] {
        const std::lock_guard<std::mutex> inner(mutex_);
        double live = 0;
        for (const auto& lane : lanes_) {
          if (lane->role() == role && lane->state() != ThreadState::kStopped) {
            live += 1;
          }
        }
        return live;
      },
      "Live pipeline threads with role '" + role + "'");
  return handle;
}

std::vector<ThreadStall> Tracer::scan_liveness(double stall_after_ms) {
  const std::lock_guard<std::mutex> lock(mutex_);
  const auto now = now_ns();
  std::vector<ThreadStall> stalls;
  for (const auto& lane : lanes_) {
    if (lane->state() == ThreadState::kStopped) continue;
    const auto progress = lane->progress();
    if (!lane->seen_ || progress != lane->last_progress_) {
      lane->seen_ = true;
      lane->last_progress_ = progress;
      lane->last_change_ns_ = now;
      continue;
    }
    const auto queued = lane->queue_depth();
    if (queued == 0) {
      // Idle with an empty queue is healthy; restart the stall clock so a
      // later backlog is measured from when work actually appeared.
      lane->last_change_ns_ = now;
      continue;
    }
    const double stalled_ms =
        static_cast<double>(now - lane->last_change_ns_) / 1e6;
    if (stalled_ms >= stall_after_ms) {
      stalls.push_back(ThreadStall{lane->name(), lane->state(), queued, stalled_ms});
    }
  }
  stalled_count_.store(stalls.size(), std::memory_order_relaxed);
  return stalls;
}

std::string Tracer::chrome_trace_json() {
  std::vector<std::pair<const ThreadLane*, std::vector<TraceEvent>>> drained;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    drained.reserve(lanes_.size());
    for (const auto& lane : lanes_) {
      std::vector<TraceEvent> events;
      lane->drain(events);
      drained.emplace_back(lane.get(), std::move(events));
    }
  }
  // Rebase to the earliest span so timestamps are small offsets rather than
  // nanoseconds-since-boot (keeps doubles exact and the Perfetto viewport
  // sane).
  std::uint64_t origin = ~std::uint64_t{0};
  for (const auto& [lane, events] : drained) {
    for (const auto& event : events) {
      if (event.start_ns < origin) origin = event.start_ns;
    }
  }
  if (origin == ~std::uint64_t{0}) origin = 0;

  std::ostringstream out;
  out.precision(3);
  out << std::fixed;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  int tid = 0;
  for (const auto& [lane, events] : drained) {
    if (!first) out << ',';
    first = false;
    out << "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":" << tid
        << ",\"args\":{\"name\":\"" << lane->name() << "\"}}";
    for (const auto& event : events) {
      out << ",{\"name\":\"" << span_name(event.kind)
          << "\",\"cat\":\"pipeline\",\"ph\":\"X\",\"pid\":1,\"tid\":" << tid
          << ",\"ts\":" << static_cast<double>(event.start_ns - origin) / 1000.0
          << ",\"dur\":" << static_cast<double>(event.dur_ns) / 1000.0
          << ",\"args\":{\"id\":" << event.id << "}}";
    }
    ++tid;
  }
  out << "]}";
  return out.str();
}

std::uint64_t Tracer::events_emitted() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) total += lane->events_emitted();
  return total;
}

std::uint64_t Tracer::events_dropped() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::uint64_t total = 0;
  for (const auto& lane : lanes_) total += lane->events_dropped();
  return total;
}

}  // namespace infilter::obs
