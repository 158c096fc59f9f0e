// recvmmsg() is a GNU extension; ask for it before any libc header lands.
#ifndef _GNU_SOURCE
#define _GNU_SOURCE
#endif

#include "ingest/ingest.h"

#ifdef __linux__
#include <sys/socket.h>
#endif
#include <poll.h>

#include <algorithm>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <numeric>
#include <utility>

#include "runtime/affinity.h"

namespace infilter::ingest {
namespace {

/// How long drain()/quiesce() waiters sleep between progress checks.
constexpr auto kReceiverWait = std::chrono::microseconds(200);
/// Receiver poll timeout: how late an idle receiver notices stop() or a
/// quiesce() request. (The runtime's merge never waits on an idle
/// receiver, so this does not bound verdict latency.)
constexpr int kPollTimeoutMs = 1;

util::Error errno_error(const char* what) {
  return util::Error{std::string(what) + ": " + std::strerror(errno)};
}

}  // namespace

IngestPipeline::IngestPipeline(IngestConfig config, DispatchFn dispatch)
    : config_(std::move(config)), dispatch_(std::move(dispatch)) {
  // Normalize the knobs so the threads never have to re-check them.
  if (config_.receiver_threads < 1) config_.receiver_threads = 1;
  if (config_.recv_batch < 1) config_.recv_batch = 1;
  if (config_.dispatch_batch < 1) config_.dispatch_batch = 1;

  datagrams_ = &registry_.counter("infilter_ingest_datagrams_total",
                                  "export datagrams accepted by a receiver thread");
  decoded_ = &registry_.counter("infilter_ingest_decoded_total",
                                "datagrams parsed as NetFlow v5");
  malformed_ = &registry_.counter("infilter_ingest_malformed_total",
                                  "datagrams that failed the v5 parse");
  truncated_ = &registry_.counter(
      "infilter_ingest_truncated_total",
      "datagrams longer than a buffer slot, dropped before decode");
  kernel_drops_ = &registry_.counter(
      "infilter_ingest_kernel_drops_total",
      "datagrams the kernel dropped at the socket queue (SO_RXQ_OVFL)");
  records_ = &registry_.counter("infilter_ingest_records_total",
                                "flow records decoded from export datagrams");
  dispatched_ = &registry_.counter("infilter_ingest_dispatched_total",
                                   "flow records accepted by the dispatcher");
  shed_ = &registry_.counter("infilter_ingest_shed_total",
                             "flow records the dispatcher refused (kDrop runtime)");
  sequence_gaps_ = &registry_.counter(
      "infilter_ingest_sequence_gaps_total",
      "export-sequence gaps per (engine, ingress) stream");
  socket_errors_ = &registry_.counter(
      "infilter_ingest_socket_errors_total",
      "hard receive-socket failures (recv errors and poll error events)");
  registry_.gauge_fn(
      "infilter_ingest_pinned_threads",
      [this] {
        return static_cast<double>(
            pinned_threads_.load(std::memory_order_relaxed));
      },
      "receiver threads pinned to a cpu from IngestConfig::cpu_set");
  registry_.counter_fn(
      "infilter_ingest_affinity_failures_total",
      [this] { return affinity_failures_.load(std::memory_order_relaxed); },
      "receiver pin attempts the kernel refused (placement is a hint)");
}

util::Result<std::unique_ptr<IngestPipeline>> IngestPipeline::create(
    IngestConfig config, DispatchFn dispatch) {
  if (config.ports.empty()) return util::Error{"ingest: no collector ports"};
  if (!config.ingress_ids.empty() &&
      config.ingress_ids.size() != config.ports.size()) {
    return util::Error{"ingest: ingress_ids must be empty or parallel to ports"};
  }
  auto pipeline = std::unique_ptr<IngestPipeline>(
      new IngestPipeline(std::move(config), std::move(dispatch)));
  auto& cfg = pipeline->config_;

  pipeline->sockets_.reserve(cfg.ports.size());
  for (std::size_t i = 0; i < cfg.ports.size(); ++i) {
    auto receiver = flowtools::UdpReceiver::bind(cfg.ports[i], kSocketRcvbuf);
    if (!receiver) return receiver.error();
#if defined(__linux__) && defined(SO_RXQ_OVFL)
    // Ask the kernel to report its own receive-queue drops with every
    // datagram; without this the pipeline's loss accounting is blind to
    // overload that never reaches userspace.
    const int one = 1;
    if (::setsockopt(receiver->fd(), SOL_SOCKET, SO_RXQ_OVFL, &one, sizeof one) < 0) {
      return errno_error("setsockopt(SO_RXQ_OVFL)");
    }
#endif
    const auto ingress = cfg.ingress_ids.empty()
                             ? static_cast<core::IngressId>(receiver->port())
                             : cfg.ingress_ids[i];
    pipeline->sockets_.push_back(Socket{std::move(*receiver), ingress});
  }

  const auto producers = std::min<std::size_t>(
      static_cast<std::size_t>(cfg.receiver_threads), pipeline->sockets_.size());
  for (std::size_t p = 0; p < producers; ++p) {
    auto producer = std::make_unique<Producer>(cfg.recv_batch);
    for (std::size_t s = p; s < pipeline->sockets_.size(); s += producers) {
      producer->sockets.push_back(s);
    }
    pipeline->producers_.push_back(std::move(producer));
  }

  for (std::size_t p = 0; p < pipeline->producers_.size(); ++p) {
    auto* producer = pipeline->producers_[p].get();
    producer->thread = std::thread(
        [raw = pipeline.get(), producer, p] { raw->receiver_main(*producer, p); });
  }
  return pipeline;
}

util::Result<std::unique_ptr<IngestPipeline>> IngestPipeline::create(
    IngestConfig config, runtime::ShardedRuntime& runtime) {
  // Each receiver dispatches as its own producer slot; validate the fit
  // before any thread spawns with an out-of-range index.
  const auto receivers = std::min<std::size_t>(
      static_cast<std::size_t>(std::max(config.receiver_threads, 1)),
      config.ports.size());
  if (receivers > runtime.producer_count()) {
    return util::Error{
        "ingest: runtime has fewer producer slots than receiver threads "
        "(set RuntimeConfig::producers >= receiver_threads)"};
  }
  return create(std::move(config),
                [&runtime](std::span<const runtime::FlowItem> items, int producer) {
                  return runtime.submit_batch(items, producer);
                });
}

IngestPipeline::~IngestPipeline() { stop(); }

std::vector<std::uint16_t> IngestPipeline::ports() const {
  std::vector<std::uint16_t> out;
  out.reserve(sockets_.size());
  for (const auto& socket : sockets_) out.push_back(socket.receiver.port());
  return out;
}

// ---------------------------------------------------------------------------
// Receiver lane (receive -> decode -> dispatch, run to completion)
// ---------------------------------------------------------------------------

std::size_t IngestPipeline::receive_batch(Producer& producer, Socket& socket,
                                          std::vector<std::uint32_t>& free_slots,
                                          std::vector<DatagramRef>& refs) {
  const std::size_t want = std::min(config_.recv_batch, free_slots.size());
  if (want == 0) return 0;
  // Journey origin: one clock read per receive batch, only while tracing.
  // Every datagram in the batch shares the stamp -- they left the kernel
  // in one recvmmsg, so their true receive times differ by less than the
  // decomposition cares about.
  const std::uint64_t recv_ns =
      config_.tracer != nullptr && config_.tracer->enabled()
          ? obs::Tracer::now_ns()
          : 0;
  const auto socket_index =
      static_cast<std::uint16_t>(&socket - sockets_.data());
  std::size_t appended = 0;

#ifdef __linux__
  if (want > 1) {
    // Ancillary-data buffers must be cmsghdr-aligned; the union forces it.
    union ControlBuf {
      ::cmsghdr align;
      char bytes[CMSG_SPACE(sizeof(std::uint32_t)) + 32];
    };
    // One-time per-thread working set; steady state allocates nothing.
    thread_local std::vector<::mmsghdr> msgs;
    thread_local std::vector<::iovec> iovecs;
    thread_local std::vector<ControlBuf> controls;
    msgs.resize(want);
    iovecs.resize(want);
    controls.resize(want);
    for (std::size_t i = 0; i < want; ++i) {
      const std::uint32_t slot = free_slots[free_slots.size() - 1 - i];
      iovecs[i] = {producer.arena.get() + std::size_t{slot} * kSlotBytes, kSlotBytes};
      std::memset(&msgs[i].msg_hdr, 0, sizeof msgs[i].msg_hdr);
      msgs[i].msg_hdr.msg_iov = &iovecs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
      msgs[i].msg_hdr.msg_control = controls[i].bytes;
      msgs[i].msg_hdr.msg_controllen = sizeof controls[i].bytes;
      msgs[i].msg_len = 0;
    }
    int received;
    do {
      // MSG_TRUNC makes msg_len report the wire length even when the slot
      // was too small -- same contract as UdpReceiver::receive_into().
      received = ::recvmmsg(socket.receiver.fd(), msgs.data(),
                            static_cast<unsigned>(want), MSG_TRUNC, nullptr);
    } while (received < 0 && errno == EINTR);
    if (received < 0) {
      // EAGAIN is just an empty socket; anything else is a real failure
      // that must not masquerade as "nothing waiting".
      if (errno != EAGAIN && errno != EWOULDBLOCK) socket_errors_->inc();
      return 0;
    }
    if (received == 0) return 0;

    // iovec i was bound to free_slots[size-1-i] above, and the pop loop
    // below rebuilds that pairing by popping the back once per message.
    // Truncated slots therefore park here and rejoin free_slots only
    // after the loop: recycling one mid-loop would hand message i+1 the
    // truncated slot instead of the slot its bytes landed in, skewing
    // every later descriptor in the batch.
    thread_local std::vector<std::uint32_t> truncated_slots;
    truncated_slots.clear();
    for (int i = 0; i < received; ++i) {
      const std::uint32_t slot = free_slots.back();
      free_slots.pop_back();
      // SO_RXQ_OVFL rides along as ancillary data: a cumulative per-socket
      // drop count whose delta is the kernel loss since the last datagram.
      for (auto* cmsg = CMSG_FIRSTHDR(&msgs[i].msg_hdr); cmsg != nullptr;
           cmsg = CMSG_NXTHDR(&msgs[i].msg_hdr, cmsg)) {
#ifdef SO_RXQ_OVFL
        if (cmsg->cmsg_level == SOL_SOCKET && cmsg->cmsg_type == SO_RXQ_OVFL) {
          std::uint32_t total = 0;
          std::memcpy(&total, CMSG_DATA(cmsg), sizeof total);
          if (total > socket.last_rxq_ovfl) {
            kernel_drops_->inc(total - socket.last_rxq_ovfl);
          }
          socket.last_rxq_ovfl = total;
        }
#endif
      }
      if (msgs[i].msg_len > kSlotBytes) {
        truncated_->inc();
        truncated_slots.push_back(slot);  // nothing usable; recycle after the loop
        continue;
      }
      refs.push_back(DatagramRef{slot, msgs[i].msg_len, socket_index, recv_ns});
      ++appended;
    }
    free_slots.insert(free_slots.end(), truncated_slots.begin(),
                      truncated_slots.end());
  } else
#endif  // __linux__
  {
    // Portable single-datagram path (also the want == 1 fast path): the
    // allocation-free UdpReceiver::receive_into().
    const std::uint32_t slot = free_slots.back();
    auto received = socket.receiver.receive_into(
        std::span(producer.arena.get() + std::size_t{slot} * kSlotBytes, kSlotBytes));
    if (!received) {
      // receive_into() retries EINTR and maps EAGAIN to "no datagram", so
      // an error here is a genuine socket failure.
      socket_errors_->inc();
      return 0;
    }
    if (!received->datagram) return 0;
    free_slots.pop_back();
    if (received->truncated()) {
      truncated_->inc();
      free_slots.push_back(slot);
    } else {
      refs.push_back(DatagramRef{slot, static_cast<std::uint32_t>(received->bytes),
                                 socket_index, recv_ns});
      ++appended;
    }
  }

  if (appended > 0) {
    producer.received.fetch_add(appended, std::memory_order_release);
    datagrams_->inc(appended);
  }
  return appended;
}

void IngestPipeline::receiver_main(Producer& producer, std::size_t index) {
  if (!config_.cpu_set.empty()) {
    if (runtime::pin_current_thread(config_.cpu_set,
                                    config_.cpu_slot_offset + index)) {
      pinned_threads_.fetch_add(1, std::memory_order_relaxed);
    } else {
      affinity_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // The receiver's liveness lane. No queue probe: its input queue is the
  // kernel socket buffer, which SO_RXQ_OVFL already accounts for.
  obs::Tracer* const tracer = config_.tracer;
  obs::ThreadLane* lane = nullptr;
  if (tracer != nullptr) {
    lane = tracer->register_thread("recv-" + std::to_string(index), "receiver");
  }
  // The receiver owns every arena slot; decode is inline and copies
  // records out, so one receive batch is all that is ever in flight: the
  // arena is exactly recv_batch slots, all of them free again by the next
  // receive.
  std::vector<std::uint32_t> free_slots(config_.recv_batch);
  std::iota(free_slots.begin(), free_slots.end(), 0U);

  std::vector<pollfd> fds;
  fds.reserve(producer.sockets.size());
  for (const auto socket_index : producer.sockets) {
    fds.push_back(pollfd{sockets_[socket_index].receiver.fd(), POLLIN, 0});
  }

  // Per-lane decode state, all thread-private. Sized once; the whole
  // receive/decode/dispatch path is allocation-free at steady state.
  std::vector<DatagramRef> refs;
  refs.reserve(config_.recv_batch);
  std::vector<netflow::V5Record> records(netflow::kV5MaxRecords);
  std::vector<runtime::FlowItem> items;
  items.reserve(config_.dispatch_batch + netflow::kV5MaxRecords);
  // (engine_id << 16 | ingress) -> next expected flow_sequence, mirroring
  // FlowCapture's per-stream gap accounting. Receiver-private and still
  // stream-consistent: a socket maps to one receiver for the pipeline's
  // life, so every datagram of a stream meets the same state.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> sequence_state;
  // Receiver-local tag sequence, disjoint across receivers via the index
  // in the top bits. Receiver 0 keeps plain 0..n-1 so single-receiver
  // callers can join tags against their send order (and trace sampling,
  // tag % 2^k, behaves identically -- 2^48 is a multiple of any sampling
  // modulus the tracer uses).
  std::uint64_t next_tag = index == 0 ? 0 : std::uint64_t{index} << 48;

  // Hand the accumulated FlowItems to the dispatcher as this producer.
  // Sampled records carry recv_ns with their decode span still open;
  // close it here ([socket receive, dispatch) on this lane) and advance
  // hop_ns so the runtime continues the journey at kQueueShard.
  const auto flush = [&] {
    if (items.empty()) return;
    if (lane != nullptr) {
      std::uint64_t t_dispatch = 0;
      for (auto& item : items) {
        if (item.recv_ns == 0) continue;
        if (t_dispatch == 0) t_dispatch = obs::Tracer::now_ns();
        lane->emit(obs::SpanKind::kDecode, item.recv_ns,
                   t_dispatch - item.recv_ns, item.tag);
        item.hop_ns = t_dispatch;
      }
    }
    const std::size_t accepted =
        dispatch_ ? dispatch_(std::span<const runtime::FlowItem>(items),
                              static_cast<int>(index))
                  : items.size();
    dispatched_->inc(accepted);
    shed_->inc(items.size() - accepted);
    items.clear();
  };

  // Decode and dispatch one receive batch, then recycle its slots and
  // publish completion (`handled`): a receiver between batches has, by
  // construction, dispatched everything it accepted.
  const auto process_batch = [&] {
    const bool tracing = lane != nullptr && tracer->enabled();
    for (const auto& ref : refs) {
      const std::uint8_t* base =
          producer.arena.get() + std::size_t{ref.slot} * kSlotBytes;
      netflow::V5Header header;
      std::size_t count = 0;
      const auto status = netflow::decode_into(std::span(base, ref.bytes), header,
                                               std::span(records), count);
      // Records are copied out below; the slot can go straight back.
      free_slots.push_back(ref.slot);
      if (status != netflow::DecodeStatus::kOk) {
        malformed_->inc();
        continue;
      }
      decoded_->inc();
      records_->inc(count);

      const auto ingress = sockets_[ref.socket].ingress;
      const std::uint32_t stream =
          (std::uint32_t{header.engine_id} << 16) | ingress;
      auto state = std::find_if(sequence_state.begin(), sequence_state.end(),
                                [stream](const auto& s) { return s.first == stream; });
      if (state == sequence_state.end()) {
        sequence_state.emplace_back(stream, header.flow_sequence);
        state = std::prev(sequence_state.end());
      } else {
        // The sequence space wraps at 2^32: a modular (int32) delta
        // counts forward gaps across the wrap, while a large backward
        // jump (exporter restart) rebases without a bogus gap.
        const auto delta =
            static_cast<std::int32_t>(header.flow_sequence - state->second);
        if (delta > 0) sequence_gaps_->inc(static_cast<std::uint64_t>(delta));
      }
      state->second = header.flow_sequence + static_cast<std::uint32_t>(count);

      for (std::size_t r = 0; r < count; ++r) {
        runtime::FlowItem item{records[r], ingress, records[r].last,
                               next_tag++, 0};
        if (tracing && ref.recv_ns != 0 && tracer->sampled(item.tag)) {
          // Journey origin: the datagram's socket-receive stamp. hop_ns
          // stays at the origin until flush() closes the decode span.
          item.recv_ns = ref.recv_ns;
          item.hop_ns = ref.recv_ns;
        }
        items.push_back(item);
      }
      if (items.size() >= config_.dispatch_batch) flush();
    }
    flush();
    producer.handled.fetch_add(refs.size(), std::memory_order_release);
    refs.clear();
  };

  while (!stopping_.load(std::memory_order_acquire)) {
    if (producer.pause_requested.load(std::memory_order_acquire)) {
      // quiesce(): we only get here between batches, so everything this
      // receiver accepted has been dispatched; park until released.
      if (lane != nullptr) lane->set_state(obs::ThreadState::kBlocked);
      std::unique_lock lock(pause_mutex_);
      producer.paused.store(true, std::memory_order_release);
      pause_cv_.notify_all();
      pause_cv_.wait(lock, [&] {
        return !producer.pause_requested.load(std::memory_order_acquire) ||
               stopping_.load(std::memory_order_acquire);
      });
      producer.paused.store(false, std::memory_order_release);
      continue;
    }

    int ready;
    do {
      if (lane != nullptr) lane->set_state(obs::ThreadState::kIdle);
      ready = ::poll(fds.data(), fds.size(), kPollTimeoutMs);
    } while (ready < 0 && errno == EINTR);
    if (ready > 0) {
      if (lane != nullptr) lane->set_state(obs::ThreadState::kBusy);
      for (std::size_t i = 0; i < fds.size(); ++i) {
        const auto revents = fds[i].revents;
        if ((revents & POLLNVAL) != 0) {
          // The fd is invalid as far as poll is concerned; receiving
          // cannot clear that, so all we can do is surface it.
          socket_errors_->inc();
          continue;
        }
        // POLLERR enters the drain loop too: the recv attempt both counts
        // the pending socket error and clears it, so a dead collector
        // socket shows up in the metric instead of a silent spin.
        if ((revents & (POLLIN | POLLERR)) == 0) continue;
        auto& socket = sockets_[producer.sockets[i]];
        // Drain this socket; one failing/empty socket never starves the
        // rest.
        while (!stopping_.load(std::memory_order_acquire)) {
          const std::size_t got = receive_batch(producer, socket, free_slots, refs);
          if (got == 0) break;
          if (lane != nullptr) lane->heartbeat(got);
          process_batch();
        }
      }
    }
  }
  if (lane != nullptr) lane->retire();
}

// ---------------------------------------------------------------------------
// Drain / quiesce / stop
// ---------------------------------------------------------------------------

void IngestPipeline::drain() const {
  // Per-receiver sequential wait, deliberately allocation-free: drain()
  // sits inside the bench's steady-state heap probe. Each target is read
  // at or after the call started, so the contract ("everything accepted
  // when the call was made") holds receiver by receiver. A receiver only
  // lags while inside process_batch(), so each wait is one batch long at
  // most.
  for (const auto& producer : producers_) {
    const auto target = producer->received.load(std::memory_order_acquire);
    while (producer->handled.load(std::memory_order_acquire) < target) {
      std::this_thread::sleep_for(kReceiverWait);
    }
  }
}

void IngestPipeline::quiesce(const std::function<void()>& fn) const {
  std::lock_guard serialize(quiesce_mutex_);
  if (stopped_) {
    // Threads are gone and every accepted datagram was dispatched; the
    // "no dispatch in flight" guarantee holds trivially.
    fn();
    return;
  }
  // Park every receiver. A receiver parks only between batches, i.e. with
  // everything it accepted already dispatched, so once all are paused no
  // record is anywhere between a socket and the dispatcher. Traffic keeps
  // landing in the kernel socket buffers meanwhile.
  {
    std::unique_lock lock(pause_mutex_);
    for (const auto& producer : producers_) {
      producer->pause_requested.store(true, std::memory_order_release);
    }
    pause_cv_.notify_all();
    pause_cv_.wait(lock, [&] {
      return std::all_of(producers_.begin(), producers_.end(),
                         [](const auto& producer) {
                           return producer->paused.load(std::memory_order_acquire);
                         });
    });
  }
  fn();
  {
    std::lock_guard lock(pause_mutex_);
    for (const auto& producer : producers_) {
      producer->pause_requested.store(false, std::memory_order_release);
    }
    pause_cv_.notify_all();
  }
}

void IngestPipeline::stop() {
  // Serialized with quiesce(): a stop interleaving with a quiesce in
  // flight could strand the quiesce waiter (receivers exit without ever
  // setting paused). Holding the quiesce mutex for the whole teardown
  // makes the two strictly ordered (it also makes stopped_ reads/writes
  // race-free across the pair).
  std::lock_guard serialize(quiesce_mutex_);
  if (stopped_) return;
  stopping_.store(true, std::memory_order_release);
  {
    // Release any receiver parked in a pause (none can be -- quiesce()
    // holds the mutex we hold -- but the notify is free belt and braces).
    std::lock_guard lock(pause_mutex_);
    pause_cv_.notify_all();
  }
  for (auto& producer : producers_) {
    if (producer->thread.joinable()) producer->thread.join();
  }
  // A receiver finishes its in-flight batch before exiting, so received ==
  // handled already; the drain documents the invariant more than it waits.
  drain();
  stopped_ = true;
}

IngestStats IngestPipeline::stats() const {
  IngestStats stats;
  for (const auto& producer : producers_) {
    stats.datagrams_received += producer->received.load(std::memory_order_acquire);
  }
  stats.datagrams_decoded = decoded_->value();
  stats.datagrams_malformed = malformed_->value();
  stats.datagrams_truncated = truncated_->value();
  stats.kernel_drops = kernel_drops_->value();
  stats.records_decoded = records_->value();
  stats.records_dispatched = dispatched_->value();
  stats.records_shed = shed_->value();
  stats.sequence_gaps = sequence_gaps_->value();
  stats.socket_errors = socket_errors_->value();
  stats.pinned_threads = pinned_threads_.load(std::memory_order_relaxed);
  stats.affinity_failures = affinity_failures_.load(std::memory_order_relaxed);
  return stats;
}

}  // namespace infilter::ingest
