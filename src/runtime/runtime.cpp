#include "runtime/runtime.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>
#include <queue>
#include <string>

#include "lifecycle/migrate.h"
#include "runtime/affinity.h"
#include "util/rng.h"

namespace infilter::runtime {
namespace {

/// Spins before a worker parks: long enough to ride out a producer
/// refilling the rings, short enough that an idle runtime burns no core.
constexpr int kIdleSpins = 64;
/// Nap between progress checks while a worker's suspect ring drains into
/// the scan stage, and while flush() waits for quiescence.
constexpr auto kDrainNap = std::chrono::microseconds(50);

/// What a retired shard engine leaves behind at resize: its counters and
/// histograms (pure history, safe to sum forever). Gauges are dropped --
/// they describe live state (pending learn counters, table sizes) that
/// the migration moved into the new engines, whose own gauges now report
/// it; merging both would double-count.
obs::RegistrySnapshot history_only(const obs::RegistrySnapshot& snap) {
  obs::RegistrySnapshot out;
  for (const obs::MetricSnapshot& metric : snap.metrics) {
    if (metric.kind != obs::MetricKind::kGauge) out.metrics.push_back(metric);
  }
  return out;
}

}  // namespace

ShardedRuntime::ShardedRuntime(RuntimeConfig config, alert::AlertSink* sink,
                               VerdictHook hook)
    : config_(std::move(config)),
      hook_(std::move(hook)),
      tracer_(config_.tracer),
      scan_engine_(config_.engine, sink) {
  assert(config_.shards >= 1);
  assert(config_.max_batch >= 1);
  if (config_.producers < 1) config_.producers = 1;

  submitted_ = &registry_.counter("infilter_runtime_submitted_total",
                                  "Flows offered to submit_batch()");
  dropped_ = &registry_.counter(
      "infilter_runtime_dropped_total",
      "Flows shed because a shard ring stayed full (kDrop policy)");
  backpressure_waits_ = &registry_.counter(
      "infilter_runtime_backpressure_waits_total",
      "Producer stalls waiting for a full shard ring to drain (kBlock)");
  batches_ = &registry_.counter("infilter_runtime_batches_total",
                                "Worker merge batches");
  batch_size_ = &registry_.histogram(
      "infilter_runtime_batch_size",
      obs::Histogram::exponential_bounds(1.0, 2.0, 10),
      "Flows claimed per worker merge batch");
  resizes_total_ = &registry_.counter(
      "infilter_lifecycle_resizes_total",
      "Completed live shard-pool resizes (ShardedRuntime::resize)");
  migrated_entries_ = &registry_.counter(
      "infilter_lifecycle_migrated_entries_total",
      "State records carried across resize boundaries (EIA membership, "
      "age metadata, pending counters, hop-count ranges)");
  resize_pause_us_ = &registry_.histogram(
      "infilter_lifecycle_resize_pause_us",
      obs::Histogram::exponential_bounds(50.0, 2.0, 16),
      "Producer-visible pause of one resize, quiesce through thread restart");
  registry_.gauge_fn(
      "infilter_runtime_shards",
      [this] { return static_cast<double>(shards_.size()); },
      "Worker threads / engine shards");
  registry_.gauge_fn(
      "infilter_runtime_queued",
      [this] {
        std::size_t queued = 0;
        for (const auto& shard : shards_) queued += shard->queued();
        return static_cast<double>(queued);
      },
      "Flows currently sitting in shard rings");
  registry_.gauge_fn(
      "infilter_runtime_queue_imbalance",
      [this] {
        // Spread between the fullest and emptiest shard (summing each
        // shard's producer rings): a hot-shard skew (one /24 dominating
        // the traffic) shows up here long before it shows up as
        // backpressure.
        std::size_t lo = SIZE_MAX;
        std::size_t hi = 0;
        for (const auto& shard : shards_) {
          const std::size_t queued = shard->queued();
          lo = std::min(lo, queued);
          hi = std::max(hi, queued);
        }
        return shards_.empty() ? 0.0 : static_cast<double>(hi - lo);
      },
      "Max minus min shard occupancy (dispatch skew)");
  registry_.gauge_fn(
      "infilter_runtime_queue_peak",
      [this] {
        std::uint64_t peak = 0;
        for (const auto& shard : shards_) {
          peak = std::max(peak,
                          shard->peak_queued.load(std::memory_order_relaxed));
        }
        return static_cast<double>(peak);
      },
      "High-water shard occupancy sampled at push time");
  registry_.counter_fn(
      "infilter_runtime_suspects_forwarded_total",
      [this] { return suspects_forwarded_.load(std::memory_order_relaxed); },
      "EIA misses forwarded to the shared scan stage");
  registry_.counter_fn(
      "infilter_runtime_suspects_completed_total",
      [this] { return suspects_completed_.load(std::memory_order_relaxed); },
      "Suspect flows completed by the shared scan stage");
  registry_.gauge_fn(
      "infilter_runtime_producers",
      [this] { return static_cast<double>(producers_.size()); },
      "Producer slots (receiver-direct dispatchers)");
  registry_.gauge_fn(
      "infilter_runtime_producer_lag",
      [this] {
        // How far the slowest in-flight producer's published watermark
        // trails the claim counter. Only an in-flight producer can hold
        // back the merge (idle ones are bounded at the counter itself), so
        // idle slots do not count; 0 when no submit is in flight.
        const std::uint64_t next = next_seq_.load(std::memory_order_relaxed);
        std::uint64_t lo = next;
        for (const auto& slot : producers_) {
          if (!slot->in_flight.load(std::memory_order_relaxed)) continue;
          lo = std::min(lo, slot->published.load(std::memory_order_relaxed));
        }
        return static_cast<double>(next - lo);
      },
      "Claim counter minus the slowest in-flight producer's published "
      "watermark (0 when no submit is in flight)");
  registry_.counter_fn(
      "infilter_runtime_producer_flows_total",
      [this] {
        std::uint64_t total = 0;
        for (const auto& slot : producers_) {
          total += slot->accepted.load(std::memory_order_relaxed);
        }
        return total;
      },
      "Flows accepted into shard rings, summed over producer slots");
  registry_.gauge_fn(
      "infilter_runtime_pinned_threads",
      [this] {
        return static_cast<double>(
            pinned_threads_.load(std::memory_order_relaxed));
      },
      "Runtime threads pinned to a cpu from RuntimeConfig::cpu_set");
  registry_.counter_fn(
      "infilter_runtime_affinity_failures_total",
      [this] { return affinity_failures_.load(std::memory_order_relaxed); },
      "Thread-pinning attempts the kernel refused (placement is a hint)");

  producers_.reserve(static_cast<std::size_t>(config_.producers));
  for (int p = 0; p < config_.producers; ++p) {
    producers_.push_back(std::make_unique<ProducerSlot>());
  }
  shards_.reserve(static_cast<std::size_t>(config_.shards));
  for (int s = 0; s < config_.shards; ++s) shards_.push_back(make_shard(s));
  // One lane per producer slot: submit_batch runs on the slot's owning thread
  // (one thread at a time, per the contract). No queue probe -- a
  // producer's input is its caller, not a ring we can measure.
  if (tracer_ != nullptr) {
    for (std::size_t p = 0; p < producers_.size(); ++p) {
      producers_[p]->lane = tracer_->register_thread(
          p == 0 ? std::string("dispatch") : "dispatch-" + std::to_string(p),
          "dispatch");
    }
  }
  // Engines first, threads second: a worker must never observe a
  // half-constructed shard vector.
  start_threads_locked();
}

ShardedRuntime::~ShardedRuntime() { shutdown(); }

std::unique_ptr<ShardedRuntime::Shard> ShardedRuntime::make_shard(int index) {
  auto shard = std::make_unique<Shard>();
  shard->index = index;
  shard->rings.reserve(producers_.size());
  for (std::size_t p = 0; p < producers_.size(); ++p) {
    shard->rings.push_back(std::make_unique<SpscRing<FlowItem>>(config_.queue_depth));
  }
  // The EIA half only: no sink (only the scan engine emits alerts) and no
  // clusters (NNS runs on the scan stage).
  shard->engine = std::make_unique<core::InFilterEngine>(config_.engine);
  shard->suspect_ring = std::make_unique<SpscRing<SeqSuspect>>(config_.queue_depth);
  return shard;
}

void ShardedRuntime::add_expected(core::IngressId ingress,
                                  const net::Prefix& prefix) {
  // The scan engine's EIA table stays empty on purpose: finish_suspect_batch
  // never consults it (the EIA outcome rides along in SuspectFlow).
  std::unique_lock gate(submit_gate_);
  // Drain in-flight flows first: the workers read the tables the loop
  // below mutates, and the gate only stops *new* submits.
  flush_locked();
  for (auto& shard : shards_) shard->engine->add_expected(ingress, prefix);
}

void ShardedRuntime::install_eia(const core::EiaTable& table) {
  const lifecycle::EngineHarvest image = lifecycle::harvest_eia(table);
  std::unique_lock gate(submit_gate_);
  flush_locked();
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    lifecycle::install_engine_state(image, *shards_[s]->engine, s, shards_.size());
  }
}

void ShardedRuntime::install_hopcount(const hopcount::HopCountTable& table) {
  // Every shard gets the full table (like add_expected): a shard only
  // ever classifies flows whose source /24 hashes to it, so the
  // off-shard entries are dead weight, not a correctness hazard, and the
  // per-shard state evolves exactly as the serial engine's does on that
  // shard's key subset. The scan engine's table stays empty on purpose:
  // the TTL classification rides along in SuspectFlow.
  std::unique_lock gate(submit_gate_);
  flush_locked();
  for (auto& shard : shards_) shard->engine->install_hopcount(table);
}

void ShardedRuntime::set_clusters(
    std::shared_ptr<const core::TrainedClusters> clusters) {
  std::unique_lock gate(submit_gate_);
  flush_locked();
  // NNS runs on the scan stage only; shard engines never see clusters.
  scan_engine_.set_clusters(std::move(clusters));
}

void ShardedRuntime::train(std::span<const netflow::V5Record> normal_flows) {
  // Train once, share everywhere -- the paper builds the NNS structures
  // once "prior to the experiment runs"; N shards retraining N times would
  // multiply the most expensive setup step for identical results.
  set_clusters(std::make_shared<const core::TrainedClusters>(
      normal_flows, config_.engine.cluster, config_.engine.seed));
}

std::size_t ShardedRuntime::shard_of(net::IPv4Address source,
                                     std::size_t shards) {
  // Hash the source /24 alone -- a coarsening of the per-key state grain.
  // Every key the stateful pre-process stages can touch carries a /24
  // component: the EIA auto-learn counters and learned ranges are
  // (ingress, /24)-keyed and /24-sized (eia.cpp), and the hop-count table
  // is (ingress, /24)-keyed too. Sharding by /24 therefore colocates ALL
  // of a /24's state, whatever ingress it arrives through -- which is what
  // lets the hop-count stage classify an EIA-missing flow against the
  // range its source's home ingress learned (engine.cpp) without reading
  // another shard's state.
  return util::SplitMix64{source.value() & 0xFFFFFF00u}.next() % shards;
}

void ShardedRuntime::wake(Shard& shard) {
  if (shard.parked.load(std::memory_order_seq_cst)) {
    std::lock_guard lock(shard.wake_mutex);
    shard.wake_cv.notify_one();
  }
}

void ShardedRuntime::wake_scan() {
  if (scan_parked_.load(std::memory_order_seq_cst)) {
    std::lock_guard lock(scan_wake_mutex_);
    scan_wake_cv_.notify_one();
  }
}

void ShardedRuntime::note_occupancy(Shard& shard) {
  const std::uint64_t queued = shard.queued();
  std::uint64_t peak = shard.peak_queued.load(std::memory_order_relaxed);
  while (queued > peak && !shard.peak_queued.compare_exchange_weak(
                              peak, queued, std::memory_order_relaxed)) {
  }
}

std::size_t ShardedRuntime::push_batch_with_backpressure(
    Shard& shard, SpscRing<FlowItem>& ring, std::span<const FlowItem> items) {
  std::size_t accepted = ring.try_push_batch(items);
  if (accepted > 0) wake(shard);
  while (accepted < items.size()) {
    if (config_.backpressure == BackpressurePolicy::kDrop) {
      dropped_->inc(items.size() - accepted);
      break;
    }
    backpressure_waits_->inc();
    wake(shard);
    // Announce the wait, then read the progress word, then retry: either
    // the retry sees the space a pop freed, or the worker's seq_cst bump
    // of `processed` comes after our announcement, sees push_waiters != 0
    // and notifies (the Dekker pairing of the two seq_cst pairs).
    shard.push_waiters.fetch_add(1, std::memory_order_seq_cst);
    const std::uint64_t seen = shard.processed.load(std::memory_order_seq_cst);
    const std::size_t pushed = ring.try_push_batch(items.subspan(accepted));
    if (pushed == 0) shard.processed.wait(seen, std::memory_order_acquire);
    shard.push_waiters.fetch_sub(1, std::memory_order_relaxed);
    accepted += pushed;
    if (pushed > 0) wake(shard);
  }
  return accepted;
}

std::size_t ShardedRuntime::submit_batch(std::span<const FlowItem> items,
                                         int producer) {
  submitted_->inc(items.size());
  assert(producer >= 0 &&
         static_cast<std::size_t>(producer) < producers_.size());
  std::shared_lock gate(submit_gate_);
  if (stopped_.load(std::memory_order_relaxed)) {
    dropped_->inc(items.size());
    return 0;
  }
  if (items.empty()) return 0;
  ProducerSlot& slot = *producers_[static_cast<std::size_t>(producer)];
  if (slot.lane != nullptr) slot.lane->heartbeat(items.size());
  const bool tracing = slot.lane != nullptr && tracer_->enabled();
  const std::uint64_t t_sub = tracing ? obs::Tracer::now_ns() : 0;
  // Claim, push and publish at most one ring's worth at a time: an
  // unpublished claim holds every shard's watermark below its first
  // unpushed flow, so a larger one would make the scan stage's reorder
  // heap absorb everything the other shards finish meanwhile, past its
  // max_batch + shards x ring capacity bound.
  const std::size_t claim_max = shards_.front()->rings.front()->capacity();
  std::size_t accepted = 0;
  for (std::size_t begin = 0; begin < items.size(); begin += claim_max) {
    accepted += submit_claim(
        slot, producer,
        items.subspan(begin, std::min(claim_max, items.size() - begin)),
        tracing, t_sub);
  }
  slot.accepted.fetch_add(accepted, std::memory_order_relaxed);
  return accepted;
}

std::size_t ShardedRuntime::submit_claim(ProducerSlot& slot, int producer,
                                         std::span<const FlowItem> items,
                                         bool tracing, std::uint64_t t_sub) {
  // Bucket per shard, then push each bucket with one batched ring
  // operation. The buckets are producer-slot scratch (one owning thread at
  // a time, per the contract), and clear() keeps each bucket's capacity,
  // so steady state allocates nothing. One fetch_add claims the whole tag
  // range [base+1, base+n]: tags follow items order, so "dispatch order"
  // within a producer is its submission order, and across producers it is
  // the claim interleaving.
  auto& buckets = slot.buckets;
  buckets.resize(shards_.size());
  for (auto& bucket : buckets) bucket.clear();
  // Raise the flag before claiming (the merge reads the counter, then this
  // flag: runtime.h), and publish the claim base right after: every tag
  // this slot pushes from here on lies above it, so the in-flight claim
  // with the lowest base is never bounded below its own tags.
  slot.in_flight.store(true, std::memory_order_seq_cst);
  std::uint64_t seq = next_seq_.fetch_add(items.size(), std::memory_order_seq_cst);
  slot.published.store(seq, std::memory_order_release);
  const std::uint64_t last = seq + items.size();
  for (const FlowItem& item : items) {
    auto& bucket = buckets[shard_of(item.record.src_ip, shards_.size())];
    bucket.push_back(item);
    FlowItem& queued = bucket.back();
    queued.seq = ++seq;
    if (tracing) {
      if (queued.recv_ns != 0 && queued.hop_ns == queued.recv_ns) {
        // Stamped at the socket but the decode span is still open: close
        // it here (parse plus dispatch batching included). A
        // receiver-direct caller instead closes the span on its own lane
        // and arrives with hop_ns already advanced, so nothing is emitted
        // twice.
        slot.lane->emit(obs::SpanKind::kDecode, queued.hop_ns,
                        t_sub - queued.hop_ns, queued.tag);
        queued.hop_ns = t_sub;
      } else if (queued.recv_ns == 0 && tracer_->sampled(queued.tag)) {
        // No upstream stamp (direct submit): the journey starts here.
        // Keyed on the tag, like every emit and the ingest screen, so an
        // ingest-fed record the receiver chose NOT to sample is not
        // re-sampled here under a shifted id.
        queued.recv_ns = t_sub;
        queued.hop_ns = t_sub;
      }
    }
  }
  std::size_t accepted = 0;
  for (std::size_t s = 0; s < buckets.size(); ++s) {
    if (buckets[s].empty()) continue;
    Shard& shard = *shards_[s];
    const std::size_t pushed = push_batch_with_backpressure(
        shard, *shard.rings[static_cast<std::size_t>(producer)], buckets[s]);
    shard.enqueued.fetch_add(pushed, std::memory_order_relaxed);
    note_occupancy(shard);
    accepted += pushed;
  }
  // Publish only after every bucket is in its ring: a worker that acquires
  // this value and then finds this producer's ring empty has merged
  // everything <= it. Shed claims (kDrop) are published past, like gaps.
  slot.published.store(last, std::memory_order_release);
  // Release: a merge that reads the flag down also sees every push above.
  slot.in_flight.store(false, std::memory_order_release);
  return accepted;
}

const FlowItem* ShardedRuntime::peek_bounded(Shard& shard, std::size_t p,
                                             std::uint64_t& bound) {
  // Counter first, then the flag: a claim this load misses lands after
  // it (its flag store precedes its fetch_add), so either the flag reads
  // up and `published` bounds the producer, or the claim is not counted.
  // The flag reading down, acquired from the clear, makes every counted
  // claim's pushes visible to the re-peek below.
  const std::uint64_t claimed = next_seq_.load(std::memory_order_seq_cst);
  const ProducerSlot& slot = *producers_[p];
  const bool in_flight = slot.in_flight.load(std::memory_order_seq_cst);
  const std::uint64_t published = slot.published.load(std::memory_order_acquire);
  const FlowItem* front = shard.rings[p]->front();
  if (front == nullptr) {
    bound = std::min(bound, in_flight ? published : std::max(published, claimed));
  }
  return front;
}

ShardedRuntime::MergeResult ShardedRuntime::merge_batch(Shard& shard,
                                                        FlowItem* batch,
                                                        std::size_t max) {
  const std::size_t producers = producers_.size();
  if (producers == 1) {
    // Single-producer fast path: one ring is already in tag order, and one
    // batched pop amortizes the release/acquire pair (the k-way merge
    // below pays a head store per item).
    const std::size_t n = shard.rings[0]->try_pop_batch(batch, max);
    if (n == max) return {n, batch[n - 1].seq};
    // Ring drained. Acquire the published watermark *first*, then re-check
    // emptiness: everything <= the acquired value was pushed before the
    // producer's release store, so an empty ring afterwards means it has
    // all been merged (now or earlier) and the watermark may advance that
    // far even past a mid-publish pop (see the max() in the caller-facing
    // contract below).
    const std::uint64_t published =
        producers_[0]->published.load(std::memory_order_acquire);
    std::uint64_t watermark =
        n > 0 ? batch[n - 1].seq
              : shard.watermark.load(std::memory_order_relaxed);
    if (shard.rings[0]->empty() && published > watermark) watermark = published;
    return {n, watermark};
  }

  // K-way merge in tag order. `bound` is the largest tag this pass may
  // cross: every producer whose ring is empty caps the merge at the bound
  // peek_bounded() derives for it -- past it, that producer could yet
  // contribute an earlier tag. Rings are tag-ascending (ranges are claimed
  // monotonically and buckets push in order), so heads are per-ring
  // minima.
  thread_local std::vector<const FlowItem*> fronts;
  fronts.assign(producers, nullptr);
  std::uint64_t bound = UINT64_MAX;
  for (std::size_t p = 0; p < producers; ++p) {
    fronts[p] = peek_bounded(shard, p, bound);
  }
  std::size_t n = 0;
  std::uint64_t last_seq = 0;
  while (n < max) {
    std::size_t best = producers;
    std::uint64_t best_seq = 0;
    std::uint64_t next_best = UINT64_MAX;
    for (std::size_t p = 0; p < producers; ++p) {
      if (fronts[p] == nullptr) continue;
      const std::uint64_t seq = fronts[p]->seq;
      if (best == producers || seq < best_seq) {
        if (best != producers) next_best = best_seq;
        best = p;
        best_seq = seq;
      } else if (seq < next_best) {
        next_best = seq;
      }
    }
    if (best == producers || best_seq > bound) break;
    // Take the whole run from `best`: tag ranges are claimed in batches,
    // so consecutive tags usually come from one producer and the P-way
    // scan amortizes over the run. The run ends where another ring's head
    // (or the bound) preempts.
    const std::uint64_t limit = std::min(next_best - 1, bound);
    auto& ring = *shard.rings[best];
    const FlowItem* front = fronts[best];
    for (;;) {
      batch[n++] = *front;
      last_seq = front->seq;
      ring.pop_front();
      if (n == max) {
        front = ring.front();
        break;
      }
      front = ring.front();
      if (front == nullptr) {
        // Drained mid-run: fold this producer's bound in (its loads, then
        // the confirming re-peek). Popped tags can outrun a publish still
        // in flight; the caller's max(last_seq, ...) keeps the watermark
        // honest -- once a tag is popped, its producer can never
        // contribute a smaller one here (bucket pushes are ascending
        // prefixes).
        front = peek_bounded(shard, best, bound);
        if (front == nullptr) break;
      }
      if (front->seq > limit) break;
    }
    fronts[best] = front;
  }
  // The pass's frontier: every flow of this shard with seq <= it is in
  // the batch or was already processed. A full batch stops mid-stream
  // (last_seq); an exhausted merge crossed every ring up to `bound`.
  std::uint64_t watermark = n == max ? last_seq : bound;
  if (last_seq > watermark) watermark = last_seq;
  if (watermark == UINT64_MAX) watermark = last_seq;  // unreachable guard
  return {n, watermark};
}

void ShardedRuntime::worker_main(Shard& shard) {
  if (!config_.cpu_set.empty()) {
    if (pin_current_thread(
            config_.cpu_set,
            config_.cpu_slot_offset + static_cast<std::size_t>(shard.index))) {
      pinned_threads_.fetch_add(1, std::memory_order_relaxed);
    } else {
      affinity_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  // The worker's flight-recorder lane: heartbeat + state are always
  // published (one relaxed store per batch); span emission sits behind the
  // tracer_->enabled() branch. The queue probe captures the raw shard,
  // whose rings outlive the lane's retirement at thread exit.
  obs::ThreadLane* lane = nullptr;
  if (tracer_ != nullptr) {
    lane = tracer_->register_thread("shard-" + std::to_string(shard.index),
                                    "worker",
                                    [raw = &shard] { return raw->queued(); });
  }
  std::vector<FlowItem> batch(config_.max_batch);
  // Reusable batch buffers for the engine's batch API (FlowItem carries the
  // ring tag, so the engine inputs are copied out into their own contiguous
  // array). Sized once; no per-batch allocation at steady state.
  std::vector<core::FlowInput> inputs(config_.max_batch);
  std::vector<core::Verdict> verdicts(config_.max_batch);
  std::vector<core::SuspectFlow> suspects;
  std::vector<std::uint32_t> positions;
  const auto advance_watermark = [&shard](std::uint64_t to) {
    if (to > shard.watermark.load(std::memory_order_relaxed)) {
      shard.watermark.store(to, std::memory_order_release);
    }
  };
  // Publishes a finished batch. seq_cst pairs with a blocked producer's
  // announce-then-read (push_batch_with_backpressure); with no producer
  // waiting, the notify costs one load.
  const auto complete = [&shard](std::size_t n) {
    shard.processed.fetch_add(n, std::memory_order_seq_cst);
    if (shard.push_waiters.load(std::memory_order_seq_cst) != 0) {
      shard.processed.notify_all();
    }
  };
  for (;;) {
    const MergeResult merged = merge_batch(shard, batch.data(), batch.size());
    const std::size_t n = merged.count;
    if (n == 0) {
      // Nothing mergeable, but the frontier may still move (the claim
      // counter bounds idle producers): keep the scan stage's reorder
      // window fed.
      advance_watermark(merged.watermark);
      if (stopping_.load(std::memory_order_acquire) && shard.queued() == 0) break;
      if (lane != nullptr) lane->set_state(obs::ThreadState::kIdle);
      // Spin briefly (a producer may be mid-refill), then park. The
      // timed, predicate-guarded wait bounds any lost-wakeup window to one
      // nap instead of risking a missed-notify deadlock.
      bool refilled = false;
      for (int spin = 0; spin < kIdleSpins; ++spin) {
        if (shard.queued() != 0) {
          refilled = true;
          break;
        }
        std::this_thread::yield();
      }
      if (!refilled) {
        std::unique_lock lock(shard.wake_mutex);
        shard.parked.store(true, std::memory_order_seq_cst);
        shard.wake_cv.wait_for(lock, std::chrono::milliseconds(1), [&] {
          return shard.queued() != 0 ||
                 stopping_.load(std::memory_order_acquire);
        });
        shard.parked.store(false, std::memory_order_seq_cst);
      }
      continue;
    }
    batches_->inc();
    batch_size_->observe(static_cast<double>(n));
    bool sampled_any = false;
    if (lane != nullptr) {
      lane->set_state(obs::ThreadState::kBusy);
      lane->heartbeat(n);
      if (tracer_->enabled()) {
        // Close the shard-queue-wait span for every sampled record in the
        // batch. One clock read per batch, taken lazily: a batch with no
        // sampled records costs n compares and nothing else.
        std::uint64_t t_pop = 0;
        for (std::size_t i = 0; i < n; ++i) {
          if (batch[i].recv_ns == 0) continue;
          if (t_pop == 0) t_pop = obs::Tracer::now_ns();
          lane->emit(obs::SpanKind::kQueueShard, batch[i].hop_ns,
                     t_pop - batch[i].hop_ns, batch[i].tag);
          tracer_->queue_wait_shard_us->observe(
              static_cast<double>(t_pop - batch[i].hop_ns) / 1000.0);
          batch[i].hop_ns = t_pop;
          sampled_any = true;
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      inputs[i] = core::FlowInput{batch[i].record, batch[i].ingress, batch[i].now};
    }

    // EIA stage only; suspects go to the scan stage with their dispatch
    // sequence numbers.
    suspects.clear();
    positions.clear();
    shard.engine->pre_process_batch(
        std::span<const core::FlowInput>(inputs.data(), n),
        std::span<core::Verdict>(verdicts.data(), n), suspects, positions);
    if (sampled_any) {
      // EIA-stage span for every sampled record; legal flows are final
      // here, so their journey ends (e2e). Suspects re-stamp hop_ns and
      // carry it into the scan stage via SeqSuspect.
      const std::uint64_t t_eia = obs::Tracer::now_ns();
      for (std::size_t i = 0; i < n; ++i) {
        if (batch[i].recv_ns == 0) continue;
        lane->emit(obs::SpanKind::kEia, batch[i].hop_ns,
                   t_eia - batch[i].hop_ns, batch[i].tag);
        batch[i].hop_ns = t_eia;
        if (!verdicts[i].suspect) {
          tracer_->e2e_us->observe(
              static_cast<double>(t_eia - batch[i].recv_ns) / 1000.0);
        }
      }
    }
    for (std::size_t j = 0; j < suspects.size(); ++j) {
      const FlowItem& origin = batch[positions[j]];
      const SeqSuspect item{suspects[j], origin.seq, origin.tag,
                            origin.recv_ns, origin.hop_ns};
      // Block, never drop: a suspect lost here would desynchronize the
      // scan buffer from the serial engine for every later flow. The wait
      // is bounded -- the scan thread drains this ring whenever its
      // reorder heap is short of a batch or holds nothing releasable.
      while (!shard.suspect_ring->try_push(item)) {
        wake_scan();
        std::this_thread::sleep_for(kDrainNap);
      }
    }
    if (!suspects.empty()) {
      // Relaxed is enough: the release store of `processed` below (and of
      // `watermark`) publishes it before flush()/snapshot() can read.
      suspects_forwarded_.fetch_add(suspects.size(), std::memory_order_relaxed);
      wake_scan();
    }
    // After the pushes: acquiring this watermark guarantees every suspect
    // up to it is visible in the ring.
    advance_watermark(merged.watermark);
    if (hook_) {
      // Legal flows are final here; suspect verdicts complete (and their
      // hook fires) on the scan thread, in dispatch order.
      for (std::size_t i = 0; i < n; ++i) {
        if (!verdicts[i].suspect) hook_(batch[i], verdicts[i]);
      }
    }
    complete(n);
  }
  if (lane != nullptr) lane->retire();
}

void ShardedRuntime::scan_main() {
  if (!config_.cpu_set.empty()) {
    // The slot after the workers (producers come before the offset, per
    // app/node's layout).
    if (pin_current_thread(config_.cpu_set,
                           config_.cpu_slot_offset + shards_.size())) {
      pinned_threads_.fetch_add(1, std::memory_order_relaxed);
    } else {
      affinity_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  struct BySeq {
    bool operator()(const SeqSuspect& a, const SeqSuspect& b) const {
      return a.seq > b.seq;  // min-heap
    }
  };
  // The reorder heap's bound: a batch to release plus one full ring per
  // shard. Its storage is reserved once.
  const std::size_t ring_capacity = shards_.front()->suspect_ring->capacity();
  const std::size_t backlog_bound =
      config_.max_batch + shards_.size() * ring_capacity;
  std::vector<SeqSuspect> storage;
  storage.reserve(backlog_bound);
  std::priority_queue<SeqSuspect, std::vector<SeqSuspect>, BySeq> pending(
      BySeq{}, std::move(storage));
  obs::ThreadLane* lane = nullptr;
  if (tracer_ != nullptr) {
    // The probe counts only ring occupancy, not the reorder heap: a heap
    // held back by a lagging watermark with empty rings means the *shard*
    // is the stalled party, and its own lane reports that.
    lane = tracer_->register_thread("scan", "scan", [this] {
      std::size_t queued = 0;
      for (const auto& shard : shards_) queued += shard->suspect_ring->size();
      return queued;
    });
  }
  std::vector<std::uint64_t> watermarks(shards_.size(), 0);
  std::vector<core::SuspectFlow> suspects;
  std::vector<FlowItem> origins;
  std::vector<core::Verdict> verdicts;
  // Moves up to `budget` suspects from the rings into the heap, lowest seq
  // first across the rings and at most one ring's worth per shard (a
  // worker refilling its ring meanwhile cannot keep the drain going).
  // Returns the safe bound: every suspect with seq <= it is now in the
  // heap. Shard s contributes its watermark, read *before* the drain -- a
  // suspect with seq <= an acquired watermark is already in that shard's
  // ring (the worker pushes before its release store) -- or, when suspects
  // are left in its ring, one below the first of them: each ring holds
  // its shard's suspects in seq order.
  std::vector<std::size_t> taken(shards_.size());
  const auto drain = [&](std::size_t budget) {
    std::fill(taken.begin(), taken.end(), 0);
    for (; budget > 0; --budget) {
      const SeqSuspect* lowest = nullptr;
      std::size_t from = 0;
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        if (taken[s] == ring_capacity) continue;
        const SeqSuspect* front = shards_[s]->suspect_ring->front();
        if (front != nullptr && (lowest == nullptr || front->seq < lowest->seq)) {
          lowest = front;
          from = s;
        }
      }
      if (lowest == nullptr) break;
      pending.push(*lowest);
      shards_[from]->suspect_ring->pop_front();
      ++taken[from];
    }
    std::uint64_t bound = std::numeric_limits<std::uint64_t>::max();
    for (std::size_t s = 0; s < shards_.size(); ++s) {
      const SeqSuspect* front = shards_[s]->suspect_ring->front();
      bound = std::min(bound, front == nullptr
                                  ? watermarks[s]
                                  : std::min(watermarks[s], front->seq - 1));
    }
    return bound;
  };
  // The safe bound of the last drain.
  std::uint64_t safe = 0;
  for (;;) {
    // Drain only while the heap is short of a batch, or when nothing in it
    // is releasable. The second case is never skipped: a worker blocked on
    // a full suspect ring cannot advance its watermark until the ring is
    // drained, so waiting for releasable work there would hang.
    if (pending.size() < config_.max_batch || pending.top().seq > safe) {
      for (std::size_t s = 0; s < shards_.size(); ++s) {
        watermarks[s] = shards_[s]->watermark.load(std::memory_order_acquire);
      }
      // No suspect below the bound can still be in flight anywhere, so
      // everything up to it can be applied to the shared scan buffer in
      // sequence order -- exactly the order a serial engine processing the
      // realized dispatch sequence would use. A drain fills the heap up to
      // its bound; only when that leaves nothing releasable does a second
      // drain go past it, to unblock the workers.
      safe = drain(backlog_bound - std::min(backlog_bound, pending.size()));
      if (pending.empty() || pending.top().seq > safe) {
        safe = drain(std::numeric_limits<std::size_t>::max());
      }
      if (pending.size() > scan_backlog_peak_.load(std::memory_order_relaxed)) {
        scan_backlog_peak_.store(pending.size(), std::memory_order_relaxed);
      }
    }
    suspects.clear();
    origins.clear();
    while (!pending.empty() && pending.top().seq <= safe &&
           suspects.size() < config_.max_batch) {
      const SeqSuspect& top = pending.top();
      suspects.push_back(top.suspect);
      origins.push_back(FlowItem{top.suspect.record, top.suspect.ingress,
                                 top.suspect.now, top.tag, top.seq,
                                 top.recv_ns, top.hop_ns});
      pending.pop();
    }
    if (!suspects.empty()) {
      bool sampled_any = false;
      if (lane != nullptr) {
        lane->set_state(obs::ThreadState::kBusy);
        lane->heartbeat(suspects.size());
        if (tracer_->enabled()) {
          // Close the reorder-window wait (suspect forward -> release).
          std::uint64_t t_rel = 0;
          for (FlowItem& origin : origins) {
            if (origin.recv_ns == 0) continue;
            if (t_rel == 0) t_rel = obs::Tracer::now_ns();
            lane->emit(obs::SpanKind::kQueueScan, origin.hop_ns,
                       t_rel - origin.hop_ns, origin.tag);
            tracer_->queue_wait_scan_us->observe(
                static_cast<double>(t_rel - origin.hop_ns) / 1000.0);
            origin.hop_ns = t_rel;
            sampled_any = true;
          }
        }
      }
      if (verdicts.size() < suspects.size()) verdicts.resize(suspects.size());
      scan_engine_.finish_suspect_batch(
          suspects, std::span<core::Verdict>(verdicts.data(), suspects.size()));
      if (sampled_any) {
        const std::uint64_t t_fin = obs::Tracer::now_ns();
        for (const FlowItem& origin : origins) {
          if (origin.recv_ns == 0) continue;
          lane->emit(obs::SpanKind::kScanNns, origin.hop_ns,
                     t_fin - origin.hop_ns, origin.tag);
          tracer_->e2e_us->observe(
              static_cast<double>(t_fin - origin.recv_ns) / 1000.0);
        }
      }
      if (hook_) {
        for (std::size_t i = 0; i < suspects.size(); ++i) {
          hook_(origins[i], verdicts[i]);
        }
      }
      // Release-publish the engine mutations: flush()/snapshot() acquire
      // this counter before touching the scan engine.
      suspects_completed_.fetch_add(suspects.size(), std::memory_order_release);
      continue;
    }
    if (scan_stopping_.load(std::memory_order_acquire) && pending.empty()) {
      // scan_stopping_ is set only after flush(), so nothing is in
      // flight; the empty-ring check is belt and braces.
      bool drained = true;
      for (const auto& shard : shards_) {
        if (!shard->suspect_ring->empty()) drained = false;
      }
      if (drained) break;
      continue;
    }
    if (lane != nullptr) lane->set_state(obs::ThreadState::kIdle);
    // Park with a 1 ms bound: a missed notify costs one nap, and every
    // wake-up (notified or timed) re-reads the watermarks, which idle
    // workers keep advancing. No predicate -- any wake reason is a reason
    // to re-evaluate.
    std::unique_lock lock(scan_wake_mutex_);
    scan_parked_.store(true, std::memory_order_seq_cst);
    scan_wake_cv_.wait_for(lock, std::chrono::milliseconds(1));
    scan_parked_.store(false, std::memory_order_seq_cst);
  }
  if (lane != nullptr) lane->retire();
}

void ShardedRuntime::flush_locked() {
  // Holding the gate exclusively means no claim is in flight, so the
  // merge bounds every producer at the claim counter and the workers
  // drain everything on their own.
  // Phase 1: every shard drains its flow rings (EIA stage complete). After
  // this, suspects_forwarded_ is final -- each worker bumps it before the
  // `processed` release store we acquire here.
  for (auto& shard : shards_) {
    while (shard->processed.load(std::memory_order_acquire) <
           shard->enqueued.load(std::memory_order_relaxed)) {
      wake(*shard);
      std::this_thread::sleep_for(kDrainNap);
    }
  }
  // Phase 2: the scan stage completes every forwarded suspect. Progress
  // needs no help beyond waking the scan thread: parked idle workers
  // re-advance their watermarks at least once per ~1 ms park cycle, which
  // releases any suspects still held in the reorder window.
  while (suspects_completed_.load(std::memory_order_acquire) <
         suspects_forwarded_.load(std::memory_order_acquire)) {
    wake_scan();
    std::this_thread::sleep_for(kDrainNap);
  }
}

void ShardedRuntime::flush() {
  std::unique_lock gate(submit_gate_);
  flush_locked();
}

void ShardedRuntime::join_threads_locked() {
  stopping_.store(true, std::memory_order_release);
  for (auto& shard : shards_) {
    std::lock_guard lock(shard->wake_mutex);
    shard->wake_cv.notify_one();
  }
  for (auto& shard : shards_) {
    if (shard->worker.joinable()) shard->worker.join();
  }
  // Workers first, scan thread second: after the flush nothing is in
  // flight, and joined workers can no longer forward suspects.
  scan_stopping_.store(true, std::memory_order_release);
  {
    std::lock_guard lock(scan_wake_mutex_);
    scan_wake_cv_.notify_one();
  }
  scan_thread_.join();
}

void ShardedRuntime::start_threads_locked() {
  stopping_.store(false, std::memory_order_release);
  scan_stopping_.store(false, std::memory_order_release);
  for (auto& shard : shards_) {
    shard->worker = std::thread([this, raw = shard.get()] { worker_main(*raw); });
  }
  scan_thread_ = std::thread([this] { scan_main(); });
}

void ShardedRuntime::shutdown() {
  std::unique_lock gate(submit_gate_);
  if (stopped_.load(std::memory_order_relaxed)) return;
  flush_locked();
  join_threads_locked();
  for (auto& slot : producers_) {
    if (slot->lane != nullptr) slot->lane->retire();
  }
  stopped_.store(true, std::memory_order_relaxed);
}

bool ShardedRuntime::resize(int new_shards) {
  if (new_shards < 1) return false;
  std::unique_lock gate(submit_gate_);
  if (stopped_.load(std::memory_order_relaxed)) return false;
  if (static_cast<std::size_t>(new_shards) == shards_.size()) return true;
  const std::uint64_t t0 = obs::Tracer::now_ns();

  // Quiesce: every dispatched flow processed, every suspect completed,
  // then park the pool for good -- the harvest reads plain engine state
  // only joined workers can no longer touch.
  flush_locked();
  join_threads_locked();

  std::vector<const core::InFilterEngine*> engines;
  engines.reserve(shards_.size());
  for (const auto& shard : shards_) engines.push_back(shard->engine.get());
  const lifecycle::EngineHarvest harvest = lifecycle::harvest_engines(engines);

  // Retire the old engines' history; their live state rides on in the
  // harvest and reappears under the new engines' gauges.
  for (const auto& shard : shards_) {
    retired_.push_back(history_only(shard->engine->registry().snapshot()));
    retired_dispatched_.fetch_add(
        shard->enqueued.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
    retired_processed_.fetch_add(
        shard->processed.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
  }

  // Rebuild the shard map. New watermarks start at the claim frontier:
  // every tag at or below it is fully processed, so the scan stage's
  // reorder window never waits on pre-resize history.
  const std::uint64_t frontier = next_seq_.load(std::memory_order_relaxed);
  config_.shards = new_shards;
  shards_.clear();
  shards_.reserve(static_cast<std::size_t>(new_shards));
  for (int s = 0; s < new_shards; ++s) {
    auto shard = make_shard(s);
    shard->watermark.store(frontier, std::memory_order_relaxed);
    lifecycle::install_engine_state(harvest, *shard->engine,
                                    static_cast<std::size_t>(s),
                                    static_cast<std::size_t>(new_shards));
    shards_.push_back(std::move(shard));
  }
  start_threads_locked();

  resizes_total_->inc();
  migrated_entries_->inc(harvest.entry_count());
  resize_pause_us_->observe(static_cast<double>(obs::Tracer::now_ns() - t0) /
                            1000.0);
  return true;
}

std::size_t ShardedRuntime::age_sweep(util::TimeMs now) {
  std::unique_lock gate(submit_gate_);
  if (stopped_.load(std::memory_order_relaxed)) return 0;
  // Drain first (like add_expected): the sweep walks the same EIA maps
  // the workers mutate, and the gate only stops *new* submits. Parked
  // workers never touch a quiescent engine.
  flush_locked();
  std::size_t expired = 0;
  for (auto& shard : shards_) expired += shard->engine->age_sweep(now);
  return expired;
}

RuntimeStats ShardedRuntime::stats() const {
  RuntimeStats out;
  out.submitted = submitted_->value();
  out.dropped = dropped_->value();
  out.backpressure_waits = backpressure_waits_->value();
  out.batches = batches_->value();
  for (const auto& shard : shards_) {
    out.dispatched += shard->enqueued.load(std::memory_order_relaxed);
    out.processed += shard->processed.load(std::memory_order_acquire);
  }
  // Shards retired by resize() fold their totals in here, keeping every
  // stat monotone over the runtime's life across pool swaps.
  out.dispatched += retired_dispatched_.load(std::memory_order_relaxed);
  out.processed += retired_processed_.load(std::memory_order_relaxed);
  out.suspects_forwarded = suspects_forwarded_.load(std::memory_order_relaxed);
  out.suspects_completed = suspects_completed_.load(std::memory_order_relaxed);
  out.scan_backlog_peak = scan_backlog_peak_.load(std::memory_order_relaxed);
  return out;
}

std::vector<std::size_t> ShardedRuntime::shard_queue_peaks() const {
  std::vector<std::size_t> peaks;
  peaks.reserve(shards_.size());
  for (const auto& shard : shards_) {
    peaks.push_back(static_cast<std::size_t>(
        shard->peak_queued.load(std::memory_order_relaxed)));
  }
  return peaks;
}

const core::InFilterEngine& ShardedRuntime::shard_engine(std::size_t shard) const {
  return *shards_[shard]->engine;
}

obs::RegistrySnapshot ShardedRuntime::snapshot() const {
  // The exclusive gate makes a snapshot safe while producer threads are
  // live: no submit races the per-shard quiescence checks below (their
  // pushes either completed before the gate or wait behind it).
  std::unique_lock gate(submit_gate_);
  std::vector<obs::RegistrySnapshot> parts;
  parts.reserve(shards_.size() + 2 + retired_.size());
  parts.push_back(registry_.snapshot());
  // Counter/histogram history of engines retired by resize() (their
  // gauges were dropped at retirement -- the live engines report that
  // state now).
  for (const obs::RegistrySnapshot& part : retired_) parts.push_back(part);
  bool all_quiescent = true;
  for (const auto& shard : shards_) {
    // A shard engine's registry holds pull gauges over plain (non-atomic)
    // engine state -- the EIA pending map -- that the worker mutates
    // while processing. Sample a shard only when it is quiescent: every
    // flow the producers pushed has been fully processed, so the worker
    // cannot touch the engine again before a producer (gated out for the
    // duration of this call) submits more. The acquire pairs with the
    // worker's release of `processed`, making the engine writes visible
    // to the snapshot.
    if (shard->processed.load(std::memory_order_acquire) ==
        shard->enqueued.load(std::memory_order_relaxed)) {
      parts.push_back(shard->engine->registry().snapshot());
    } else {
      all_quiescent = false;
    }
  }
  // Same rule for the scan engine: merged only once every forwarded
  // suspect is completed (the acquire pairs with the scan thread's
  // release of suspects_completed_) *and* no busy shard could still
  // forward more. flush() first for a complete view.
  if (all_quiescent &&
      suspects_completed_.load(std::memory_order_acquire) ==
          suspects_forwarded_.load(std::memory_order_relaxed)) {
    parts.push_back(scan_engine_.registry().snapshot());
  }
  return obs::merge_snapshots(parts);
}

}  // namespace infilter::runtime
