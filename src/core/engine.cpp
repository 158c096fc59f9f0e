#include "core/engine.h"

#include <array>
#include <cassert>

#include "obs/stage_timer.h"
#include "util/rng.h"

namespace infilter::core {
namespace {

/// Seed for the per-flow NNS probe RNG: a SplitMix64 chain over the flow's
/// identifying fields. Any pure function of (engine seed, record) keeps
/// verdicts independent of processing order; chaining through SplitMix64
/// decorrelates flows that differ in a single field.
std::uint64_t flow_rng_seed(std::uint64_t seed, const netflow::V5Record& r) {
  std::uint64_t h = util::SplitMix64{seed ^ 0x1f11753ULL}.next();
  const std::uint64_t words[] = {
      (std::uint64_t{r.src_ip.value()} << 32) | r.dst_ip.value(),
      (std::uint64_t{r.src_port} << 48) | (std::uint64_t{r.dst_port} << 32) |
          (std::uint64_t{r.proto} << 8) | r.tos,
      (std::uint64_t{r.first} << 32) | r.last,
  };
  for (const std::uint64_t word : words) h = util::SplitMix64{h ^ word}.next();
  return h;
}

/// The histogram that times this observation of a stage: every
/// kStageSampleEvery-th one, counting from the stage's first, gets it;
/// the rest get null, which leaves their StageTimer idle (no clock read).
/// `observations` never resets, so which observations are timed does not
/// depend on how the flow sequence is cut into batches.
obs::Histogram* sampled(std::uint64_t& observations, obs::Histogram* histogram) {
  return observations++ % InFilterEngine::kStageSampleEvery == 0 ? histogram
                                                                 : nullptr;
}

/// How many flows ahead pre_process_batch prefetches the hop-count slot,
/// so the table's cache miss overlaps the EIA work of the flows between.
constexpr std::size_t kHopCountPrefetchAhead = 8;

/// Adds a batch's plain-local tally to its counter; a zero tally costs no
/// atomic update.
void publish(obs::Counter* counter, std::uint64_t n) {
  if (n != 0) counter->inc(n);
}

}  // namespace

InFilterEngine::InFilterEngine(EngineConfig config, alert::AlertSink* sink)
    : config_(config),
      sink_(sink),
      eia_(config.eia),
      hopcount_(config.hopcount),
      scan_(config.scan),
      metrics_(registry_) {
  register_component_metrics();
}

void InFilterEngine::register_component_metrics() {
  // Pull-style component internals: sampled at snapshot time, reading the
  // engine's members directly.
  registry_.gauge_fn(
      "infilter_eia_pending_counters",
      [this] { return static_cast<double>(eia_.pending_counters()); },
      "Auto-learning candidates currently tracked (Section 5.2)");
  registry_.gauge_fn(
      "infilter_eia_ranges",
      [this] { return static_cast<double>(eia_.total_ranges()); },
      "Stored address ranges across all EIA sets");
  registry_.gauge_fn(
      "infilter_eia_ingresses",
      [this] { return static_cast<double>(eia_.ingress_count()); },
      "Ingress points with an EIA set");
  registry_.counter_fn(
      "infilter_eia_lookups_total", [this] { return eia_.stats().lookups; },
      "EIA membership tests performed by the table");
  registry_.gauge_fn(
      "infilter_eia_backend_bytes",
      [this] { return static_cast<double>(eia_.memory_bytes()); },
      "Bytes held by the EIA sets");
  registry_.counter_fn(
      "infilter_eia_pending_rejected_total",
      [this] { return eia_.stats().pending_rejected; },
      "Full-bank events on the pending learn-counter map (each ran the "
      "decay/eviction policy)");
  registry_.counter_fn(
      "infilter_lifecycle_entries_expired_total",
      [this] { return eia_.lifecycle_stats().entries_expired; },
      "Learned EIA entries whose membership idle-expired (src/lifecycle)");
  registry_.counter_fn(
      "infilter_lifecycle_entries_relearned_total",
      [this] { return eia_.lifecycle_stats().entries_relearned; },
      "Expired EIA entries learned again on reobservation");
  registry_.counter_fn(
      "infilter_lifecycle_entries_refreshed_total",
      [this] { return eia_.lifecycle_stats().entries_refreshed; },
      "EIA entry last_seen advances on lookup hits (aging on)");
  registry_.gauge_fn(
      "infilter_lifecycle_aged_entries",
      [this] { return static_cast<double>(eia_.aged_entry_count()); },
      "Age-metadata records held (live learned entries + expiry tombstones)");
  registry_.gauge_fn(
      "infilter_hopcount_entries",
      [this] { return static_cast<double>(hopcount_.table().size()); },
      "(ingress, source /24) keys with a hop-count range");
  registry_.counter_fn(
      "infilter_hopcount_lookups_total",
      [this] { return hopcount_.table().stats().classified; },
      "TTL classifications performed by the hop-count table");
  registry_.counter_fn(
      "infilter_hopcount_established_total",
      [this] { return hopcount_.table().stats().established_keys; },
      "Hop-count keys that completed learning");
  registry_.counter_fn(
      "infilter_hopcount_expired_total",
      [this] { return hopcount_.table().stats().expired_entries; },
      "Hop-count entries re-learned or reclaimed after decaying idle");
  registry_.counter_fn(
      "infilter_hopcount_reclaim_sweeps_total",
      [this] { return hopcount_.table().stats().reclaim_sweeps; },
      "Full hop-count table sweeps for decayed entries");
  registry_.gauge_fn(
      "infilter_scan_buffer_flows",
      [this] { return static_cast<double>(scan_.buffered_flows()); },
      "Suspect flows currently in the scan-analysis buffer");
  registry_.counter_fn(
      "infilter_scan_evictions_total", [this] { return scan_.stats().evictions; },
      "Flows aged out of the scan-analysis buffer");
  registry_.counter_fn(
      "infilter_nns_index_assessments_total",
      [this] { return clusters_ != nullptr ? clusters_->stats().assessments : 0; },
      "NNS queries against the trained clusters (all sharing engines)");
  registry_.counter_fn(
      "infilter_nns_no_neighbor_total",
      [this] { return clusters_ != nullptr ? clusters_->stats().no_neighbor : 0; },
      "NNS queries that found no neighbor at all");
  registry_.gauge_fn(
      "infilter_nns_trained_flows",
      [this] {
        return clusters_ != nullptr
                   ? static_cast<double>(clusters_->training_size_total())
                   : 0.0;
      },
      "Flows in the trained Normal cluster");
}

void InFilterEngine::add_expected(IngressId ingress, const net::Prefix& prefix) {
  eia_.add_expected(ingress, prefix);
}

void InFilterEngine::train(std::span<const netflow::V5Record> normal_flows) {
  clusters_ =
      std::make_shared<const TrainedClusters>(normal_flows, config_.cluster, config_.seed);
}

void InFilterEngine::set_clusters(std::shared_ptr<const TrainedClusters> clusters) {
  clusters_ = std::move(clusters);
}

Verdict InFilterEngine::process(const netflow::V5Record& record, IngressId ingress,
                                util::TimeMs now) {
  const FlowInput flow{record, ingress, now};
  Verdict verdict;
  process_batch({&flow, 1}, {&verdict, 1});
  return verdict;
}

void InFilterEngine::pre_process_batch(std::span<const FlowInput> flows,
                                       std::span<Verdict> out,
                                       std::vector<SuspectFlow>& suspects,
                                       std::vector<std::uint32_t>& positions) {
  assert(flows.size() == out.size());
  if (flows.empty()) return;
  const double batch_start_us = obs::monotonic_us();
  // Per-batch tallies, published to the counters once at the end: the
  // counters are exact whenever a batch call has returned.
  std::uint64_t legal = 0;
  std::uint64_t hits = 0;
  std::uint64_t learned_count = 0;
  std::array<std::uint64_t, 3> ttl_classes{};  // indexed by hopcount::TtlClass

  // The hop-count key of every EIA-vouched flow -- ~98% of them -- is
  // (observed ingress, source /24): prefetch that slot a few flows ahead.
  const auto prefetch_hops = [&](std::size_t i) {
    if (config_.use_hopcount && i < flows.size()) {
      hopcount_.table().prefetch(flows[i].ingress, flows[i].record.src_ip);
    }
  };
  for (std::size_t i = 0; i < kHopCountPrefetchAhead; ++i) prefetch_hops(i);

  // The stateful EIA stage, flow by flow in batch order, so auto-learning
  // mutates the table in dispatch order. A suspect's expected-ingress
  // alert context is snapshotted *here*, at EIA-check time, before later
  // flows can update the EIA table.
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const auto& [record, ingress, now] = flows[i];
    prefetch_hops(i + kHopCountPrefetchAhead);
    Verdict& verdict = out[i];
    verdict = Verdict{};

    // Figure 12, case (b): the ingress expects this source -- legal flow.
    bool expected;
    {
      obs::StageTimer timer(sampled(eia_observations_, metrics_.stage_eia_us));
      expected = eia_.is_expected(ingress, record.src_ip, now);
    }

    // The source's home ingress (AS_IP(phi), a scan over every EIA set) is
    // wanted twice on suspect paths -- TTL-witness selection and alert
    // context -- but computed at most once per flow: lazily here, and the
    // post-learn alert context is *derived* (see below) rather than
    // re-scanned.
    bool home_known = false;
    std::optional<IngressId> home;
    const auto home_ingress = [&] {
      if (!home_known) {
        home = eia_.expected_ingress(record.src_ip, now);
        home_known = true;
      }
      return home;
    };

    // The TTL witness (src/hopcount). Flows the EIA sets vouch for are
    // classified against -- and learned into -- the range at the observed
    // ingress. An EIA-missing flow is classified (never learned: the
    // anti-poisoning rule) against the range at the ingress that DOES
    // expect its source: if honest traffic from that /24 established a path
    // length at its home ingress and this flow's TTL contradicts it, the
    // address is forged, not re-routed. Both keys share the flow's source
    // /24, which the runtime shards by (runtime.cpp shard_of), so the
    // lookup stays shard-local and the serial-equivalence argument covers
    // it unchanged.
    auto ttl = hopcount::TtlClass::kUnknown;
    if (config_.use_hopcount) {
      obs::StageTimer timer(
          sampled(hopcount_observations_, metrics_.stage_hopcount_us));
      const auto witness =
          expected ? std::optional<IngressId>{ingress} : home_ingress();
      if (witness.has_value()) {
        ttl = hopcount_.analyze(*witness, record.src_ip, record.ttl, now,
                                expected);
      }
      ++ttl_classes[static_cast<std::size_t>(ttl)];
    }

    if (expected) {
      ++hits;
      if (ttl == hopcount::TtlClass::kMiss) {
        // In-EIA spoof suspicion: the address is vouched for but the path
        // length is wrong. One disagreeing witness makes a suspect,
        // arbitrated by scan/NNS like any EIA miss.
        verdict.suspect = true;
        suspects.push_back(
            SuspectFlow{record, ingress, now, false, home_ingress(), ttl, true});
        positions.push_back(static_cast<std::uint32_t>(i));
        continue;
      }
      ++legal;
      continue;
    }

    // Case (a): possible attack. The auto-learning rule of Section 5.2 runs
    // regardless of the final verdict: persistent traffic from a new source
    // at this ingress eventually updates the EIA set (route change
    // adaptation) -- and a flow that triggers learning is treated as the
    // route change it signals, not as an attack.
    verdict.suspect = true;
    const std::optional<IngressId> pre_learn_home = home_ingress();
    const bool learned = eia_.observe_mismatch(ingress, record.src_ip, now);
    learned_count += learned ? 1 : 0;
    // The alert context is the post-learn first match, derived without a
    // second scan: learning added exactly (ingress, src /24), so the first
    // match becomes min(home, ingress) -- and an unchanged table keeps
    // home (home == ingress is impossible on a miss).
    suspects.push_back(SuspectFlow{
        record, ingress, now, learned,
        learned ? std::optional<IngressId>{pre_learn_home.has_value() &&
                                                   *pre_learn_home < ingress
                                               ? *pre_learn_home
                                               : ingress}
                : pre_learn_home,
        ttl, false});
    positions.push_back(static_cast<std::uint32_t>(i));
  }

  metrics_.flows_total->inc(flows.size());
  publish(metrics_.eia_hits, hits);
  publish(metrics_.eia_misses, flows.size() - hits);
  publish(metrics_.eia_learned, learned_count);
  publish(metrics_.verdict_legal, legal);
  publish(metrics_.hopcount_unknown,
          ttl_classes[static_cast<std::size_t>(hopcount::TtlClass::kUnknown)]);
  publish(metrics_.hopcount_consistent,
          ttl_classes[static_cast<std::size_t>(hopcount::TtlClass::kConsistent)]);
  publish(metrics_.hopcount_miss,
          ttl_classes[static_cast<std::size_t>(hopcount::TtlClass::kMiss)]);

  // Legal flows finish here, so their end-to-end latency sample is this
  // pass alone (batch-amortized); suspects get theirs from
  // finish_suspect_batch, keeping one process_us sample per flow overall.
  if (metrics_.process_us != nullptr && legal > 0) {
    const double per_flow_us = (obs::monotonic_us() - batch_start_us) /
                               static_cast<double>(flows.size());
    metrics_.process_us->observe_n(per_flow_us, legal);
  }
}

void InFilterEngine::finish_suspect_batch(std::span<const SuspectFlow> suspects,
                                          std::span<Verdict> out) {
  assert(suspects.size() == out.size());
  if (suspects.empty()) return;
  const double batch_start_us = obs::monotonic_us();
  auto& scratch = batch_scratch_;
  scratch.nns_ids.clear();
  scratch.nns_records.clear();
  scratch.nns_rngs.clear();
  // Per-batch tallies, published once at the end (see pre_process_batch).
  std::uint64_t fused = 0;
  std::uint64_t scan_analyzed = 0;
  std::uint64_t scan_network = 0;
  std::uint64_t scan_host = 0;
  std::uint64_t attack_eia = 0;
  std::uint64_t cleared_learned = 0;
  std::uint64_t nns_anomalous = 0;

  // Pass 1 -- the stateful scan stage (Enhanced InFilter: Scan Analysis
  // sits between EIA and NNS), suspect by suspect in span order. Suspects
  // that reach the NNS stage are gathered for pass 2; alerts are only
  // recorded, not emitted, so the stream can be replayed in span order in
  // pass 3. Without the NNS stage (Basic InFilter, or an ablation), a
  // suspect the scan stage clears is decided on the EIA mismatch alone.
  const bool degenerate_basic = !config_.use_nns || clusters_ == nullptr;
  for (std::size_t i = 0; i < suspects.size(); ++i) {
    const SuspectFlow& suspect = suspects[i];
    Verdict& verdict = out[i];
    verdict = Verdict{};
    verdict.suspect = true;

    // Fused high-confidence path: both independent witnesses disagree with
    // the learned state -- unexpected ingress AND wrong path length. The
    // confirmation scan/NNS would provide is already here, so they are
    // skipped and the scan buffer never sees the flow (a learned flow
    // keeps its route-change reading instead).
    if (!suspect.eia_hit && suspect.ttl == hopcount::TtlClass::kMiss &&
        !suspect.learned) {
      verdict.attack = true;
      verdict.stage = alert::DetectionStage::kHopCountFusion;
      ++fused;
      continue;
    }

    if (config_.use_scan_analysis) {
      ScanVerdict scan;
      {
        obs::StageTimer timer(sampled(scan_observations_, metrics_.stage_scan_us));
        scan = scan_.observe(suspect.record);
      }
      ++scan_analyzed;
      if (scan != ScanVerdict::kClean) {
        ++(scan == ScanVerdict::kNetworkScan ? scan_network : scan_host);
        verdict.attack = true;
        verdict.stage = alert::DetectionStage::kScanAnalysis;
        continue;
      }
    }

    if (degenerate_basic) {
      verdict.attack = !suspect.learned;
      verdict.stage = alert::DetectionStage::kEiaMismatch;
      ++(verdict.attack ? attack_eia : cleared_learned);
      continue;
    }

    scratch.nns_ids.push_back(static_cast<std::uint32_t>(i));
    scratch.nns_records.push_back(suspect.record);
    scratch.nns_rngs.emplace_back(flow_rng_seed(config_.seed, suspect.record));
  }

  // Pass 2 -- the stateless NNS stage over the gathered suspects as one
  // batch. The stage histogram records the batch-amortized per-flow cost,
  // one sample per assessed flow.
  const std::size_t assessed = scratch.nns_ids.size();
  if (assessed > 0) {
    if (scratch.nns_out.size() < assessed) scratch.nns_out.resize(assessed);
    const double nns_start_us = obs::monotonic_us();
    clusters_->assess_batch(
        std::span<const netflow::V5Record>(scratch.nns_records.data(), assessed),
        std::span<util::Rng>(scratch.nns_rngs.data(), assessed),
        std::span<TrainedClusters::Assessment>(scratch.nns_out.data(), assessed),
        scratch.clusters);
    if (metrics_.stage_nns_us != nullptr) {
      metrics_.stage_nns_us->observe_n(
          (obs::monotonic_us() - nns_start_us) / static_cast<double>(assessed),
          assessed);
    }
    for (std::size_t j = 0; j < assessed; ++j) {
      Verdict& verdict = out[scratch.nns_ids[j]];
      verdict.nns = scratch.nns_out[j];
      if (verdict.nns->anomalous) {
        ++nns_anomalous;
        verdict.attack = true;
        verdict.stage = alert::DetectionStage::kNnsDistance;
      }
    }
  }

  // Pass 3 -- alert emission in span order: ids and contents are exactly
  // those of emitting each alert at its suspect's turn (the
  // expected-ingress context was snapshotted at EIA-check time).
  std::array<std::uint64_t, alert::kStageCount> alerts{};  // by stage
  if (sink_ != nullptr) {
    for (std::size_t i = 0; i < suspects.size(); ++i) {
      if (!out[i].attack) continue;
      ++alerts[static_cast<std::size_t>(out[i].stage)];
      emit_alert_with(suspects[i].record, suspects[i].ingress, suspects[i].now,
                      out[i], suspects[i].expected);
    }
  }

  publish(metrics_.verdict_attack_fused, fused);
  publish(metrics_.scan_analyzed, scan_analyzed);
  publish(metrics_.scan_network, scan_network);
  publish(metrics_.scan_host, scan_host);
  publish(metrics_.verdict_attack_scan, scan_network + scan_host);
  publish(metrics_.verdict_attack_eia, attack_eia);
  publish(metrics_.verdict_cleared_learned, cleared_learned);
  publish(metrics_.nns_assessed, assessed);
  publish(metrics_.nns_anomalous, nns_anomalous);
  publish(metrics_.nns_normal, assessed - nns_anomalous);
  publish(metrics_.verdict_attack_nns, nns_anomalous);
  publish(metrics_.verdict_cleared_nns, assessed - nns_anomalous);
  publish(metrics_.alerts_total,
          alerts[0] + alerts[1] + alerts[2] + alerts[3]);
  publish(metrics_.alerts_eia,
          alerts[static_cast<std::size_t>(alert::DetectionStage::kEiaMismatch)]);
  publish(metrics_.alerts_scan,
          alerts[static_cast<std::size_t>(alert::DetectionStage::kScanAnalysis)]);
  publish(metrics_.alerts_nns,
          alerts[static_cast<std::size_t>(alert::DetectionStage::kNnsDistance)]);
  publish(metrics_.alerts_fused,
          alerts[static_cast<std::size_t>(alert::DetectionStage::kHopCountFusion)]);

  if (metrics_.process_us != nullptr) {
    metrics_.process_us->observe_n((obs::monotonic_us() - batch_start_us) /
                                       static_cast<double>(suspects.size()),
                                   suspects.size());
  }
}

void InFilterEngine::process_batch(std::span<const FlowInput> flows,
                                   std::span<Verdict> out) {
  assert(flows.size() == out.size());
  if (flows.empty()) return;
  auto& scratch = batch_scratch_;
  scratch.suspects.clear();
  scratch.suspect_positions.clear();
  pre_process_batch(flows, out, scratch.suspects, scratch.suspect_positions);
  if (scratch.suspects.empty()) return;
  if (scratch.suspect_verdicts.size() < scratch.suspects.size()) {
    scratch.suspect_verdicts.resize(scratch.suspects.size());
  }
  finish_suspect_batch(
      scratch.suspects,
      std::span<Verdict>(scratch.suspect_verdicts.data(), scratch.suspects.size()));
  for (std::size_t j = 0; j < scratch.suspects.size(); ++j) {
    out[scratch.suspect_positions[j]] = scratch.suspect_verdicts[j];
  }
}

void InFilterEngine::emit_alert_with(const netflow::V5Record& record,
                                     IngressId ingress, util::TimeMs now,
                                     const Verdict& verdict,
                                     std::optional<IngressId> expected) {
  alert::Alert a;
  a.id = ++next_alert_id_;
  a.create_time = now;
  a.stage = verdict.stage;
  a.source_ip = record.src_ip;
  a.target_ip = record.dst_ip;
  a.target_port = record.dst_port;
  a.proto = record.proto;
  a.ingress_port = ingress;
  if (expected.has_value()) {
    a.expected_ingress = *expected;
  }
  if (verdict.nns.has_value()) {
    a.nns_distance = verdict.nns->distance;
    a.nns_threshold = verdict.nns->threshold;
  }
  a.detection_latency_ms = now >= record.last ? static_cast<double>(now - record.last) : 0.0;
  sink_->consume(a);
}

}  // namespace infilter::core
