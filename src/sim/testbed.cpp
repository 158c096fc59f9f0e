#include "sim/testbed.h"

#include <algorithm>
#include <cassert>
#include <mutex>

namespace infilter::sim {
namespace {

/// Flow count of one attack set at intensity 1 (sum of the generators'
/// base counts, attack flows only). Used to translate the paper's
/// "% of normal volume" knob into a generator intensity.
constexpr double kBaselineAttackSetFlows = 637.0;

std::vector<net::SubBlock> all_used_blocks(const ExperimentConfig& config) {
  std::vector<net::SubBlock> blocks;
  blocks.reserve(static_cast<std::size_t>(config.sources * config.blocks_per_source));
  for (int s = 0; s < config.sources; ++s) {
    const auto range = dagflow::eia_range(s, config.blocks_per_source);
    for (int b = range.first.index(); b <= range.last.index(); ++b) {
      blocks.emplace_back(b);
    }
  }
  return blocks;
}

/// Normal-source pool: the source's current allocation plus the baseline
/// ingress-drift component drawn from every other source's blocks.
dagflow::AddressPool source_pool(const dagflow::SourceAllocation& allocation,
                                 int source, const ExperimentConfig& config) {
  std::vector<net::Prefix> own;
  own.reserve(allocation.normal_set.size() + allocation.change_set.size());
  for (const auto& block : allocation.normal_set) own.push_back(block.prefix());
  for (const auto& block : allocation.change_set) own.push_back(block.prefix());

  if (config.ingress_drift <= 0) {
    return dagflow::AddressPool(
        {{std::move(own), 1.0, config.source_active_slash24s}});
  }
  std::vector<net::Prefix> foreign;
  foreign.reserve(static_cast<std::size_t>((config.sources - 1) *
                                           config.blocks_per_source));
  for (int other = 0; other < config.sources; ++other) {
    if (other == source) continue;
    const auto range = dagflow::eia_range(other, config.blocks_per_source);
    for (int b = range.first.index(); b <= range.last.index(); ++b) {
      foreign.push_back(net::SubBlock{b}.prefix());
    }
  }
  return dagflow::AddressPool(
      {{std::move(own), 1.0 - config.ingress_drift, config.source_active_slash24s},
       {std::move(foreign), config.ingress_drift, 0}});
}

/// Spoofing pool for one attack instance at ingress `attacked`: a few
/// sub-blocks drawn from the other sources' EIA ranges (Section 6.3.1:
/// "source addresses ... chosen from the 900 address blocks corresponding
/// to the EIA sets for Peer AS2 - Peer AS10").
dagflow::AddressPool spoof_pool(int attacked, const ExperimentConfig& config,
                                util::Rng& rng) {
  std::vector<net::SubBlock> blocks;
  const int count = std::max(1, config.spoof_blocks_per_instance);
  for (int i = 0; i < count; ++i) {
    int other = attacked;
    while (other == attacked) {
      other = static_cast<int>(rng.below(static_cast<std::uint64_t>(config.sources)));
    }
    const auto range = dagflow::eia_range(other, config.blocks_per_source);
    blocks.emplace_back(static_cast<int>(
        rng.range(range.first.index(), range.last.index())));
  }
  return dagflow::AddressPool::from_subblocks(blocks);
}

/// Spoofing pool for the TTL-aware kinds: EIA sub-blocks from the whole
/// peer universe (Section 6.3.1: sources "chosen from the ... address
/// blocks corresponding to the EIA sets"), clustered exactly like honest
/// traffic -- the active-/24 subset is a deterministic hash of the prefix
/// (AddressPool::draw), so the forged sources land in the same popular
/// /24s whose hop-count ranges honest traffic established. Half the
/// blocks come from the attacked ingress's *own* EIA range: those flows
/// pass the EIA check and the TTL witness is the only signal, feeding
/// scan/NNS arbitration. The other half come from the other peers'
/// ranges: those flows miss EIA at the attacked ingress AND contradict
/// the range their source's home ingress learned -- the
/// doubly-inconsistent case the engine escalates to a fused
/// high-confidence alert.
dagflow::AddressPool in_eia_pool(int attacked, const ExperimentConfig& config,
                                 util::Rng& rng) {
  const int count = std::max(1, config.spoof_blocks_per_instance);
  const auto pick = [&](int owner) {
    const auto range = dagflow::eia_range(owner, config.blocks_per_source);
    return net::SubBlock{static_cast<int>(
                             rng.range(range.first.index(), range.last.index()))}
        .prefix();
  };
  std::vector<net::Prefix> own;
  for (int i = 0; i < count; ++i) own.push_back(pick(attacked));
  if (config.sources <= 1) {
    return dagflow::AddressPool(
        {{std::move(own), 1.0, config.source_active_slash24s}});
  }
  std::vector<net::Prefix> cross;
  for (int i = 0; i < count; ++i) {
    int owner = attacked;
    while (owner == attacked) {
      owner = static_cast<int>(
          rng.below(static_cast<std::uint64_t>(config.sources)));
    }
    cross.push_back(pick(owner));
  }
  return dagflow::AddressPool(
      {{std::move(own), 0.5, config.source_active_slash24s},
       {std::move(cross), 0.5, config.source_active_slash24s}});
}

}  // namespace

std::shared_ptr<const core::TrainedClusters> train_clusters(
    const ExperimentConfig& config) {
  // Training: a single Dagflow instance replaying a normal trace
  // (Section 6.3, "A training traffic cluster was created by using a
  // single Dagflow instance").
  util::Rng rng{config.seed ^ 0x7e51a11ULL};
  traffic::NormalTrafficModel model;
  const traffic::Trace trace = model.generate(config.training_flows, 0, rng);
  dagflow::Dagflow replayer(
      dagflow::DagflowConfig{.netflow_port = 8999,
                             .sampling_interval = config.netflow_sampling},
      dagflow::AddressPool::from_subblocks(all_used_blocks(config)),
      config.seed ^ 0xdaf1ULL);
  const auto labeled = replayer.replay(trace);
  std::vector<netflow::V5Record> records;
  records.reserve(labeled.size());
  for (const auto& flow : labeled) records.push_back(flow.record);
  return std::make_shared<const core::TrainedClusters>(records, config.engine.cluster,
                                                       config.seed);
}

TestbedStream generate_stream(const ExperimentConfig& config) {
  assert(config.sources > 0);
  assert(config.attacked_ingresses >= 0 && config.attacked_ingresses <= config.sources);
  util::Rng master{config.seed};
  TestbedStream out;
  std::vector<dagflow::LabeledFlow>& stream = out.flows;

  // One shared path model stamps every record's TTL in the TTL scenario.
  // Stamping is pure hashing (no RNG draws), so the stream is identical to
  // the non-TTL stream in every field but ttl.
  const hopcount::PathModel path_model(
      hopcount::PathModelConfig{.seed = config.seed ^ 0x7717a11ULL});
  const hopcount::PathModel* stamper =
      config.ttl_scenario ? &path_model : nullptr;

  // Normal traffic: one Dagflow per source, transitioning through the
  // route-change allocations simultaneously (Section 6.3.3).
  traffic::NormalTrafficModel model;
  const int allocation_count = std::max(1, config.allocations);
  for (int s = 0; s < config.sources; ++s) {
    util::Rng source_rng = master.fork(0x100 + static_cast<std::uint64_t>(s));
    traffic::Trace trace =
        model.generate(config.normal_flows_per_source, 0, source_rng);
    dagflow::Dagflow replayer(
        dagflow::DagflowConfig{
            .netflow_port = static_cast<std::uint16_t>(config.first_port + s),
            .sampling_interval = config.netflow_sampling,
            .path_model = stamper},
        dagflow::AddressPool{}, config.seed ^ (0xd0f1ULL + static_cast<std::uint64_t>(s)));

    const std::size_t per_chunk =
        (trace.flows.size() + allocation_count - 1) / allocation_count;
    for (int a = 0; a < allocation_count; ++a) {
      const auto allocation = dagflow::make_allocation(
          config.sources, config.blocks_per_source, config.route_change_blocks, a);
      replayer.set_pool(
          source_pool(allocation[static_cast<std::size_t>(s)], s, config));
      const std::size_t begin = static_cast<std::size_t>(a) * per_chunk;
      if (begin >= trace.flows.size()) break;
      const std::size_t end = std::min(trace.flows.size(), begin + per_chunk);
      traffic::Trace chunk;
      chunk.flows.assign(trace.flows.begin() + static_cast<std::ptrdiff_t>(begin),
                         trace.flows.begin() + static_cast<std::ptrdiff_t>(end));
      auto labeled = replayer.replay(chunk);
      stream.insert(stream.end(), labeled.begin(), labeled.end());
    }
  }

  // The normal run length bounds where attacks can start.
  const double normal_span_ms =
      static_cast<double>(config.normal_flows_per_source) * 25.0;

  // Attack sets (Sections 6.3.1/6.3.2): one instance of each of the 12
  // attacks per attacked ingress, scaled so the attack-flow volume is the
  // configured fraction of the ingress's normal volume. The TTL scenario
  // appends the two TTL-aware kinds at the same intensity.
  const double target_flows =
      config.attack_volume * static_cast<double>(config.normal_flows_per_source);
  traffic::AttackConfig attack_config;
  attack_config.intensity = target_flows / kBaselineAttackSetFlows;
  attack_config.companion_fraction = config.companion_fraction;

  // Shared per-kind launch times for the synchronized stress replicas.
  // A single attack set (6.3.1) is twelve tools run one after another, so
  // its instances stagger across the run; the stress test (6.3.2) fires
  // the *replicated* set at every border router at once -- one replay
  // script per BR, started together -- so the whole set lands as one
  // storm and the ten replicas of each tool overlap in the shared
  // scan-analysis buffer.
  std::array<util::TimeMs, traffic::kAttackKindCount> shared_origin{};
  {
    util::Rng origin_rng = master.fork(0x300);
    const bool storm =
        config.synchronized_attack_sets && config.attacked_ingresses > 1;
    const double window = storm ? 10000.0 : 0.9 * normal_span_ms;
    const double start = storm ? origin_rng.uniform() * (0.9 * normal_span_ms - window)
                               : 0.0;
    for (auto& origin : shared_origin) {
      origin = static_cast<util::TimeMs>(start + origin_rng.uniform() * window);
    }
  }

  // The TTL kinds launch last so the standard set draws exactly the same
  // RNG stream whether or not the scenario is on (TTL stamping itself
  // consumes no draws).
  const int launched_kinds = config.ttl_scenario
                                 ? traffic::kAttackKindCount
                                 : traffic::kStandardAttackKindCount;
  for (int a = 0; a < config.attacked_ingresses; ++a) {
    util::Rng attack_rng = master.fork(0x200 + static_cast<std::uint64_t>(a));
    const auto port = static_cast<std::uint16_t>(config.first_port + a);
    for (int k = 0; k < launched_kinds; ++k) {
      const auto kind = static_cast<traffic::AttackKind>(k);
      const bool in_eia = k >= traffic::kStandardAttackKindCount;
      const auto origin =
          config.synchronized_attack_sets
              ? shared_origin[static_cast<std::size_t>(k)] + attack_rng.below(2000)
              : static_cast<util::TimeMs>(attack_rng.uniform() * 0.9 * normal_span_ms);
      const traffic::Trace trace =
          traffic::generate_attack(kind, attack_config, origin, attack_rng);
      dagflow::DagflowConfig replay_config{
          .netflow_port = port,
          .sampling_interval = config.netflow_sampling,
          .path_model = stamper};
      if (stamper != nullptr) {
        // Each tool instance sends over its own path: a unique, non-zero
        // salt per (ingress, kind).
        replay_config.attacker_path_salt =
            0xa77acc00ULL + static_cast<std::uint64_t>(a) * 64 +
            static_cast<std::uint64_t>(k) + 1;
        if (kind == traffic::AttackKind::kTtlJitterFlood) {
          replay_config.attacker_ttl_jitter = 10;
        }
      }
      dagflow::Dagflow replayer(replay_config,
                                in_eia ? in_eia_pool(a, config, attack_rng)
                                       : spoof_pool(a, config, attack_rng),
                                attack_rng());
      auto labeled = replayer.replay(trace);
      stream.insert(stream.end(), labeled.begin(), labeled.end());
      out.instances.emplace_back(a, kind);
    }
  }

  // Flows reach the collector in export order.
  std::stable_sort(stream.begin(), stream.end(),
                   [](const dagflow::LabeledFlow& x, const dagflow::LabeledFlow& y) {
                     return x.record.last < y.record.last;
                   });
  return out;
}

Scorer::Scorer(const ExperimentConfig& config, const TestbedStream& stream)
    : first_port_(config.first_port) {
  for (const auto& [ingress, kind] : stream.instances) {
    instances_[InstanceKey{ingress, kind}] = InstanceState{};
  }
}

void Scorer::score(const dagflow::LabeledFlow& flow,
                   const core::Verdict& verdict) {
  if (verdict.attack) {
    switch (verdict.stage) {
      case alert::DetectionStage::kEiaMismatch: ++result_.alerts_eia; break;
      case alert::DetectionStage::kScanAnalysis: ++result_.alerts_scan; break;
      case alert::DetectionStage::kNnsDistance: ++result_.alerts_nns; break;
      case alert::DetectionStage::kHopCountFusion: ++result_.alerts_fused; break;
    }
  }
  if (flow.attack) {
    ++result_.attack_flows;
    auto& instance = instances_[InstanceKey{
        flow.arrival_port - first_port_, flow.attack_kind}];
    instance.first_flow = std::min(
        instance.first_flow, static_cast<util::TimeMs>(flow.record.first));
    if (verdict.attack) {
      instance.detected = true;
      instance.first_alert = std::min(
          instance.first_alert, static_cast<util::TimeMs>(flow.record.last));
      ++result_.detected_attack_flows;
    }
  } else {
    ++result_.benign_flows;
    if (verdict.suspect) ++result_.benign_suspects;
    if (verdict.attack) ++result_.false_positives;
  }
}

ExperimentResult Scorer::finalize() {
  ExperimentResult result = result_;
  result.attack_instances = static_cast<int>(instances_.size());
  double latency_sum = 0;
  for (const auto& [key, instance] : instances_) {
    const auto k = static_cast<std::size_t>(key.kind);
    result.per_kind[k].first += 1;
    if (instance.detected) {
      ++result.detected_instances;
      result.per_kind[k].second += 1;
      latency_sum += instance.first_alert >= instance.first_flow
                         ? static_cast<double>(instance.first_alert -
                                               instance.first_flow)
                         : 0.0;
    }
  }
  if (result.detected_instances > 0) {
    result.mean_detection_latency_ms =
        latency_sum / static_cast<double>(result.detected_instances);
  }
  return result;
}

ExperimentResult run_experiment(const ExperimentConfig& config,
                                std::shared_ptr<const core::TrainedClusters> clusters) {
  TestbedStream stream = generate_stream(config);

  core::EngineConfig engine_config = config.engine;
  engine_config.seed = config.seed ^ 0xe191eULL;
  const bool needs_clusters =
      engine_config.mode == core::EngineMode::kEnhanced && engine_config.use_nns;
  if (needs_clusters && !clusters) clusters = train_clusters(config);

  Scorer scorer(config, stream);
  ExperimentResult result;

  if (config.runtime_shards > 0) {
    // Concurrent replay: N shard engines behind bounded rings. Scoring
    // happens on the runtime's threads, joined to ground truth through the
    // FlowItem tag (a stream index) under one mutex -- the engines stay
    // lock-free, only the accounting serializes.
    runtime::RuntimeConfig runtime_config;
    runtime_config.shards = config.runtime_shards;
    runtime_config.queue_depth = config.runtime_queue_depth;
    runtime_config.engine = engine_config;
    std::mutex score_mutex;
    runtime::ShardedRuntime runtime(
        runtime_config, nullptr,
        [&](const runtime::FlowItem& item, const core::Verdict& verdict) {
          std::lock_guard lock(score_mutex);
          scorer.score(stream.flows[item.tag], verdict);
        });
    preload_eia(config, runtime);
    if (needs_clusters) runtime.set_clusters(clusters);
    constexpr std::size_t kSubmitBatch = 256;
    std::vector<runtime::FlowItem> batch;
    batch.reserve(kSubmitBatch);
    for (std::size_t i = 0; i < stream.flows.size(); ++i) {
      const auto& flow = stream.flows[i];
      batch.push_back(
          runtime::FlowItem{flow.record, flow.arrival_port, flow.record.last, i});
      if (batch.size() == kSubmitBatch || i + 1 == stream.flows.size()) {
        runtime.submit_batch(batch);
        batch.clear();
      }
    }
    runtime.flush();
    result = scorer.finalize();
    result.metrics = runtime.snapshot();
    return result;
  }

  // Serial replay (the paper's prototype). The run-local registry collects
  // the pipeline metrics; it is snapshotted into the result before the
  // engine (whose callbacks it holds) goes away.
  obs::Registry registry;
  if (engine_config.registry == nullptr) engine_config.registry = &registry;
  core::InFilterEngine engine(engine_config);
  preload_eia(config, engine);
  if (needs_clusters) engine.set_clusters(clusters);

  // Replay through the batch hot path in fixed-size chunks (verdicts are
  // bit-identical to per-flow process(); tests/test_batch.cpp pins this).
  constexpr std::size_t kReplayBatch = 256;
  std::vector<core::FlowInput> inputs(kReplayBatch);
  std::vector<core::Verdict> verdicts(kReplayBatch);
  for (std::size_t begin = 0; begin < stream.flows.size(); begin += kReplayBatch) {
    const std::size_t n = std::min(kReplayBatch, stream.flows.size() - begin);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& flow = stream.flows[begin + i];
      inputs[i] = core::FlowInput{flow.record, flow.arrival_port, flow.record.last};
    }
    engine.process_batch(std::span<const core::FlowInput>(inputs.data(), n),
                         std::span<core::Verdict>(verdicts.data(), n));
    for (std::size_t i = 0; i < n; ++i) {
      const auto& flow = stream.flows[begin + i];
      scorer.score(flow, verdicts[i]);
      // Ground truth feed for infilter_eia_bloom_false_suspects_total:
      // only the testbed knows this suspect was benign (engine.h).
      if (!flow.attack && verdicts[i].suspect) {
        engine.note_ground_truth_benign_suspect();
      }
    }
  }
  result = scorer.finalize();
  result.metrics = engine.registry().snapshot();
  return result;
}

std::shared_ptr<const core::TrainedClusters> ClusterCache::get(std::uint64_t seed) {
  auto it = cache_.find(seed);
  if (it == cache_.end()) {
    ExperimentConfig config = base_;
    config.seed = seed;
    it = cache_.emplace(seed, train_clusters(config)).first;
  }
  return it->second;
}

AveragedResult run_averaged(ExperimentConfig config, int runs, ClusterCache* cache) {
  AveragedResult out;
  const std::uint64_t base_seed = config.seed;
  for (int run = 0; run < runs; ++run) {
    config.seed = base_seed + static_cast<std::uint64_t>(run) * 1000;
    const auto result = run_experiment(
        config, cache != nullptr ? cache->get(config.seed) : nullptr);
    out.detection_rate += result.detection_rate();
    out.flow_detection_rate += result.flow_detection_rate();
    out.false_positive_rate += result.false_positive_rate();
    ++out.runs;
  }
  if (out.runs > 0) {
    out.detection_rate /= out.runs;
    out.flow_detection_rate /= out.runs;
    out.false_positive_rate /= out.runs;
  }
  return out;
}

}  // namespace infilter::sim
