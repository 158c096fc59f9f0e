#include "sim/soak.h"

#include <algorithm>
#include <cassert>
#include <mutex>

namespace infilter::sim {

namespace {

std::uint64_t counter_value(const obs::RegistrySnapshot& snap,
                            std::string_view name) {
  return static_cast<std::uint64_t>(snap.value(name));
}

}  // namespace

double SoakResult::min_detection_rate() const {
  double lo = 1.0;
  for (const SoakWave& wave : waves) lo = std::min(lo, wave.detection_rate);
  return waves.empty() ? 0.0 : lo;
}

double SoakResult::max_false_positive_rate() const {
  double hi = 0.0;
  for (const SoakWave& wave : waves) hi = std::max(hi, wave.false_positive_rate);
  return hi;
}

double SoakResult::max_benign_suspect_rate() const {
  double hi = 0.0;
  for (const SoakWave& wave : waves) hi = std::max(hi, wave.benign_suspect_rate);
  return hi;
}

SoakResult run_soak(const SoakConfig& config) {
  assert(config.base.runtime_shards >= 1);

  core::EngineConfig engine_config = config.base.engine;
  engine_config.seed = config.base.seed ^ 0xe191eULL;
  const auto clusters =
      engine_config.use_nns ? train_clusters(config.base) : nullptr;

  runtime::RuntimeConfig runtime_config;
  runtime_config.shards = config.base.runtime_shards;
  runtime_config.queue_depth = config.base.runtime_queue_depth;
  runtime_config.engine = engine_config;

  // The hook targets whichever wave's scorer is current; the pointer swap
  // happens under the same mutex as scoring, and only while the runtime
  // is flushed (no verdict can be in flight across a swap).
  std::mutex score_mutex;
  Scorer* scorer = nullptr;
  const TestbedStream* stream = nullptr;
  runtime::ShardedRuntime runtime(
      runtime_config, nullptr,
      [&](const runtime::FlowItem& item, const core::Verdict& verdict) {
        std::lock_guard lock(score_mutex);
        scorer->score(stream->flows[item.tag], verdict);
      });

  // Preload the EIA sets once, before wave 0 -- the operator-configured
  // baseline that persists across the whole horizon (preloads are exempt
  // from aging; only drift-learned entries expire and relearn).
  for (int s = 0; s < config.base.sources; ++s) {
    const auto port = static_cast<core::IngressId>(config.base.first_port + s);
    const auto range = dagflow::eia_range(s, config.base.blocks_per_source);
    for (int b = range.first.index(); b <= range.last.index(); ++b) {
      runtime.add_expected(port, net::SubBlock{b}.prefix());
    }
  }
  if (engine_config.use_nns) runtime.set_clusters(clusters);

  SoakResult out;
  util::TimeMs offset = 0;
  constexpr std::size_t kSubmitBatch = 256;
  std::vector<runtime::FlowItem> batch;
  batch.reserve(kSubmitBatch);
  ExperimentConfig wave_config = config.base;
  for (int w = 0; w < config.waves; ++w) {
    for (const SoakResize& resize : config.resizes) {
      if (resize.before_wave == w) runtime.resize(resize.shards);
    }

    // A fresh epoch: new seed (new drift pattern, new attack timing), the
    // same routing-churn schedule (allocation transitions within the
    // wave, per ExperimentConfig::route_change_blocks).
    wave_config.seed =
        config.base.seed + static_cast<std::uint64_t>(w) * 7919ULL;
    const TestbedStream wave_stream = generate_stream(wave_config);
    Scorer wave_scorer(wave_config, wave_stream);
    {
      std::lock_guard lock(score_mutex);
      scorer = &wave_scorer;
      stream = &wave_stream;
    }

    // Exporter restart: record.first/last carry the exporter's rebased
    // uptime (small again each wave), while the submitted arrival clock
    // advances by the accumulated offset. The lifecycle predicate keys on
    // the arrival clock, so rebasing never expires entries spuriously.
    util::TimeMs span = 0;
    for (std::size_t i = 0; i < wave_stream.flows.size(); ++i) {
      const auto& flow = wave_stream.flows[i];
      const auto arrival =
          offset + static_cast<util::TimeMs>(flow.record.last);
      batch.push_back(runtime::FlowItem{flow.record, flow.arrival_port, arrival, i});
      if (batch.size() == kSubmitBatch || i + 1 == wave_stream.flows.size()) {
        runtime.submit_batch(batch);
        batch.clear();
      }
      span = std::max(span, static_cast<util::TimeMs>(flow.record.last));
    }
    runtime.flush();
    const ExperimentResult scored = wave_scorer.finalize();

    // The idle gap, then the optional eager sweep at the gap's end.
    offset += span + config.wave_gap_ms;
    std::size_t swept = 0;
    if (config.age_sweep_between_waves) swept = runtime.age_sweep(offset);

    const obs::RegistrySnapshot snap = runtime.snapshot();
    SoakWave wave;
    wave.wave = w;
    wave.shards = static_cast<int>(runtime.shard_count());
    wave.detection_rate = scored.detection_rate();
    wave.flow_detection_rate = scored.flow_detection_rate();
    wave.false_positive_rate = scored.false_positive_rate();
    wave.benign_suspect_rate = scored.benign_suspect_rate();
    wave.entries_expired =
        counter_value(snap, "infilter_lifecycle_entries_expired_total");
    wave.entries_relearned =
        counter_value(snap, "infilter_lifecycle_entries_relearned_total");
    wave.swept = swept;
    out.waves.push_back(wave);
  }

  out.metrics = runtime.snapshot();
  out.resizes = counter_value(out.metrics, "infilter_lifecycle_resizes_total");
  out.migrated_entries =
      counter_value(out.metrics, "infilter_lifecycle_migrated_entries_total");
  out.entries_expired =
      counter_value(out.metrics, "infilter_lifecycle_entries_expired_total");
  out.entries_relearned =
      counter_value(out.metrics, "infilter_lifecycle_entries_relearned_total");
  if (const obs::HistogramSnapshot* pause =
          out.metrics.histogram("infilter_lifecycle_resize_pause_us")) {
    out.resize_pause_p99_us = pause->quantile(0.99);
  }
  return out;
}

}  // namespace infilter::sim
