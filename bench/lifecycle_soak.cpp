// Long-horizon churn soak: detection quality over virtual weeks of aging,
// routing churn, exporter restarts, and live shard-pool resizes.
//
// Runs the sim/soak.h harness twice on the same seed: once "churned"
// (exact-EIA aging on, >= 2 live resizes mid-horizon) and once as the
// static-pool baseline (same waves, same aging, no resizes). The
// lifecycle acceptance bar (ISSUE: lifecycle subsystem) is asserted as
// regression gates, so the ctest smoke entry fails the build when churn
// decays quality: per-wave fused detection must not drop below the
// static-pool run's, the benign false-suspect delta must stay <= +0.01,
// aging must actually fire (entries expired > 0), and every scheduled
// resize must have completed with state migrated.
//
// Steady-state allocation probes ride along: with aging on, a warm
// pre_process_batch over EIA-miss flows must not touch the heap, nor may
// one over never-seen EIA-miss /24s into full pending banks, nor a warm
// finish_suspect_batch that runs scan analysis and emits fused and NNS
// alerts.
//
// Usage:
//   lifecycle_soak [--smoke] [--seed N] [--out BENCH_lifecycle.json]

#include <array>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "obs/export.h"
#include "sim/soak.h"
#include "util/args.h"
#include "util/count_table.h"
#include "util/rng.h"

#include "heap_counter.h"

using namespace infilter;

namespace {

void print_wave(const char* mode, const sim::SoakWave& w) {
  std::printf("%-8s wave %d  %d shard(s)  detect %6.1f%%  fp %7.4f%%  "
              "benign-susp %7.4f%%  expired %llu  relearned %llu\n",
              mode, w.wave, w.shards, 100 * w.detection_rate,
              100 * w.false_positive_rate, 100 * w.benign_suspect_rate,
              static_cast<unsigned long long>(w.entries_expired),
              static_cast<unsigned long long>(w.entries_relearned));
}

std::string wave_doc(const char* mode, const sim::SoakWave& w) {
  std::string d = "    {\"mode\": \"" + std::string(mode) + "\"";
  d += ", \"wave\": " + std::to_string(w.wave);
  d += ", \"shards\": " + std::to_string(w.shards);
  d += ", \"detection_rate\": " + obs::format_number(w.detection_rate);
  d += ", \"flow_detection_rate\": " + obs::format_number(w.flow_detection_rate);
  d += ", \"false_positive_rate\": " + obs::format_number(w.false_positive_rate);
  d += ", \"benign_suspect_rate\": " + obs::format_number(w.benign_suspect_rate);
  d += ", \"entries_expired\": " + std::to_string(w.entries_expired);
  d += ", \"entries_relearned\": " + std::to_string(w.entries_relearned);
  d += ", \"swept\": " + std::to_string(w.swept);
  d += "}";
  return d;
}

/// Heap allocations of one warm pre_process_batch over 256 EIA-miss flows,
/// with aging on and a learn threshold no flow reaches: every flow runs
/// the aging-aware is_expected, expected_ingress and observe_mismatch. The
/// first pass sizes the pending counters and the batch vectors; the
/// second, counted pass must allocate nothing.
std::uint64_t probe_aging_allocs() {
  core::EngineConfig config;
  config.eia.learn_threshold = 1 << 20;
  config.eia.lifecycle.max_idle_ms = util::kHour;
  core::InFilterEngine engine(config);
  for (std::uint32_t s = 0; s < 4; ++s) {
    engine.add_expected(static_cast<core::IngressId>(9001 + s),
                        net::Prefix{net::IPv4Address{(10u + s) << 24}, 8});
  }
  std::vector<core::FlowInput> flows(256);
  for (std::uint32_t i = 0; i < flows.size(); ++i) {
    flows[i].record.src_ip = net::IPv4Address{(20u << 24) | (i << 8) | 7u};
    flows[i].record.dst_ip = net::IPv4Address{(192u << 24) | 1u};
    flows[i].ingress = static_cast<core::IngressId>(9001 + i % 4);
  }
  std::vector<core::Verdict> verdicts(flows.size());
  std::vector<core::SuspectFlow> suspects;
  std::vector<std::uint32_t> positions;
  std::uint64_t allocs = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (auto& flow : flows) flow.now = 1000 * (pass + 1);
    suspects.clear();
    positions.clear();
    const auto before = bench::heap_allocs();
    engine.pre_process_batch(flows, verdicts, suspects, positions);
    allocs = bench::heap_allocs() - before;
  }
  return allocs;
}

/// Heap allocations of one warm pre_process_batch over 256 never-seen
/// EIA-miss /24s, with every pending bank already full: each flow's
/// observe_mismatch finds no counter, and new keys keep arriving until the
/// banks decay. The earlier passes grow the banks to their bound (16
/// counters each, so more than the minimum slot array) and size the batch
/// vectors; the counted pass must allocate nothing and must decay.
std::uint64_t probe_key_flood_allocs() {
  core::EngineConfig config;
  config.eia.learn_threshold = 1 << 20;
  config.eia.max_pending_counters = 16 * core::EiaTable::kPendingBanks;
  core::InFilterEngine engine(config);
  for (std::uint32_t s = 0; s < 4; ++s) {
    engine.add_expected(static_cast<core::IngressId>(9001 + s),
                        net::Prefix{net::IPv4Address{(10u + s) << 24}, 8});
  }
  std::vector<core::FlowInput> flows(256);
  std::vector<core::Verdict> verdicts(flows.size());
  std::vector<core::SuspectFlow> suspects;
  std::vector<std::uint32_t> positions;
  std::uint64_t allocs = 0;
  std::uint64_t rejected_before = 0;
  constexpr std::uint32_t kPasses = 12;
  for (std::uint32_t pass = 0; pass < kPasses; ++pass) {
    for (std::uint32_t i = 0; i < flows.size(); ++i) {
      const std::uint32_t slash24 = pass * 256 + i;
      flows[i].record.src_ip = net::IPv4Address{(20u << 24) | (slash24 << 8) | 7u};
      flows[i].record.dst_ip = net::IPv4Address{(192u << 24) | 1u};
      flows[i].ingress = static_cast<core::IngressId>(9001 + i % 4);
      flows[i].now = 1000 * (pass + 1);
    }
    suspects.clear();
    positions.clear();
    rejected_before = engine.eia().stats().pending_rejected;
    const auto before = bench::heap_allocs();
    engine.pre_process_batch(flows, verdicts, suspects, positions);
    allocs = bench::heap_allocs() - before;
  }
  const auto& eia = engine.eia();
  if (eia.stats().pending_rejected == rejected_before ||
      eia.pending_counters() > config.eia.max_pending_counters ||
      eia.pending_bank_slots() <= util::CountTable<std::uint64_t>::kMinCapacity) {
    std::fprintf(stderr,
                 "lifecycle_soak: the key-flood probe did not decay full, grown banks "
                 "(%zu counters, %zu slots per bank)\n",
                 eia.pending_counters(), eia.pending_bank_slots());
    return ~std::uint64_t{0};
  }
  return allocs;
}

/// Heap allocations of one warm pre_process_batch over 256 EIA-vouched
/// flows with aging and hop-count both on: every flow runs the
/// aging-aware is_expected and the hop-count classify-and-observe on a key
/// the earlier passes learned (and established). Those passes also size
/// the batch vectors; the last, counted pass must allocate nothing.
std::uint64_t probe_hopcount_allocs() {
  core::EngineConfig config;
  config.eia.lifecycle.max_idle_ms = util::kHour;
  config.use_hopcount = true;
  core::InFilterEngine engine(config);
  for (std::uint32_t s = 0; s < 4; ++s) {
    engine.add_expected(static_cast<core::IngressId>(9001 + s),
                        net::Prefix{net::IPv4Address{(10u + s) << 24}, 8});
  }
  std::vector<core::FlowInput> flows(256);
  for (std::uint32_t i = 0; i < flows.size(); ++i) {
    flows[i].record.src_ip = net::IPv4Address{((10u + i % 4) << 24) | (i << 8) | 7u};
    flows[i].record.dst_ip = net::IPv4Address{(192u << 24) | 1u};
    flows[i].record.ttl = 57;
    flows[i].ingress = static_cast<core::IngressId>(9001 + i % 4);
  }
  std::vector<core::Verdict> verdicts(flows.size());
  std::vector<core::SuspectFlow> suspects;
  std::vector<std::uint32_t> positions;
  std::uint64_t allocs = 0;
  const int passes = config.hopcount.learn_threshold + 1;
  for (int pass = 0; pass < passes; ++pass) {
    for (auto& flow : flows) flow.now = 1000 * (pass + 1);
    suspects.clear();
    positions.clear();
    const auto before = bench::heap_allocs();
    engine.pre_process_batch(flows, verdicts, suspects, positions);
    allocs = bench::heap_allocs() - before;
  }
  if (engine.hopcount_table().size() != flows.size() ||
      engine.hopcount_table().stats().established_keys != flows.size()) {
    std::fprintf(stderr, "lifecycle_soak: the hop-count probe learned %zu keys\n",
                 engine.hopcount_table().size());
    return ~std::uint64_t{0};
  }
  return allocs;
}

/// Counts alerts per stage and keeps nothing that allocates: the sink
/// the alert-emission probe delivers into.
class CountingSink final : public alert::AlertSink {
 public:
  void consume(const alert::Alert& alert) override {
    ++per_stage[static_cast<std::size_t>(alert.stage)];
  }
  std::array<std::uint64_t, alert::kStageCount> per_stage{};
};

/// Heap allocations of one warm finish_suspect_batch that emits an alert
/// for every suspect, scan on: half take the fused path, half pass scan
/// analysis and reach NNS as UDP flows, which the TCP-only training leaves
/// anomalous. Those go to 14 hosts x 14 ports, one fewer than either scan
/// threshold, so scan clears them while its (host, port) pairs enter and
/// leave the 200-flow buffer. Building an alert is part of the emitting
/// stage, so it must not allocate; the earlier passes fill the scan buffer
/// and size the NNS scratch.
std::uint64_t probe_alert_allocs() {
  util::Rng rng{7};
  const auto random_record = [&](std::uint8_t proto) {
    netflow::V5Record record;
    record.src_ip = net::IPv4Address{(20u << 24) | static_cast<std::uint32_t>(rng.below(1 << 24))};
    record.dst_ip = net::IPv4Address{(192u << 24) | static_cast<std::uint32_t>(rng.below(256))};
    record.src_port = static_cast<std::uint16_t>(1024 + rng.below(60000));
    record.dst_port = proto == 6 ? 80 : 1434;
    record.proto = proto;
    record.packets = static_cast<std::uint32_t>(1 + rng.below(20));
    record.bytes = record.packets * static_cast<std::uint32_t>(40 + rng.below(1400));
    record.last = static_cast<std::uint32_t>(rng.below(5000));
    return record;
  };
  std::vector<netflow::V5Record> training(300);
  for (auto& record : training) record = random_record(6);

  core::EngineConfig config;
  config.cluster.bits_per_feature = 48;
  CountingSink sink;
  core::InFilterEngine engine(config, &sink);
  engine.train(training);

  std::vector<core::SuspectFlow> suspects(256);
  for (std::size_t i = 0; i < suspects.size(); ++i) {
    auto& suspect = suspects[i];
    suspect.record = random_record(17);
    suspect.record.dst_ip =
        net::IPv4Address{(192u << 24) | static_cast<std::uint32_t>(rng.below(14))};
    suspect.record.dst_port = static_cast<std::uint16_t>(1434 + rng.below(14));
    suspect.ingress = static_cast<core::IngressId>(9001 + i % 4);
    suspect.now = 1000;
    suspect.expected = static_cast<core::IngressId>(9005);
    suspect.ttl = i % 2 == 0 ? hopcount::TtlClass::kMiss : hopcount::TtlClass::kUnknown;
  }
  std::vector<core::Verdict> verdicts(suspects.size());
  std::uint64_t allocs = 0;
  for (int pass = 0; pass < 3; ++pass) {
    sink.per_stage = {};
    const auto before = bench::heap_allocs();
    engine.finish_suspect_batch(suspects, verdicts);
    allocs = bench::heap_allocs() - before;
  }
  const auto stage_alerts = [&](alert::DetectionStage stage) {
    return sink.per_stage[static_cast<std::size_t>(stage)];
  };
  if (stage_alerts(alert::DetectionStage::kHopCountFusion) != suspects.size() / 2 ||
      stage_alerts(alert::DetectionStage::kNnsDistance) != suspects.size() / 2 ||
      engine.scan().stats().evictions == 0) {
    std::fprintf(stderr,
                 "lifecycle_soak: the alert probe emitted %llu fused and %llu NNS alerts\n",
                 static_cast<unsigned long long>(
                     stage_alerts(alert::DetectionStage::kHopCountFusion)),
                 static_cast<unsigned long long>(
                     stage_alerts(alert::DetectionStage::kNnsDistance)));
    return ~std::uint64_t{0};
  }
  return allocs;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = util::Args::parse(argc, argv, {"smoke"});
  if (!parsed) {
    std::fprintf(stderr, "lifecycle_soak: %s\n", parsed.error().message.c_str());
    return 1;
  }
  const auto& args = *parsed;
  const bool smoke = args.has("smoke");

  sim::SoakConfig soak;
  soak.base.seed = static_cast<std::uint64_t>(args.int_or("seed", 33));
  soak.base.normal_flows_per_source = smoke ? 400 : 2000;
  soak.base.training_flows = smoke ? 300 : 1200;
  soak.base.attack_volume = 0.04;
  soak.base.engine.cluster.bits_per_feature = smoke ? 48 : 144;
  soak.base.runtime_shards = 2;
  soak.base.runtime_queue_depth = 1024;
  // Routing churn donates blocks between sources every wave, so drift
  // entries are learned, idle out across the day-long gaps, and relearn.
  soak.base.route_change_blocks = 8;
  soak.base.engine.eia.learn_threshold = 2;
  soak.base.engine.eia.lifecycle.max_idle_ms = 12 * util::kHour;
  soak.wave_gap_ms = util::kDay;
  soak.waves = smoke ? 3 : 6;
  soak.resizes = {{.before_wave = 1, .shards = 4}, {.before_wave = 2, .shards = 1}};
  if (!smoke) soak.resizes.push_back({.before_wave = 4, .shards = 8});

  std::printf("=== lifecycle soak: %d waves, %zu resizes, gap %llu ms, seed %llu ===\n",
              soak.waves, soak.resizes.size(),
              static_cast<unsigned long long>(soak.wave_gap_ms),
              static_cast<unsigned long long>(soak.base.seed));
  const auto churned = sim::run_soak(soak);
  auto static_config = soak;
  static_config.resizes.clear();
  const auto baseline = sim::run_soak(static_config);

  for (std::size_t w = 0; w < churned.waves.size(); ++w) {
    print_wave("churned", churned.waves[w]);
    print_wave("static", baseline.waves[w]);
  }
  std::printf("resizes %llu, migrated %llu entries, pause p99 %.1f us, "
              "expired %llu, relearned %llu\n",
              static_cast<unsigned long long>(churned.resizes),
              static_cast<unsigned long long>(churned.migrated_entries),
              churned.resize_pause_p99_us,
              static_cast<unsigned long long>(churned.entries_expired),
              static_cast<unsigned long long>(churned.entries_relearned));

  const std::uint64_t aging_allocs = probe_aging_allocs();
  std::printf("steady-state heap allocations, aging on, 256 EIA-miss flows: %llu\n",
              static_cast<unsigned long long>(aging_allocs));
  const std::uint64_t hopcount_allocs = probe_hopcount_allocs();
  std::printf(
      "steady-state heap allocations, aging and hop-count on, 256 EIA-vouched flows: %llu\n",
      static_cast<unsigned long long>(hopcount_allocs));

  const std::uint64_t key_flood_allocs = probe_key_flood_allocs();
  std::printf(
      "steady-state heap allocations, 256 never-seen EIA-miss /24s into full pending banks: "
      "%llu\n",
      static_cast<unsigned long long>(key_flood_allocs));
  const std::uint64_t alert_allocs = probe_alert_allocs();
  std::printf(
      "steady-state heap allocations, 256 suspects alerted (fused and NNS, scan on): %llu\n",
      static_cast<unsigned long long>(alert_allocs));

  // The regression gates: churn must be quality-neutral over the horizon.
  int failures = 0;
  const auto require = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "lifecycle_soak: FAIL: %s\n", what);
      ++failures;
    }
  };
  require(churned.resizes == soak.resizes.size(),
          "a scheduled live resize did not complete");
  require(churned.migrated_entries > 0, "resizes migrated no engine state");
  require(churned.entries_expired > 0,
          "aging never fired across day-long idle gaps");
  require(churned.min_detection_rate() > 0.0, "no attacks detected at all");
  double max_benign_delta = 0;
  for (std::size_t w = 0; w < churned.waves.size(); ++w) {
    const auto& c = churned.waves[w];
    const auto& b = baseline.waves[w];
    require(c.detection_rate >= b.detection_rate,
            "churned wave detected less than the static-pool baseline");
    max_benign_delta =
        std::max(max_benign_delta, c.benign_suspect_rate - b.benign_suspect_rate);
  }
  require(max_benign_delta <= 0.01,
          "churn pushed >1% extra benign flows into the suspect path");
  require(INFILTER_BENCH_SANITIZED || aging_allocs == 0,
          "the warm EIA stage allocates with aging on");
  require(INFILTER_BENCH_SANITIZED || hopcount_allocs == 0,
          "the warm EIA + hop-count stages allocate with aging and hop-count on");
  require(INFILTER_BENCH_SANITIZED || key_flood_allocs == 0,
          "the warm EIA stage allocates under a flood of new /24s");
  require(INFILTER_BENCH_SANITIZED || alert_allocs == 0,
          "the warm suspect stage allocates while scanning and emitting alerts");

  std::string doc = "{\n  \"bench\": \"lifecycle\",\n";
  doc += "  \"seed\": " + std::to_string(soak.base.seed) + ",\n";
  doc += "  \"waves\": " + std::to_string(soak.waves) + ",\n";
  doc += "  \"wave_gap_ms\": " + std::to_string(soak.wave_gap_ms) + ",\n";
  doc += "  \"steady_state_heap_allocs\": " + std::to_string(aging_allocs) + ",\n";
  doc += "  \"steady_state_heap_allocs_hopcount\": " + std::to_string(hopcount_allocs) +
         ",\n";
  doc += "  \"steady_state_heap_allocs_key_flood\": " + std::to_string(key_flood_allocs) +
         ",\n";
  doc += "  \"steady_state_heap_allocs_alerts\": " + std::to_string(alert_allocs) + ",\n";
  doc += "  \"runs\": [\n";
  for (const auto& wave : churned.waves) doc += wave_doc("churned", wave) + ",\n";
  for (const auto& wave : baseline.waves) doc += wave_doc("static", wave) + ",\n";
  // The horizon summary row (the keys scripts/bench_summary.py collates).
  doc += "    {\"mode\": \"summary\"";
  doc += ", \"resizes\": " + std::to_string(churned.resizes);
  doc += ", \"migrated_entries\": " + std::to_string(churned.migrated_entries);
  doc += ", \"resize_pause_p99_us\": " + obs::format_number(churned.resize_pause_p99_us);
  doc += ", \"entries_expired\": " + std::to_string(churned.entries_expired);
  doc += ", \"entries_relearned\": " + std::to_string(churned.entries_relearned);
  doc += ", \"min_detection_rate\": " + obs::format_number(churned.min_detection_rate());
  doc += ", \"benign_suspect_delta\": " + obs::format_number(max_benign_delta);
  doc += "}\n  ],\n";
  doc += "  \"failures\": " + std::to_string(failures) + "\n}\n";

  const auto out_path = args.value_or("out", "BENCH_lifecycle.json");
  std::ofstream out(out_path, std::ios::trunc);
  out << doc;
  if (!out) {
    std::fprintf(stderr, "lifecycle_soak: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return failures == 0 ? 0 : 1;
}
