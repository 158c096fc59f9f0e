// Reproduces Figures 15 and 16 and the Section 6.4 summary: detection rate
// and false-positive rate vs attack volume, for a single attack set
// (Section 6.3.1) and for attack sets at all ten peer ASs (the stress test
// of Section 6.3.2). Also prints the Table 1/Table 3 setup it runs on.
//
//   paper, Figure 15 (detection): single set ~83% flat across volumes;
//          10 attack sets drop to ~70%.
//   paper, Figure 16 (false positives): single set ~1-1.25%;
//          10 attack sets rise toward ~4%.

// Writes BENCH_detection.json: the headline rates per data point plus the
// engine's reconciled pipeline metrics (verdict counters, per-stage
// latency quantiles) for the detailed 8%-volume runs.

#include <cstdio>
#include <fstream>
#include <string>

#include "obs/export.h"
#include "sim/testbed.h"

using namespace infilter;

namespace {

/// Pulls the counters and latency quantiles that summarize one run out of
/// its final metrics snapshot.
std::string metrics_json(const obs::RegistrySnapshot& snapshot) {
  std::string out;
  const char* counters[] = {
      "infilter_flows_total",          "infilter_eia_hits_total",
      "infilter_eia_misses_total",     "infilter_scan_analyzed_total",
      "infilter_nns_assessed_total",   "infilter_verdict_legal_total",
      "infilter_verdict_attack_eia_total",  "infilter_verdict_attack_scan_total",
      "infilter_verdict_attack_nns_total",  "infilter_verdict_cleared_nns_total",
      "infilter_verdict_cleared_learned_total",
  };
  for (const char* name : counters) {
    out += "\"" + std::string(name) + "\": " + obs::format_number(snapshot.value(name)) +
           ", ";
  }
  const auto* process = snapshot.histogram("infilter_process_latency_us");
  if (process != nullptr && process->count > 0) {
    out += "\"process_p50_us\": " + obs::format_number(process->quantile(0.50)) + ", ";
    out += "\"process_p99_us\": " + obs::format_number(process->quantile(0.99)) + ", ";
  }
  if (out.size() >= 2) out.resize(out.size() - 2);  // trailing ", "
  return out;
}

}  // namespace

int main() {
  sim::ExperimentConfig config;
  config.normal_flows_per_source = 8000;
  config.training_flows = 2200;
  config.engine.cluster.bits_per_feature = 144;  // the paper's d = 720
  config.seed = 615;
  const int runs = 3;

  std::printf("=== Setup (Tables 1 and 3) ===\n");
  std::printf("Table 1: %d publicly-routable /8 blocks -> %d /11 sub-blocks, "
              "first %d used\n",
              net::kSlash8BlockCount, net::kTotalSubBlocks, net::kUsedSubBlocks);
  for (int s = 0; s < config.sources; ++s) {
    std::printf("  Peer AS%-2d (port %d)  EIA %s\n", s + 1, config.first_port + s,
                dagflow::eia_range(s).notation().c_str());
  }
  std::printf("\n");

  sim::ClusterCache cache(config);
  struct Point {
    double volume;
    int sets;
    sim::AveragedResult result;
  };
  std::vector<Point> points;
  for (const int sets : {1, 10}) {
    for (const double volume : {0.02, 0.04, 0.08}) {
      config.attack_volume = volume;
      config.attacked_ingresses = sets;
      points.push_back({volume, sets, sim::run_averaged(config, runs, &cache)});
    }
  }

  std::printf("=== Figure 15: attack detection rate (%% of launched attacks) ===\n");
  std::printf("paper: single set ~83%% flat; 10 sets ~70%%\n");
  std::printf("%-26s %8s %8s %8s\n", "", "2%", "4%", "8%");
  for (const int sets : {1, 10}) {
    std::printf("%-26s", sets == 1 ? "single attack set" : "10 attack sets");
    for (const auto& p : points) {
      if (p.sets == sets) std::printf(" %7.1f%%", 100.0 * p.result.detection_rate);
    }
    std::printf("\n");
  }

  std::printf("\nflow-level attack detection (share of attack flows flagged):\n");
  for (const int sets : {1, 10}) {
    std::printf("%-26s", sets == 1 ? "single attack set" : "10 attack sets");
    for (const auto& p : points) {
      if (p.sets == sets) std::printf(" %7.1f%%", 100.0 * p.result.flow_detection_rate);
    }
    std::printf("\n");
  }

  std::printf("\nper-attack instances detected (8%% volume, run seed %llu):\n",
              static_cast<unsigned long long>(config.seed));
  std::vector<std::pair<int, sim::ExperimentResult>> detailed;
  for (const int sets : {1, 10}) {
    config.attack_volume = 0.08;
    config.attacked_ingresses = sets;
    config.seed = 615;
    const auto detail = sim::run_experiment(config, cache.get(config.seed));
    detailed.emplace_back(sets, detail);
    std::printf("  mean attack-initiation-to-detection latency: %.0f ms (virtual)\n",
                detail.mean_detection_latency_ms);
    std::printf("  %-18s", sets == 1 ? "single set:" : "10 sets:");
    for (int k = 0; k < traffic::kStandardAttackKindCount; ++k) {
      const auto& [total, hit] = detail.per_kind[static_cast<std::size_t>(k)];
      std::printf(" %s=%d/%d",
                  std::string(traffic::attack_name(static_cast<traffic::AttackKind>(k)))
                      .substr(0, 8)
                      .c_str(),
                  hit, total);
    }
    std::printf("\n");
  }

  std::printf("\n=== Figure 16: false positive rate (%% of non-attack flows) ===\n");
  std::printf("paper: single set ~1-1.25%%; 10 sets rising to ~4%%\n");
  std::printf("%-26s %8s %8s %8s\n", "", "2%", "4%", "8%");
  for (const int sets : {1, 10}) {
    std::printf("%-26s", sets == 1 ? "single attack set" : "10 attack sets");
    for (const auto& p : points) {
      if (p.sets == sets) {
        std::printf(" %7.2f%%", 100.0 * p.result.false_positive_rate);
      }
    }
    std::printf("\n");
  }

  // Section 6.4 headline: "detection rate of about 80% and a false positive
  // rate of about 2%" outside pathological cases.
  double detection = 0;
  double fp = 0;
  for (const auto& p : points) {
    detection += p.result.detection_rate;
    fp += p.result.false_positive_rate;
  }
  detection /= static_cast<double>(points.size());
  fp /= static_cast<double>(points.size());
  std::printf("\n=== Section 6.4 summary ===\n");
  std::printf("%-44s paper ~80%%   measured %.1f%%\n",
              "overall detection rate:", 100.0 * detection);
  std::printf("%-44s paper ~2%%    measured %.2f%%\n",
              "overall false positive rate:", 100.0 * fp);

  // Machine-readable perf/accuracy trajectory.
  const char* out_path = "BENCH_detection.json";
  std::string doc = "{\n  \"bench\": \"experiment_detection\",\n  \"points\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& p = points[i];
    doc += "    {\"sets\": " + std::to_string(p.sets) +
           ", \"volume\": " + obs::format_number(p.volume) +
           ", \"detection_rate\": " + obs::format_number(p.result.detection_rate) +
           ", \"flow_detection_rate\": " +
           obs::format_number(p.result.flow_detection_rate) +
           ", \"false_positive_rate\": " +
           obs::format_number(p.result.false_positive_rate) + "}";
    doc += i + 1 < points.size() ? ",\n" : "\n";
  }
  doc += "  ],\n  \"detail_runs\": [\n";
  for (std::size_t i = 0; i < detailed.size(); ++i) {
    const auto& [sets, detail] = detailed[i];
    doc += "    {\"sets\": " + std::to_string(sets) + ", \"volume\": 0.08, " +
           "\"mean_detection_latency_ms\": " +
           obs::format_number(detail.mean_detection_latency_ms) + ", " +
           metrics_json(detail.metrics) + "}";
    doc += i + 1 < detailed.size() ? ",\n" : "\n";
  }
  doc += "  ]\n}\n";
  std::ofstream out(out_path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "experiment_detection: cannot write %s\n", out_path);
    return 1;
  }
  out << doc;
  std::printf("\nwrote %s\n", out_path);
  return 0;
}
