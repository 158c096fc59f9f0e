// Ablations of the Enhanced InFilter design choices called out in
// DESIGN.md, all measured on the Section 6 testbed:
//
//   1. Scan-analysis buffer size -- the paper uses ~200 flows; smaller
//      buffers forget slow scans, larger ones cost memory.
//   2. Pipeline stages -- EIA only / +scan / +NNS / full, showing what
//      each stage contributes to detection and FP suppression.
//   3. EIA auto-learn threshold -- fast learning absorbs route changes
//      (fewer FPs) but lets persistent attackers poison the EIA sets
//      (lower detection).
//   4. Cluster partition -- per-protocol subclusters vs one global
//      cluster ("normal traffic flows to a particular application will
//      show less variation").

#include <cstdio>

#include "sim/testbed.h"

using namespace infilter;

namespace {

sim::ExperimentConfig base_config() {
  sim::ExperimentConfig config;
  config.normal_flows_per_source = 5000;
  config.training_flows = 1800;
  config.attack_volume = 0.04;
  config.route_change_blocks = 2;
  config.engine.cluster.bits_per_feature = 144;
  config.seed = 808;
  return config;
}

void print_row(const char* label, const sim::ExperimentResult& result) {
  std::printf("%-34s det %5.1f%%  (flows %5.1f%%)  fp %5.2f%%\n", label,
              100.0 * result.detection_rate(), 100.0 * result.flow_detection_rate(),
              100.0 * result.false_positive_rate());
}

}  // namespace

int main() {
  auto config = base_config();
  sim::ClusterCache cache(config);
  const auto clusters = cache.get(config.seed);

  std::printf("=== 1. Scan-analysis buffer size (paper: ~200 flows) ===\n");
  for (const std::size_t buffer : {50u, 100u, 200u, 400u, 800u}) {
    config = base_config();
    config.engine.scan.buffer_size = buffer;
    char label[64];
    std::snprintf(label, sizeof label, "buffer = %zu flows", buffer);
    print_row(label, sim::run_experiment(config, clusters));
  }

  std::printf("\n=== 2. Pipeline stages ===\n");
  {
    config = base_config();
    config.engine.use_scan_analysis = config.engine.use_nns = false;
    print_row("EIA only (Basic InFilter)", sim::run_experiment(config));

    config = base_config();
    config.engine.use_nns = false;
    print_row("EIA + scan analysis", sim::run_experiment(config));

    config = base_config();
    config.engine.use_scan_analysis = false;
    print_row("EIA + NNS", sim::run_experiment(config, clusters));

    config = base_config();
    print_row("full Enhanced InFilter", sim::run_experiment(config, clusters));
  }

  std::printf("\n=== 3. EIA auto-learn threshold ===\n");
  for (const int threshold : {6, 12, 24, 48, 96}) {
    config = base_config();
    config.engine.eia.learn_threshold = threshold;
    char label[64];
    std::snprintf(label, sizeof label, "learn after %d flows per /24", threshold);
    print_row(label, sim::run_experiment(config, clusters));
  }

  std::printf("\n=== 4. Cluster partition (per-protocol vs single cluster) ===\n");
  {
    config = base_config();
    print_row("7 protocol subclusters", sim::run_experiment(config, clusters));
    config = base_config();
    config.engine.cluster.partition_by_protocol = false;
    print_row("one global cluster", sim::run_experiment(config));
  }

  std::printf("\n=== 5. NNS threshold percentile ===\n");
  for (const double pct : {0.90, 0.99, 0.999}) {
    config = base_config();
    config.engine.cluster.threshold_percentile = pct;
    char label[64];
    std::snprintf(label, sizeof label, "threshold at %.1fth percentile", 100 * pct);
    print_row(label, sim::run_experiment(config));
  }

  std::printf("\n=== 6. Sampled NetFlow (1-in-N packet sampling) ===\n");
  std::printf("(stealthy single-packet attacks vanish from sampled exports)\n");
  for (const std::uint32_t n : {1u, 10u, 50u, 200u}) {
    config = base_config();
    config.netflow_sampling = n;
    char label[64];
    std::snprintf(label, sizeof label, "sampling 1-in-%u", n);
    print_row(label, sim::run_experiment(config));
  }
  return 0;
}
