// Scenario: a TFN2K distributed denial-of-service attack.
//
// TFN2K floods a victim with spoofed UDP/ICMP/SYN traffic from many
// compromised hosts; spoofing keeps each apparent source's volume low, so
// per-source rate limiting fails. This example drives the full Section 6
// harness at the paper's three attack volumes (2%, 4%, 8% of normal
// traffic) and prints detection/false-positive rates plus the per-attack
// breakdown, with TFN2K highlighted.
//
// Build & run:  ./build/examples/ddos_tfn2k

#include <cstdio>

#include "sim/testbed.h"

using namespace infilter;

int main() {
  sim::ExperimentConfig config;
  config.normal_flows_per_source = 4000;
  config.training_flows = 1500;
  config.engine.cluster.bits_per_feature = 144;  // the paper's d = 720
  config.seed = 5150;

  sim::ClusterCache cache(config);
  std::printf("TFN2K DDoS through Peer AS1, Enhanced InFilter (d = 720)\n");
  std::printf("%-10s %-12s %-12s %-14s %-10s\n", "volume", "detected", "of", "fp-rate",
              "tfn2k");
  for (const double volume : {0.02, 0.04, 0.08}) {
    config.attack_volume = volume;
    const auto result = sim::run_experiment(config, cache.get(config.seed));
    const auto& tfn =
        result.per_kind[static_cast<std::size_t>(traffic::AttackKind::kTfn2k)];
    std::printf("%-10.0f %-12d %-12d %-14.2f %s\n", volume * 100,
                result.detected_instances, result.attack_instances,
                100.0 * result.false_positive_rate(),
                tfn.second == tfn.first ? "DETECTED" : "missed");
  }

  // Show where the flood is caught: flow-level stage counts at 8%.
  config.attack_volume = 0.08;
  const auto detail = sim::run_experiment(config, cache.get(config.seed));
  std::printf("\nstage breakdown at 8%% attack volume: scan=%llu nns=%llu\n",
              static_cast<unsigned long long>(detail.alerts_scan),
              static_cast<unsigned long long>(detail.alerts_nns));
  std::printf("flow-level: %llu of %llu attack flows detected (%.0f%%)\n",
              static_cast<unsigned long long>(detail.detected_attack_flows),
              static_cast<unsigned long long>(detail.attack_flows),
              100.0 * detail.flow_detection_rate());

  std::printf("\nper-attack detection (instances detected/launched):\n");
  for (int k = 0; k < traffic::kStandardAttackKindCount; ++k) {
    const auto& [total, hit] = detail.per_kind[static_cast<std::size_t>(k)];
    std::printf("  %-20s %d/%d\n",
                std::string(traffic::attack_name(static_cast<traffic::AttackKind>(k)))
                    .c_str(),
                hit, total);
  }
  return 0;
}
