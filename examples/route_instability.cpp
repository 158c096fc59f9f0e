// Scenario: living with route instability.
//
// The InFilter hypothesis is "frequently", not "always": ingress mappings
// drift when BGP policies change. This example (i) bootstraps EIA sets
// from a simulated BGP table -- the Section 5.2 training option based on
// the Section 3.2 methodology -- and (ii) shows how Basic vs Enhanced
// InFilter cope as emulated route instability rises, including the EIA
// auto-learning that re-absorbs moved sources.
//
// Build & run:  ./build/examples/route_instability

#include <cstdio>

#include "routing/studies.h"
#include "sim/testbed.h"

using namespace infilter;

int main() {
  // --- Part 1: EIA bootstrap from BGP, per Section 5.2 "training". ---
  routing::TopologyConfig topo_config;
  topo_config.tier1_count = 4;
  topo_config.tier2_count = 16;
  topo_config.stub_count = 60;
  const auto topology = routing::AsTopology::generate(topo_config, 99);
  const routing::AsId target = 10;  // a tier-2 ISP as the protected network
  const routing::RouteComputation routes(topology, target);

  // Source-AS -> ingress-peer mapping becomes the EIA table: each source
  // AS "owns" a /16 carved from 20/8 for demonstration purposes.
  core::EiaTable eia;
  auto source_prefix = [](routing::AsId as) {
    return net::Prefix{net::IPv4Address{20, static_cast<std::uint8_t>(as), 0, 0}, 16};
  };
  int mapped = 0;
  for (routing::AsId source = 0; source < topology.as_count(); ++source) {
    if (source == target) continue;
    const auto peer = routes.ingress_peer(source);
    if (peer < 0) continue;
    eia.add_expected(static_cast<core::IngressId>(peer), source_prefix(source));
    ++mapped;
  }
  std::printf("bootstrapped EIA sets from BGP: %d source ASes mapped across %d"
              " ingress peers of AS%d\n",
              mapped, topology.degree(target), topology.as_number(target));
  // Verify one mapping end-to-end.
  const routing::AsId probe = topology.as_count() - 1;
  const auto peer = routes.ingress_peer(probe);
  std::printf("  e.g. traffic from AS%d enters via peer AS%d; EIA check: %s\n\n",
              topology.as_number(probe), topology.as_number(peer),
              eia.is_expected(static_cast<core::IngressId>(peer),
                              net::IPv4Address{20, static_cast<std::uint8_t>(probe), 1, 1},
                              0)
                  ? "expected"
                  : "NOT expected");

  // --- Part 2: detection under emulated route instability (6.3.3). ---
  sim::ExperimentConfig config;
  config.normal_flows_per_source = 3000;
  config.training_flows = 1200;
  config.attack_volume = 0.08;
  config.engine.cluster.bits_per_feature = 144;
  config.seed = 33;

  sim::ClusterCache cache(config);
  std::printf("route instability sweep (8%% attack volume):\n");
  std::printf("%-14s %-22s %-22s\n", "route change", "Basic FP% (det%)",
              "Enhanced FP% (det%)");
  for (const int change : {1, 2, 4, 8}) {
    config.route_change_blocks = change;
    config.engine.use_scan_analysis = config.engine.use_nns = false;  // Basic
    const auto basic = sim::run_experiment(config);
    config.engine.use_scan_analysis = config.engine.use_nns = true;  // Enhanced
    const auto enhanced = sim::run_experiment(config, cache.get(config.seed));
    std::printf("%-14d %6.2f (%5.1f)        %6.2f (%5.1f)\n", change,
                100.0 * basic.false_positive_rate(), 100.0 * basic.detection_rate(),
                100.0 * enhanced.false_positive_rate(),
                100.0 * enhanced.detection_rate());
  }
  std::printf("\nEnhanced InFilter suppresses the route-change false positives the\n"
              "Basic configuration raises, at the cost of some detection.\n");
  return 0;
}
