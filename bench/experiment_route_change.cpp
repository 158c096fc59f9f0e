// Reproduces Figures 17, 18 and 19: false-positive behaviour under
// emulated route instability (Section 6.3.3), for the Basic and Enhanced
// configurations, plus the Table 2 allocations driving the emulation.
//
//   paper, Figure 17 (Basic):    FP rises with route-change level,
//                                reaching ~7.4% at 8% route change.
//   paper, Figure 18 (Enhanced): same trend, lower -- ~5.25% at 8%.
//   paper, Figure 19:            Enhanced cuts the Basic FP rate ~30%
//                                at 8% attack volume; detection stays
//                                ~100% (BI) vs ~80% (EI).

#include <cstdio>

#include "dagflow/allocation.h"
#include "sim/testbed.h"

using namespace infilter;

namespace {

void print_table2_sample() {
  std::printf("=== Table 2 (reproduced): allocations at 2%% route change ===\n");
  for (int index = 0; index < 2; ++index) {
    std::printf("Allocation %d:\n", index + 1);
    const auto alloc = dagflow::make_allocation(10, 100, 2, index);
    for (int s = 0; s < 10; ++s) {
      const auto& a = alloc[static_cast<std::size_t>(s)];
      std::printf("  S%-3d normal %s-%s  change", s + 1,
                  a.normal_set.front().notation().c_str(),
                  a.normal_set.back().notation().c_str());
      for (const auto& block : a.change_set) {
        std::printf(" %s", block.notation().c_str());
      }
      std::printf("\n");
    }
  }
  std::printf("\n");
}

}  // namespace

int main() {
  print_table2_sample();

  sim::ExperimentConfig config;
  config.normal_flows_per_source = 8000;
  config.training_flows = 2200;
  config.engine.cluster.bits_per_feature = 144;
  config.seed = 633;
  const int runs = 3;
  const int route_levels[] = {1, 2, 4, 8};
  const double volumes[] = {0.02, 0.04, 0.08};

  sim::ClusterCache cache(config);
  // fp[mode][volume][route], detection likewise.
  double fp[2][3][4];
  double det[2][3][4];
  for (int mode = 0; mode < 2; ++mode) {
    // mode 0 = Basic (EIA alone), mode 1 = Enhanced (both second stages).
    config.engine.use_scan_analysis = config.engine.use_nns = mode == 1;
    for (int v = 0; v < 3; ++v) {
      for (int r = 0; r < 4; ++r) {
        config.attack_volume = volumes[v];
        config.route_change_blocks = route_levels[r];
        const auto result = sim::run_averaged(config, runs, &cache);
        fp[mode][v][r] = 100.0 * result.false_positive_rate;
        det[mode][v][r] = 100.0 * result.detection_rate;
      }
    }
  }

  const char* figures[2] = {
      "=== Figure 17: FP rate with route change -- Basic InFilter ===\n"
      "paper: rises with route change; ~7.4%% at 8%% change, 8%% attacks\n",
      "=== Figure 18: FP rate with route change -- Enhanced InFilter ===\n"
      "paper: same trend, ~30%% lower; ~5.25%% at 8%% change, 8%% attacks\n"};
  for (int mode = 0; mode < 2; ++mode) {
    std::printf("%s", figures[mode]);
    std::printf("%-14s %10s %10s %10s\n", "route change", "2% atk", "4% atk",
                "8% atk");
    for (int r = 0; r < 4; ++r) {
      std::printf("%-14d %9.2f%% %9.2f%% %9.2f%%\n", route_levels[r], fp[mode][0][r],
                  fp[mode][1][r], fp[mode][2][r]);
    }
    std::printf("\n");
  }

  std::printf("=== Figure 19: FP at 8%% attack volume, Basic vs Enhanced ===\n");
  std::printf("%-14s %12s %12s %12s\n", "route change", "Basic", "Enhanced",
              "reduction");
  for (int r = 0; r < 4; ++r) {
    const double basic = fp[0][2][r];
    const double enhanced = fp[1][2][r];
    std::printf("%-14d %11.2f%% %11.2f%% %11.0f%%\n", route_levels[r], basic, enhanced,
                basic > 0 ? 100.0 * (basic - enhanced) / basic : 0.0);
  }

  std::printf("\ndetection rate across route-change levels (8%% attacks):\n");
  std::printf("  paper: Basic ~100%% flat, Enhanced ~80%% flat\n");
  std::printf("  Basic:   ");
  for (int r = 0; r < 4; ++r) std::printf(" %5.1f%%", det[0][2][r]);
  std::printf("\n  Enhanced:");
  for (int r = 0; r < 4; ++r) std::printf(" %5.1f%%", det[1][2][r]);
  std::printf("\n");
  return 0;
}
