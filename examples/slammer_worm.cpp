// Scenario: detecting the Slammer worm without a signature.
//
// Slammer [SLAM] compromises a host with a single spoofed 404-byte UDP
// packet to port 1434 and needs no reply -- volume-based sensors and
// per-source counters see nothing. The paper's point: treat the worm as
// undiscovered (no signature!) and detect it purely from spoofing + scan
// structure. This example replays the paper's testbed in miniature: ten
// normal Dagflow sources plus one Slammer instance spoofing through Peer
// AS 1, and shows which pipeline stage catches the sweep.
//
// Build & run:  ./build/examples/slammer_worm

#include <algorithm>
#include <array>
#include <cstdio>

#include "core/engine.h"
#include "dagflow/dagflow.h"
#include "sim/testbed.h"
#include "traffic/attacks.h"
#include "traffic/normal.h"

using namespace infilter;

int main() {
  // --- Testbed: 10 normal sources on ports 9001..9010 (Table 3 EIA). ---
  core::EngineConfig config;
  config.seed = 404;
  alert::CollectingSink alerts;
  core::InFilterEngine engine(config, &alerts);
  for (int s = 0; s < 10; ++s) {
    for (const auto& block : dagflow::eia_range(s).expand()) {
      engine.add_expected(static_cast<core::IngressId>(9001 + s), block.prefix());
    }
  }

  traffic::NormalTrafficModel model;
  util::Rng rng{1};
  {
    const auto trace = model.generate(2500, 0, rng);
    dagflow::Dagflow trainer(
        dagflow::DagflowConfig{.netflow_port = 9001},
        dagflow::AddressPool::from_allocation(dagflow::make_allocation(10, 100, 0, 0)[0]),
        2);
    std::vector<netflow::V5Record> training;
    for (const auto& labeled : trainer.replay(trace)) training.push_back(labeled.record);
    engine.train(training);
  }

  // --- Traffic: normal background + one Slammer instance at AS1. ---
  std::vector<dagflow::LabeledFlow> stream;
  for (int s = 0; s < 10; ++s) {
    const auto trace = model.generate(800, 0, rng);
    dagflow::Dagflow source(
        dagflow::DagflowConfig{.netflow_port = static_cast<std::uint16_t>(9001 + s)},
        dagflow::AddressPool::from_allocation(dagflow::make_allocation(10, 100, 0, 0)
                                                  [static_cast<std::size_t>(s)]),
        static_cast<std::uint64_t>(100 + s));
    const auto labeled = source.replay(trace);
    stream.insert(stream.end(), labeled.begin(), labeled.end());
  }
  traffic::AttackConfig attack_config;  // defaults: ~120 single-packet probes
  const auto worm = traffic::generate_attack(traffic::AttackKind::kSlammer,
                                             attack_config, 4000, rng);
  dagflow::Dagflow attacker(
      dagflow::DagflowConfig{.netflow_port = 9001},
      dagflow::AddressPool::from_subblocks({*net::SubBlock::parse("104c")}), 3);
  const auto worm_flows = attacker.replay(worm);
  stream.insert(stream.end(), worm_flows.begin(), worm_flows.end());
  std::sort(stream.begin(), stream.end(), [](const auto& a, const auto& b) {
    return a.record.last < b.record.last;
  });

  // --- Normal processing. ---
  std::uint64_t worm_total = 0;
  std::uint64_t worm_detected = 0;
  std::uint64_t normal_flagged = 0;
  util::TimeMs first_detection = 0;
  util::TimeMs worm_start = ~util::TimeMs{0};
  std::array<std::uint64_t, 3> by_stage{};
  for (const auto& flow : stream) {
    const auto verdict = engine.process(flow.record, flow.arrival_port, flow.record.last);
    if (flow.attack) {
      worm_start = std::min(worm_start, static_cast<util::TimeMs>(flow.record.first));
      ++worm_total;
      if (verdict.attack) {
        if (worm_detected == 0) first_detection = flow.record.last;
        ++worm_detected;
        by_stage[static_cast<std::size_t>(verdict.stage)] += 1;
      }
    } else if (verdict.attack) {
      ++normal_flagged;
    }
  }

  std::printf("Slammer sweep: %llu probe flows via Peer AS1 (port 9001)\n",
              static_cast<unsigned long long>(worm_total));
  std::printf("  detected: %llu (%.0f%%), first alert %llu ms after the sweep began\n",
              static_cast<unsigned long long>(worm_detected),
              100.0 * static_cast<double>(worm_detected) /
                  static_cast<double>(worm_total),
              static_cast<unsigned long long>(first_detection - worm_start));
  std::printf("  by stage: eia=%llu scan=%llu nns=%llu\n",
              static_cast<unsigned long long>(by_stage[0]),
              static_cast<unsigned long long>(by_stage[1]),
              static_cast<unsigned long long>(by_stage[2]));
  std::printf("  normal flows flagged: %llu of %zu\n",
              static_cast<unsigned long long>(normal_flagged),
              stream.size() - static_cast<std::size_t>(worm_total));
  if (!alerts.alerts().empty()) {
    std::printf("\nfirst IDMEF alert:\n%s",
                alerts.alerts().front().to_idmef_xml().c_str());
  }
  return 0;
}
