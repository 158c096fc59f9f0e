// Quickstart: the smallest useful InFilter deployment.
//
// Builds an Enhanced InFilter engine for a network with two peer ASs,
// preloads the Expected-IP-Address sets, trains the anomaly detector on
// normal traffic, then pushes three flows through it:
//   1. a flow arriving where it is expected          -> passes,
//   2. a mis-ingressed but ordinary flow             -> cleared by NNS,
//   3. a spoofed volumetric flood                    -> flagged, IDMEF alert.
//
// Build & run:  ./build/examples/quickstart

#include <cstdio>

#include "core/engine.h"
#include "dagflow/dagflow.h"
#include "traffic/normal.h"

using namespace infilter;

namespace {

netflow::V5Record make_flow(net::IPv4Address src, std::uint16_t dst_port,
                            std::uint8_t proto, std::uint32_t packets,
                            std::uint32_t bytes, std::uint32_t duration_ms) {
  netflow::V5Record r;
  r.src_ip = src;
  r.dst_ip = *net::IPv4Address::parse("100.64.0.10");
  r.proto = proto;
  r.src_port = 40000;
  r.dst_port = dst_port;
  r.packets = packets;
  r.bytes = bytes;
  r.first = 0;
  r.last = duration_ms;
  return r;
}

void show(const char* label, const core::Verdict& verdict) {
  std::printf("%-38s -> %s", label, verdict.attack ? "ATTACK" : "ok");
  if (verdict.attack) {
    std::printf(" (stage: %s)", std::string(alert::stage_name(verdict.stage)).c_str());
  }
  if (verdict.nns.has_value()) {
    std::printf("  [nns distance %d vs threshold %d]", verdict.nns->distance,
                verdict.nns->threshold);
  }
  std::printf("\n");
}

}  // namespace

int main() {
  // 1. Engine with an alert sink.
  alert::CollectingSink alerts;
  core::EngineConfig config;
  config.seed = 2026;
  core::InFilterEngine engine(config, &alerts);

  // 2. EIA sets: peer AS 1 (collector port 9001) carries 3.0/11,
  //    peer AS 2 (port 9002) carries 3.32/11.
  engine.add_expected(9001, *net::Prefix::parse("3.0.0.0/11"));
  engine.add_expected(9002, *net::Prefix::parse("3.32.0.0/11"));

  // 3. Training phase (Figure 11): normal flows build the per-protocol
  //    NNS subclusters.
  traffic::NormalTrafficModel model;
  util::Rng rng{7};
  const auto trace = model.generate(1500, 0, rng);
  dagflow::Dagflow replayer(
      dagflow::DagflowConfig{.netflow_port = 9001},
      dagflow::AddressPool::from_subblocks({*net::SubBlock::parse("1a")}), 8);
  std::vector<netflow::V5Record> training;
  for (const auto& labeled : replayer.replay(trace)) training.push_back(labeled.record);
  engine.train(training);
  std::printf("trained on %zu normal flows (d = %d)\n\n", training.size(),
              engine.clusters()->dimension());

  // 4. Normal processing phase (Figure 12).
  const auto expected = make_flow(*net::IPv4Address::parse("3.1.2.3"), 80, 6, 30,
                                  24000, 1200);
  show("expected source via AS1", engine.process(expected, 9001, 2000));

  const auto moved = make_flow(*net::IPv4Address::parse("3.40.7.7"), 80, 6, 30,
                               24000, 1200);
  show("AS2's source arriving via AS1", engine.process(moved, 9001, 2100));

  const auto flood = make_flow(*net::IPv4Address::parse("3.40.9.9"), 7777, 17,
                               5000, 5000000, 2000);
  show("spoofed UDP flood via AS1", engine.process(flood, 9001, 2200));

  // 5. Alerts came out as IDMEF.
  std::printf("\n%zu IDMEF alert(s):\n", alerts.alerts().size());
  for (const auto& alert : alerts.alerts()) {
    std::printf("%s\n", alert.to_idmef_xml().c_str());
  }
  return 0;
}
