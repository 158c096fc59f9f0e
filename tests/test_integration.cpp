// End-to-end integration: Dagflow -> NetFlow v5 wire datagrams ->
// flow-capture -> Enhanced InFilter analysis -> IDMEF alerts, i.e. the full
// deployment path of Figure 9 exercised through real datagram bytes.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/engine.h"
#include "dagflow/dagflow.h"
#include "flowtools/capture.h"
#include "flowtools/report.h"
#include "netflow/flow_cache.h"
#include "sim/testbed.h"
#include "traffic/attacks.h"
#include "traffic/normal.h"

namespace infilter {
namespace {

using core::EngineConfig;
using core::InFilterEngine;

EngineConfig engine_config() {
  EngineConfig config;
  config.cluster.bits_per_feature = 48;
  config.seed = 77;
  return config;
}

void preload_eia(InFilterEngine& engine) {
  for (int s = 0; s < 10; ++s) {
    for (const auto& block : dagflow::eia_range(s).expand()) {
      engine.add_expected(static_cast<core::IngressId>(9001 + s), block.prefix());
    }
  }
}

std::vector<netflow::V5Record> training_records(std::uint64_t seed) {
  traffic::NormalTrafficModel model;
  util::Rng rng{seed};
  const auto trace = model.generate(600, 0, rng);
  dagflow::Dagflow replayer(
      dagflow::DagflowConfig{},
      dagflow::AddressPool::from_allocation(dagflow::make_allocation(10, 100, 0, 0)[0]),
      seed);
  std::vector<netflow::V5Record> records;
  for (const auto& labeled : replayer.replay(trace)) records.push_back(labeled.record);
  return records;
}

/// Builds the mixed normal + Slammer stream used by the wire tests.
std::vector<dagflow::LabeledFlow> mixed_stream() {
  traffic::NormalTrafficModel model;
  util::Rng rng{31};
  const auto trace = model.generate(400, 0, rng);
  traffic::AttackConfig attack_config;
  attack_config.companion_fraction = 0;
  const auto attack =
      traffic::generate_attack(traffic::AttackKind::kSlammer, attack_config, 2000, rng);

  dagflow::Dagflow normal_source(
      dagflow::DagflowConfig{.netflow_port = 9001},
      dagflow::AddressPool::from_allocation(dagflow::make_allocation(10, 100, 0, 0)[0]),
      32);
  dagflow::Dagflow attack_source(
      dagflow::DagflowConfig{.netflow_port = 9001},
      dagflow::AddressPool::from_subblocks({*net::SubBlock::parse("110a")}), 33);

  auto labeled = normal_source.replay(trace);
  const auto attack_labeled = attack_source.replay(attack);
  labeled.insert(labeled.end(), attack_labeled.begin(), attack_labeled.end());
  std::stable_sort(labeled.begin(), labeled.end(),
                   [](const auto& a, const auto& b) {
                     return a.record.last < b.record.last;
                   });
  return labeled;
}

TEST(Integration, WirePathMatchesDirectPath) {
  const auto stream = mixed_stream();
  const auto training = training_records(55);

  // Direct path: records handed straight to the engine.
  alert::CollectingSink direct_sink;
  InFilterEngine direct(engine_config(), &direct_sink);
  preload_eia(direct);
  direct.train(training);
  int direct_attacks = 0;
  for (const auto& flow : stream) {
    direct_attacks +=
        direct.process(flow.record, flow.arrival_port, flow.record.last).attack ? 1 : 0;
  }

  // Wire path: serialize to v5 datagrams, collect, then analyze.
  dagflow::Dagflow exporter(
      dagflow::DagflowConfig{.netflow_port = 9001},
      dagflow::AddressPool::from_subblocks({*net::SubBlock::parse("1a")}), 1);
  const auto datagrams = exporter.export_datagrams(stream, 90000);
  flowtools::FlowCapture capture;
  for (const auto& datagram : datagrams) {
    ASSERT_TRUE(capture.ingest(datagram, 9001).has_value());
  }
  ASSERT_EQ(capture.flows().size(), stream.size());

  alert::CollectingSink wire_sink;
  InFilterEngine wire(engine_config(), &wire_sink);
  preload_eia(wire);
  wire.train(training);
  int wire_attacks = 0;
  for (const auto& flow : capture.flows()) {
    wire_attacks +=
        wire.process(flow.record, flow.arrival_port, flow.record.last).attack ? 1 : 0;
  }

  EXPECT_EQ(direct_attacks, wire_attacks);
  EXPECT_EQ(direct_sink.alerts().size(), wire_sink.alerts().size());
  EXPECT_GT(direct_attacks, 0);
}

TEST(Integration, SlammerSweepRaisesScanAlerts) {
  const auto stream = mixed_stream();
  alert::CollectingSink sink;
  InFilterEngine engine(engine_config(), &sink);
  preload_eia(engine);
  engine.train(training_records(56));
  for (const auto& flow : stream) {
    (void)engine.process(flow.record, flow.arrival_port, flow.record.last);
  }
  int scan_alerts = 0;
  for (const auto& alert : sink.alerts()) {
    scan_alerts += alert.stage == alert::DetectionStage::kScanAnalysis ? 1 : 0;
    // Every alert serializes to well-formed IDMEF.
    const auto xml = alert.to_idmef_xml();
    EXPECT_NE(xml.find("<IDMEF-Message"), std::string::npos);
    EXPECT_NE(xml.find("</IDMEF-Message>"), std::string::npos);
  }
  EXPECT_GT(scan_alerts, 50);  // the 120-victim sweep trips scan analysis
}

TEST(Integration, RouterFlowCacheFeedsCollector) {
  // Packets -> router flow cache -> v5 export -> capture -> report: the
  // full NetFlow generation chain of Section 5.1.1/5.1.2.
  netflow::FlowCache cache(netflow::FlowCacheConfig{});
  // Two http flows and one dns exchange.
  for (int p = 0; p < 5; ++p) {
    netflow::PacketObservation packet;
    packet.key.src_ip = net::IPv4Address{3, 0, 0, 1};
    packet.key.dst_ip = net::IPv4Address{100, 64, 0, 1};
    packet.key.proto = 6;
    packet.key.src_port = 40000;
    packet.key.dst_port = 80;
    packet.bytes = 500;
    packet.time = 1000 + static_cast<util::TimeMs>(p) * 10;
    cache.observe(packet);
  }
  netflow::PacketObservation dns;
  dns.key.src_ip = net::IPv4Address{3, 0, 0, 2};
  dns.key.dst_ip = net::IPv4Address{100, 64, 0, 2};
  dns.key.proto = 17;
  dns.key.src_port = 53000;
  dns.key.dst_port = 53;
  dns.bytes = 80;
  dns.time = 1500;
  cache.observe(dns);

  const auto records = cache.flush(60000);
  ASSERT_EQ(records.size(), 2u);
  std::uint32_t sequence = 0;
  const auto datagrams = netflow::encode_all(records, 60000, sequence);
  flowtools::FlowCapture capture;
  for (const auto& datagram : datagrams) {
    ASSERT_TRUE(capture.ingest(datagram, 9001).has_value());
  }
  const auto rows =
      flowtools::group_flows(capture.flows(), flowtools::GroupField::kDstPort);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].group_key, "dp80");  // 2500 bytes beats 80
  EXPECT_EQ(rows[0].summary.packets, 5u);
}

TEST(Integration, CapturePersistenceRoundTripsThroughAnalysis) {
  const auto stream = mixed_stream();
  dagflow::Dagflow exporter(
      dagflow::DagflowConfig{.netflow_port = 9001},
      dagflow::AddressPool::from_subblocks({*net::SubBlock::parse("1a")}), 2);
  const auto datagrams = exporter.export_datagrams(stream, 90000);
  flowtools::FlowCapture capture;
  for (const auto& datagram : datagrams) {
    ASSERT_TRUE(capture.ingest(datagram, 9001).has_value());
  }
  const auto path =
      (::testing::TempDir() + "/infilter_integration_capture.bin");
  ASSERT_TRUE(capture.save(path).has_value());
  flowtools::FlowCapture restored;
  ASSERT_TRUE(restored.load(path).has_value());
  ASSERT_EQ(restored.flows().size(), capture.flows().size());
  std::remove(path.c_str());

  // Analysis over the restored capture still finds the attack.
  InFilterEngine engine(engine_config());
  preload_eia(engine);
  engine.train(training_records(57));
  int attacks = 0;
  for (const auto& flow : restored.flows()) {
    attacks += engine.process(flow.record, flow.arrival_port, flow.record.last).attack
                   ? 1
                   : 0;
  }
  EXPECT_GT(attacks, 0);
}

TEST(Integration, TestbedMetricsReconcile) {
  sim::ExperimentConfig config;
  config.normal_flows_per_source = 800;
  config.training_flows = 600;
  config.engine.cluster.bits_per_feature = 48;
  config.attack_volume = 0.04;
  config.seed = 23;
  const auto result = sim::run_experiment(config);

  // The final dump reconciles with the ground-truth accounting.
  const auto& m = result.metrics;
  const double flows = m.value("infilter_flows_total");
  EXPECT_DOUBLE_EQ(flows, static_cast<double>(result.attack_flows +
                                              result.benign_flows));
  EXPECT_DOUBLE_EQ(m.value("infilter_eia_hits_total") +
                       m.value("infilter_eia_misses_total"),
                   flows);
  // Enhanced mode with scan analysis: every EIA miss is scan-analyzed.
  EXPECT_DOUBLE_EQ(m.value("infilter_scan_analyzed_total"),
                   m.value("infilter_eia_misses_total"));
  // Every flow lands in exactly one terminal verdict counter.
  EXPECT_DOUBLE_EQ(m.value("infilter_verdict_legal_total") +
                       m.value("infilter_verdict_attack_eia_total") +
                       m.value("infilter_verdict_attack_scan_total") +
                       m.value("infilter_verdict_attack_nns_total") +
                       m.value("infilter_verdict_cleared_nns_total") +
                       m.value("infilter_verdict_cleared_learned_total"),
                   flows);
  // The per-stage alert tallies in the result come from the same verdicts
  // the metric counters saw.
  EXPECT_DOUBLE_EQ(m.value("infilter_verdict_attack_eia_total"),
                   static_cast<double>(result.alerts_eia));
  EXPECT_DOUBLE_EQ(m.value("infilter_verdict_attack_scan_total"),
                   static_cast<double>(result.alerts_scan));
  EXPECT_DOUBLE_EQ(m.value("infilter_verdict_attack_nns_total"),
                   static_cast<double>(result.alerts_nns));
  // Latency histograms observed every flow.
  const auto* process = m.histogram("infilter_process_latency_us");
  ASSERT_NE(process, nullptr);
  EXPECT_DOUBLE_EQ(static_cast<double>(process->count), flows);
  EXPECT_GT(process->quantile(0.99), 0.0);
  // Component pull-metrics were sampled into the snapshot.
  EXPECT_DOUBLE_EQ(m.value("infilter_eia_lookups_total"), flows);
  EXPECT_GT(m.value("infilter_nns_trained_flows"), 0.0);
}

}  // namespace
}  // namespace infilter
