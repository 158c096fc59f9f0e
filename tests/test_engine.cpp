// Tests for the InFilter analysis engine (core/engine.h): the Normal
// processing phase of Figure 12 in both BI and EI configurations.

#include "core/engine.h"

#include <gtest/gtest.h>

#include "dagflow/dagflow.h"
#include "traffic/normal.h"

namespace infilter::core {
namespace {

constexpr IngressId kAs1 = 9001;
constexpr IngressId kAs2 = 9002;

net::IPv4Address ip(const char* text) { return *net::IPv4Address::parse(text); }

netflow::V5Record flow_from(net::IPv4Address src, std::uint16_t dst_port = 80,
                            std::uint8_t proto = 6, std::uint32_t packets = 20,
                            std::uint32_t bytes = 9000, std::uint32_t duration = 800) {
  netflow::V5Record r;
  r.src_ip = src;
  r.dst_ip = net::IPv4Address{100, 64, 0, 1};
  r.proto = proto;
  r.src_port = 44000;
  r.dst_port = dst_port;
  r.packets = packets;
  r.bytes = bytes;
  r.first = 0;
  r.last = duration;
  return r;
}

EngineConfig basic_config() {
  EngineConfig c;
  c.use_scan_analysis = c.use_nns = false;
  c.seed = 5;
  return c;
}

EngineConfig enhanced_config() {
  EngineConfig c;
  c.cluster.bits_per_feature = 48;  // faster tests
  c.seed = 5;
  return c;
}

std::vector<netflow::V5Record> normal_records(std::size_t count, std::uint64_t seed) {
  traffic::NormalTrafficModel model;
  util::Rng rng{seed};
  const auto trace = model.generate(count, 0, rng);
  dagflow::Dagflow replayer(
      dagflow::DagflowConfig{},
      dagflow::AddressPool::from_subblocks({*net::SubBlock::parse("1a")}), seed);
  std::vector<netflow::V5Record> records;
  for (const auto& labeled : replayer.replay(trace)) records.push_back(labeled.record);
  return records;
}

TEST(BasicInFilter, ExpectedSourcePasses) {
  InFilterEngine engine(basic_config());
  engine.add_expected(kAs1, *net::Prefix::parse("3.0.0.0/11"));
  const auto verdict = engine.process(flow_from(ip("3.0.0.1")), kAs1, 1000);
  EXPECT_FALSE(verdict.attack);
  EXPECT_FALSE(verdict.suspect);
}

TEST(BasicInFilter, WrongIngressFlags) {
  InFilterEngine engine(basic_config());
  engine.add_expected(kAs1, *net::Prefix::parse("3.0.0.0/11"));
  engine.add_expected(kAs2, *net::Prefix::parse("3.32.0.0/11"));
  // A source expected at AS2 arriving at AS1 (case a of Section 5.2).
  const auto verdict = engine.process(flow_from(ip("3.40.0.1")), kAs1, 1000);
  EXPECT_TRUE(verdict.attack);
  EXPECT_TRUE(verdict.suspect);
  EXPECT_EQ(verdict.stage, alert::DetectionStage::kEiaMismatch);
}

TEST(BasicInFilter, UnknownSourceFlags) {
  InFilterEngine engine(basic_config());
  engine.add_expected(kAs1, *net::Prefix::parse("3.0.0.0/11"));
  const auto verdict = engine.process(flow_from(ip("200.1.1.1")), kAs1, 1000);
  EXPECT_TRUE(verdict.attack);
}

TEST(BasicInFilter, EmitsIdmefAlertWithContext) {
  alert::CollectingSink sink;
  InFilterEngine engine(basic_config(), &sink);
  engine.add_expected(kAs1, *net::Prefix::parse("3.0.0.0/11"));
  engine.add_expected(kAs2, *net::Prefix::parse("3.32.0.0/11"));
  (void)engine.process(flow_from(ip("3.40.0.1")), kAs1, 777);
  ASSERT_EQ(sink.alerts().size(), 1u);
  const auto& alert = sink.alerts().front();
  EXPECT_EQ(alert.ingress_port, kAs1);
  EXPECT_EQ(alert.expected_ingress, kAs2);
  EXPECT_EQ(alert.create_time, 777u);
  EXPECT_EQ(alert.stage, alert::DetectionStage::kEiaMismatch);
  EXPECT_NE(alert.to_idmef_xml().find("eia-mismatch"), std::string::npos);
}

TEST(BasicInFilter, AutoLearnsPersistentRouteChange) {
  EngineConfig config = basic_config();
  config.eia.learn_threshold = 5;
  InFilterEngine engine(config);
  engine.add_expected(kAs1, *net::Prefix::parse("3.0.0.0/11"));
  const auto newcomer = ip("3.40.0.1");
  int flagged = 0;
  for (int i = 0; i < 10; ++i) {
    flagged += engine.process(flow_from(newcomer), kAs1, 1000 + i).attack ? 1 : 0;
  }
  // First learn_threshold - 1 flows flagged, the learning flow and
  // everything after pass.
  EXPECT_EQ(flagged, 4);
  EXPECT_TRUE(engine.eia().set_for(kAs1)->contains(newcomer));
}

class EnhancedEngineTest : public ::testing::Test {
 protected:
  EnhancedEngineTest() : engine_(enhanced_config()) {
    engine_.add_expected(kAs1, *net::Prefix::parse("3.0.0.0/11"));
    engine_.add_expected(kAs2, *net::Prefix::parse("3.32.0.0/11"));
    engine_.train(normal_records(700, 3));
  }
  InFilterEngine engine_;
};

TEST_F(EnhancedEngineTest, ExpectedSourceNeverAnalyzed) {
  const auto verdict = engine_.process(flow_from(ip("3.0.0.1")), kAs1, 1000);
  EXPECT_FALSE(verdict.suspect);
  EXPECT_FALSE(verdict.nns.has_value());
}

TEST_F(EnhancedEngineTest, SuspectNormalLookingFlowCleared) {
  // A mis-ingressed but ordinary http flow: EIA flags it, NNS clears it.
  const auto verdict = engine_.process(flow_from(ip("3.40.0.1")), kAs1, 1000);
  EXPECT_TRUE(verdict.suspect);
  EXPECT_FALSE(verdict.attack) << "normal-shaped flow should pass NNS";
  ASSERT_TRUE(verdict.nns.has_value());
  EXPECT_LE(verdict.nns->distance, verdict.nns->threshold);
}

TEST_F(EnhancedEngineTest, SuspectFloodFlaggedByNns) {
  const auto flood = flow_from(ip("3.40.0.2"), 7777, 17, 4000, 4000000, 2000);
  const auto verdict = engine_.process(flood, kAs1, 1000);
  EXPECT_TRUE(verdict.attack);
  EXPECT_EQ(verdict.stage, alert::DetectionStage::kNnsDistance);
}

TEST_F(EnhancedEngineTest, NetworkScanFlaggedByScanAnalysis) {
  // Slammer-style: spoofed single-packet UDP flows to port 1434 across
  // many hosts, sources spoofed across many /24s (so EIA auto-learning
  // cannot absorb them). Scan analysis must trip before NNS settles it.
  bool scan_flagged = false;
  for (std::uint32_t i = 0; i < 60 && !scan_flagged; ++i) {
    auto record = flow_from(
        net::IPv4Address{3, 40, static_cast<std::uint8_t>(i), 3}, 1434, 17, 1, 404, 0);
    record.dst_ip = net::IPv4Address{(100u << 24) | (64u << 16) | i};
    const auto verdict = engine_.process(record, kAs1, 1000 + i);
    scan_flagged = verdict.attack && verdict.stage == alert::DetectionStage::kScanAnalysis;
  }
  EXPECT_TRUE(scan_flagged);
}

TEST_F(EnhancedEngineTest, HostScanFlaggedByScanAnalysis) {
  bool scan_flagged = false;
  for (std::uint16_t port = 1; port < 60 && !scan_flagged; ++port) {
    auto record = flow_from(
        net::IPv4Address{3, 40, static_cast<std::uint8_t>(port), 4}, port, 6, 1, 40, 0);
    const auto verdict = engine_.process(record, kAs1, 1000 + port);
    scan_flagged = verdict.attack && verdict.stage == alert::DetectionStage::kScanAnalysis;
  }
  EXPECT_TRUE(scan_flagged);
}

TEST(EnhancedEngine, ScanDisabledFallsThroughToNns) {
  EngineConfig config = enhanced_config();
  config.use_scan_analysis = false;
  InFilterEngine engine(config);
  engine.add_expected(kAs1, *net::Prefix::parse("3.0.0.0/11"));
  engine.train(normal_records(500, 4));
  // The slammer sweep now reaches NNS per flow; verdicts may pass or flag,
  // but never via scan analysis.
  for (std::uint32_t i = 0; i < 40; ++i) {
    auto record = flow_from(ip("99.1.1.1"), 1434, 17, 1, 404, 0);
    record.dst_ip = net::IPv4Address{(100u << 24) | (64u << 16) | i};
    const auto verdict = engine.process(record, kAs1, 1000 + i);
    if (verdict.attack) {
      EXPECT_NE(verdict.stage, alert::DetectionStage::kScanAnalysis);
    }
  }
}

TEST(EnhancedEngine, BothStagesDisabledDegeneratesToBasic) {
  EngineConfig config = enhanced_config();
  config.use_scan_analysis = false;
  config.use_nns = false;
  InFilterEngine engine(config);
  engine.add_expected(kAs1, *net::Prefix::parse("3.0.0.0/11"));
  const auto verdict = engine.process(flow_from(ip("99.1.1.1")), kAs1, 1000);
  EXPECT_TRUE(verdict.attack);
  EXPECT_EQ(verdict.stage, alert::DetectionStage::kEiaMismatch);
}

TEST(EnhancedEngine, UntrainedEngineStillRunsEiaAndScan) {
  EngineConfig config = enhanced_config();
  InFilterEngine engine(config);  // no train() call
  engine.add_expected(kAs1, *net::Prefix::parse("3.0.0.0/11"));
  const auto verdict = engine.process(flow_from(ip("99.1.1.1")), kAs1, 1000);
  // Without clusters the NNS stage cannot run; the flow falls back to the
  // basic verdict.
  EXPECT_TRUE(verdict.suspect);
  EXPECT_TRUE(verdict.attack);
}

TEST(EnhancedEngine, FlowCountersAdvance) {
  alert::CollectingSink sink;
  InFilterEngine engine(basic_config(), &sink);
  engine.add_expected(kAs1, *net::Prefix::parse("3.0.0.0/11"));
  (void)engine.process(flow_from(ip("3.0.0.1")), kAs1, 1);
  (void)engine.process(flow_from(ip("99.0.0.1")), kAs1, 2);
  EXPECT_EQ(engine.flows_processed(), 2u);
  EXPECT_EQ(engine.alerts_emitted(), 1u);
  EXPECT_EQ(engine.alerts_emitted(), sink.alerts().size());
}

TEST(EnhancedEngine, AlertsEmittedCountsDeliveredAlertsOnly) {
  // Same traffic, no sink: the attack verdict stands but nothing is
  // delivered, so alerts_emitted() stays 0 and the verdict counter moves.
  InFilterEngine engine(basic_config());
  engine.add_expected(kAs1, *net::Prefix::parse("3.0.0.0/11"));
  const auto verdict = engine.process(flow_from(ip("99.0.0.1")), kAs1, 1);
  EXPECT_TRUE(verdict.attack);
  EXPECT_EQ(engine.alerts_emitted(), 0u);
  EXPECT_EQ(engine.metrics().verdict_attack_eia->value(), 1u);
}

/// Every processed flow must land in exactly one terminal verdict counter,
/// and the stage counters must reconcile with each other (the invariants
/// documented in obs/pipeline.h).
void expect_reconciled(const InFilterEngine& engine) {
  const auto& m = engine.metrics();
  const std::uint64_t terminal =
      m.verdict_legal->value() + m.verdict_attack_eia->value() +
      m.verdict_attack_scan->value() + m.verdict_attack_nns->value() +
      m.verdict_cleared_nns->value() + m.verdict_cleared_learned->value();
  EXPECT_EQ(m.flows_total->value(), terminal);
  EXPECT_EQ(m.flows_total->value(), m.eia_hits->value() + m.eia_misses->value());
  EXPECT_EQ(m.nns_assessed->value(), m.nns_normal->value() + m.nns_anomalous->value());
  EXPECT_EQ(m.alerts_total->value(), m.alerts_eia->value() + m.alerts_scan->value() +
                                         m.alerts_nns->value());
  EXPECT_EQ(m.process_us->count(), m.flows_total->value());
}

TEST_F(EnhancedEngineTest, StageCountersReconcile) {
  util::Rng rng{99};
  for (int i = 0; i < 200; ++i) {
    // Mix of in-EIA, mis-ingressed, and unknown sources.
    const std::uint32_t pick = static_cast<std::uint32_t>(rng.below(3));
    auto record = flow_from(pick == 0   ? ip("3.0.0.7")
                            : pick == 1 ? ip("3.40.0.7")
                                        : net::IPv4Address{static_cast<std::uint32_t>(
                                              (200u << 24) + rng.below(1u << 16))},
                            static_cast<std::uint16_t>(1 + rng.below(4000)));
    (void)engine_.process(record, kAs1, 1000 + static_cast<util::TimeMs>(i));
  }
  const auto& m = engine_.metrics();
  EXPECT_EQ(m.flows_total->value(), 200u);
  // Enhanced mode with scan analysis on: every EIA miss is scan-analyzed.
  EXPECT_EQ(m.scan_analyzed->value(), m.eia_misses->value());
  expect_reconciled(engine_);
}

TEST(EnhancedEngine, BasicModeCountersReconcile) {
  alert::CollectingSink sink;
  EngineConfig config = basic_config();
  config.eia.learn_threshold = 3;
  InFilterEngine engine(config, &sink);
  engine.add_expected(kAs1, *net::Prefix::parse("3.0.0.0/11"));
  for (int i = 0; i < 10; ++i) {
    (void)engine.process(flow_from(ip("3.0.0.1")), kAs1, 1 + i);
    (void)engine.process(flow_from(ip("99.0.0.1")), kAs1, 1 + i);  // learns at 3
  }
  expect_reconciled(engine);
  const auto& m = engine.metrics();
  EXPECT_EQ(m.eia_learned->value(), 1u);
  EXPECT_EQ(m.alerts_total->value(), sink.alerts().size());
}

TEST(EnhancedEngine, RegistryReceivesPipelineMetrics) {
  InFilterEngine engine(basic_config());
  engine.add_expected(kAs1, *net::Prefix::parse("3.0.0.0/11"));
  (void)engine.process(flow_from(ip("3.0.0.1")), kAs1, 1);

  const auto snapshot = engine.registry().snapshot();
  EXPECT_DOUBLE_EQ(snapshot.value("infilter_flows_total"), 1.0);
  EXPECT_DOUBLE_EQ(snapshot.value("infilter_verdict_legal_total"), 1.0);
  // Component pull-metrics are registered alongside the pipeline set.
  EXPECT_DOUBLE_EQ(snapshot.value("infilter_eia_lookups_total"), 1.0);
  EXPECT_DOUBLE_EQ(snapshot.value("infilter_eia_ingresses"), 1.0);
}

TEST(EnhancedEngine, SharedClustersBehaveLikeOwnTraining) {
  const auto records = normal_records(600, 6);
  EngineConfig config = enhanced_config();
  InFilterEngine own(config);
  own.add_expected(kAs1, *net::Prefix::parse("3.0.0.0/11"));
  own.train(records);

  auto shared = std::make_shared<const TrainedClusters>(records, config.cluster,
                                                        config.seed);
  InFilterEngine borrowed(config);
  borrowed.add_expected(kAs1, *net::Prefix::parse("3.0.0.0/11"));
  borrowed.set_clusters(shared);

  const auto flood = flow_from(ip("99.1.2.3"), 7777, 17, 4000, 4000000, 2000);
  EXPECT_EQ(own.process(flood, kAs1, 1).attack, borrowed.process(flood, kAs1, 1).attack);
}

}  // namespace
}  // namespace infilter::core
