// Tests for IDMEF alerting (alert/idmef.h).

#include "alert/idmef.h"

#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <limits>
#include <sstream>

#include "util/rng.h"

namespace infilter::alert {
namespace {

/// The ostringstream formatter to_idmef_xml() replaced, kept as the
/// reference its output must match byte for byte.
std::string reference_idmef_xml(const Alert& a) {
  std::ostringstream xml;
  xml << "<IDMEF-Message version=\"1.0\">\n";
  xml << "  <Alert messageid=\"" << a.id << "\">\n";
  xml << "    <Analyzer analyzerid=\"infilter\" class=\"spoof-detector\"/>\n";
  xml << "    <CreateTime>" << a.create_time << "</CreateTime>\n";
  xml << "    <Source spoofed=\"yes\">\n";
  xml << "      <Node><Address category=\"ipv4-addr\"><address>"
      << a.source_ip.to_string() << "</address></Address></Node>\n";
  xml << "    </Source>\n";
  xml << "    <Target>\n";
  xml << "      <Node><Address category=\"ipv4-addr\"><address>"
      << a.target_ip.to_string() << "</address></Address></Node>\n";
  if (a.target_port != 0) {
    xml << "      <Service><port>" << a.target_port << "</port><protocol>"
        << static_cast<int>(a.proto) << "</protocol></Service>\n";
  }
  xml << "    </Target>\n";
  xml << "    <Classification text=\"spoofed traffic (" << stage_name(a.stage)
      << ")\"/>\n";
  xml << "    <AdditionalData type=\"string\" meaning=\"detection-stage\">"
      << stage_name(a.stage) << "</AdditionalData>\n";
  xml << "    <AdditionalData type=\"integer\" meaning=\"ingress-port\">"
      << a.ingress_port << "</AdditionalData>\n";
  if (a.expected_ingress >= 0) {
    xml << "    <AdditionalData type=\"integer\" meaning=\"expected-ingress\">"
        << a.expected_ingress << "</AdditionalData>\n";
  }
  if (a.stage == DetectionStage::kNnsDistance) {
    xml << "    <AdditionalData type=\"integer\" meaning=\"nns-distance\">"
        << a.nns_distance << "</AdditionalData>\n";
    xml << "    <AdditionalData type=\"integer\" meaning=\"nns-threshold\">"
        << a.nns_threshold << "</AdditionalData>\n";
  }
  xml << "  </Alert>\n";
  xml << "</IDMEF-Message>\n";
  return std::move(xml).str();
}

/// A 64-bit value that is an edge (0, 1, max) a quarter of the time.
std::uint64_t edgy(util::Rng& rng, std::uint64_t max) {
  switch (rng.below(8)) {
    case 0: return 0;
    case 1: return max;
    default: return max == ~std::uint64_t{0} ? rng() : rng.below(max + 1);
  }
}

/// A random alert over every stage and every field's full range.
Alert random_alert(util::Rng& rng) {
  Alert a;
  a.id = edgy(rng, std::numeric_limits<std::uint64_t>::max());
  a.create_time = edgy(rng, std::numeric_limits<std::uint64_t>::max());
  a.stage = static_cast<DetectionStage>(rng.below(kStageCount));
  a.source_ip = net::IPv4Address{static_cast<std::uint32_t>(edgy(rng, 0xFFFFFFFFu))};
  a.target_ip = net::IPv4Address{static_cast<std::uint32_t>(edgy(rng, 0xFFFFFFFFu))};
  a.target_port = static_cast<std::uint16_t>(edgy(rng, 65535));
  a.proto = static_cast<std::uint8_t>(edgy(rng, 255));
  a.ingress_port = static_cast<std::uint16_t>(edgy(rng, 65535));
  a.expected_ingress = static_cast<int>(edgy(rng, 65536)) - 1;  // -1 .. 65535
  a.nns_distance = static_cast<int>(static_cast<std::uint32_t>(rng()));
  a.nns_threshold = static_cast<int>(edgy(rng, 720));
  a.detection_latency_ms = rng.uniform() * 1000;
  return a;
}

Alert sample_alert() {
  Alert a;
  a.id = 42;
  a.create_time = 123456;
  a.stage = DetectionStage::kNnsDistance;
  a.source_ip = net::IPv4Address{3, 1, 2, 3};
  a.target_ip = net::IPv4Address{100, 64, 0, 7};
  a.target_port = 80;
  a.proto = 6;
  a.ingress_port = 9001;
  a.expected_ingress = 9004;
  a.nns_distance = 55;
  a.nns_threshold = 30;
  return a;
}

TEST(StageName, AllStagesNamed) {
  EXPECT_EQ(stage_name(DetectionStage::kEiaMismatch), "eia-mismatch");
  EXPECT_EQ(stage_name(DetectionStage::kScanAnalysis), "scan-analysis");
  EXPECT_EQ(stage_name(DetectionStage::kNnsDistance), "nns-distance");
  EXPECT_EQ(stage_name(DetectionStage::kHopCountFusion), "hopcount-fusion");
}

TEST(IdmefXml, ClassificationNamesTheStage) {
  Alert a;
  for (std::size_t i = 0; i < kStageCount; ++i) {
    a.stage = static_cast<DetectionStage>(i);
    EXPECT_EQ(a.classification(),
              "spoofed traffic (" + std::string(stage_name(a.stage)) + ")");
  }
}

TEST(IdmefXml, MatchesTheStreamFormatterByteForByte) {
  util::Rng rng{26};
  std::array<int, kStageCount> per_stage{};
  for (int trial = 0; trial < 200'000; ++trial) {
    const Alert a = random_alert(rng);
    ++per_stage[static_cast<std::size_t>(a.stage)];
    ASSERT_EQ(a.to_idmef_xml(), reference_idmef_xml(a)) << "trial " << trial;
  }
  for (const int count : per_stage) EXPECT_GT(count, 40'000);
}

TEST(IdmefXml, MatchesTheStreamFormatterAtFieldExtremes) {
  for (std::size_t i = 0; i < kStageCount; ++i) {
    for (const bool low : {true, false}) {
      Alert a;
      a.stage = static_cast<DetectionStage>(i);
      a.id = low ? 0 : std::numeric_limits<std::uint64_t>::max();
      a.create_time = low ? 0 : std::numeric_limits<std::uint64_t>::max();
      a.source_ip = net::IPv4Address{low ? 0u : 0xFFFFFFFFu};
      a.target_ip = net::IPv4Address{low ? 0u : 0xFFFFFFFFu};
      a.target_port = low ? 0 : 65535;
      a.proto = low ? 0 : 255;
      a.ingress_port = low ? 0 : 65535;
      a.expected_ingress = low ? -1 : 65535;
      a.nns_distance = low ? std::numeric_limits<int>::min() : std::numeric_limits<int>::max();
      a.nns_threshold = low ? std::numeric_limits<int>::min() : std::numeric_limits<int>::max();
      SCOPED_TRACE(std::string(stage_name(a.stage)) + (low ? " low" : " high"));
      EXPECT_EQ(a.to_idmef_xml(), reference_idmef_xml(a));
      // Port 1 keeps the Service element with the lowest protocol.
      a.target_port = 1;
      a.proto = 0;
      a.expected_ingress = 0;
      EXPECT_EQ(a.to_idmef_xml(), reference_idmef_xml(a));
    }
  }
}

TEST(IdmefXml, ContainsCoreElements) {
  const auto xml = sample_alert().to_idmef_xml();
  EXPECT_NE(xml.find("<IDMEF-Message"), std::string::npos);
  EXPECT_NE(xml.find("messageid=\"42\""), std::string::npos);
  EXPECT_NE(xml.find("<CreateTime>123456</CreateTime>"), std::string::npos);
  EXPECT_NE(xml.find("spoofed=\"yes\""), std::string::npos);
  EXPECT_NE(xml.find("<address>3.1.2.3</address>"), std::string::npos);
  EXPECT_NE(xml.find("<address>100.64.0.7</address>"), std::string::npos);
  EXPECT_NE(xml.find("<port>80</port>"), std::string::npos);
  EXPECT_NE(xml.find("spoofed traffic (nns-distance)"), std::string::npos);
}

TEST(IdmefXml, NnsDiagnosticsOnlyForNnsStage) {
  auto a = sample_alert();
  EXPECT_NE(a.to_idmef_xml().find("nns-distance\">55"), std::string::npos);
  a.stage = DetectionStage::kEiaMismatch;
  EXPECT_EQ(a.to_idmef_xml().find("meaning=\"nns-distance\""), std::string::npos);
}

TEST(IdmefXml, ExpectedIngressOmittedWhenUnknown) {
  auto a = sample_alert();
  a.expected_ingress = -1;
  EXPECT_EQ(a.to_idmef_xml().find("expected-ingress"), std::string::npos);
}

TEST(IdmefXml, ZeroPortOmitsServiceElement) {
  auto a = sample_alert();
  a.target_port = 0;
  EXPECT_EQ(a.to_idmef_xml().find("<Service>"), std::string::npos);
}

TEST(CollectingSink, StoresAlertsInOrder) {
  CollectingSink sink;
  auto a = sample_alert();
  a.id = 1;
  sink.consume(a);
  a.id = 2;
  sink.consume(a);
  ASSERT_EQ(sink.alerts().size(), 2u);
  EXPECT_EQ(sink.alerts()[0].id, 1u);
  EXPECT_EQ(sink.alerts()[1].id, 2u);
  sink.clear();
  EXPECT_TRUE(sink.alerts().empty());
}

}  // namespace
}  // namespace infilter::alert
