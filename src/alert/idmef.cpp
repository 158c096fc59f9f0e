#include "alert/idmef.h"

#include <charconv>
#include <concepts>

namespace infilter::alert {
namespace {

/// Upper bound on a document's size, so the one reservation is the only
/// allocation: the longest is 1,027 chars (an NNS alert with every
/// optional element and the widest value of every field).
constexpr std::size_t kMaxXmlSize = 1040;

/// Appends text as-is, an address as a dotted quad and an integer in
/// decimal (exactly as operator<< writes each).
void append_part(std::string& out, std::string_view text) { out += text; }
void append_part(std::string& out, net::IPv4Address address) {
  char text[net::IPv4Address::kMaxTextSize];
  out.append(text, address.write(text));
}
template <std::integral Int>
void append_part(std::string& out, Int value) {
  char text[24];
  out.append(text, std::to_chars(text, text + sizeof text, value).ptr);
}

template <typename... Parts>
void append(std::string& out, const Parts&... parts) {
  (append_part(out, parts), ...);
}

}  // namespace

std::string_view stage_name(DetectionStage stage) {
  switch (stage) {
    case DetectionStage::kEiaMismatch: return "eia-mismatch";
    case DetectionStage::kScanAnalysis: return "scan-analysis";
    case DetectionStage::kNnsDistance: return "nns-distance";
    case DetectionStage::kHopCountFusion: return "hopcount-fusion";
  }
  return "unknown";
}

std::string_view Alert::classification() const {
  switch (stage) {
    case DetectionStage::kEiaMismatch: return "spoofed traffic (eia-mismatch)";
    case DetectionStage::kScanAnalysis: return "spoofed traffic (scan-analysis)";
    case DetectionStage::kNnsDistance: return "spoofed traffic (nns-distance)";
    case DetectionStage::kHopCountFusion: return "spoofed traffic (hopcount-fusion)";
  }
  return "spoofed traffic (unknown)";
}

std::string Alert::to_idmef_xml() const {
  // Shaped after the IDMEF Internet-Draft's Alert message: Analyzer,
  // CreateTime, Source, Target, Classification, AdditionalData.
  std::string xml;
  xml.reserve(kMaxXmlSize);
  append(xml, "<IDMEF-Message version=\"1.0\">\n");
  append(xml, "  <Alert messageid=\"", id, "\">\n");
  append(xml, "    <Analyzer analyzerid=\"infilter\" class=\"spoof-detector\"/>\n");
  append(xml, "    <CreateTime>", create_time, "</CreateTime>\n");
  append(xml, "    <Source spoofed=\"yes\">\n");
  append(xml, "      <Node><Address category=\"ipv4-addr\"><address>", source_ip,
         "</address></Address></Node>\n");
  append(xml, "    </Source>\n");
  append(xml, "    <Target>\n");
  append(xml, "      <Node><Address category=\"ipv4-addr\"><address>", target_ip,
         "</address></Address></Node>\n");
  if (target_port != 0) {
    append(xml, "      <Service><port>", target_port, "</port><protocol>",
           unsigned{proto}, "</protocol></Service>\n");
  }
  append(xml, "    </Target>\n");
  append(xml, "    <Classification text=\"", classification(), "\"/>\n");
  append(xml, "    <AdditionalData type=\"string\" meaning=\"detection-stage\">",
         stage_name(stage), "</AdditionalData>\n");
  append(xml, "    <AdditionalData type=\"integer\" meaning=\"ingress-port\">",
         ingress_port, "</AdditionalData>\n");
  if (expected_ingress >= 0) {
    append(xml, "    <AdditionalData type=\"integer\" meaning=\"expected-ingress\">",
           expected_ingress, "</AdditionalData>\n");
  }
  if (stage == DetectionStage::kNnsDistance) {
    append(xml, "    <AdditionalData type=\"integer\" meaning=\"nns-distance\">",
           nns_distance, "</AdditionalData>\n");
    append(xml, "    <AdditionalData type=\"integer\" meaning=\"nns-threshold\">",
           nns_threshold, "</AdditionalData>\n");
  }
  append(xml, "  </Alert>\n");
  append(xml, "</IDMEF-Message>\n");
  return xml;
}

}  // namespace infilter::alert
