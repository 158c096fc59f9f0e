// IDMEF-style alerting (Section 5.1.4).
//
// When the analysis engine flags an attack flow it emits an alert in the
// Intrusion Detection Message Exchange Format. The paper's Alert UI is one
// consumer; the core capability is the notification stream itself, which a
// larger system can feed into trace-back and response. We implement the
// alert value type, an XML serializer producing IDMEF-draft-shaped
// documents, and a small consumer interface.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/ipv4.h"
#include "util/time.h"

namespace infilter::alert {

/// Which stage of the Enhanced InFilter pipeline flagged the flow.
enum class DetectionStage : std::uint8_t {
  kEiaMismatch,   ///< Basic InFilter: source not in the ingress EIA set
  kScanAnalysis,  ///< scan counters exceeded a threshold
  kNnsDistance,   ///< nearest neighbor beyond the subcluster threshold
  /// Both independent witnesses disagree with the learned state: the
  /// source failed the EIA check AND its TTL implies the wrong path
  /// length. High-confidence spoof; scan/NNS confirmation is skipped.
  kHopCountFusion,
};

[[nodiscard]] std::string_view stage_name(DetectionStage stage);

/// One attack notification.
struct Alert {
  std::uint64_t id = 0;
  util::TimeMs create_time = 0;
  DetectionStage stage = DetectionStage::kEiaMismatch;
  net::IPv4Address source_ip;
  net::IPv4Address target_ip;
  std::uint16_t target_port = 0;
  std::uint8_t proto = 0;
  /// The Peer AS (identified by collector port) the flow arrived through.
  std::uint16_t ingress_port = 0;
  /// The Peer AS whose EIA set expected this source, if any (-1 = none).
  int expected_ingress = -1;
  /// NNS diagnostics when stage == kNnsDistance.
  int nns_distance = 0;
  int nns_threshold = 0;
  /// Flow-observation-to-alert latency in (virtual) milliseconds.
  double detection_latency_ms = 0;
  std::string classification;

  /// Serializes to an IDMEF-draft-shaped XML document.
  [[nodiscard]] std::string to_idmef_xml() const;
};

/// Consumer interface ("These could easily be used in a larger system").
///
/// Threading contract: consume() is invoked on whichever thread runs the
/// detection -- the caller's thread for a serial InFilterEngine, the scan
/// thread for the sharded runtime. Implementations are NOT required to be
/// thread-safe: every engine in this repository serializes its consume()
/// calls (the sharded runtime emits from its scan engine alone, so ids
/// stay dense too). A sink shared between *independently driven* engines
/// must lock internally.
class AlertSink {
 public:
  virtual ~AlertSink() = default;
  virtual void consume(const Alert& alert) = 0;
};

/// Stores alerts in memory; the test and experiment harnesses read them
/// back, and the Alert UI example renders them.
class CollectingSink final : public AlertSink {
 public:
  void consume(const Alert& alert) override { alerts_.push_back(alert); }
  [[nodiscard]] const std::vector<Alert>& alerts() const { return alerts_; }
  void clear() { alerts_.clear(); }

 private:
  std::vector<Alert> alerts_;
};

}  // namespace infilter::alert
