// Shared pieces of the benchmark program: the result ledger, the alert sink
// every run attaches, and the passes the traced run adds (layers.cpp).

#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "alert/idmef.h"
#include "core/cluster.h"
#include "core/engine.h"
#include "spans.h"
#include "workload.h"

namespace perfbench {

/// Every number the run reports, plus its failure accounting.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Counts `operations` attempted, of which `failed` failed.
  void attempt(std::uint64_t operations, std::uint64_t failed = 0) {
    attempted_ += operations;
    failed_ += failed;
  }
  /// A failed correctness check: the run reports correct = false.
  void problem(const std::string& what) { problems_.push_back(what); }

  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  [[nodiscard]] const std::vector<std::string>& problems() const { return problems_; }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] bool correct() const { return failed_ == 0 && problems_.empty(); }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::string> problems_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// The alert consumer every run attaches: serializes each alert to IDMEF
/// XML, the work a deployment's sink does. With `timed`, it also sums the
/// time spent serializing (the alert layer of the traced run).
class XmlSink final : public infilter::alert::AlertSink {
 public:
  explicit XmlSink(bool timed = false) : timed_(timed) {}
  void consume(const infilter::alert::Alert& alert) override {
    const std::uint64_t start = timed_ ? now_ns() : 0;
    bytes_ += alert.to_idmef_xml().size();
    if (timed_) busy_ns_ += now_ns() - start;
    ++count_;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::uint64_t busy_ns() const { return busy_ns_; }

 private:
  bool timed_;
  std::uint64_t count_ = 0;
  std::uint64_t bytes_ = 0;
  std::uint64_t busy_ns_ = 0;
};

/// Element-wise verdict equality (attack, stage, suspect, NNS diagnostics).
[[nodiscard]] bool same_verdict(const infilter::core::Verdict& a,
                                const infilter::core::Verdict& b);

/// The serial engine's own counters after the reference pass; the traced
/// run reconciles its per-layer counts against them.
struct EngineCounts {
  std::uint64_t eia_hits = 0;
  std::uint64_t eia_misses = 0;
  std::uint64_t eia_learned = 0;
  std::uint64_t hop_consistent = 0;
  std::uint64_t hop_miss = 0;
  std::uint64_t hop_unknown = 0;
  std::uint64_t scan_analyzed = 0;
  std::uint64_t scan_flagged = 0;
  std::uint64_t nns_assessed = 0;
  std::uint64_t alerts = 0;
};
[[nodiscard]] EngineCounts engine_counts(const infilter::core::InFilterEngine& engine);

/// Inputs of the traced run's per-layer passes.
struct LayerContext {
  const Prepared& prepared;
  std::shared_ptr<const infilter::core::TrainedClusters> clusters;
  /// Verdicts of the untraced serial reference pass, and its counters.
  const std::vector<infilter::core::Verdict>& reference;
  EngineCounts counts;
  /// Runs one untraced serial pass and returns its seconds. The ledger
  /// alternates it with its own passes, so the fastest of each -- the
  /// ledger's end-to-end base and its stage sum -- come from the same
  /// stretch of machine time.
  std::function<double()> serial_pass;
  double phase_seconds = 0;  ///< time budget for the alternating passes
  SpanLog& spans;
};

/// Engine-stage ledger (pre_process_batch / finish_suspect_batch) and the
/// component calls fed from the reference verdicts: EIA, hop count, scan,
/// NNS, alert serialization and NetFlow decode.
void run_layer_passes(const LayerContext& context, Report& report);

/// Ledger tolerance: |serial - (pre + finish)| may be at most this share of
/// serial ns/flow.
inline constexpr double kLedgerTolerance = 0.10;

}  // namespace perfbench
