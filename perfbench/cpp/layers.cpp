// The traced run's per-layer passes. Each layer is driven through its own
// public call, timed at batch (or pass) granularity from this thread, with
// inputs taken from the untimed serial reference pass's verdicts -- so the
// benchmark never re-derives the engine's routing -- and each layer's
// counts are reconciled against the engine's own counters.

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>

#include "bench.h"
#include "core/eia.h"
#include "core/scan.h"
#include "hopcount/hopcount.h"
#include "netflow/v5.h"

namespace perfbench {

using namespace infilter;

namespace {

constexpr std::size_t kBatch = 256;

void reconcile(Report& report, const char* what, std::uint64_t got, std::uint64_t want) {
  if (got != want) {
    report.problem(std::string(what) + ": layer count " + std::to_string(got) +
                   " != engine counter " + std::to_string(want));
  }
}

double per(std::uint64_t ns, std::uint64_t count) {
  return count == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(count);
}

double ratio(std::uint64_t part, std::uint64_t whole) {
  return whole == 0 ? 0.0 : static_cast<double>(part) / static_cast<double>(whole);
}

/// pre_process_batch + finish_suspect_batch on one engine, exactly the
/// composition process_batch performs, with each call inside a span.
void engine_ledger(const LayerContext& c, Report& report) {
  const Prepared& p = c.prepared;
  const std::size_t n = p.inputs.size();
  std::vector<double> serial, pre, finish, wall, alert_ns;
  std::uint64_t suspects_total = 0;
  std::uint64_t alerts = 0;
  std::vector<core::Verdict> out(n);
  std::vector<core::SuspectFlow> suspects;
  std::vector<std::uint32_t> positions;
  std::vector<core::Verdict> suspect_out;
  const std::uint64_t phase_start = now_ns();
  while (pre.size() < 2 ||
         static_cast<double>(now_ns() - phase_start) / 1e9 < c.phase_seconds) {
    serial.push_back(c.serial_pass());
    XmlSink sink(/*timed=*/true);
    core::InFilterEngine engine(p.engine, &sink);
    preload_eia(p.spec.config, [&](core::IngressId ingress, const net::Prefix& prefix) {
      engine.add_expected(ingress, prefix);
    });
    engine.set_clusters(c.clusters);
    std::uint64_t pre_ns = 0;
    std::uint64_t finish_ns = 0;
    suspects_total = 0;
    const std::span<const core::FlowInput> inputs(p.inputs);
    const std::uint64_t start = now_ns();
    {
      ScopedSpan pass(&c.spans, "ledger.pass");
      for (std::size_t begin = 0; begin < n; begin += kBatch) {
        const std::size_t count = std::min(kBatch, n - begin);
        const auto verdicts = std::span(out).subspan(begin, count);
        suspects.clear();
        positions.clear();
        {
          ScopedSpan s(&c.spans, "engine.pre_process_batch", &pre_ns);
          engine.pre_process_batch(inputs.subspan(begin, count), verdicts, suspects, positions);
        }
        if (suspects.empty()) continue;
        suspect_out.resize(suspects.size());
        {
          ScopedSpan s(&c.spans, "engine.finish_suspect_batch", &finish_ns);
          engine.finish_suspect_batch(suspects, suspect_out);
        }
        for (std::size_t j = 0; j < suspects.size(); ++j) verdicts[positions[j]] = suspect_out[j];
        suspects_total += suspects.size();
      }
    }
    wall.push_back(static_cast<double>(now_ns() - start));
    pre.push_back(static_cast<double>(pre_ns));
    finish.push_back(static_cast<double>(finish_ns));
    alert_ns.push_back(static_cast<double>(sink.busy_ns()));
    alerts = sink.count();
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < n; ++i) bad += same_verdict(out[i], c.reference[i]) ? 0 : 1;
    report.attempt(n, bad);
    if (bad != 0) report.problem("split-pipeline verdicts differ from process_batch");
  }
  // The fastest ledger pass, like the fastest serial pass it is held to.
  std::size_t best = 0;
  for (std::size_t i = 1; i < pre.size(); ++i) {
    if (pre[i] + finish[i] < pre[best] + finish[best]) best = i;
  }
  const double flows = static_cast<double>(n);
  const double serial_ns_per_flow = *std::min_element(serial.begin(), serial.end()) * 1e9 / flows;
  const double pre_per_flow = pre[best] / flows;
  const double finish_per_flow = finish[best] / flows;
  const double gap = serial_ns_per_flow - pre_per_flow - finish_per_flow;
  report.metric("engine.serial_ns_per_flow", serial_ns_per_flow, "ns");
  report.metric("engine.pre_ns_per_flow", pre_per_flow, "ns");
  report.metric("engine.finish_ns_per_suspect",
                suspects_total == 0 ? 0.0 : finish[best] / static_cast<double>(suspects_total),
                "ns");
  report.metric("engine.ledger_gap_ns_per_flow", gap, "ns");
  report.metric("trace.overhead_ratio", wall[best] / flows / serial_ns_per_flow, "ratio");
  report.metric("alert.count", static_cast<double>(alerts), "count");
  report.metric("alert.ns_per_alert",
                alerts == 0 ? 0.0 : alert_ns[best] / static_cast<double>(alerts), "ns");
  reconcile(report, "alerts", alerts, c.counts.alerts);
  if (std::abs(gap) > kLedgerTolerance * serial_ns_per_flow) {
    report.problem("engine ledger: stages sum to " +
                   std::to_string(pre_per_flow + finish_per_flow) + " ns/flow against serial " +
                   std::to_string(serial_ns_per_flow) + " ns/flow (tolerance " +
                   std::to_string(static_cast<int>(kLedgerTolerance * 100)) + "%)");
  }
}

}  // namespace

void run_layer_passes(const LayerContext& c, Report& report) {
  engine_ledger(c, report);

  const Prepared& p = c.prepared;
  const std::size_t n = p.inputs.size();

  // -- core/eia: the membership check on every flow; home-ingress lookup and
  // the pending-learn write on every miss (the engine's EIA-stage calls).
  std::vector<std::uint8_t> expected(n);
  std::vector<std::optional<core::IngressId>> home(n);
  {
    core::EiaTable table(p.engine.eia);
    preload_eia(p.spec.config, [&](core::IngressId ingress, const net::Prefix& prefix) {
      table.add_expected(ingress, prefix);
    });
    std::uint64_t ns = 0;
    std::uint64_t hits = 0;
    std::uint64_t writes = 0;
    std::uint64_t learned = 0;
    {
      ScopedSpan s(&c.spans, "eia.pass", &ns);
      for (std::size_t i = 0; i < n; ++i) {
        const auto& [record, ingress, now] = p.inputs[i];
        const bool hit = table.is_expected(ingress, record.src_ip, now);
        expected[i] = hit ? 1 : 0;
        if (hit) {
          ++hits;
          continue;
        }
        home[i] = table.expected_ingress(record.src_ip, now);
        ++writes;
        learned += table.observe_mismatch(ingress, record.src_ip, now) ? 1 : 0;
      }
    }
    reconcile(report, "eia hits", hits, c.counts.eia_hits);
    reconcile(report, "eia misses", n - hits, c.counts.eia_misses);
    reconcile(report, "eia learned", learned, c.counts.eia_learned);
    report.metric("eia.ns_per_flow", per(ns, n), "ns");
    report.metric("eia.miss_ratio", ratio(n - hits, n), "ratio");
    report.metric("eia.learn_writes", static_cast<double>(writes), "count");
    report.metric("eia.pending_counters", static_cast<double>(table.pending_counters()), "count");
    report.metric("eia.memory_bytes", static_cast<double>(table.memory_bytes()), "bytes");
  }

  // -- hopcount: every flow against its witness ingress (the observed one
  // for EIA hits, the source's home for misses). Runs on every workload;
  // counts reconcile only where the engine has TTL detection on.
  {
    hopcount::HopCountAnalysis analysis(p.engine.hopcount);
    std::uint64_t ns = 0;
    std::uint64_t consistent = 0;
    std::uint64_t miss = 0;
    std::uint64_t unknown = 0;
    {
      ScopedSpan s(&c.spans, "hopcount.pass", &ns);
      for (std::size_t i = 0; i < n; ++i) {
        const auto& [record, ingress, now] = p.inputs[i];
        const auto witness = expected[i] != 0 ? std::optional(ingress) : home[i];
        const auto ttl = witness ? analysis.analyze(*witness, record.src_ip, record.ttl,
                                                    now, expected[i] != 0)
                                 : hopcount::TtlClass::kUnknown;
        consistent += ttl == hopcount::TtlClass::kConsistent ? 1 : 0;
        miss += ttl == hopcount::TtlClass::kMiss ? 1 : 0;
        unknown += ttl == hopcount::TtlClass::kUnknown ? 1 : 0;
      }
    }
    if (p.engine.use_hopcount) {
      reconcile(report, "hopcount consistent", consistent, c.counts.hop_consistent);
      reconcile(report, "hopcount miss", miss, c.counts.hop_miss);
      reconcile(report, "hopcount unknown", unknown, c.counts.hop_unknown);
    }
    report.metric("hopcount.ns_per_flow", per(ns, n), "ns");
    report.metric("hopcount.entries", static_cast<double>(analysis.table().size()), "count");
    report.metric("hopcount.miss_ratio", ratio(miss, n), "ratio");
  }

  // -- core/scan: the suspects the engine showed its scan buffer (all but
  // the fused high-confidence verdicts), in dispatch order.
  {
    std::vector<netflow::V5Record> suspects;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& v = c.reference[i];
      if (v.suspect && !(v.attack && v.stage == alert::DetectionStage::kHopCountFusion)) {
        suspects.push_back(p.inputs[i].record);
      }
    }
    core::ScanAnalysis scan(p.engine.scan);
    std::uint64_t ns = 0;
    std::uint64_t flagged = 0;
    {
      ScopedSpan s(&c.spans, "scan.pass", &ns);
      for (const auto& record : suspects) {
        flagged += scan.observe(record) != core::ScanVerdict::kClean ? 1 : 0;
      }
    }
    reconcile(report, "scan analyzed", suspects.size(), c.counts.scan_analyzed);
    reconcile(report, "scan flagged", flagged, c.counts.scan_flagged);
    report.metric("scan.ns_per_suspect", per(ns, suspects.size()), "ns");
    report.metric("scan.flagged_ratio", ratio(flagged, suspects.size()), "ratio");
  }

  // -- nns: TrainedClusters::assess_batch over the flows that reached NNS.
  {
    std::vector<netflow::V5Record> queries;
    std::uint64_t anomalous = 0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!c.reference[i].nns) continue;
      queries.push_back(p.inputs[i].record);
      anomalous += c.reference[i].nns->anomalous ? 1 : 0;
    }
    std::vector<util::Rng> rngs;
    std::vector<core::TrainedClusters::Assessment> out(kBatch);
    core::TrainedClusters::BatchScratch scratch;
    std::uint64_t ns = 0;
    for (std::size_t begin = 0; begin < queries.size(); begin += kBatch) {
      const std::size_t count = std::min(kBatch, queries.size() - begin);
      rngs.clear();
      for (std::size_t j = 0; j < count; ++j) rngs.emplace_back(p.engine.seed + begin + j);
      ScopedSpan s(&c.spans, "nns.assess_batch", &ns);
      c.clusters->assess_batch(std::span(queries).subspan(begin, count), rngs,
                               std::span(out).first(count), scratch);
    }
    reconcile(report, "nns assessed", queries.size(), c.counts.nns_assessed);
    report.metric("nns.ns_per_query", per(ns, queries.size()), "ns");
    report.metric("nns.query_ratio", ratio(queries.size(), n), "ratio");
    report.metric("nns.anomalous_ratio", ratio(anomalous, queries.size()), "ratio");
  }

  // -- netflow: decode_into over the stream's export datagrams.
  {
    std::vector<netflow::V5Record> records(netflow::kV5MaxRecords);
    netflow::V5Header header;
    std::uint64_t ns = 0;
    std::uint64_t decoded = 0;
    std::uint64_t malformed = 0;
    {
      ScopedSpan s(&c.spans, "netflow.decode_pass", &ns);
      for (const auto& datagram : p.datagrams.bytes) {
        std::size_t count = 0;
        if (netflow::decode_into(datagram, header, records, count) == netflow::DecodeStatus::kOk) {
          decoded += count;
        } else {
          ++malformed;
        }
      }
    }
    report.attempt(p.datagrams.bytes.size(), malformed);
    reconcile(report, "netflow records decoded", decoded, n);
    report.metric("netflow.decode_ns_per_record", per(ns, decoded), "ns");
  }
}

}  // namespace perfbench
