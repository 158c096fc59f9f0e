// The InFilter analysis engine: Basic (EIA only) and Enhanced
// (EIA -> Scan Analysis -> NNS) configurations, implementing the Normal
// processing phase of Figure 12 and the training phase of Figure 11.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>

#include "alert/idmef.h"
#include "core/cluster.h"
#include "core/eia.h"
#include "core/scan.h"
#include "hopcount/hopcount.h"
#include "netflow/v5.h"
#include "obs/metrics.h"
#include "obs/pipeline.h"

namespace infilter::core {

/// The two software configurations of Section 6.3.
enum class EngineMode : std::uint8_t {
  kBasic,     ///< "BI": EIA set analysis alone
  kEnhanced,  ///< "EI": EIA -> Scan Analysis -> NNS
};

struct EngineConfig {
  EngineMode mode = EngineMode::kEnhanced;
  EiaTableConfig eia;
  ScanConfig scan;
  ClusterConfig cluster;
  /// Ablation switches (both true reproduces the paper's EI pipeline).
  bool use_scan_analysis = true;
  bool use_nns = true;
  /// TTL hop-count detection (src/hopcount), fused with the EIA check:
  /// EIA miss + TTL miss is a high-confidence spoof (kHopCountFusion,
  /// skipping scan/NNS); an in-EIA flow with the wrong path length
  /// becomes a suspect and feeds scan/NNS like any EIA miss. Off by
  /// default: records without TTLs classify as unknown and the fusion
  /// never fires, but the classify/learn work is skipped entirely.
  bool use_hopcount = false;
  hopcount::HopCountConfig hopcount;
  /// Seeds the NNS probe randomness. The probe RNG is derived *per flow*
  /// from (seed, flow fields), never from a sequential stream, so a
  /// flow's verdict depends only on the engine's configuration, its
  /// trained clusters, and the previously processed flows that share the
  /// verdict-relevant state keys (EIA learning: the flow's (ingress,
  /// source /24); scan analysis: the whole suspect buffer) -- not on how
  /// many unrelated flows happened to be processed first. The sharded
  /// runtime (src/runtime) relies on this for serial-equivalence.
  std::uint64_t seed = 1;
  /// External metrics registry (not owned). Null: the engine creates a
  /// private registry, reachable via registry(). The engine registers
  /// pull-style component metrics (EIA/scan/NNS internals) that read its
  /// members, so an external registry must not be snapshotted after the
  /// engine is destroyed.
  obs::Registry* registry = nullptr;
};

/// One flow for the batch API: the arguments of process() as a value, so a
/// dequeued batch can be handed to process_batch() as one contiguous span.
struct FlowInput {
  netflow::V5Record record;
  IngressId ingress = 0;
  util::TimeMs now = 0;
};

/// Outcome of processing one flow.
struct Verdict {
  bool attack = false;
  alert::DetectionStage stage = alert::DetectionStage::kEiaMismatch;
  /// True when the EIA check failed (also true for every attack verdict).
  bool suspect = false;
  /// NNS diagnostics, when the flow reached NNS analysis.
  std::optional<TrainedClusters::Assessment> nns;
};

/// A flow that failed the EIA check, detached from the engine that ran the
/// check: everything the post-EIA stages (scan analysis, NNS, alert
/// emission) need to finish the verdict. The sharded runtime forwards
/// these from the per-shard EIA stages to one shared scan-stage engine
/// (runtime/runtime.h), which is what keeps the destination-keyed suspect
/// buffer global -- and scan verdicts serial-exact -- under sharding.
struct SuspectFlow {
  netflow::V5Record record;
  IngressId ingress = 0;
  util::TimeMs now = 0;
  /// The EIA auto-learning rule fired on this flow (Section 5.2): the
  /// mismatch is treated as the route change it signals, not an attack.
  bool learned = false;
  /// Expected-ingress alert context, snapshotted at EIA-check time --
  /// before later flows can mutate the EIA table that produced it.
  std::optional<IngressId> expected;
  /// TTL classification, snapshotted against the hop-count table at
  /// pre-process time (per-shard state, like the EIA check); kUnknown
  /// when TTL detection is off.
  hopcount::TtlClass ttl = hopcount::TtlClass::kUnknown;
  /// The flow passed the EIA check and is a suspect only because of its
  /// TTL (in-EIA spoof suspicion).
  bool eia_hit = false;
};

class InFilterEngine {
 public:
  /// `sink` may be null (no alert emission); not owned.
  explicit InFilterEngine(EngineConfig config, alert::AlertSink* sink = nullptr);

  /// Immovable: the registry holds pull-style callbacks bound to this
  /// engine's address.
  InFilterEngine(const InFilterEngine&) = delete;
  InFilterEngine& operator=(const InFilterEngine&) = delete;

  // -- Training phase (Figure 11) --

  /// Preloads an EIA entry (Section 5.1.3a; Table 3 in the testbed).
  void add_expected(IngressId ingress, const net::Prefix& prefix);

  /// Builds the Normal cluster, partitions it, and constructs the NNS
  /// search structures (Sections 5.1.3 b-d). Replaces any prior training.
  void train(std::span<const netflow::V5Record> normal_flows);

  /// Installs pre-built search structures. The paper constructs the NNS
  /// structures once "prior to the experiment runs"; sharing one trained
  /// set across engines mirrors that and avoids retraining per run.
  void set_clusters(std::shared_ptr<const TrainedClusters> clusters);

  // -- Normal processing phase (Figure 12) --

  /// Processes one incoming flow observed at `ingress` at virtual time
  /// `now`. Emits an IDMEF alert through the sink on attack verdicts. A
  /// batch of one over process_batch(): a convenience, not a second
  /// pipeline.
  Verdict process(const netflow::V5Record& record, IngressId ingress,
                  util::TimeMs now);

  /// The Figure 12 pipeline over a batch: out[i] is the verdict of flows[i],
  /// the stateful stages (EIA learning, hop-count learning, scan buffer)
  /// observe flows in batch order, alerts reach the sink in flow order, and
  /// verdicts, alert ids/contents and counter totals do not depend on how
  /// a flow sequence is cut into batches (tests/test_batch.cpp pins batch
  /// sizes 1, 7 and 256 bit-for-bit). What batching buys: the NNS stage
  /// runs once over the whole batch through TrainedClusters::assess_batch
  /// (contiguous probe tables, pooled encodings -- zero per-flow
  /// allocations at steady state). Latency histograms record
  /// batch-amortized per-flow values.
  /// Precondition: flows.size() == out.size().
  void process_batch(std::span<const FlowInput> flows, std::span<Verdict> out);

  // -- The two halves of process_batch (the sharded runtime's split) --
  //
  // process_batch() == pre_process_batch() then finish_suspect_batch() over
  // the suspects, on the same engine. The split exists so the runtime can
  // run the EIA stage on per-shard engines (state keyed by the shard hash)
  // while one shared engine runs the destination-keyed stages for every
  // shard's suspects in the one total dispatch order the runtime's
  // sequence tags define -- with one producer that is submission order;
  // with several it is the realized claim order (runtime/runtime.h). The
  // halves divide the per-flow metrics between them: pre_process_batch
  // owns flows_total, the EIA and hop-count stage counters and the
  // legal-flow verdict/latency metrics; finish_suspect_batch owns the
  // scan/NNS stage counters, the suspect verdict/latency metrics and alert
  // emission -- so a merged snapshot over both engines reaches exactly the
  // serial engine's totals.

  /// The EIA stage alone: the membership check, the TTL witness and the
  /// Section 5.2 auto-learning rule. out[i] is final for legal flows;
  /// suspect flows get out[i].suspect set (attack verdict undecided) and
  /// are appended to `suspects` (their batch positions to `positions`) for
  /// a finish_suspect_batch() call -- on this engine or another one.
  /// Neither vector is cleared. Precondition: flows.size() == out.size().
  void pre_process_batch(std::span<const FlowInput> flows, std::span<Verdict> out,
                         std::vector<SuspectFlow>& suspects,
                         std::vector<std::uint32_t>& positions);

  /// The post-EIA stages alone: scan analysis -> NNS -> alert emission,
  /// against *this* engine's scan buffer, clusters and sink. The stateful
  /// scan stage observes suspects in span order, the NNS stage runs once
  /// over the whole batch, and alerts are emitted in span order.
  /// Precondition: suspects.size() == out.size().
  void finish_suspect_batch(std::span<const SuspectFlow> suspects,
                            std::span<Verdict> out);

  /// Installs a previously learned hop-count table (training-phase
  /// preload / import), replacing the current one.
  void install_hopcount(hopcount::HopCountTable table) {
    hopcount_.install(std::move(table));
  }

  [[nodiscard]] const EiaTable& eia() const { return eia_; }
  /// Mutable table access for persistence restore and shard-state
  /// migration (lifecycle/migrate.h) -- not for the flow hot path.
  [[nodiscard]] EiaTable& eia_mut() { return eia_; }
  [[nodiscard]] const hopcount::HopCountTable& hopcount_table() const {
    return hopcount_.table();
  }

  /// Eagerly expires idled EIA entries at virtual time `now`
  /// (EiaTable::age_sweep): verdict-neutral removal of idle membership;
  /// the age tombstones stay. Returns the number expired; 0 when aging is
  /// off.
  std::size_t age_sweep(util::TimeMs now) { return eia_.age_sweep(now); }
  [[nodiscard]] const TrainedClusters* clusters() const { return clusters_.get(); }
  [[nodiscard]] ScanAnalysis& scan() { return scan_; }
  [[nodiscard]] const ScanAnalysis& scan() const { return scan_; }
  [[nodiscard]] const EngineConfig& config() const { return config_; }

  /// The registry every pipeline metric lives in (the external one when
  /// EngineConfig::registry was set, the engine-private one otherwise).
  [[nodiscard]] obs::Registry& registry() { return *registry_; }
  [[nodiscard]] const obs::Registry& registry() const { return *registry_; }
  /// Direct handles to the per-stage counters and latency histograms.
  [[nodiscard]] const obs::PipelineMetrics& metrics() const { return metrics_; }

  [[nodiscard]] std::uint64_t flows_processed() const {
    return metrics_.flows_total->value();
  }
  /// Alerts actually delivered to the sink -- 0 when no sink is attached.
  [[nodiscard]] std::uint64_t alerts_emitted() const {
    return metrics_.alerts_total->value();
  }

  /// Ground-truth hook (infilter_eia_bloom_false_suspects_total): a caller
  /// that knows a flow was benign -- only the testbed does -- reports that
  /// it still drew a suspect verdict. Counted only while a probabilistic
  /// EIA backend is active; the exact backend cannot produce membership
  /// false positives, so its benign suspects are the learning-phase
  /// baseline, not backend artifacts. Subtract an exact-backend run on the
  /// same seed to isolate the Bloom-attributable share (bench/eia_scale).
  void note_ground_truth_benign_suspect() {
    if (eia_.backend().type() != EiaBackendType::kExact) ++eia_false_suspects_;
  }

 private:
  /// Alert construction with the expected-ingress context precomputed:
  /// pre_process_batch snapshots it at EIA-check time (before later flows
  /// mutate the EIA table that produced it), so emission can happen
  /// arbitrarily later -- or on another engine -- with the per-flow alert
  /// content reproduced exactly. No sink, no alert: the verdict counters already
  /// account for the detection, and alert ids stay dense over *delivered*
  /// alerts. Precondition: sink_ != nullptr.
  void emit_alert_with(const netflow::V5Record& record, IngressId ingress,
                       util::TimeMs now, const Verdict& verdict,
                       std::optional<IngressId> expected);
  void register_component_metrics();

  /// process_batch working memory: pools that grow to the high-water batch
  /// size, then stop allocating. The engine is driven by one thread (each
  /// runtime shard owns its engine), so member scratch is safe.
  struct BatchScratch {
    std::vector<std::uint32_t> nns_ids;  ///< batch positions reaching NNS
    std::vector<netflow::V5Record> nns_records;
    std::vector<util::Rng> nns_rngs;
    std::vector<TrainedClusters::Assessment> nns_out;
    /// process_batch staging between its pre and finish halves.
    std::vector<SuspectFlow> suspects;
    std::vector<std::uint32_t> suspect_positions;
    std::vector<Verdict> suspect_verdicts;
    TrainedClusters::BatchScratch clusters;
  };

  EngineConfig config_;
  alert::AlertSink* sink_;
  EiaTable eia_;
  hopcount::HopCountAnalysis hopcount_;
  ScanAnalysis scan_;
  std::shared_ptr<const TrainedClusters> clusters_;
  std::unique_ptr<obs::Registry> owned_registry_;  ///< when config.registry == null
  obs::Registry* registry_;                        ///< never null
  obs::PipelineMetrics metrics_;
  std::uint64_t next_alert_id_ = 0;
  std::uint64_t eia_false_suspects_ = 0;  ///< note_ground_truth_benign_suspect()
  BatchScratch batch_scratch_;
};

}  // namespace infilter::core
