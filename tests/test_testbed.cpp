// Tests for the Section 6 testbed harness (sim/testbed.h).

#include "sim/testbed.h"

#include <gtest/gtest.h>

namespace infilter::sim {
namespace {

ExperimentConfig small_config() {
  ExperimentConfig c;
  c.normal_flows_per_source = 1500;
  c.training_flows = 600;
  c.attack_volume = 0.04;
  c.engine.cluster.bits_per_feature = 48;  // d = 240: fast tests
  c.seed = 21;
  return c;
}

TEST(Testbed, BasicModeDetectsEveryInstance) {
  ExperimentConfig config = small_config();
  config.engine.use_scan_analysis = config.engine.use_nns = false;
  const auto result = run_experiment(config);
  // Every attack flow is spoofed, so BI flags every instance
  // ("the detection rate stays flat at almost 100% for the Basic InFilter").
  EXPECT_EQ(result.attack_instances, traffic::kStandardAttackKindCount);
  EXPECT_EQ(result.detected_instances, result.attack_instances);
  EXPECT_EQ(result.detected_attack_flows, result.attack_flows);
  EXPECT_EQ(result.alerts_scan, 0u);
  EXPECT_EQ(result.alerts_nns, 0u);
}

TEST(Testbed, EnhancedModeDetectsMostInstances) {
  ExperimentConfig config = small_config();
  const auto result = run_experiment(config);
  EXPECT_EQ(result.attack_instances, traffic::kStandardAttackKindCount);
  // The test config is tiny (attack intensity ~0.1), so scan attacks of a
  // dozen flows are genuinely hard; at paper scale detection is ~83%.
  EXPECT_GE(result.detection_rate(), 0.5);
  // EI trades some detection for false-positive reduction; it must not be
  // perfect on the stealthy attacks.
  EXPECT_GT(result.alerts_scan + result.alerts_nns, 0u);
  EXPECT_EQ(result.alerts_eia, 0u);  // enhanced mode never alerts at EIA stage
}

TEST(Testbed, NoDriftNoRouteChangeNoCompanionsMeansNoFalsePositives) {
  ExperimentConfig config = small_config();
  config.ingress_drift = 0;
  config.companion_fraction = 0;
  config.engine.use_scan_analysis = config.engine.use_nns = false;
  const auto result = run_experiment(config);
  EXPECT_EQ(result.false_positives, 0u);
}

TEST(Testbed, DriftCreatesBoundedFalsePositivesUnderBasic) {
  ExperimentConfig config = small_config();
  config.ingress_drift = 0.02;
  config.companion_fraction = 0;
  config.engine.use_scan_analysis = config.engine.use_nns = false;
  const auto result = run_experiment(config);
  EXPECT_GT(result.false_positives, 0u);
  // FP rate is at most the drift level (auto-learning can only reduce it).
  EXPECT_LE(result.false_positive_rate(), 0.03);
}

TEST(Testbed, EnhancedReducesFalsePositivesVersusBasic) {
  ExperimentConfig config = small_config();
  config.route_change_blocks = 4;
  config.engine.use_scan_analysis = config.engine.use_nns = false;
  const auto basic = run_experiment(config);
  config.engine.use_scan_analysis = config.engine.use_nns = true;
  const auto enhanced = run_experiment(config);
  EXPECT_LT(enhanced.false_positive_rate(), basic.false_positive_rate());
}

TEST(Testbed, RouteChangeRaisesFalsePositives) {
  ExperimentConfig config = small_config();
  config.engine.use_scan_analysis = config.engine.use_nns = false;
  config.ingress_drift = 0;
  config.companion_fraction = 0;
  config.route_change_blocks = 0;
  const auto calm = run_experiment(config);
  config.route_change_blocks = 8;
  const auto churned = run_experiment(config);
  EXPECT_GT(churned.false_positive_rate(), calm.false_positive_rate());
}

TEST(Testbed, StressSpreadsAttacksAcrossAllIngresses) {
  ExperimentConfig config = small_config();
  config.normal_flows_per_source = 800;
  config.attacked_ingresses = config.sources;
  const auto result = run_experiment(config);
  EXPECT_EQ(result.attack_instances,
            traffic::kStandardAttackKindCount * config.sources);
  EXPECT_GT(result.attack_flows,
            10 * 0.8 * config.attack_volume * config.normal_flows_per_source);
}

TEST(Testbed, AttackVolumeScalesAttackFlows) {
  ExperimentConfig config = small_config();
  config.attack_volume = 0.02;
  const auto low = run_experiment(config);
  config.attack_volume = 0.08;
  const auto high = run_experiment(config);
  EXPECT_GT(high.attack_flows, 3 * low.attack_flows);
}

TEST(Testbed, DeterministicForSeed) {
  const auto a = run_experiment(small_config());
  const auto b = run_experiment(small_config());
  EXPECT_EQ(a.detected_instances, b.detected_instances);
  EXPECT_EQ(a.false_positives, b.false_positives);
  EXPECT_EQ(a.attack_flows, b.attack_flows);
}

TEST(Testbed, PerKindAccountingSumsToTotals) {
  const auto result = run_experiment(small_config());
  int instances = 0;
  int detected = 0;
  for (const auto& [total, hit] : result.per_kind) {
    instances += total;
    detected += hit;
    EXPECT_LE(hit, total);
  }
  EXPECT_EQ(instances, result.attack_instances);
  EXPECT_EQ(detected, result.detected_instances);
}

TEST(Testbed, ClusterCacheReusesTraining) {
  ExperimentConfig config = small_config();
  ClusterCache cache(config);
  const auto first = cache.get(99);
  const auto second = cache.get(99);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_NE(cache.get(100).get(), first.get());
}

TEST(Testbed, RunAveragedAggregatesRuns) {
  ExperimentConfig config = small_config();
  config.normal_flows_per_source = 600;
  config.training_flows = 400;
  ClusterCache cache(config);
  const auto averaged = run_averaged(config, 2, &cache);
  EXPECT_EQ(averaged.runs, 2);
  EXPECT_GE(averaged.detection_rate, 0.0);
  EXPECT_LE(averaged.detection_rate, 1.0);
  EXPECT_GE(averaged.false_positive_rate, 0.0);
}

// -- TTL scenario (src/hopcount fusion) --

TEST(Testbed, TtlScenarioLaunchesTtlKindsAndStampsTtls) {
  ExperimentConfig config = small_config();
  config.ttl_scenario = true;
  const auto stream = generate_stream(config);
  EXPECT_EQ(stream.instances.size(),
            static_cast<std::size_t>(traffic::kAttackKindCount));
  for (const auto& flow : stream.flows) EXPECT_GT(flow.record.ttl, 0);

  config.ttl_scenario = false;
  const auto plain = generate_stream(config);
  EXPECT_EQ(plain.instances.size(),
            static_cast<std::size_t>(traffic::kStandardAttackKindCount));
  for (const auto& flow : plain.flows) EXPECT_EQ(flow.record.ttl, 0);
}

// Stamping is pure hashing: the standard part of the TTL stream must be
// field-for-field the plain stream (only ttl differs, plus the appended
// TTL-kind instances). This is what makes EIA-only vs fused runs of the
// same seed a controlled comparison.
TEST(Testbed, TtlStampingLeavesStandardStreamUnchanged) {
  ExperimentConfig config = small_config();
  const auto plain = generate_stream(config);
  config.ttl_scenario = true;
  const auto stamped = generate_stream(config);
  ASSERT_GE(stamped.flows.size(), plain.flows.size());
  std::size_t matched = 0;
  for (std::size_t i = 0, j = 0; i < plain.flows.size() && j < stamped.flows.size();
       ++j) {
    // The TTL streams interleave extra in-EIA attack flows; skip them.
    auto expect = plain.flows[i].record;
    auto got = stamped.flows[j].record;
    expect.ttl = 0;
    got.ttl = 0;
    if (expect == got && plain.flows[i].attack == stamped.flows[j].attack) {
      ++i;
      ++matched;
    }
  }
  EXPECT_EQ(matched, plain.flows.size());
}

// The headline scenario: forged-but-valid sources sail through the EIA
// check (SMap's observation), so EIA-only detection of the in-EIA kinds is
// exactly zero; fusing the TTL witness catches them.
TEST(Testbed, TtlFusionCatchesInEiaSpoofsThatEiaAloneCannotSee) {
  ExperimentConfig config = small_config();
  config.ttl_scenario = true;
  const auto eia_only = run_experiment(config);
  config.engine.use_hopcount = true;
  const auto fused = run_experiment(config);

  const auto& kind_of = [](const ExperimentResult& r, traffic::AttackKind k) {
    return r.per_kind[static_cast<std::size_t>(k)];
  };
  // EIA-only: the in-EIA instances are launched but invisible.
  EXPECT_EQ(eia_only.attack_instances, traffic::kAttackKindCount);
  EXPECT_EQ(kind_of(eia_only, traffic::AttackKind::kInEiaSpoofFlood).second, 0);
  EXPECT_EQ(eia_only.alerts_fused, 0u);
  // Fused: the plain in-EIA spoof flood is caught.
  EXPECT_EQ(kind_of(fused, traffic::AttackKind::kInEiaSpoofFlood).second, 1);
  // Out-of-EIA spoofed kinds carry the attacker's path too: EIA miss + TTL
  // miss promotes them to high-confidence fused alerts.
  EXPECT_GT(fused.alerts_fused, 0u);
  EXPECT_GE(fused.detected_instances, eia_only.detected_instances);
  // Benign false-suspect budget: honest traffic classifies consistent (or
  // unknown while ranges warm up), so the TTL stage adds at most a sliver
  // of benign suspects on top of the EIA-mismatch baseline.
  EXPECT_LE(fused.benign_suspect_rate(), eia_only.benign_suspect_rate() + 0.01);
  // And the final false-positive rate must not regress.
  EXPECT_LE(fused.false_positive_rate(), eia_only.false_positive_rate() + 0.005);
}

TEST(Testbed, TrainClustersCoversAllSubclusters) {
  const auto clusters = train_clusters(small_config());
  ASSERT_NE(clusters, nullptr);
  std::size_t total = 0;
  for (int c = 0; c < core::kSubclusterCount; ++c) {
    total += clusters->training_size(static_cast<core::Subcluster>(c));
  }
  EXPECT_EQ(total, small_config().training_flows);
}

}  // namespace
}  // namespace infilter::sim
