// Parameterized sweeps over configuration spaces: topology seeds, KOR
// parameter corners (including the paper-literal settings), flow-cache
// configurations, and experiment knobs.

#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "netflow/flow_cache.h"
#include "nns/kor.h"
#include "routing/internet.h"
#include "routing/routeviews.h"
#include "sim/testbed.h"

namespace infilter {
namespace {

// --- Internet / traceroute invariants across seeds ----------------------

class InternetSeeds : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, InternetSeeds,
                         ::testing::Values(3u, 17u, 255u, 4099u, 70001u));

routing::TopologyConfig sweep_topology() {
  routing::TopologyConfig c;
  c.tier1_count = 3;
  c.tier2_count = 10;
  c.stub_count = 28;
  return c;
}

TEST_P(InternetSeeds, TraceroutesAreWellFormedUnderChurn) {
  routing::Internet internet(sweep_topology(), routing::ChurnRates{}, GetParam());
  const auto n = internet.topology().as_count();
  for (int round = 0; round < 4; ++round) {
    internet.advance(util::kHour);
    for (routing::AsId from = 0; from < n; from += 7) {
      for (routing::AsId to = 2; to < n; to += 11) {
        if (from == to) continue;
        const auto trace = internet.traceroute(from, to);
        if (!trace.complete) continue;  // a partition is legal under churn
        ASSERT_GE(trace.as_path.size(), 2u);
        EXPECT_EQ(trace.as_path.front(), from);
        EXPECT_EQ(trace.as_path.back(), to);
        ASSERT_FALSE(trace.hops.empty());
        // Hop FQDNs name real ASes on the path.
        for (const auto& hop : trace.hops) {
          EXPECT_GE(hop.as, 0);
          EXPECT_LT(hop.as, n);
          EXPECT_NE(hop.fqdn.find(".as"), std::string::npos);
        }
        // The peer/BR extraction is consistent with the AS path.
        const auto* peer = trace.peer_hop();
        const auto* br = trace.br_hop();
        ASSERT_NE(peer, nullptr);
        ASSERT_NE(br, nullptr);
        EXPECT_EQ(peer->as, trace.as_path[trace.as_path.size() - 2]);
        EXPECT_EQ(br->as, to);
      }
    }
  }
}

TEST_P(InternetSeeds, SnapshotTableAnalysisAgreesWithRoutes) {
  const auto topology = routing::AsTopology::generate(sweep_topology(), GetParam());
  const routing::AsId target = static_cast<routing::AsId>(GetParam() % 20);
  const auto prefix = *net::Prefix::parse("100.64.0.0/16");
  const auto table = routing::snapshot_table(topology, target, std::vector{prefix});
  const auto mapping = table.analyze_target(*net::IPv4Address::parse("100.64.3.3"));
  const routing::RouteComputation routes(topology, target);
  for (const auto& [source_asn, peer_asn] : mapping.source_to_peer) {
    const routing::AsId source = source_asn - 7000;
    EXPECT_EQ(peer_asn, topology.as_number(routes.ingress_peer(source)))
        << "source AS" << source_asn;
  }
}

// --- KOR parameter corners ----------------------------------------------

TEST(KorCorners, LiteralPaperConfigurationStillAnswers) {
  // scale_factor 1 (every scale, Figure 6 verbatim), verification off and
  // bucket capacity 1 (Figure 8 verbatim) on a small training set.
  nns::KorParams params;
  params.scale_factor = 1.0;
  params.verification_factor = 0;
  params.bucket_capacity = 1;
  params.seed = 3;

  std::vector<nns::BitVector> training;
  for (int ones = 0; ones <= 96; ones += 8) {
    nns::BitVector v(96);
    for (int i = 0; i < ones; ++i) v.set(i);
    training.push_back(v);
  }
  const nns::KorNns index(training, params);
  util::Rng rng{4};
  int answered = 0;
  for (int q = 0; q <= 96; q += 5) {
    nns::BitVector query(96);
    for (int i = 0; i < q; ++i) query.set(i);
    const auto match = index.search(query, rng);
    if (match.has_value()) {
      ++answered;
      EXPECT_GE(match->index, 0);
      EXPECT_LE(match->distance, 96);
    }
  }
  EXPECT_GT(answered, 10);
}

class KorScaleFactors : public ::testing::TestWithParam<double> {};
INSTANTIATE_TEST_SUITE_P(Factors, KorScaleFactors,
                         ::testing::Values(1.0, 1.2, 1.35, 2.0, 4.0));

TEST_P(KorScaleFactors, CoarserLaddersStayUseful) {
  nns::KorParams params;
  params.scale_factor = GetParam();
  params.seed = 5;
  util::Rng data_rng{6};
  std::vector<nns::BitVector> training;
  for (int i = 0; i < 40; ++i) {
    nns::BitVector v(120);
    const int ones = 30 + static_cast<int>(data_rng.below(20));
    for (int b = 0; b < ones; ++b) v.set(b);
    training.push_back(v);
  }
  const nns::KorNns index(training, params);
  const nns::ExactNns exact(training);
  util::Rng rng{7};
  nns::BitVector query(120);
  for (int b = 0; b < 38; ++b) query.set(b);
  const auto approx = index.search(query, rng);
  const auto truth = exact.search(query, rng);
  ASSERT_TRUE(approx.has_value());
  ASSERT_TRUE(truth.has_value());
  EXPECT_LE(approx->distance, truth->distance + 40);
}

// --- Flow cache configuration sweep -------------------------------------

class CacheConfigs
    : public ::testing::TestWithParam<std::tuple<std::size_t, util::DurationMs>> {};
INSTANTIATE_TEST_SUITE_P(Configs, CacheConfigs,
                         ::testing::Combine(::testing::Values(4u, 32u, 256u),
                                            ::testing::Values(1000u, 15000u)));

TEST_P(CacheConfigs, ConservationHoldsForAnyConfig) {
  const auto [max_entries, idle] = GetParam();
  netflow::FlowCacheConfig config;
  config.max_entries = max_entries;
  config.idle_timeout = idle;
  netflow::FlowCache cache(config);
  util::Rng rng{9};
  std::uint64_t in = 0;
  std::uint64_t out = 0;
  for (int i = 0; i < 1200; ++i) {
    netflow::PacketObservation packet;
    packet.key.src_ip = net::IPv4Address{static_cast<std::uint32_t>(rng.below(60))};
    packet.key.dst_ip = net::IPv4Address{1, 1, 1, 1};
    packet.key.proto = 17;
    packet.bytes = 100;
    packet.time = static_cast<util::TimeMs>(i) * 40;
    cache.observe(packet);
    ++in;
  }
  for (const auto& record : cache.flush(1200 * 40)) out += record.packets;
  EXPECT_EQ(in, out);
}

// --- Experiment knob monotonicity ----------------------------------------

class RouteChangeLevels : public ::testing::TestWithParam<int> {};
INSTANTIATE_TEST_SUITE_P(Levels, RouteChangeLevels, ::testing::Values(1, 2, 4, 8));

TEST_P(RouteChangeLevels, BasicFalsePositivesTrackRouteChangeLevel) {
  sim::ExperimentConfig config;
  config.normal_flows_per_source = 1200;
  config.training_flows = 400;
  config.engine.use_scan_analysis = config.engine.use_nns = false;
  config.companion_fraction = 0;
  config.ingress_drift = 0;
  config.route_change_blocks = GetParam();
  config.seed = 77;
  const auto result = sim::run_experiment(config);
  // FP rate lands in a band around the nominal route-change share, minus
  // what auto-learning absorbs (never more than the share itself).
  const double nominal = GetParam() / 100.0;
  EXPECT_LE(result.false_positive_rate(), nominal * 1.1);
  EXPECT_GE(result.false_positive_rate(), nominal * 0.35);
}

}  // namespace
}  // namespace infilter
