// Tests for cluster partitioning and NNS training (core/cluster.h).

#include "core/cluster.h"

#include <gtest/gtest.h>

#include <set>
#include <string_view>
#include <type_traits>

#include "dagflow/dagflow.h"
#include "traffic/normal.h"

namespace infilter::core {
namespace {

netflow::V5Record make_record(std::uint8_t proto, std::uint16_t dst_port,
                              std::uint32_t packets = 10, std::uint32_t bytes = 5000,
                              std::uint32_t duration = 1000) {
  netflow::V5Record r;
  r.proto = proto;
  r.dst_port = dst_port;
  r.packets = packets;
  r.bytes = bytes;
  r.first = 0;
  r.last = duration;
  return r;
}

// gtest names each case by a byte dump of it, so the padding is spelled
// out and zeroed: implicit padding would put stray bytes in the name.
struct ClassifyCase {
  ClassifyCase(std::uint8_t p, std::uint16_t port, Subcluster e)
      : proto(p), dst_port(port), expected(e) {}

  std::uint8_t proto;
  std::uint8_t pad0 = 0;
  std::uint16_t dst_port;
  Subcluster expected;
  std::uint8_t pad1 = 0;
};
static_assert(std::has_unique_object_representations_v<ClassifyCase>);

class ClassifyTest : public ::testing::TestWithParam<ClassifyCase> {};

TEST_P(ClassifyTest, MapsToPaperSubcluster) {
  const auto& c = GetParam();
  EXPECT_EQ(classify(make_record(c.proto, c.dst_port)), c.expected);
}

INSTANTIATE_TEST_SUITE_P(
    PaperPartition, ClassifyTest,
    ::testing::Values(ClassifyCase{6, 80, Subcluster::kHttp},
                      ClassifyCase{6, 25, Subcluster::kSmtp},
                      ClassifyCase{6, 21, Subcluster::kFtp},
                      ClassifyCase{17, 53, Subcluster::kDns},
                      ClassifyCase{17, 5353, Subcluster::kUdp},
                      ClassifyCase{17, 80, Subcluster::kUdp},  // udp/80 is not http
                      ClassifyCase{6, 443, Subcluster::kTcp},
                      ClassifyCase{6, 53, Subcluster::kTcp},  // tcp/53 is not dns
                      ClassifyCase{1, 0, Subcluster::kIcmp},
                      ClassifyCase{47, 0, Subcluster::kTcp}));  // GRE -> generic

TEST(SubclusterNames, AllDistinct) {
  std::set<std::string_view> names;
  for (int c = 0; c < kSubclusterCount; ++c) {
    EXPECT_TRUE(names.insert(subcluster_name(static_cast<Subcluster>(c))).second);
  }
}

TEST(FlowEncoder, PaperDimensionIs720) {
  const auto encoder = make_flow_encoder(144);
  EXPECT_EQ(encoder.dimension(), 720);
  EXPECT_EQ(encoder.feature_count(), 5u);
}

ClusterConfig fast_config() {
  ClusterConfig c;
  c.bits_per_feature = 48;  // d = 240: faster tests, same structure
  return c;
}

std::vector<netflow::V5Record> training_records(std::size_t count,
                                                std::uint64_t seed = 1) {
  traffic::NormalTrafficModel model;
  util::Rng rng{seed};
  const auto trace = model.generate(count, 0, rng);
  dagflow::Dagflow replayer(dagflow::DagflowConfig{},
                            dagflow::AddressPool::from_subblocks(
                                {*net::SubBlock::parse("1a")}),
                            seed);
  std::vector<netflow::V5Record> records;
  for (const auto& labeled : replayer.replay(trace)) records.push_back(labeled.record);
  return records;
}

TEST(TrainedClusters, PartitionsTrainingFlows) {
  const auto records = training_records(800);
  const TrainedClusters clusters(records, fast_config(), 7);
  std::size_t total = 0;
  for (int c = 0; c < kSubclusterCount; ++c) {
    total += clusters.training_size(static_cast<Subcluster>(c));
  }
  EXPECT_EQ(total, records.size());
  EXPECT_GT(clusters.training_size(Subcluster::kHttp), 100u);
  EXPECT_GT(clusters.training_size(Subcluster::kDns), 50u);
}

TEST(TrainedClusters, ThresholdsArePositiveAndBounded) {
  const auto records = training_records(600);
  const TrainedClusters clusters(records, fast_config(), 8);
  for (int c = 0; c < kSubclusterCount; ++c) {
    const int t = clusters.threshold(static_cast<Subcluster>(c));
    EXPECT_GT(t, 0) << subcluster_name(static_cast<Subcluster>(c));
    EXPECT_LE(t, clusters.dimension());
  }
}

TEST(TrainedClusters, TrainingFlowAssessesWithinThreshold) {
  const auto records = training_records(500);
  const TrainedClusters clusters(records, fast_config(), 9);
  util::Rng rng{10};
  int anomalous = 0;
  for (std::size_t i = 0; i < records.size(); i += 10) {
    const auto a = clusters.assess(records[i], rng);
    anomalous += a.anomalous ? 1 : 0;
  }
  // Flows the structure was trained on are almost never anomalous (KOR
  // approximation noise allows rare misses).
  EXPECT_LE(anomalous, 3);
}

TEST(TrainedClusters, AssessBatchMatchesAssessBitForBit) {
  const auto records = training_records(600);
  const TrainedClusters clusters(records, fast_config(), 14);
  const auto mixed = training_records(400, 3);

  // Per-flow reference: each flow gets its own RNG, as the engine's
  // per-flow probe-seed derivation does.
  std::vector<util::Rng> serial_rngs;
  std::vector<util::Rng> batch_rngs;
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    serial_rngs.emplace_back(5000 + 11 * i);
    batch_rngs.emplace_back(5000 + 11 * i);
  }
  std::vector<TrainedClusters::Assessment> batched(mixed.size());
  TrainedClusters::BatchScratch scratch;
  clusters.assess_batch(mixed, batch_rngs, batched, scratch);
  for (std::size_t i = 0; i < mixed.size(); ++i) {
    const auto serial = clusters.assess(mixed[i], serial_rngs[i]);
    EXPECT_EQ(serial.anomalous, batched[i].anomalous) << "flow " << i;
    EXPECT_EQ(serial.cluster, batched[i].cluster) << "flow " << i;
    EXPECT_EQ(serial.distance, batched[i].distance) << "flow " << i;
    EXPECT_EQ(serial.threshold, batched[i].threshold) << "flow " << i;
    EXPECT_EQ(serial_rngs[i](), batch_rngs[i]()) << "flow " << i;
  }
}

TEST(TrainedClusters, AssessBatchCountsEveryQueryOnce) {
  const auto records = training_records(500);
  const TrainedClusters clusters(records, fast_config(), 15);
  const auto queries = training_records(100, 4);
  std::vector<util::Rng> rngs(queries.size(), util::Rng{9});
  std::vector<TrainedClusters::Assessment> out(queries.size());
  TrainedClusters::BatchScratch scratch;
  const auto before = clusters.stats();
  clusters.assess_batch(queries, rngs, out, scratch);
  const auto after = clusters.stats();
  EXPECT_EQ(after.assessments - before.assessments, queries.size());
}

TEST(TrainedClusters, FreshNormalFlowsMostlyPass) {
  const auto records = training_records(800, 1);
  const TrainedClusters clusters(records, fast_config(), 11);
  const auto fresh = training_records(300, 2);  // different seed
  util::Rng rng{12};
  int anomalous = 0;
  for (const auto& record : fresh) {
    anomalous += clusters.assess(record, rng).anomalous ? 1 : 0;
  }
  EXPECT_LT(static_cast<double>(anomalous) / static_cast<double>(fresh.size()), 0.08);
}

TEST(TrainedClusters, FloodIsAnomalous) {
  const auto records = training_records(800);
  const TrainedClusters clusters(records, fast_config(), 13);
  util::Rng rng{14};
  // TFN2K-style udp flood: 3000 packets x 1000 B in 2 s.
  const auto flood = make_record(17, 7777, 3000, 3000000, 2000);
  const auto assessment = clusters.assess(flood, rng);
  EXPECT_EQ(assessment.cluster, Subcluster::kUdp);
  EXPECT_TRUE(assessment.anomalous);
}

TEST(TrainedClusters, TinyProbeIsAnomalousInHttpCluster) {
  const auto records = training_records(800);
  const TrainedClusters clusters(records, fast_config(), 15);
  util::Rng rng{16};
  // 1-packet 40-byte SYN at tcp/80: far below the http cluster's floor.
  const auto probe = make_record(6, 80, 1, 40, 0);
  const auto assessment = clusters.assess(probe, rng);
  EXPECT_EQ(assessment.cluster, Subcluster::kHttp);
  EXPECT_TRUE(assessment.anomalous);
}

TEST(TrainedClusters, EmptySubclusterReportsAnomalous) {
  // Train with http flows only; an icmp query has no neighbors.
  std::vector<netflow::V5Record> records;
  for (int i = 0; i < 50; ++i) {
    records.push_back(make_record(6, 80, 10 + static_cast<std::uint32_t>(i), 5000));
  }
  const TrainedClusters clusters(records, fast_config(), 17);
  util::Rng rng{18};
  const auto assessment = clusters.assess(make_record(1, 0), rng);
  EXPECT_EQ(assessment.cluster, Subcluster::kIcmp);
  EXPECT_TRUE(assessment.anomalous);
  EXPECT_EQ(assessment.distance, -1);
}

TEST(TrainedClusters, ExactIndexMatchesClassification) {
  ClusterConfig config = fast_config();
  config.use_exact_nns = true;
  const auto records = training_records(400);
  const TrainedClusters clusters(records, config, 19);
  util::Rng rng{20};
  const auto flood = make_record(17, 7777, 3000, 3000000, 2000);
  EXPECT_TRUE(clusters.assess(flood, rng).anomalous);
  const auto assessment = clusters.assess(records[7], rng);
  EXPECT_FALSE(assessment.anomalous);
  EXPECT_EQ(assessment.distance, 0);  // exact index finds the identical flow
}

TEST(TrainedClusters, HigherPercentileRaisesThreshold) {
  const auto records = training_records(500);
  ClusterConfig strict = fast_config();
  strict.threshold_percentile = 0.5;
  ClusterConfig loose = fast_config();
  loose.threshold_percentile = 0.999;
  const TrainedClusters a(records, strict, 21);
  const TrainedClusters b(records, loose, 21);
  int raised = 0;
  for (int c = 0; c < kSubclusterCount; ++c) {
    EXPECT_LE(a.threshold(static_cast<Subcluster>(c)),
              b.threshold(static_cast<Subcluster>(c)));
    raised += b.threshold(static_cast<Subcluster>(c)) >
                      a.threshold(static_cast<Subcluster>(c))
                  ? 1
                  : 0;
  }
  EXPECT_GT(raised, 0);
}

TEST(TrainedClusters, EncodeUsesFiveStatistics) {
  const auto records = training_records(100);
  const TrainedClusters clusters(records, fast_config(), 22);
  const auto r1 = make_record(6, 80, 10, 5000, 1000);
  auto r2 = r1;
  r2.bytes = 500000;  // only byte count (and bit rate) differ
  EXPECT_GT(clusters.encode(r1).hamming_distance(clusters.encode(r2)), 0);
}

}  // namespace
}  // namespace infilter::core
