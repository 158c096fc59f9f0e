// Tests for the deployable analysis node (app/node.h): the full live
// pipeline -- ingest receivers into the sharded runtime -- over real
// loopback sockets.

#include "app/node.h"

#include <gtest/gtest.h>

#include "dagflow/dagflow.h"
#include "flowtools/udp.h"
#include "netflow/v5.h"
#include "traffic/attacks.h"
#include "traffic/normal.h"

namespace infilter::app {
namespace {

std::vector<netflow::V5Record> training_records(std::uint64_t seed) {
  traffic::NormalTrafficModel model;
  util::Rng rng{seed};
  const auto trace = model.generate(600, 0, rng);
  dagflow::Dagflow replayer(
      dagflow::DagflowConfig{},
      dagflow::AddressPool::from_subblocks({*net::SubBlock::parse("1a")}), seed);
  std::vector<netflow::V5Record> records;
  for (const auto& labeled : replayer.replay(trace)) records.push_back(labeled.record);
  return records;
}

NodeConfig test_config(std::vector<std::uint16_t> ports) {
  NodeConfig config;
  config.ports = std::move(ports);
  config.engine.cluster.bits_per_feature = 48;
  config.engine.seed = 5;
  return config;
}

void preload_table3(InFilterNode& node, std::span<const std::uint16_t> ports) {
  // Map source s's Table 3 blocks to the s-th bound port.
  for (std::size_t s = 0; s < ports.size(); ++s) {
    for (const auto& block : dagflow::eia_range(static_cast<int>(s)).expand()) {
      node.add_expected(ports[s], block.prefix());
    }
  }
}

TEST(InFilterNode, BindsEphemeralPorts) {
  auto node = InFilterNode::create(test_config({0, 0, 0}));
  ASSERT_TRUE(node.has_value()) << node.error().message;
  const auto ports = (*node)->ports();
  ASSERT_EQ(ports.size(), 3u);
  for (const auto port : ports) EXPECT_GT(port, 0);
}

TEST(InFilterNode, PollWithoutTrafficProcessesNothing) {
  auto node = InFilterNode::create(test_config({0}));
  ASSERT_TRUE(node.has_value());
  EXPECT_EQ((*node)->threads(), 1);
  const auto processed = (*node)->poll_once(10);
  ASSERT_TRUE(processed.has_value());
  EXPECT_EQ(*processed, 0u);
  (*node)->flush();
  EXPECT_EQ((*node)->stats().flows_processed, 0u);
}

TEST(InFilterNode, RejectsZeroThreadsAndReceivers) {
  auto config = test_config({0});
  config.threads = 0;
  EXPECT_FALSE(InFilterNode::create(config).has_value());
  config = test_config({0});
  config.ingest_threads = 0;
  EXPECT_FALSE(InFilterNode::create(config).has_value());
}

TEST(InFilterNode, EndToEndLiveDetection) {
  alert::CollectingSink ui;
  auto node = InFilterNode::create(test_config({0, 0}), &ui);
  ASSERT_TRUE(node.has_value()) << node.error().message;
  const auto ports = (*node)->ports();
  preload_table3(**node, ports);
  (*node)->train(training_records(7));

  auto sender = flowtools::UdpSender::create();
  ASSERT_TRUE(sender.has_value());

  // Normal traffic through port 0 (source 0's own blocks): clean.
  traffic::NormalTrafficModel model;
  util::Rng rng{8};
  {
    const auto trace = model.generate(150, 0, rng);
    dagflow::Dagflow source(
        dagflow::DagflowConfig{.netflow_port = ports[0]},
        dagflow::AddressPool::from_allocation(dagflow::make_allocation(10, 100, 0, 0)[0]),
        9);
    const auto labeled = source.replay(trace);
    for (const auto& datagram : source.export_datagrams(labeled, 1000)) {
      ASSERT_TRUE(sender->send(ports[0], datagram).has_value());
    }
  }
  // A spoofed Slammer sweep through port 1.
  traffic::AttackConfig attack_config;
  attack_config.companion_fraction = 0;
  const auto worm = traffic::generate_attack(traffic::AttackKind::kSlammer,
                                             attack_config, 2000, rng);
  {
    dagflow::Dagflow attacker(
        dagflow::DagflowConfig{.netflow_port = ports[1]},
        dagflow::AddressPool::from_subblocks({*net::SubBlock::parse("70a")}), 10);
    const auto labeled = attacker.replay(worm);
    for (const auto& datagram : attacker.export_datagrams(labeled, 2000)) {
      ASSERT_TRUE(sender->send(ports[1], datagram).has_value());
    }
  }

  // Drain until everything sent has been analyzed (bounded retries).
  const std::size_t expected = 150 + worm.flows.size();
  std::size_t processed = 0;
  for (int i = 0; i < 200 && processed < expected; ++i) {
    const auto result = (*node)->poll_once(20);
    ASSERT_TRUE(result.has_value()) << result.error().message;
    processed += *result;
  }
  EXPECT_EQ(processed, expected);

  (*node)->flush();
  const auto& stats = (*node)->stats();
  EXPECT_EQ(stats.flows_processed, expected);
  EXPECT_EQ(stats.suspects, worm.flows.size());  // only the worm is spoofed
  EXPECT_GT(stats.attacks_flagged, worm.flows.size() / 2);
  EXPECT_EQ(stats.malformed_datagrams, 0u);

  // Alerts flowed through traceback to the UI, and traceback grouped the
  // sweep into one episode entering via port 1.
  EXPECT_GT(ui.alerts().size(), 0u);
  const auto episodes = (*node)->traceback().episodes();
  ASSERT_GE(episodes.size(), 1u);
  EXPECT_EQ(episodes.front().primary_ingress(), ports[1]);
  EXPECT_EQ(episodes.front().service_port, std::optional<std::uint16_t>{1434});
}

TEST(InFilterNode, StatsAccumulateAcrossPolls) {
  auto node = InFilterNode::create(test_config({0}));
  ASSERT_TRUE(node.has_value());
  const auto ports = (*node)->ports();
  preload_table3(**node, ports);
  (*node)->train(training_records(11));

  auto sender = flowtools::UdpSender::create();
  ASSERT_TRUE(sender.has_value());
  traffic::NormalTrafficModel model;
  util::Rng rng{12};
  for (int batch = 0; batch < 3; ++batch) {
    const auto trace = model.generate(40, 0, rng);
    dagflow::Dagflow source(
        dagflow::DagflowConfig{.netflow_port = ports[0]},
        dagflow::AddressPool::from_allocation(dagflow::make_allocation(10, 100, 0, 0)[0]),
        static_cast<std::uint64_t>(13 + batch));
    const auto labeled = source.replay(trace);
    for (const auto& datagram : source.export_datagrams(labeled, 1000)) {
      ASSERT_TRUE(sender->send(ports[0], datagram).has_value());
    }
    std::size_t processed = 0;
    for (int i = 0; i < 100 && processed < 40; ++i) {
      const auto result = (*node)->poll_once(20);
      ASSERT_TRUE(result.has_value());
      processed += *result;
    }
  }
  (*node)->flush();
  EXPECT_EQ((*node)->stats().flows_processed, 120u);
}

// The default node (1 receiver x 1 shard) is the serial node: one socket's
// records reach one engine in receive order, so it must agree exactly
// with a single InFilterEngine fed the same records in send order --
// verdict counts and the alert stream after traceback.
TEST(InFilterNode, DefaultNodeMatchesSerialEngine) {
  const auto config = test_config({0});
  alert::CollectingSink ui;
  auto node = InFilterNode::create(config, &ui);
  ASSERT_TRUE(node.has_value()) << node.error().message;
  const auto ports = (*node)->ports();
  preload_table3(**node, ports);
  const auto training = training_records(21);
  (*node)->train(training);

  alert::CollectingSink serial_ui;
  core::TracebackEngine serial_traceback(config.traceback, &serial_ui);
  core::InFilterEngine engine(config.engine, &serial_traceback);
  for (const auto& block : dagflow::eia_range(0).expand()) {
    engine.add_expected(ports[0], block.prefix());
  }
  engine.train(training);

  // Normal traffic from source 0's own blocks and a spoofed Slammer sweep,
  // exported through the same collector port with their datagrams
  // interleaved.
  traffic::NormalTrafficModel model;
  util::Rng rng{22};
  dagflow::Dagflow source(
      dagflow::DagflowConfig{.netflow_port = ports[0]},
      dagflow::AddressPool::from_allocation(dagflow::make_allocation(10, 100, 0, 0)[0]),
      23);
  const auto normal =
      source.export_datagrams(source.replay(model.generate(200, 0, rng)), 1000);
  traffic::AttackConfig attack_config;
  attack_config.companion_fraction = 0;
  const auto worm = traffic::generate_attack(traffic::AttackKind::kSlammer,
                                             attack_config, 2000, rng);
  dagflow::Dagflow attacker(
      dagflow::DagflowConfig{.netflow_port = ports[0]},
      dagflow::AddressPool::from_subblocks({*net::SubBlock::parse("70a")}), 24);
  const auto spoofed = attacker.export_datagrams(attacker.replay(worm), 2000);
  std::vector<std::vector<std::uint8_t>> datagrams;
  for (std::size_t i = 0; i < std::max(normal.size(), spoofed.size()); ++i) {
    if (i < normal.size()) datagrams.push_back(normal[i]);
    if (i < spoofed.size()) datagrams.push_back(spoofed[i]);
  }

  auto sender = flowtools::UdpSender::create();
  ASSERT_TRUE(sender.has_value());
  std::uint64_t suspects = 0;
  std::uint64_t attacks = 0;
  std::size_t flows = 0;
  for (const auto& bytes : datagrams) {
    ASSERT_TRUE(sender->send(ports[0], bytes).has_value());
    const auto datagram = netflow::decode(bytes);
    ASSERT_TRUE(datagram.has_value());
    for (const auto& record : datagram->records) {
      const auto verdict = engine.process(record, ports[0], record.last);
      suspects += verdict.suspect ? 1 : 0;
      attacks += verdict.attack ? 1 : 0;
      ++flows;
    }
  }
  std::size_t processed = 0;
  for (int i = 0; i < 200 && processed < flows; ++i) {
    const auto result = (*node)->poll_once(20);
    ASSERT_TRUE(result.has_value()) << result.error().message;
    processed += *result;
  }
  (*node)->flush();

  const auto& stats = (*node)->stats();
  EXPECT_EQ(stats.flows_processed, flows);
  EXPECT_EQ(stats.dropped_flows, 0u);
  EXPECT_EQ(stats.suspects, suspects);
  EXPECT_EQ(stats.attacks_flagged, attacks);
  EXPECT_GT(attacks, 0u);  // the comparison below covers a real alert stream
  ASSERT_EQ(ui.alerts().size(), serial_ui.alerts().size());
  for (std::size_t i = 0; i < ui.alerts().size(); ++i) {
    SCOPED_TRACE("alert " + std::to_string(i));
    const auto& got = ui.alerts()[i];
    const auto& want = serial_ui.alerts()[i];
    EXPECT_EQ(got.id, want.id);
    EXPECT_EQ(got.stage, want.stage);
    EXPECT_EQ(got.source_ip.value(), want.source_ip.value());
    EXPECT_EQ(got.target_ip.value(), want.target_ip.value());
    EXPECT_EQ(got.ingress_port, want.ingress_port);
    EXPECT_EQ(got.expected_ingress, want.expected_ingress);
  }
}

}  // namespace
}  // namespace infilter::app
