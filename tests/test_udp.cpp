// Tests for the loopback UDP export path (flowtools/udp.h).

#include "flowtools/udp.h"

#include <gtest/gtest.h>

#include "dagflow/dagflow.h"
#include "traffic/normal.h"

namespace infilter::flowtools {
namespace {

TEST(UdpReceiver, EphemeralBindReportsPort) {
  auto receiver = UdpReceiver::bind(0);
  ASSERT_TRUE(receiver.has_value()) << receiver.error().message;
  EXPECT_GT(receiver->port(), 0);
}

TEST(UdpReceiver, ReceiveWithoutTrafficIsEmpty) {
  auto receiver = UdpReceiver::bind(0);
  ASSERT_TRUE(receiver.has_value());
  std::uint8_t buffer[64];
  const auto received = receiver->receive_into(buffer);
  ASSERT_TRUE(received.has_value());
  EXPECT_FALSE(received->datagram);
  EXPECT_EQ(received->bytes, 0u);
}

TEST(UdpPath, DatagramRoundTrip) {
  auto receiver = UdpReceiver::bind(0);
  ASSERT_TRUE(receiver.has_value());
  auto sender = UdpSender::create();
  ASSERT_TRUE(sender.has_value());

  const std::vector<std::uint8_t> payload{1, 2, 3, 4, 5};
  ASSERT_TRUE(sender->send(receiver->port(), payload).has_value());

  // Loopback delivery is effectively immediate, but poll briefly anyway.
  std::vector<std::uint8_t> buffer(65536);
  ReceivedDatagram got;
  for (int i = 0; i < 100 && !got.datagram; ++i) {
    auto received = receiver->receive_into(buffer);
    ASSERT_TRUE(received.has_value());
    got = *received;
  }
  ASSERT_TRUE(got.datagram);
  EXPECT_EQ(std::vector<std::uint8_t>(buffer.begin(), buffer.begin() + got.bytes),
            payload);
}

TEST(LiveCollector, CapturesMultiplexedExports) {
  // Two emulated border routers on distinct ports, one collector.
  auto collector = LiveCollector::bind({0, 0});
  ASSERT_TRUE(collector.has_value()) << collector.error().message;
  const auto ports = collector->ports();
  ASSERT_EQ(ports.size(), 2u);
  ASSERT_NE(ports[0], ports[1]);

  auto sender = UdpSender::create();
  ASSERT_TRUE(sender.has_value());

  traffic::NormalTrafficModel model;
  util::Rng rng{1};
  std::size_t sent_flows = 0;
  for (int source = 0; source < 2; ++source) {
    const auto trace = model.generate(45, 0, rng);
    dagflow::Dagflow replayer(
        dagflow::DagflowConfig{.netflow_port = ports[static_cast<std::size_t>(source)]},
        dagflow::AddressPool::from_subblocks({*net::SubBlock::parse("1a")}),
        static_cast<std::uint64_t>(source + 2));
    const auto labeled = replayer.replay(trace);
    sent_flows += labeled.size();
    for (const auto& datagram : replayer.export_datagrams(labeled, 1000)) {
      ASSERT_TRUE(sender->send(replayer.netflow_port(), datagram).has_value());
    }
  }

  const auto collected = collector->collect(sent_flows, 2000);
  ASSERT_TRUE(collected.has_value()) << collected.error().message;
  EXPECT_EQ(*collected, sent_flows);
  EXPECT_EQ(collector->capture().flows().size(), sent_flows);
  EXPECT_EQ(collector->capture().sequence_gaps(), 0u);

  // Arrival ports tag the emulated ingress.
  std::size_t on_first = 0;
  for (const auto& flow : collector->capture().flows()) {
    EXPECT_TRUE(flow.arrival_port == ports[0] || flow.arrival_port == ports[1]);
    on_first += flow.arrival_port == ports[0] ? 1 : 0;
  }
  EXPECT_EQ(on_first, 45u);
}

TEST(UdpReceiver, ZeroLengthDatagramDistinctFromIdleSocket) {
  auto receiver = UdpReceiver::bind(0);
  ASSERT_TRUE(receiver.has_value());
  auto sender = UdpSender::create();
  ASSERT_TRUE(sender.has_value());

  std::uint8_t buffer[64];
  // Idle socket: no datagram, by construction not a zero-length one.
  auto idle = receiver->receive_into(buffer);
  ASSERT_TRUE(idle.has_value());
  EXPECT_FALSE(idle->datagram);

  // A zero-length datagram is legal UDP and must be reported as a
  // consumed datagram, not as "nothing waiting".
  ASSERT_TRUE(sender->send(receiver->port(), {}).has_value());
  ReceivedDatagram got;
  for (int i = 0; i < 100 && !got.datagram; ++i) {
    auto received = receiver->receive_into(buffer);
    ASSERT_TRUE(received.has_value());
    got = *received;
  }
  EXPECT_TRUE(got.datagram);
  EXPECT_EQ(got.bytes, 0u);
  EXPECT_EQ(got.wire_bytes, 0u);
  EXPECT_FALSE(got.truncated());
}

TEST(UdpReceiver, TruncatedDatagramReportsWireLength) {
  auto receiver = UdpReceiver::bind(0);
  ASSERT_TRUE(receiver.has_value());
  auto sender = UdpSender::create();
  ASSERT_TRUE(sender.has_value());

  const std::vector<std::uint8_t> payload(100, 0xAB);
  ASSERT_TRUE(sender->send(receiver->port(), payload).has_value());

  std::uint8_t small[16];
  ReceivedDatagram got;
  for (int i = 0; i < 100 && !got.datagram; ++i) {
    auto received = receiver->receive_into(small);
    ASSERT_TRUE(received.has_value());
    got = *received;
  }
  ASSERT_TRUE(got.datagram);
  EXPECT_EQ(got.bytes, sizeof small);       // what fit in the buffer
  EXPECT_EQ(got.wire_bytes, payload.size());  // what was on the wire
  EXPECT_TRUE(got.truncated());
}

TEST(LiveCollector, ZeroLengthDatagramDoesNotStopTheDrain) {
  auto collector = LiveCollector::bind({0});
  ASSERT_TRUE(collector.has_value());
  auto sender = UdpSender::create();
  ASSERT_TRUE(sender.has_value());

  // Zero-length first, valid junk second: with receive()'s empty-vector
  // convention the drain loop used to stop at the zero-length datagram and
  // strand the one behind it until the next poll.
  const auto port = collector->ports()[0];
  ASSERT_TRUE(sender->send(port, {}).has_value());
  const std::vector<std::uint8_t> junk(64, 0xEE);
  ASSERT_TRUE(sender->send(port, junk).has_value());

  const auto stored = collector->poll_once(500);
  ASSERT_TRUE(stored.has_value()) << stored.error().message;
  EXPECT_EQ(*stored, 0u);
  // Both datagrams consumed in one sweep, both counted malformed.
  EXPECT_EQ(collector->capture().datagrams_received(), 2u);
  EXPECT_EQ(collector->capture().datagrams_malformed(), 2u);
}

TEST(LiveCollector, MalformedDatagramCountedNotFatal) {
  auto collector = LiveCollector::bind({0});
  ASSERT_TRUE(collector.has_value());
  auto sender = UdpSender::create();
  ASSERT_TRUE(sender.has_value());
  const std::vector<std::uint8_t> junk(64, 0xEE);
  ASSERT_TRUE(sender->send(collector->ports()[0], junk).has_value());
  const auto stored = collector->poll_once(500);
  ASSERT_TRUE(stored.has_value()) << stored.error().message;
  EXPECT_EQ(*stored, 0u);
  EXPECT_EQ(collector->capture().datagrams_malformed(), 1u);
}

TEST(LiveCollector, PollTimesOutQuietly) {
  auto collector = LiveCollector::bind({0});
  ASSERT_TRUE(collector.has_value());
  const auto stored = collector->poll_once(10);
  ASSERT_TRUE(stored.has_value());
  EXPECT_EQ(*stored, 0u);
}

}  // namespace
}  // namespace infilter::flowtools
