// Tests for the threaded live-ingest subsystem (ingest/ingest.h): pooled
// buffers, shed accounting, drain semantics, receiver-direct dispatch
// (each receiver decodes inline and dispatches as its own producer), and
// -- the load-bearing one -- verdict equivalence with the serial
// LiveCollector path over the same datagram stream.

#include "ingest/ingest.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <map>
#include <mutex>
#include <thread>

#include "dagflow/dagflow.h"
#include "flowtools/udp.h"
#include "runtime_fixtures.h"
#include "traffic/attacks.h"
#include "traffic/normal.h"

namespace infilter::ingest {
namespace {

using namespace std::chrono_literals;

using fixtures::training_records;

/// Normal traffic from source 0's own Table 3 blocks followed by a spoofed
/// Slammer sweep, exported as v5 datagrams -- a stream exercising every
/// verdict class (legal, suspect, attack) once eia_range(0) is preloaded.
std::vector<std::vector<std::uint8_t>> mixed_datagrams(std::size_t* flow_count) {
  traffic::NormalTrafficModel model;
  util::Rng rng{21};
  std::vector<std::vector<std::uint8_t>> datagrams;
  std::size_t flows = 0;
  {
    const auto trace = model.generate(150, 0, rng);
    dagflow::Dagflow source(
        dagflow::DagflowConfig{},
        dagflow::AddressPool::from_allocation(dagflow::make_allocation(10, 100, 0, 0)[0]),
        9);
    const auto labeled = source.replay(trace);
    flows += labeled.size();
    for (auto& datagram : source.export_datagrams(labeled, 1000)) {
      datagrams.push_back(std::move(datagram));
    }
  }
  {
    traffic::AttackConfig attack_config;
    attack_config.companion_fraction = 0;
    const auto worm =
        traffic::generate_attack(traffic::AttackKind::kSlammer, attack_config, 500, rng);
    dagflow::Dagflow attacker(
        dagflow::DagflowConfig{},
        dagflow::AddressPool::from_subblocks({*net::SubBlock::parse("70a")}), 10);
    const auto labeled = attacker.replay(worm);
    flows += labeled.size();
    for (auto& datagram : attacker.export_datagrams(labeled, 2000)) {
      datagrams.push_back(std::move(datagram));
    }
  }
  if (flow_count != nullptr) *flow_count = flows;
  return datagrams;
}

/// Waits (bounded) until the pipeline has accepted `expected` datagrams.
void wait_received(const IngestPipeline& pipeline, std::uint64_t expected) {
  for (int i = 0; i < 5000 && pipeline.stats().datagrams_received < expected; ++i) {
    std::this_thread::sleep_for(1ms);
  }
}

TEST(IngestPipeline, RejectsEmptyPortList) {
  auto pipeline = IngestPipeline::create(
      IngestConfig{}, [](std::span<const runtime::FlowItem> items, int) {
        return items.size();
      });
  EXPECT_FALSE(pipeline.has_value());
}

TEST(IngestPipeline, RejectsMismatchedIngressIds) {
  IngestConfig config;
  config.ports = {0, 0};
  config.ingress_ids = {9001};  // not parallel to ports
  auto pipeline = IngestPipeline::create(
      config,
      [](std::span<const runtime::FlowItem> items, int) { return items.size(); });
  EXPECT_FALSE(pipeline.has_value());
}

TEST(IngestPipeline, PooledBuffersAreReusedAcrossManyDatagrams) {
  // A recv_batch-sized arena (here one slot), >100 datagrams: every arena
  // slot must make many full receive -> decode -> recycle cycles for the
  // counts to come out, and nothing may be lost along the way.
  std::atomic<std::uint64_t> dispatched{0};
  IngestConfig config;
  config.ports = {0};
  config.recv_batch = 1;  // also exercises the receive_into() fallback path
  auto pipeline = IngestPipeline::create(
      config, [&dispatched](std::span<const runtime::FlowItem> items, int) {
        dispatched.fetch_add(items.size(), std::memory_order_relaxed);
        return items.size();
      });
  ASSERT_TRUE(pipeline.has_value()) << pipeline.error().message;

  auto sender = flowtools::UdpSender::create();
  ASSERT_TRUE(sender.has_value());
  std::size_t flows = 0;
  const auto datagrams = mixed_datagrams(&flows);
  const auto port = (*pipeline)->ports()[0];
  // Replay the stream 25 times: far more datagrams than slots, so the
  // counts only come out if recycled buffers really are reusable.
  constexpr std::size_t kRounds = 25;
  const std::size_t total = datagrams.size() * kRounds;
  ASSERT_GT(total, 20 * config.recv_batch);
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (const auto& datagram : datagrams) {
      ASSERT_TRUE(sender->send(port, datagram).has_value());
    }
    // Keep the kernel queue shallow; overload is exercised elsewhere.
    wait_received(**pipeline, datagrams.size() * (round + 1));
  }
  (*pipeline)->drain();

  const auto stats = (*pipeline)->stats();
  EXPECT_EQ(stats.datagrams_received, total);
  EXPECT_EQ(stats.datagrams_decoded, total);
  EXPECT_EQ(stats.datagrams_malformed, 0u);
  EXPECT_EQ(stats.records_decoded, flows * kRounds);
  EXPECT_EQ(stats.records_dispatched, flows * kRounds);
  EXPECT_EQ(dispatched.load(), flows * kRounds);
  // Receiver-direct dispatch has no internal queue between receive and
  // decode, so the old queued/free-buffer gauges are gone from the scrape.
  const auto snapshot = (*pipeline)->snapshot();
  EXPECT_EQ(snapshot.find("infilter_ingest_queued"), nullptr);
  EXPECT_EQ(snapshot.find("infilter_ingest_free_buffers"), nullptr);
}

TEST(IngestPipeline, MalformedAndZeroLengthDatagramsAreCountedNotFatal) {
  IngestConfig config;
  config.ports = {0};
  auto pipeline = IngestPipeline::create(
      config,
      [](std::span<const runtime::FlowItem> items, int) { return items.size(); });
  ASSERT_TRUE(pipeline.has_value()) << pipeline.error().message;
  auto sender = flowtools::UdpSender::create();
  ASSERT_TRUE(sender.has_value());
  const auto port = (*pipeline)->ports()[0];

  ASSERT_TRUE(sender->send(port, {}).has_value());  // zero-length: legal UDP
  const std::vector<std::uint8_t> junk(64, 0xEE);
  ASSERT_TRUE(sender->send(port, junk).has_value());
  // A valid datagram behind the malformed ones must still get through.
  std::size_t flows = 0;
  const auto valid = mixed_datagrams(&flows);
  ASSERT_TRUE(sender->send(port, valid.front()).has_value());

  wait_received(**pipeline, 3);
  (*pipeline)->drain();
  const auto stats = (*pipeline)->stats();
  EXPECT_EQ(stats.datagrams_received, 3u);
  EXPECT_EQ(stats.datagrams_malformed, 2u);
  EXPECT_EQ(stats.datagrams_decoded, 1u);
  EXPECT_GT(stats.records_dispatched, 0u);
}

/// One-record export datagram with a caller-chosen marker and sequence --
/// small enough that several fit in one recvmmsg() batch.
std::vector<std::uint8_t> marked_datagram(std::uint16_t marker,
                                          std::uint32_t sequence = 0) {
  netflow::V5Record record;
  record.src_ip = net::IPv4Address{10, 0, 0, 1};
  record.dst_ip = net::IPv4Address{10, 0, 0, 2};
  record.proto = 6;
  record.src_port = marker;
  record.dst_port = 80;
  netflow::V5Header header;
  header.flow_sequence = sequence;
  return netflow::encode(header, std::span(&record, 1));
}

TEST(IngestPipeline, TruncatedDatagramMidBatchKeepsSlotCorrespondence) {
  // Regression: in the recvmmsg path, recycling a truncated slot while the
  // pop loop was still consuming the free-list suffix handed every later
  // message in the batch the wrong arena buffer. Park the receiver
  // (quiesce) and queue an interleaved valid/oversized pattern in the
  // kernel so it picks the pattern up in full batches on resume.
  std::mutex mutex;
  std::vector<std::uint16_t> markers;
  IngestConfig config;
  config.ports = {0};
  config.recv_batch = 8;  // the arena: 8 slots, all in every full batch
  auto pipeline = IngestPipeline::create(
      config, [&](std::span<const runtime::FlowItem> items, int) {
        std::lock_guard lock(mutex);
        for (const auto& item : items) markers.push_back(item.record.src_port);
        return items.size();
      });
  ASSERT_TRUE(pipeline.has_value()) << pipeline.error().message;
  auto sender = flowtools::UdpSender::create();
  ASSERT_TRUE(sender.has_value());
  const auto port = (*pipeline)->ports()[0];

  std::vector<std::uint16_t> expected;
  const std::vector<std::uint8_t> oversized(2 * config.slot_bytes, 0xEE);
  (*pipeline)->quiesce([&] {
    // The receiver is parked between batches, so everything sent inside
    // the quiesce window accumulates in the kernel queue and comes out in
    // full recvmmsg() batches on resume.
    for (std::uint16_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(sender->send(port, marked_datagram(100 + i)).has_value());
      expected.push_back(100 + i);
    }
    std::this_thread::sleep_for(100ms);
    // Oversized datagrams interleaved between valid ones: on resume the
    // receiver recvmmsg()s the mix as whole batches.
    for (std::uint16_t i = 0; i < 4; ++i) {
      if (i == 1 || i == 3) {
        ASSERT_TRUE(sender->send(port, oversized).has_value());
      }
      ASSERT_TRUE(sender->send(port, marked_datagram(200 + i)).has_value());
      expected.push_back(200 + i);
    }
  });

  wait_received(**pipeline, 12);  // truncated datagrams are not "accepted"
  (*pipeline)->drain();
  const auto stats = (*pipeline)->stats();
  EXPECT_EQ(stats.datagrams_received, 12u);
  EXPECT_EQ(stats.datagrams_truncated, 2u);
  // The load-bearing assertions: a slot mix-up decodes the truncated
  // junk in place of a valid datagram behind it in the batch.
  EXPECT_EQ(stats.datagrams_malformed, 0u);
  EXPECT_EQ(stats.datagrams_decoded, 12u);
  EXPECT_EQ(stats.records_dispatched, 12u);
  std::lock_guard lock(mutex);
  EXPECT_EQ(markers, expected);  // right bytes, right order
}

TEST(IngestPipeline, SequenceGapAccountingSurvivesWraparound) {
  IngestConfig config;
  config.ports = {0};
  auto pipeline = IngestPipeline::create(
      config,
      [](std::span<const runtime::FlowItem> items, int) { return items.size(); });
  ASSERT_TRUE(pipeline.has_value()) << pipeline.error().message;
  auto sender = flowtools::UdpSender::create();
  ASSERT_TRUE(sender.has_value());
  const auto port = (*pipeline)->ports()[0];

  // One record per datagram: expected next sequence is previous + 1.
  ASSERT_TRUE(sender->send(port, marked_datagram(1, 0xFFFFFFFEu)).has_value());
  ASSERT_TRUE(sender->send(port, marked_datagram(2, 0xFFFFFFFFu)).has_value());  // contiguous
  // Expected next is 0 (2^32 wrap); claiming 4 means 4 flows lost.
  ASSERT_TRUE(sender->send(port, marked_datagram(3, 4)).has_value());
  ASSERT_TRUE(sender->send(port, marked_datagram(4, 5)).has_value());  // contiguous
  // Exporter restart: a large backward jump rebases without a bogus gap.
  ASSERT_TRUE(sender->send(port, marked_datagram(5, 0)).has_value());

  wait_received(**pipeline, 5);
  (*pipeline)->drain();
  const auto stats = (*pipeline)->stats();
  EXPECT_EQ(stats.datagrams_decoded, 5u);
  EXPECT_EQ(stats.sequence_gaps, 4u);
}

TEST(IngestPipeline, StopConcurrentWithQuiesceDoesNotDeadlock) {
  // Regression: stop() tearing the receivers down while quiesce() waited
  // for them to park stranded the quiesce forever. They now serialize on
  // the quiesce mutex, and post-stop quiesces take the stopped fast path.
  IngestConfig config;
  config.ports = {0};
  auto pipeline = IngestPipeline::create(
      config,
      [](std::span<const runtime::FlowItem> items, int) { return items.size(); });
  ASSERT_TRUE(pipeline.has_value()) << pipeline.error().message;

  std::atomic<int> ran{0};
  std::thread worker([&] {
    for (int i = 0; i < 50; ++i) {
      (*pipeline)->quiesce([&] { ran.fetch_add(1, std::memory_order_relaxed); });
    }
  });
  std::this_thread::sleep_for(1ms);
  (*pipeline)->stop();
  worker.join();
  EXPECT_EQ(ran.load(), 50);
}

TEST(IngestPipeline, RefusedDispatchIsShedAndAccountedExactly) {
  // Receiver-direct dispatch sheds at exactly one place: the dispatcher
  // refusing records (a kDrop runtime with full rings). A dispatcher that
  // accepts only every other record must leave decoded ==
  // dispatched + shed, with nothing silently lost.
  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> offered{0};
  IngestConfig config;
  config.ports = {0};
  auto pipeline = IngestPipeline::create(
      config, [&](std::span<const runtime::FlowItem> items, int) {
        offered.fetch_add(items.size(), std::memory_order_relaxed);
        const auto take = items.size() / 2;
        accepted.fetch_add(take, std::memory_order_relaxed);
        return take;
      });
  ASSERT_TRUE(pipeline.has_value()) << pipeline.error().message;
  auto sender = flowtools::UdpSender::create();
  ASSERT_TRUE(sender.has_value());
  const auto port = (*pipeline)->ports()[0];

  std::size_t flows = 0;
  const auto datagrams = mixed_datagrams(&flows);
  for (const auto& datagram : datagrams) {
    ASSERT_TRUE(sender->send(port, datagram).has_value());
  }
  wait_received(**pipeline, datagrams.size());
  (*pipeline)->drain();
  const auto stats = (*pipeline)->stats();
  EXPECT_EQ(stats.datagrams_received, datagrams.size());
  EXPECT_EQ(stats.records_decoded, flows);
  EXPECT_EQ(stats.records_decoded, stats.records_dispatched + stats.records_shed);
  EXPECT_GT(stats.records_shed, 0u);
  EXPECT_EQ(stats.records_dispatched, accepted.load());
  EXPECT_EQ(stats.records_decoded, offered.load());
}

TEST(IngestPipeline, DrainMeansDispatched) {
  std::atomic<std::uint64_t> dispatched{0};
  IngestConfig config;
  config.ports = {0};
  config.dispatch_batch = 1 << 16;  // huge batch: drain must force the flush
  auto pipeline = IngestPipeline::create(
      config, [&dispatched](std::span<const runtime::FlowItem> items, int) {
        dispatched.fetch_add(items.size(), std::memory_order_relaxed);
        return items.size();
      });
  ASSERT_TRUE(pipeline.has_value()) << pipeline.error().message;
  auto sender = flowtools::UdpSender::create();
  ASSERT_TRUE(sender.has_value());
  const auto port = (*pipeline)->ports()[0];

  std::size_t flows = 0;
  const auto datagrams = mixed_datagrams(&flows);
  for (const auto& datagram : datagrams) {
    ASSERT_TRUE(sender->send(port, datagram).has_value());
  }
  wait_received(**pipeline, datagrams.size());
  (*pipeline)->drain();
  // drain() promises "handed to the dispatcher", not merely "decoded":
  // immediately after it returns the dispatch count is complete, even
  // though the batch threshold was never reached.
  EXPECT_EQ(dispatched.load(), flows);

  // stop() is phase 1 of shutdown and leaves the totals unchanged.
  (*pipeline)->stop();
  EXPECT_EQ((*pipeline)->stats().records_dispatched, flows);
}

TEST(IngestPipeline, TagsAreMonotoneInSocketOrder) {
  std::mutex mutex;
  std::vector<std::uint64_t> tags;
  IngestConfig config;
  config.ports = {0};
  auto pipeline = IngestPipeline::create(
      config, [&](std::span<const runtime::FlowItem> items, int) {
        std::lock_guard lock(mutex);
        for (const auto& item : items) tags.push_back(item.tag);
        return items.size();
      });
  ASSERT_TRUE(pipeline.has_value()) << pipeline.error().message;
  auto sender = flowtools::UdpSender::create();
  ASSERT_TRUE(sender.has_value());
  std::size_t flows = 0;
  const auto datagrams = mixed_datagrams(&flows);
  for (const auto& datagram : datagrams) {
    ASSERT_TRUE(sender->send((*pipeline)->ports()[0], datagram).has_value());
  }
  wait_received(**pipeline, datagrams.size());
  (*pipeline)->drain();

  std::lock_guard lock(mutex);
  ASSERT_EQ(tags.size(), flows);
  // One socket, one receiver: the tag sequence is 0..n-1 in kernel
  // receive order -- the join key the verdict-equivalence test relies on.
  for (std::size_t i = 0; i < tags.size(); ++i) {
    ASSERT_EQ(tags[i], i) << "at index " << i;
  }
}

TEST(IngestPipeline, TagsArePartitionedAndMonotonePerReceiver) {
  // Several receivers stamp tags concurrently: receiver r owns the tag
  // block starting at r << 48 (receiver 0 starts at 0 so the single-
  // receiver join keys are unchanged), and within a receiver the tags
  // stay strictly monotone in its own dispatch order.
  std::mutex mutex;
  std::map<int, std::vector<std::uint64_t>> by_producer;
  IngestConfig config;
  config.ports = {0, 0, 0};
  config.receiver_threads = 3;
  auto pipeline = IngestPipeline::create(
      config, [&](std::span<const runtime::FlowItem> items, int producer) {
        std::lock_guard lock(mutex);
        auto& tags = by_producer[producer];
        for (const auto& item : items) tags.push_back(item.tag);
        return items.size();
      });
  ASSERT_TRUE(pipeline.has_value()) << pipeline.error().message;
  EXPECT_EQ((*pipeline)->receiver_count(), 3u);
  auto sender = flowtools::UdpSender::create();
  ASSERT_TRUE(sender.has_value());
  const auto ports = (*pipeline)->ports();
  std::size_t flows = 0;
  const auto datagrams = mixed_datagrams(&flows);
  std::uint64_t sent = 0;
  for (std::size_t i = 0; i < datagrams.size(); ++i) {
    ASSERT_TRUE(sender->send(ports[i % ports.size()], datagrams[i]).has_value());
    ++sent;
    while ((*pipeline)->stats().datagrams_received + 48 < sent) {
      std::this_thread::sleep_for(100us);
    }
  }
  wait_received(**pipeline, sent);
  (*pipeline)->drain();

  std::lock_guard lock(mutex);
  std::size_t total = 0;
  for (const auto& [producer, tags] : by_producer) {
    ASSERT_GE(producer, 0);
    ASSERT_LT(producer, 3);
    total += tags.size();
    const std::uint64_t base =
        producer == 0 ? 0 : std::uint64_t{static_cast<std::uint64_t>(producer)} << 48;
    for (std::size_t i = 0; i < tags.size(); ++i) {
      EXPECT_EQ(tags[i], base + i) << "producer " << producer << " index " << i;
    }
  }
  EXPECT_EQ(total, flows);
}

TEST(IngestPipeline, VerdictsBitIdenticalToSerialLiveCollector) {
  std::size_t flows = 0;
  const auto datagrams = mixed_datagrams(&flows);
  const auto training = training_records(7);

  core::EngineConfig engine_config;
  engine_config.cluster.bits_per_feature = 48;
  engine_config.seed = 5;

  // -- Path A: serial. LiveCollector receives the stream; one engine
  // processes the capture in arrival order. --
  auto collector = flowtools::LiveCollector::bind({0});
  ASSERT_TRUE(collector.has_value()) << collector.error().message;
  const auto serial_port = collector->ports()[0];
  auto sender = flowtools::UdpSender::create();
  ASSERT_TRUE(sender.has_value());
  for (const auto& datagram : datagrams) {
    ASSERT_TRUE(sender->send(serial_port, datagram).has_value());
  }
  const auto collected = collector->collect(flows, 5000);
  ASSERT_TRUE(collected.has_value()) << collected.error().message;
  ASSERT_EQ(collector->capture().flows().size(), flows);

  core::InFilterEngine serial(engine_config);
  for (const auto& block : dagflow::eia_range(0).expand()) {
    serial.add_expected(serial_port, block.prefix());
  }
  serial.train(training);
  std::vector<core::Verdict> serial_verdicts;
  serial_verdicts.reserve(flows);
  for (const auto& flow : collector->capture().flows()) {
    serial_verdicts.push_back(
        serial.process(flow.record, flow.arrival_port, flow.record.last));
  }

  // -- Path B: the same datagram bytes through the threaded pipeline into
  // a 2-shard runtime. ingress_ids pins the ephemeral socket to path A's
  // ingress identity, so the EIA tables see identical keys; the NNS probe
  // RNG is a pure function of (seed, record); and one socket through one
  // receiver preserves arrival order, joined back via the tag. --
  runtime::RuntimeConfig runtime_config;
  runtime_config.shards = 2;
  runtime_config.engine = engine_config;
  std::mutex mutex;
  std::map<std::uint64_t, core::Verdict> threaded_verdicts;
  runtime::ShardedRuntime runtime(
      runtime_config, nullptr,
      [&](const runtime::FlowItem& item, const core::Verdict& verdict) {
        std::lock_guard lock(mutex);
        threaded_verdicts.emplace(item.tag, verdict);
      });
  for (const auto& block : dagflow::eia_range(0).expand()) {
    runtime.add_expected(serial_port, block.prefix());
  }
  runtime.train(training);

  IngestConfig ingest_config;
  ingest_config.ports = {0};
  ingest_config.ingress_ids = {serial_port};
  auto pipeline = IngestPipeline::create(ingest_config, runtime);
  ASSERT_TRUE(pipeline.has_value()) << pipeline.error().message;
  for (const auto& datagram : datagrams) {
    ASSERT_TRUE(sender->send((*pipeline)->ports()[0], datagram).has_value());
  }
  wait_received(**pipeline, datagrams.size());
  (*pipeline)->stop();  // phase 1: everything accepted reaches the runtime
  runtime.shutdown();   // phase 2: every dispatched flow gets its verdict

  ASSERT_EQ((*pipeline)->stats().records_dispatched, flows);
  std::lock_guard lock(mutex);
  ASSERT_EQ(threaded_verdicts.size(), flows);
  std::size_t serial_attacks = 0;
  for (std::size_t i = 0; i < flows; ++i) {
    const auto& expected = serial_verdicts[i];
    serial_attacks += expected.attack ? 1 : 0;
    const auto it = threaded_verdicts.find(i);
    ASSERT_NE(it, threaded_verdicts.end()) << "missing verdict for flow " << i;
    const auto& got = it->second;
    EXPECT_EQ(got.suspect, expected.suspect) << "flow " << i;
    EXPECT_EQ(got.attack, expected.attack) << "flow " << i;
    EXPECT_EQ(got.stage, expected.stage) << "flow " << i;
    ASSERT_EQ(got.nns.has_value(), expected.nns.has_value()) << "flow " << i;
    if (expected.nns.has_value()) {
      // Bit-identical NNS diagnostics, not just matching booleans.
      EXPECT_EQ(got.nns->anomalous, expected.nns->anomalous) << "flow " << i;
      EXPECT_EQ(got.nns->cluster, expected.nns->cluster) << "flow " << i;
      EXPECT_EQ(got.nns->distance, expected.nns->distance) << "flow " << i;
      EXPECT_EQ(got.nns->threshold, expected.nns->threshold) << "flow " << i;
    }
  }
  // The stream was built to light up the attack path -- make sure the
  // equality above compared something nontrivial.
  EXPECT_GT(serial_attacks, 0u);
}

TEST(IngestStress, MultiSocketMultiReceiverWithConcurrentQuiesce) {
  // The TSan-lane case: two receiver threads over three sockets, a
  // 2-shard runtime downstream, and the owner thread hammering the
  // drain/quiesce/stats/snapshot handshakes while traffic flows.
  runtime::RuntimeConfig runtime_config;
  runtime_config.shards = 2;
  runtime_config.producers = 2;  // one slot per receiver thread
  runtime_config.engine.mode = core::EngineMode::kBasic;  // no training needed
  runtime::ShardedRuntime runtime(runtime_config);

  IngestConfig config;
  config.ports = {0, 0, 0};
  config.receiver_threads = 2;
  auto pipeline = IngestPipeline::create(config, runtime);
  ASSERT_TRUE(pipeline.has_value()) << pipeline.error().message;
  EXPECT_EQ((*pipeline)->receiver_count(), 2u);
  const auto ports = (*pipeline)->ports();

  auto sender = flowtools::UdpSender::create();
  ASSERT_TRUE(sender.has_value());
  std::size_t flows = 0;
  const auto datagrams = mixed_datagrams(&flows);
  std::uint64_t sent = 0;
  for (std::size_t i = 0; i < datagrams.size(); ++i) {
    ASSERT_TRUE(sender->send(ports[i % ports.size()], datagrams[i]).has_value());
    ++sent;
    if (i % 16 == 0) {
      // Exercise the quiesce/flush handshake mid-stream, with both
      // receivers dispatching as independent runtime producers.
      (*pipeline)->quiesce([&] { runtime.flush(); });
      (void)(*pipeline)->stats();
      (void)(*pipeline)->snapshot();
    }
    // Loose pacing so the receivers never force kernel-queue drops.
    while ((*pipeline)->stats().datagrams_received + 48 < sent) {
      std::this_thread::sleep_for(100us);
    }
  }
  wait_received(**pipeline, sent);
  (*pipeline)->quiesce([&] { runtime.flush(); });
  const auto stats = (*pipeline)->stats();
  EXPECT_EQ(stats.datagrams_received, sent);
  EXPECT_EQ(stats.datagrams_decoded, sent);
  EXPECT_EQ(stats.records_dispatched, flows);
  EXPECT_EQ(runtime.stats().processed, flows);
  (*pipeline)->stop();
  runtime.shutdown();
}

}  // namespace
}  // namespace infilter::ingest
