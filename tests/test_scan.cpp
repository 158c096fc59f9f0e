// Tests for Scan Analysis (core/scan.h).

#include "core/scan.h"

#include <gtest/gtest.h>

#include <malloc.h>

#include <string>
#include <vector>

#include "suspect_state_reference.h"
#include "util/rng.h"

namespace infilter::core {
namespace {

netflow::V5Record flow_to(net::IPv4Address dst, std::uint16_t dst_port) {
  netflow::V5Record r;
  r.src_ip = net::IPv4Address{9, 9, 9, 9};
  r.dst_ip = dst;
  r.proto = 6;
  r.src_port = 40000;
  r.dst_port = dst_port;
  r.packets = 1;
  r.bytes = 40;
  return r;
}

net::IPv4Address host(std::uint32_t i) {
  return net::IPv4Address{(100u << 24) | (64u << 16) | i};
}

ScanConfig small_config() {
  ScanConfig c;
  c.buffer_size = 50;
  c.network_scan_threshold = 10;
  c.host_scan_threshold = 8;
  return c;
}

TEST(ScanAnalysis, DegenerateConfigIsClampedNotAsserted) {
  // A hostile or typo'd config must not reach observe() as-is: in a
  // release build (no asserts) buffer_size == 0 would evict from an empty
  // deque and a threshold of 1 would flag the very first suspect flow.
  ScanConfig degenerate;
  degenerate.buffer_size = 0;
  degenerate.network_scan_threshold = 0;
  degenerate.host_scan_threshold = 1;
  ScanAnalysis scan(degenerate);
  EXPECT_EQ(scan.config().buffer_size, 1u);
  EXPECT_EQ(scan.config().network_scan_threshold, 2);
  EXPECT_EQ(scan.config().host_scan_threshold, 2);

  // observe() works on the clamped one-flow buffer: each flow evicts the
  // previous one, so no counter ever reaches 2 and every verdict is clean.
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(scan.observe(flow_to(host(i), 80)), ScanVerdict::kClean) << i;
    EXPECT_EQ(scan.buffered_flows(), 1u);
  }
  EXPECT_EQ(scan.stats().observed, 10u);
  EXPECT_EQ(scan.stats().evictions, 9u);

  // The clamped threshold of 2 behaves like an explicit 2: the second
  // distinct host on a port trips the network-scan counter.
  ScanConfig roomy = degenerate;
  roomy.buffer_size = 50;
  ScanAnalysis pair(roomy);
  EXPECT_EQ(pair.observe(flow_to(host(1), 443)), ScanVerdict::kClean);
  EXPECT_EQ(pair.observe(flow_to(host(2), 443)), ScanVerdict::kNetworkScan);
}

TEST(ScanAnalysis, CleanUntilNetworkThreshold) {
  ScanAnalysis scan(small_config());
  // 9 distinct hosts on port 1434: still clean; the 10th trips.
  for (std::uint32_t i = 0; i < 9; ++i) {
    EXPECT_EQ(scan.observe(flow_to(host(i), 1434)), ScanVerdict::kClean) << i;
  }
  EXPECT_EQ(scan.observe(flow_to(host(9), 1434)), ScanVerdict::kNetworkScan);
}

TEST(ScanAnalysis, RepeatHostsDoNotInflateNetworkCount) {
  ScanAnalysis scan(small_config());
  // 30 flows but only 3 distinct hosts: never a network scan.
  for (int i = 0; i < 30; ++i) {
    EXPECT_EQ(scan.observe(flow_to(host(static_cast<std::uint32_t>(i % 3)), 80)),
              ScanVerdict::kClean);
  }
  EXPECT_EQ(scan.hosts_on_port(80), 3);
}

TEST(ScanAnalysis, DistinctPortsSeparateNetworkCounters) {
  ScanAnalysis scan(small_config());
  for (std::uint32_t i = 0; i < 9; ++i) {
    scan.observe(flow_to(host(i), 80));
  }
  // Different port: its own counter starts fresh.
  EXPECT_EQ(scan.observe(flow_to(host(100), 443)), ScanVerdict::kClean);
  EXPECT_EQ(scan.hosts_on_port(443), 1);
}

TEST(ScanAnalysis, HostScanDetection) {
  ScanAnalysis scan(small_config());
  const auto victim = host(1);
  for (std::uint16_t port = 1; port < 8; ++port) {
    EXPECT_EQ(scan.observe(flow_to(victim, port)), ScanVerdict::kClean) << port;
  }
  EXPECT_EQ(scan.observe(flow_to(victim, 8)), ScanVerdict::kHostScan);
}

TEST(ScanAnalysis, RepeatPortsDoNotInflateHostCount) {
  ScanAnalysis scan(small_config());
  const auto victim = host(2);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(scan.observe(flow_to(victim, static_cast<std::uint16_t>(80 + i % 2))),
              ScanVerdict::kClean);
  }
  EXPECT_EQ(scan.ports_on_host(victim), 2);
}

TEST(ScanAnalysis, NetworkScanTakesPriorityWhenBothTrip) {
  ScanConfig config = small_config();
  config.network_scan_threshold = 2;
  config.host_scan_threshold = 2;
  ScanAnalysis scan(config);
  scan.observe(flow_to(host(1), 80));
  scan.observe(flow_to(host(1), 81));  // would be host scan
  // This flow makes port 80 span two hosts AND host(2) has 1 port; network
  // scan is checked first.
  EXPECT_EQ(scan.observe(flow_to(host(2), 80)), ScanVerdict::kNetworkScan);
}

TEST(ScanAnalysis, BufferEvictionForgetsOldFlows) {
  ScanConfig config = small_config();  // buffer 50
  ScanAnalysis scan(config);
  // 9 hosts on port 1434, then 50 unrelated flows to flush them out.
  for (std::uint32_t i = 0; i < 9; ++i) scan.observe(flow_to(host(i), 1434));
  for (std::uint32_t i = 0; i < 50; ++i) {
    scan.observe(flow_to(host(1000 + i), static_cast<std::uint16_t>(2000 + i)));
  }
  EXPECT_EQ(scan.hosts_on_port(1434), 0);
  // A slow scan that lost its buffered history must re-accumulate.
  EXPECT_EQ(scan.observe(flow_to(host(9), 1434)), ScanVerdict::kClean);
}

TEST(ScanAnalysis, BufferNeverExceedsConfiguredSize) {
  ScanAnalysis scan(small_config());
  for (std::uint32_t i = 0; i < 500; ++i) {
    scan.observe(flow_to(host(i), static_cast<std::uint16_t>(i % 7 + 1)));
    EXPECT_LE(scan.buffered_flows(), 50u);
  }
}

TEST(ScanAnalysis, SlammerPatternTripsNetworkScan) {
  // The paper's motivating case: one UDP packet to port 1434 per random
  // host. With the default 200-flow buffer, a burst of distinct victims
  // trips the counter quickly.
  ScanAnalysis scan;  // defaults: buffer 200, network threshold 15
  ScanVerdict verdict = ScanVerdict::kClean;
  int flows_needed = 0;
  for (std::uint32_t i = 0; i < 100 && verdict == ScanVerdict::kClean; ++i) {
    netflow::V5Record r = flow_to(host(i), 1434);
    r.proto = 17;
    r.bytes = 404;
    verdict = scan.observe(r);
    ++flows_needed;
  }
  EXPECT_EQ(verdict, ScanVerdict::kNetworkScan);
  EXPECT_EQ(flows_needed, 15);
}

TEST(ScanAnalysis, IdlescanPatternTripsHostScan) {
  ScanAnalysis scan;  // defaults: host threshold 15
  const auto victim = host(1);
  ScanVerdict verdict = ScanVerdict::kClean;
  int flows_needed = 0;
  for (std::uint16_t port = 1; port < 100 && verdict == ScanVerdict::kClean; ++port) {
    verdict = scan.observe(flow_to(victim, port));
    ++flows_needed;
  }
  EXPECT_EQ(verdict, ScanVerdict::kHostScan);
  EXPECT_EQ(flows_needed, 15);
}

/// A named stream of suspect-flow destinations.
struct ScanStream {
  std::string name;
  std::vector<netflow::V5Record> flows;
};

/// Random destinations from a small pool (pairs repeat, so pair counts
/// climb past 1), a one-host:port flood, a network scan (one port, a
/// sweep of hosts), a host scan (one host, a sweep of ports), and all four
/// interleaved.
std::vector<ScanStream> scan_streams() {
  util::Rng rng{11};
  std::vector<ScanStream> streams(5);
  streams[0].name = "random";
  streams[1].name = "flood";
  streams[2].name = "network-scan";
  streams[3].name = "host-scan";
  streams[4].name = "mixed";
  for (std::uint32_t i = 0; i < 3000; ++i) {
    const auto random_flow = flow_to(host(static_cast<std::uint32_t>(rng.below(300))),
                                     static_cast<std::uint16_t>(rng.below(40)));
    const auto flood_flow = flow_to(host(7), 53);
    const auto sweep_flow = flow_to(host(i % 700), 1434);
    const auto port_flow = flow_to(host(3), static_cast<std::uint16_t>(1 + i % 500));
    streams[0].flows.push_back(random_flow);
    streams[1].flows.push_back(flood_flow);
    streams[2].flows.push_back(sweep_flow);
    streams[3].flows.push_back(port_flow);
    const netflow::V5Record* mixed[] = {&random_flow, &flood_flow, &sweep_flow, &port_flow};
    streams[4].flows.push_back(*mixed[rng.below(4)]);
  }
  return streams;
}

TEST(ScanAnalysis, MatchesTheNodeBasedReferenceAfterEveryFlow) {
  for (const std::size_t buffer : {1u, 2u, 200u}) {
    for (const int threshold : {2, 15}) {
      ScanConfig config;
      config.buffer_size = buffer;
      config.network_scan_threshold = threshold;
      config.host_scan_threshold = threshold + 1;
      for (const auto& stream : scan_streams()) {
        ScanAnalysis scan(config);
        reference::ReferenceScan model(config);
        for (std::size_t i = 0; i < stream.flows.size(); ++i) {
          const auto& flow = stream.flows[i];
          const std::string where = stream.name + " buffer " + std::to_string(buffer) +
                                    " threshold " + std::to_string(threshold) +
                                    " flow " + std::to_string(i);
          ASSERT_EQ(scan.observe(flow), model.observe(flow)) << where;
          ASSERT_EQ(scan.hosts_on_port(flow.dst_port), model.hosts_on_port(flow.dst_port))
              << where;
          ASSERT_EQ(scan.ports_on_host(flow.dst_ip), model.ports_on_host(flow.dst_ip))
              << where;
          // A destination the stream may have buffered and since evicted.
          const auto& earlier = stream.flows[i / 2];
          ASSERT_EQ(scan.hosts_on_port(earlier.dst_port),
                    model.hosts_on_port(earlier.dst_port)) << where;
          ASSERT_EQ(scan.ports_on_host(earlier.dst_ip), model.ports_on_host(earlier.dst_ip))
              << where;
          ASSERT_EQ(scan.buffered_flows(), model.buffered_flows()) << where;
          const auto& got = scan.stats();
          const auto& want = model.stats();
          ASSERT_EQ(got.observed, want.observed) << where;
          ASSERT_EQ(got.network_scans, want.network_scans) << where;
          ASSERT_EQ(got.host_scans, want.host_scans) << where;
          ASSERT_EQ(got.evictions, want.evictions) << where;
        }
      }
    }
  }
}

TEST(ScanAnalysis, TablesStayBoundedUnderADestinationFlood) {
  // 10^6 distinct destinations (host, port): every flow is a new pair, a
  // new host and usually a new port, so every table churns at its bound.
  ScanAnalysis scan;
  const std::size_t bound = util::CountTable<std::uint64_t>::capacity_for(
      scan.config().buffer_size);
  util::SplitMix64 rng{5};
  for (int i = 0; i < 1'000'000; ++i) {
    const std::uint64_t bits = rng.next();
    scan.observe(flow_to(net::IPv4Address{static_cast<std::uint32_t>(bits)},
                         static_cast<std::uint16_t>(bits >> 32)));
    ASSERT_LE(scan.buffered_flows(), scan.config().buffer_size) << i;
    ASSERT_LE(scan.table_slots(), bound) << i;
  }
  EXPECT_EQ(scan.stats().evictions, 1'000'000u - scan.config().buffer_size);
}

TEST(ScanAnalysis, LargeBufferCommitsNoMemoryUpFront) {
  // infilter-detect --buffer accepts up to 2^24 flows: construction must
  // not size the ring or the tables for the whole buffer.
  const auto heap_bytes = [] {
    const auto info = mallinfo2();
    return info.uordblks + info.hblkhd;
  };
  const auto before = heap_bytes();
  ScanConfig config;
  config.buffer_size = std::size_t{1} << 24;
  const ScanAnalysis scan(config);
  const auto after = heap_bytes();
  EXPECT_LT(after - before, std::size_t{1} << 20);
  EXPECT_EQ(scan.buffered_flows(), 0u);
}

}  // namespace
}  // namespace infilter::core
