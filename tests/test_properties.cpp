// Property-based tests: randomized inputs checked against reference
// models and invariants, parameterized over seeds (TEST_P sweeps).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>

#include "alert/idmef_io.h"
#include "core/eia.h"
#include "core/eia_io.h"
#include "core/scan.h"
#include "dagflow/dagflow.h"
#include "hopcount/hopcount_io.h"
#include "netflow/flow_cache.h"
#include "netflow/v5.h"
#include "nns/encoding.h"
#include "nns/kor.h"
#include "routing/routeviews.h"
#include "sim/testbed.h"
#include "util/rng.h"

namespace infilter {
namespace {

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};
INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

// --- EiaSet vs a reference interval set -------------------------------

TEST_P(SeededProperty, EiaSetMatchesReferenceModel) {
  util::Rng rng{GetParam()};
  core::EiaSet set;
  // Reference: explicit membership over a small address universe. Keep the
  // universe at 2^16 addresses (10.0.x.y) so exhaustive checks are cheap.
  std::vector<bool> reference(1 << 16, false);

  for (int i = 0; i < 120; ++i) {
    const int length = static_cast<int>(rng.range(18, 32));
    const auto base = static_cast<std::uint32_t>(rng.below(1 << 16));
    const net::Prefix prefix{net::IPv4Address{0x0A000000u + base}, length};
    set.add(prefix);
    for (std::uint32_t a = prefix.first().value(); a <= prefix.last().value(); ++a) {
      if ((a & 0xFFFF0000u) == 0x0A000000u) reference[a & 0xFFFFu] = true;
    }
  }
  // Membership agrees on 4000 random probes plus structured corners.
  for (int probe = 0; probe < 4000; ++probe) {
    const auto a = static_cast<std::uint32_t>(rng.below(1 << 16));
    EXPECT_EQ(set.contains(net::IPv4Address{0x0A000000u + a}), reference[a]) << a;
  }
  // Ranges stay sorted, disjoint and non-adjacent (canonical form) --
  // implied by matching the reference everywhere plus minimal range count:
  std::uint64_t runs = 0;
  for (std::size_t a = 0; a < reference.size(); ++a) {
    if (reference[a] && (a == 0 || !reference[a - 1])) ++runs;
  }
  EXPECT_EQ(set.range_count(), runs);
}

// --- FlowCache conservation against a packet ledger -------------------

TEST_P(SeededProperty, FlowCacheConservesPacketsAndBytes) {
  util::Rng rng{GetParam()};
  netflow::FlowCacheConfig config;
  config.max_entries = 64;
  config.idle_timeout = 5000;
  config.active_timeout = 60000;
  netflow::FlowCache cache{config};

  std::uint64_t packets_in = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t packets_out = 0;
  std::uint64_t bytes_out = 0;

  util::TimeMs now = 0;
  for (int i = 0; i < 3000; ++i) {
    now += rng.below(200);
    netflow::PacketObservation packet;
    packet.key.src_ip = net::IPv4Address{10, 0, 0, static_cast<std::uint8_t>(rng.below(40))};
    packet.key.dst_ip = net::IPv4Address{100, 64, 0, static_cast<std::uint8_t>(rng.below(8))};
    packet.key.proto = rng.chance(0.7) ? 6 : 17;
    packet.key.src_port = static_cast<std::uint16_t>(rng.range(1024, 1060));
    packet.key.dst_port = 80;
    packet.bytes = static_cast<std::uint32_t>(rng.range(40, 1500));
    packet.tcp_flags = rng.chance(0.05) ? netflow::tcpflags::kFin : 0;
    packet.time = now;
    packets_in += 1;
    bytes_in += packet.bytes;
    cache.observe(packet);
    if (i % 50 == 0) cache.advance(now);
    for (const auto& record : cache.drain_expired()) {
      packets_out += record.packets;
      bytes_out += record.bytes;
    }
  }
  for (const auto& record : cache.flush(now + 1)) {
    packets_out += record.packets;
    bytes_out += record.bytes;
  }
  // Every packet and byte observed leaves the cache exactly once.
  EXPECT_EQ(packets_in, packets_out);
  EXPECT_EQ(bytes_in, bytes_out);
  EXPECT_EQ(cache.active_flows(), 0u);
}

TEST_P(SeededProperty, FlowCacheRecordsRespectTimestamps) {
  util::Rng rng{GetParam() ^ 0xabcd};
  netflow::FlowCache cache{netflow::FlowCacheConfig{}};
  util::TimeMs now = 1000;
  for (int i = 0; i < 500; ++i) {
    now += rng.below(100);
    netflow::PacketObservation packet;
    packet.key.src_ip = net::IPv4Address{static_cast<std::uint32_t>(rng.below(16))};
    packet.key.dst_ip = net::IPv4Address{1, 2, 3, 4};
    packet.key.proto = 17;
    packet.bytes = 100;
    packet.time = now;
    cache.observe(packet);
  }
  for (const auto& record : cache.flush(now)) {
    EXPECT_LE(record.first, record.last);
    EXPECT_GE(record.packets, 1u);
  }
}

// --- NetFlow decode fuzz ----------------------------------------------

TEST_P(SeededProperty, DecodeNeverAcceptsRandomBytes) {
  util::Rng rng{GetParam() ^ 0xf00d};
  for (int trial = 0; trial < 400; ++trial) {
    std::vector<std::uint8_t> buffer(rng.below(200));
    for (auto& byte : buffer) byte = static_cast<std::uint8_t>(rng());
    // Random buffers essentially never carry version 5 with a consistent
    // length; whatever the outcome, decode must not crash and an accepted
    // buffer must be structurally consistent.
    const auto decoded = netflow::decode(buffer);
    if (decoded.has_value()) {
      EXPECT_EQ(buffer.size(), netflow::kV5HeaderBytes +
                                   decoded->records.size() * netflow::kV5RecordBytes);
    }
  }
}

TEST_P(SeededProperty, DecodeRejectsAllTruncations) {
  util::Rng rng{GetParam() ^ 0xbeef};
  std::vector<netflow::V5Record> records(3);
  for (auto& r : records) {
    r.src_ip = net::IPv4Address{static_cast<std::uint32_t>(rng())};
    r.packets = 1;
    r.bytes = 40;
  }
  const auto wire = netflow::encode(netflow::V5Header{}, records);
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    const auto truncated =
        std::vector<std::uint8_t>(wire.begin(), wire.begin() + static_cast<long>(cut));
    EXPECT_FALSE(netflow::decode(truncated).has_value()) << "cut at " << cut;
  }
  EXPECT_TRUE(netflow::decode(wire).has_value());
}

// --- Persisted-state import fuzz --------------------------------------

/// One to three single-byte edits (replace, insert, delete).
std::string mutate(std::string text, util::Rng& rng) {
  static constexpr std::string_view kAlphabet =
      "0123456789abcdefghijklmnopqrstuvwxyz ./=-#\t\n";
  for (auto edits = rng.range(1, 3); edits > 0; --edits) {
    const std::size_t at = rng.below(text.size());
    const char c = rng.chance(0.2) ? static_cast<char>(rng())
                                   : kAlphabet[rng.below(kAlphabet.size())];
    const auto op = rng.below(3);
    if (op == 0) text[at] = c;
    else if (op == 1) text.insert(at, 1, c);
    else text.erase(at, 1);
  }
  return text;
}

std::string render_idmef(const std::vector<alert::Alert>& alerts) {
  std::string feed;
  for (const auto& a : alerts) feed += a.to_idmef_xml();
  return feed;
}

TEST_P(SeededProperty, ImportNeverCrashesOnMutatedDumps) {
  util::Rng rng{GetParam() ^ 0xd00d};
  const auto source = [](std::uint32_t i) { return net::IPv4Address{(10u << 24) | (i << 8)}; };
  // Every persisted format: an EIA dump with age metadata and a pending
  // counter, a hop-count dump, an IDMEF alert feed and a Routeviews table.
  core::EiaTableConfig eia_config;
  eia_config.lifecycle.max_idle_ms = 60'000;
  core::EiaTable eia(eia_config);
  eia.add_expected(9001, *net::Prefix::parse("10.1.0.0/16"));
  eia.declare_ingress(9003);
  for (std::uint32_t i = 0; i < 12; ++i) {
    for (std::uint32_t k = 0; k < (i == 11 ? 2 : 5); ++k) {
      (void)eia.observe_mismatch(static_cast<core::IngressId>(9001 + i % 3), source(i),
                                 1000 * i + k);
    }
  }
  const std::string eia_dump = core::export_eia(eia);
  ASSERT_NE(eia_dump.find("lifecycle v1 max_idle=60000\n"), std::string::npos);

  hopcount::HopCountTable hops;
  for (std::uint32_t i = 0; i < 48; ++i) {
    hops.observe(static_cast<core::IngressId>(9001 + i % 2), source(i % 8),
                 static_cast<std::uint8_t>(50 + i % 8), 100 * i);
  }
  const std::string hop_dump = hopcount::export_hopcount(hops);

  std::vector<alert::Alert> alerts;
  for (std::uint32_t i = 0; i < 3; ++i) {
    alert::Alert a;
    a.id = 40 + i;
    a.create_time = 1'000'000 + 77 * i;
    a.stage = static_cast<alert::DetectionStage>(i % 3);
    a.source_ip = source(i);
    a.target_ip = net::IPv4Address{(192u << 24) | (i + 1)};
    a.target_port = static_cast<std::uint16_t>(i == 0 ? 0 : 1434);
    a.proto = 17;
    a.ingress_port = static_cast<std::uint16_t>(9001 + i);
    a.expected_ingress = i == 1 ? -1 : 9004;
    if (a.stage == alert::DetectionStage::kNnsDistance) {
      a.nns_distance = 310;
      a.nns_threshold = 120;
    }
    alerts.push_back(std::move(a));
  }
  const std::string idmef_feed = render_idmef(alerts);

  routing::BgpTable bgp;
  for (int i = 0; i < 6; ++i) {
    bgp.add(routing::BgpTableEntry{
        .best = i % 3 == 0,
        .prefix = net::Prefix{net::IPv4Address{(4u << 24) | (static_cast<std::uint32_t>(i) << 16)},
                              i < 3 ? 16 : 24},
        .next_hop = net::IPv4Address{(193u << 24) | static_cast<std::uint32_t>(56 + i)},
        .as_path = {3333 + i, 3356, 1},
        .origin_code = i == 4 ? 'e' : 'i'});
  }
  const std::string bgp_dump = bgp.to_text();

  // Whatever the edit, parsing fails cleanly or yields a value whose
  // rendering is a fixed point of parse-then-render.
  int accepted = 0;
  const auto fuzz = [&](const std::string& dump, const auto& import, const auto& render) {
    const std::string mutant = mutate(dump, rng);
    std::optional<decltype(import(mutant))> imported;
    ASSERT_NO_THROW(imported.emplace(import(mutant))) << mutant;
    if (!imported->has_value()) return;
    ++accepted;
    const std::string canonical = render(imported->value());
    const auto again = import(canonical);
    ASSERT_TRUE(again.has_value()) << again.error().message << "\n" << mutant;
    EXPECT_EQ(render(*again), canonical) << mutant;
  };
  for (int trial = 0; trial < 600; ++trial) {
    fuzz(eia_dump, [&](std::string_view text) { return core::import_eia(text, eia_config); },
         [](const core::EiaTable& table) { return core::export_eia(table); });
    fuzz(hop_dump, [](std::string_view text) { return hopcount::import_hopcount(text); },
         [](const hopcount::HopCountTable& table) { return hopcount::export_hopcount(table); });
    fuzz(idmef_feed, [](std::string_view text) { return alert::parse_idmef_stream(text); },
         render_idmef);
    fuzz(bgp_dump, [](std::string_view text) { return routing::BgpTable::parse(text); },
         [](const routing::BgpTable& table) { return table.to_text(); });
  }
  EXPECT_GT(accepted, 0);  // comment and whitespace edits parse
}

// --- Unary encoding: Hamming distance is an L1 metric ------------------

TEST_P(SeededProperty, UnaryDistanceIsL1OnQuantizedFeatures) {
  util::Rng rng{GetParam() ^ 0x111};
  const nns::UnaryEncoder encoder({{0, 1000}, {0, 50}, {0, 1e6}}, 60);
  for (int trial = 0; trial < 200; ++trial) {
    const std::vector<double> x{rng.uniform() * 1000, rng.uniform() * 50,
                                rng.uniform() * 1e6};
    const std::vector<double> y{rng.uniform() * 1000, rng.uniform() * 50,
                                rng.uniform() * 1e6};
    int l1 = 0;
    for (std::size_t c = 0; c < x.size(); ++c) {
      l1 += std::abs(encoder.quantize(x[c], c) - encoder.quantize(y[c], c));
    }
    EXPECT_EQ(encoder.encode(x).hamming_distance(encoder.encode(y)), l1);
  }
}

// --- KOR: reported distances are real and never below the exact NN -----

TEST_P(SeededProperty, KorDistanceNeverBeatsExact) {
  util::Rng rng{GetParam() ^ 0x222};
  const nns::UnaryEncoder encoder({{0, 1000}}, 240);
  std::vector<nns::BitVector> training;
  for (int i = 0; i < 120; ++i) {
    // Two clusters plus sparse outliers.
    double value = rng.chance(0.45)   ? 100 + rng.uniform() * 60
                   : rng.chance(0.8) ? 700 + rng.uniform() * 60
                                     : rng.uniform() * 1000;
    training.push_back(encoder.encode(std::vector<double>{value}));
  }
  nns::KorParams params;
  params.seed = GetParam();
  const nns::KorNns kor(training, params);
  const nns::ExactNns exact(training);
  util::Rng query_rng{GetParam() ^ 0x333};
  int found = 0;
  for (int q = 0; q < 100; ++q) {
    const auto query =
        encoder.encode(std::vector<double>{query_rng.uniform() * 1000});
    const auto approx = kor.search(query, query_rng);
    const auto truth = exact.search(query, query_rng);
    ASSERT_TRUE(truth.has_value());
    if (approx.has_value()) {
      ++found;
      EXPECT_GE(approx->distance, truth->distance);
      // The returned index really is a training flow at that distance.
      EXPECT_EQ(approx->distance,
                query.hamming_distance(kor.training_flow(approx->index)));
    }
  }
  EXPECT_GT(found, 80);  // the structure finds neighbors for most queries
}

// --- ScanAnalysis vs a naive sliding-window recount ---------------------

TEST_P(SeededProperty, ScanCountersMatchNaiveRecount) {
  util::Rng rng{GetParam() ^ 0x444};
  core::ScanConfig config;
  config.buffer_size = 64;
  config.network_scan_threshold = 1 << 20;  // never trip: observe only
  config.host_scan_threshold = 1 << 20;
  core::ScanAnalysis scan(config);
  std::deque<std::pair<std::uint32_t, std::uint16_t>> window;

  for (int i = 0; i < 2000; ++i) {
    netflow::V5Record record;
    record.dst_ip = net::IPv4Address{static_cast<std::uint32_t>(rng.below(12))};
    record.dst_port = static_cast<std::uint16_t>(rng.below(6));
    scan.observe(record);
    window.emplace_back(record.dst_ip.value(), record.dst_port);
    if (window.size() > config.buffer_size) window.pop_front();

    if (i % 97 != 0) continue;
    // Recount from the reference window.
    std::set<std::uint32_t> hosts;
    std::set<std::uint16_t> ports;
    for (const auto& [host, port] : window) {
      if (port == record.dst_port) hosts.insert(host);
      if (host == record.dst_ip.value()) ports.insert(port);
    }
    EXPECT_EQ(scan.hosts_on_port(record.dst_port), static_cast<int>(hosts.size()));
    EXPECT_EQ(scan.ports_on_host(record.dst_ip), static_cast<int>(ports.size()));
  }
}

// --- AddressPool clustering --------------------------------------------

TEST_P(SeededProperty, ClusteredPoolUsesAtMostKSlash24sPerBlock) {
  util::Rng rng{GetParam() ^ 0x555};
  const auto block = *net::SubBlock::parse("42c");
  dagflow::AddressPool pool({{{block.prefix()}, 1.0, 4}});
  std::set<std::uint32_t> slash24s;
  for (int i = 0; i < 5000; ++i) {
    const auto address = pool.draw(rng);
    EXPECT_TRUE(block.prefix().contains(address));
    slash24s.insert(address.value() >> 8);
  }
  EXPECT_LE(slash24s.size(), 4u);
  EXPECT_GE(slash24s.size(), 2u);  // skewed, but not degenerate
}

// --- Testbed metamorphic relations -------------------------------------

sim::ExperimentConfig tiny_config(std::uint64_t seed) {
  sim::ExperimentConfig config;
  config.normal_flows_per_source = 1000;
  config.training_flows = 500;
  config.attack_volume = 0.04;
  config.engine.cluster.bits_per_feature = 48;
  config.seed = seed;
  return config;
}

TEST_P(SeededProperty, BasicNeverHasFewerFalsePositivesThanEnhanced) {
  auto config = tiny_config(GetParam());
  config.route_change_blocks = 4;
  config.engine.use_scan_analysis = config.engine.use_nns = false;
  const auto basic = sim::run_experiment(config);
  config.engine.use_scan_analysis = config.engine.use_nns = true;
  const auto enhanced = sim::run_experiment(config);
  EXPECT_GE(basic.false_positive_rate(), enhanced.false_positive_rate());
  EXPECT_GE(basic.detection_rate(), enhanced.detection_rate());
}

TEST_P(SeededProperty, MoreDriftMoreBasicFalsePositives) {
  auto config = tiny_config(GetParam() ^ 0x666);
  config.engine.use_scan_analysis = config.engine.use_nns = false;
  config.companion_fraction = 0;
  config.ingress_drift = 0.005;
  const auto low = sim::run_experiment(config);
  config.ingress_drift = 0.04;
  const auto high = sim::run_experiment(config);
  EXPECT_GT(high.false_positive_rate(), low.false_positive_rate());
}

TEST_P(SeededProperty, DetectionLatencyIsNonNegativeAndFinite) {
  const auto result = sim::run_experiment(tiny_config(GetParam() ^ 0x777));
  EXPECT_GE(result.mean_detection_latency_ms, 0.0);
  EXPECT_LT(result.mean_detection_latency_ms, 1e7);
}

}  // namespace
}  // namespace infilter
