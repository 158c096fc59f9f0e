// Tests for EIA persistence and CIDR decomposition (core/eia_io.h).

#include "core/eia_io.h"

#include <gtest/gtest.h>

#include "util/rng.h"

namespace infilter::core {
namespace {

net::Prefix prefix(const char* text) { return *net::Prefix::parse(text); }

TEST(EiaCidrs, SinglePrefixRoundTrips) {
  EiaSet set;
  set.add(prefix("3.32.0.0/11"));
  const auto cidrs = set.to_cidrs();
  ASSERT_EQ(cidrs.size(), 1u);
  EXPECT_EQ(cidrs.front(), prefix("3.32.0.0/11"));
}

TEST(EiaCidrs, MergedAdjacentPrefixesCollapse) {
  EiaSet set;
  set.add(prefix("10.0.0.0/9"));
  set.add(prefix("10.128.0.0/9"));
  const auto cidrs = set.to_cidrs();
  ASSERT_EQ(cidrs.size(), 1u);
  EXPECT_EQ(cidrs.front(), prefix("10.0.0.0/8"));
}

TEST(EiaCidrs, UnalignedRangeDecomposesMinimally) {
  // [10.0.1.0, 10.0.3.255]: cannot be one CIDR (not aligned);
  // minimal cover is 10.0.1.0/24 + 10.0.2.0/23.
  EiaSet set;
  set.add(prefix("10.0.1.0/24"));
  set.add(prefix("10.0.2.0/23"));
  const auto cidrs = set.to_cidrs();
  ASSERT_EQ(cidrs.size(), 2u);
  EXPECT_EQ(cidrs[0], prefix("10.0.1.0/24"));
  EXPECT_EQ(cidrs[1], prefix("10.0.2.0/23"));
}

TEST(EiaCidrs, DecompositionCoversExactly) {
  // Randomized: decomposition covers the same membership as the set.
  util::Rng rng{5};
  EiaSet set;
  for (int i = 0; i < 30; ++i) {
    const auto base = static_cast<std::uint32_t>(rng.below(1 << 14));
    set.add(net::Prefix{net::IPv4Address{0x0A000000u + (base << 2)},
                        static_cast<int>(rng.range(24, 30))});
  }
  const auto cidrs = set.to_cidrs();
  // No overlaps, ascending order, and membership equivalence on probes.
  for (std::size_t i = 1; i < cidrs.size(); ++i) {
    EXPECT_GT(cidrs[i].first().value(), cidrs[i - 1].last().value());
  }
  std::uint64_t covered = 0;
  for (const auto& cidr : cidrs) covered += cidr.size();
  EXPECT_EQ(covered, set.address_count());
  for (int probe = 0; probe < 2000; ++probe) {
    const net::IPv4Address address{0x0A000000u +
                                   static_cast<std::uint32_t>(rng.below(1 << 16))};
    bool in_cidrs = false;
    for (const auto& cidr : cidrs) in_cidrs |= cidr.contains(address);
    EXPECT_EQ(in_cidrs, set.contains(address));
  }
}

TEST(EiaCidrs, FullSpace) {
  EiaSet set;
  set.add(prefix("0.0.0.0/0"));
  const auto cidrs = set.to_cidrs();
  ASSERT_EQ(cidrs.size(), 1u);
  EXPECT_EQ(cidrs.front().length(), 0);
}

TEST(EiaIo, ExportImportRoundTrip) {
  EiaTable table;
  table.add_expected(9001, prefix("3.0.0.0/11"));
  table.add_expected(9001, prefix("4.64.0.0/11"));
  table.add_expected(9002, prefix("3.32.0.0/11"));
  const auto text = export_eia(table);
  const auto imported = import_eia(text);
  ASSERT_TRUE(imported.has_value()) << imported.error().message;
  EXPECT_EQ(imported->ingresses(), table.ingresses());
  for (const char* probe : {"3.1.2.3", "4.70.0.1", "3.40.0.1", "9.9.9.9"}) {
    const auto address = *net::IPv4Address::parse(probe);
    EXPECT_EQ(imported->is_expected(9001, address), table.is_expected(9001, address))
        << probe;
    EXPECT_EQ(imported->is_expected(9002, address), table.is_expected(9002, address))
        << probe;
  }
}

TEST(EiaIo, LearnedEntriesSurviveRoundTrip) {
  EiaTableConfig config;
  config.learn_threshold = 2;
  EiaTable table(config);
  table.add_expected(9001, prefix("3.0.0.0/11"));
  table.observe_mismatch(9001, *net::IPv4Address::parse("77.1.2.3"));
  table.observe_mismatch(9001, *net::IPv4Address::parse("77.1.2.4"));  // learns /24
  ASSERT_TRUE(table.is_expected(9001, *net::IPv4Address::parse("77.1.2.200")));

  const auto imported = import_eia(export_eia(table));
  ASSERT_TRUE(imported.has_value());
  EXPECT_TRUE(imported->is_expected(9001, *net::IPv4Address::parse("77.1.2.200")));
  EXPECT_FALSE(imported->is_expected(9001, *net::IPv4Address::parse("77.1.3.1")));
}

TEST(EiaIo, ImportHandlesCommentsAndEmptyStanzas) {
  const auto imported = import_eia(
      "# top comment\n"
      "ingress 9001\n"
      "  # indented comment\n"
      "  3.0.0.0/11\n"
      "ingress 9002\n"  // empty stanza
      "ingress 9003\n"
      "  18.96.0.0/11\n");
  ASSERT_TRUE(imported.has_value()) << imported.error().message;
  EXPECT_EQ(imported->ingress_count(), 3u);
  EXPECT_TRUE(imported->is_expected(9001, *net::IPv4Address::parse("3.1.1.1")));
  ASSERT_NE(imported->set_for(9002), nullptr);
  EXPECT_EQ(imported->set_for(9002)->range_count(), 0u);
}

TEST(EiaIo, ImportRejectsPrefixBeforeStanza) {
  const auto imported = import_eia("3.0.0.0/11\n");
  ASSERT_FALSE(imported.has_value());
  EXPECT_NE(imported.error().message.find("line 1"), std::string::npos);
}

TEST(EiaIo, ImportRejectsBadIngressId) {
  EXPECT_FALSE(import_eia("ingress banana\n").has_value());
  EXPECT_FALSE(import_eia("ingress 99999\n").has_value());
}

TEST(EiaIo, ImportRejectsBadPrefix) {
  const auto imported = import_eia("ingress 9001\n  3.0.0.0/40\n");
  ASSERT_FALSE(imported.has_value());
  EXPECT_NE(imported.error().message.find("line 2"), std::string::npos);
}

TEST(EiaIo, ExactExportIsByteIdenticalAcrossRoundTrip) {
  EiaTable table;
  table.add_expected(9001, prefix("3.0.0.0/11"));
  table.add_expected(9002, prefix("18.96.0.0/11"));
  const auto text = export_eia(table);
  const auto imported = import_eia(text);
  ASSERT_TRUE(imported.has_value());
  EXPECT_EQ(export_eia(*imported), text);
}

TEST(EiaIo, BloomRoundTripAnswersIdentically) {
  EiaTableConfig config;
  config.backend.type = EiaBackendType::kBloom;
  config.backend.bits = 1 << 16;
  config.backend.hashes = 3;
  EiaTable table(config);
  table.declare_ingress(9002);  // empty stanza must survive
  util::SplitMix64 rng{3};
  for (int i = 0; i < 500; ++i) {
    table.add_expected(
        9001, net::Prefix{
                  net::IPv4Address{static_cast<std::uint32_t>(rng.next()) &
                                   0xFFFFFF00u},
                  24});
  }
  const auto text = export_eia(table);
  EXPECT_NE(text.find("backend bloom"), std::string::npos);
  // Import with a DIFFERENT caller config: the directive must win.
  const auto imported = import_eia(text);
  ASSERT_TRUE(imported.has_value()) << imported.error().message;
  EXPECT_EQ(imported->backend().type(), EiaBackendType::kBloom);
  EXPECT_EQ(imported->ingresses(), table.ingresses());
  // Identical answers, false positives included, on a wide probe sweep.
  util::SplitMix64 probe_rng{55};
  for (int i = 0; i < 20000; ++i) {
    const net::IPv4Address address{static_cast<std::uint32_t>(probe_rng.next())};
    ASSERT_EQ(imported->is_expected(9001, address),
              table.is_expected(9001, address))
        << address.to_string();
    ASSERT_EQ(imported->expected_ingress(address), table.expected_ingress(address))
        << address.to_string();
  }
  // And the re-export reproduces the file byte for byte.
  EXPECT_EQ(export_eia(*imported), text);
}

TEST(EiaIo, BloomAgingStateSurvivesRoundTrip) {
  EiaTableConfig config;
  config.backend.type = EiaBackendType::kBloom;
  config.backend.bits = 1 << 16;
  config.backend.subfilters = 3;
  config.backend.rotate_every = 2;
  EiaTable table(config);
  util::SplitMix64 rng{9};
  for (int i = 0; i < 4000; ++i) {
    table.add_expected(
        9001, net::Prefix{
                  net::IPv4Address{static_cast<std::uint32_t>(rng.next()) &
                                   0xFFFFFF00u},
                  24});
  }
  const auto& before = static_cast<const BankedBloomBase&>(table.backend());
  ASSERT_GT(before.rotations(), 0u);
  const auto text = export_eia(table);
  auto imported = import_eia(text);
  ASSERT_TRUE(imported.has_value()) << imported.error().message;
  const auto& after = static_cast<const BankedBloomBase&>(imported->backend());
  EXPECT_EQ(after.rotations(), before.rotations());
  EXPECT_EQ(after.insert_count(), before.insert_count());
  EXPECT_EQ(after.bank_current(), before.bank_current());
  EXPECT_EQ(after.bank_inserts(), before.bank_inserts());
  // The aging schedule continues identically: one more insert stream into
  // both tables keeps them in lockstep.
  util::SplitMix64 more{13};
  for (int i = 0; i < 200; ++i) {
    const net::Prefix p{
        net::IPv4Address{static_cast<std::uint32_t>(more.next()) & 0xFFFFFF00u},
        24};
    table.add_expected(9001, p);
    imported->add_expected(9001, p);
  }
  EXPECT_EQ(export_eia(*imported), export_eia(table));
}

TEST(EiaIo, CountingBloomRoundTripPreservesCounters) {
  EiaTableConfig config;
  config.backend.type = EiaBackendType::kCountingBloom;
  config.backend.bits = 1 << 16;
  EiaTable table(config);
  table.add_expected(9001, prefix("10.0.0.0/24"));
  table.add_expected(9001, prefix("10.0.0.0/24"));  // counter = 2
  table.add_expected(9001, prefix("10.0.1.0/24"));
  const auto text = export_eia(table);
  EXPECT_NE(text.find("backend cbloom"), std::string::npos);
  auto imported = import_eia(text);
  ASSERT_TRUE(imported.has_value()) << imported.error().message;
  // Counter values (not just membership) round-trip: one unlearn leaves
  // the double-added key present, a second removes it.
  auto& backend = imported->backend_mut();
  ASSERT_TRUE(backend.supports_unlearn());
  backend.unlearn(9001, prefix("10.0.0.0/24"));
  EXPECT_TRUE(imported->is_expected(9001, *net::IPv4Address::parse("10.0.0.1")));
  backend.unlearn(9001, prefix("10.0.0.0/24"));
  EXPECT_FALSE(imported->is_expected(9001, *net::IPv4Address::parse("10.0.0.1")));
  EXPECT_TRUE(imported->is_expected(9001, *net::IPv4Address::parse("10.0.1.1")));
}

TEST(EiaIo, PerIngressBloomRoundTrips) {
  EiaTableConfig config;
  config.backend.type = EiaBackendType::kBloom;
  config.backend.bits = 1 << 16;
  config.backend.per_ingress = true;
  EiaTable table(config);
  table.add_expected(9001, prefix("10.1.0.0/24"));
  table.add_expected(9003, prefix("10.3.0.0/24"));
  table.add_expected(9002, prefix("10.2.0.0/24"));
  const auto text = export_eia(table);
  const auto imported = import_eia(text);
  ASSERT_TRUE(imported.has_value()) << imported.error().message;
  EXPECT_TRUE(imported->is_expected(9001, *net::IPv4Address::parse("10.1.0.9")));
  EXPECT_TRUE(imported->is_expected(9002, *net::IPv4Address::parse("10.2.0.9")));
  EXPECT_TRUE(imported->is_expected(9003, *net::IPv4Address::parse("10.3.0.9")));
  EXPECT_FALSE(imported->is_expected(9002, *net::IPv4Address::parse("10.1.0.9")));
  EXPECT_EQ(export_eia(*imported), text);
}

TEST(EiaIo, BackendDirectiveOverridesCallerConfig) {
  // A caller configured for exact still gets a Bloom table back when the
  // file says so -- the file is the authority on its own representation.
  const auto imported = import_eia(
      "backend bloom bits=65536 k=2 subfilters=1 rotate=0 per_ingress=0 "
      "seed=1 inserts=0 rotations=0\n"
      "ingress 9001\n"
      "filter 0\n");
  ASSERT_TRUE(imported.has_value()) << imported.error().message;
  EXPECT_EQ(imported->backend().type(), EiaBackendType::kBloom);
  EXPECT_EQ(imported->ingress_count(), 1u);
}

TEST(EiaIo, RejectsMalformedBackendState) {
  // Directive after state lines.
  EXPECT_FALSE(import_eia("ingress 9001\nbackend bloom\n").has_value());
  // State lines without a probabilistic backend.
  EXPECT_FALSE(import_eia("ingress 9001\nwords 0 0000000000000001\n").has_value());
  // Word index out of range.
  EXPECT_FALSE(
      import_eia("backend bloom bits=65536\nfilter 0\nwords 999999999 "
                 "0000000000000001\n")
          .has_value());
  // Bad hex width.
  EXPECT_FALSE(
      import_eia("backend bloom bits=65536\nfilter 0\nwords 0 1\n").has_value());
  // Unknown parameter.
  EXPECT_FALSE(import_eia("backend bloom frobs=1\n").has_value());
  // 'bytes' under a bloom backend.
  EXPECT_FALSE(
      import_eia("backend bloom bits=65536\nfilter 0\nbytes 0 01\n").has_value());
}

// A hostile dump must fail to import, not abort the process: a budget
// above kMaxEiaBackendBits is refused before anything is allocated.
TEST(EiaIo, RejectsBackendBudgetsAboveTheCap) {
  const auto hostile = import_eia(
      "backend cbloom bits=40911111116 k=4 subfilters=1 rotate=0 per_ingress=0 "
      "seed=1 inserts=0 rotations=0\n"
      "ingress 9001\n");
  ASSERT_FALSE(hostile.has_value());
  EXPECT_NE(hostile.error().message.find("cap"), std::string::npos);
  EXPECT_FALSE(import_eia("backend bloom bits=1073741825\n").has_value());
  // Per-ingress filters count against the same cap: one 2^29+1-bit filter
  // fits, a second would cross 2^30 and is refused before it is allocated.
  const std::string per_ingress =
      "backend bloom bits=536870913 per_ingress=1\ningress 9001\n";
  EXPECT_TRUE(import_eia(per_ingress).has_value());
  const auto two = import_eia(per_ingress + "ingress 9002\n");
  ASSERT_FALSE(two.has_value());
  EXPECT_NE(two.error().message.find("cap"), std::string::npos);
  // Re-opening a declared ingress allocates nothing new.
  EXPECT_TRUE(import_eia(per_ingress + "ingress 9001\n").has_value());
}

}  // namespace
}  // namespace infilter::core
