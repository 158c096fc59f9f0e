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
  auto imported = import_eia(text);
  ASSERT_TRUE(imported.has_value()) << imported.error().message;
  EXPECT_EQ(imported->ingresses(), table.ingresses());
  for (const char* probe : {"3.1.2.3", "4.70.0.1", "3.40.0.1", "9.9.9.9"}) {
    const auto address = *net::IPv4Address::parse(probe);
    EXPECT_EQ(imported->is_expected(9001, address, 0),
              table.is_expected(9001, address, 0))
        << probe;
    EXPECT_EQ(imported->is_expected(9002, address, 0),
              table.is_expected(9002, address, 0))
        << probe;
  }
}

TEST(EiaIo, LearnedEntriesSurviveRoundTrip) {
  EiaTableConfig config;
  config.learn_threshold = 2;
  EiaTable table(config);
  table.add_expected(9001, prefix("3.0.0.0/11"));
  table.observe_mismatch(9001, *net::IPv4Address::parse("77.1.2.3"), 0);
  table.observe_mismatch(9001, *net::IPv4Address::parse("77.1.2.4"), 0);  // learns /24
  ASSERT_TRUE(table.is_expected(9001, *net::IPv4Address::parse("77.1.2.200"), 0));

  auto imported = import_eia(export_eia(table));
  ASSERT_TRUE(imported.has_value());
  EXPECT_TRUE(imported->is_expected(9001, *net::IPv4Address::parse("77.1.2.200"), 0));
  EXPECT_FALSE(imported->is_expected(9001, *net::IPv4Address::parse("77.1.3.1"), 0));
}

TEST(EiaIo, ImportHandlesCommentsAndEmptyStanzas) {
  auto imported = import_eia(
      "# top comment\n"
      "ingress 9001\n"
      "  # indented comment\n"
      "  3.0.0.0/11\n"
      "ingress 9002\n"  // empty stanza
      "ingress 9003\n"
      "  18.96.0.0/11\n");
  ASSERT_TRUE(imported.has_value()) << imported.error().message;
  EXPECT_EQ(imported->ingress_count(), 3u);
  EXPECT_TRUE(imported->is_expected(9001, *net::IPv4Address::parse("3.1.1.1"), 0));
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
  // A legacy probabilistic-backend dump: its directive is not a prefix.
  const auto legacy = import_eia(
      "# InFilter EIA backend state\n"
      "backend bloom bits=65536 k=2 subfilters=1 rotate=0 per_ingress=0 seed=1 "
      "inserts=1 rotations=0\n"
      "ingress 9001\n"
      "filter 0\n"
      "words 0 0000000000000001\n");
  ASSERT_FALSE(legacy.has_value());
  EXPECT_NE(legacy.error().message.find("line 2"), std::string::npos);
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

}  // namespace
}  // namespace infilter::core
