// Tests for EIA sets and the per-ingress EIA table (core/eia.h).

#include "core/eia.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/eia_io.h"
#include "suspect_state_reference.h"
#include "util/rng.h"

namespace infilter::core {
namespace {

net::IPv4Address ip(const char* text) { return *net::IPv4Address::parse(text); }
net::Prefix prefix(const char* text) { return *net::Prefix::parse(text); }

std::size_t bank_of(std::uint32_t key24) {
  return util::SplitMix64{key24}.next() % EiaTable::kPendingBanks;
}

/// A /24 key landing in the same pending bank as `with` (the bank hash is
/// the runtime's shard hash; searching beats re-deriving it in the test).
std::uint32_t colliding_slash24(std::uint32_t with) {
  for (std::uint32_t i = 1;; ++i) {
    const std::uint32_t key = with + (i << 8);
    if (bank_of(key) == bank_of(with)) return key;
  }
}

TEST(EiaSet, EmptyContainsNothing) {
  const EiaSet set;
  EXPECT_FALSE(set.contains(ip("1.2.3.4")));
  EXPECT_EQ(set.range_count(), 0u);
}

TEST(EiaSet, SinglePrefixMembership) {
  EiaSet set;
  set.add(prefix("10.0.0.0/8"));
  EXPECT_TRUE(set.contains(ip("10.0.0.0")));
  EXPECT_TRUE(set.contains(ip("10.255.255.255")));
  EXPECT_FALSE(set.contains(ip("9.255.255.255")));
  EXPECT_FALSE(set.contains(ip("11.0.0.0")));
  EXPECT_EQ(set.address_count(), std::uint64_t{1} << 24);
}

TEST(EiaSet, DisjointPrefixesKeepSeparateRanges) {
  EiaSet set;
  set.add(prefix("10.0.0.0/8"));
  set.add(prefix("20.0.0.0/8"));
  EXPECT_EQ(set.range_count(), 2u);
  EXPECT_TRUE(set.contains(ip("10.1.1.1")));
  EXPECT_TRUE(set.contains(ip("20.1.1.1")));
  EXPECT_FALSE(set.contains(ip("15.0.0.0")));
}

TEST(EiaSet, AdjacentPrefixesMerge) {
  EiaSet set;
  set.add(prefix("10.0.0.0/9"));
  set.add(prefix("10.128.0.0/9"));
  EXPECT_EQ(set.range_count(), 1u);
  EXPECT_EQ(set.address_count(), std::uint64_t{1} << 24);
}

TEST(EiaSet, OverlappingPrefixesMerge) {
  EiaSet set;
  set.add(prefix("10.0.0.0/8"));
  set.add(prefix("10.32.0.0/11"));  // contained
  EXPECT_EQ(set.range_count(), 1u);
  EXPECT_EQ(set.address_count(), std::uint64_t{1} << 24);
  set.add(prefix("8.0.0.0/7"));  // overlaps [8.0.0.0, 9.255.255.255]; adjacent to 10/8
  EXPECT_EQ(set.range_count(), 1u);
  EXPECT_TRUE(set.contains(ip("8.0.0.1")));
}

TEST(EiaSet, ManyInsertsOutOfOrder) {
  EiaSet set;
  // /24s inserted in shuffled order spanning 30.0.[0..63].0/24.
  for (int i = 63; i >= 0; i -= 2) {
    set.add(net::Prefix{net::IPv4Address{30, 0, static_cast<std::uint8_t>(i), 0}, 24});
  }
  for (int i = 0; i < 64; i += 2) {
    set.add(net::Prefix{net::IPv4Address{30, 0, static_cast<std::uint8_t>(i), 0}, 24});
  }
  EXPECT_EQ(set.range_count(), 1u);  // everything coalesces
  EXPECT_EQ(set.address_count(), 64u * 256u);
}

TEST(EiaSet, DuplicateAddIsIdempotent) {
  EiaSet set;
  set.add(prefix("10.0.0.0/8"));
  set.add(prefix("10.0.0.0/8"));
  EXPECT_EQ(set.range_count(), 1u);
  EXPECT_EQ(set.address_count(), std::uint64_t{1} << 24);
}

TEST(EiaSet, FullSpaceRange) {
  EiaSet set;
  set.add(prefix("0.0.0.0/0"));
  EXPECT_TRUE(set.contains(ip("0.0.0.0")));
  EXPECT_TRUE(set.contains(ip("255.255.255.255")));
  EXPECT_EQ(set.range_count(), 1u);
}

TEST(EiaSet, TopOfSpacePrefixMembership) {
  // Ranges ending at 255.255.255.255 exercise the r.last != ~0u guard:
  // "last + 1" would wrap to zero and break the insertion-window search.
  EiaSet set;
  set.add(prefix("255.255.255.0/24"));
  EXPECT_TRUE(set.contains(ip("255.255.255.0")));
  EXPECT_TRUE(set.contains(ip("255.255.255.255")));
  EXPECT_FALSE(set.contains(ip("255.255.254.255")));
  EXPECT_EQ(set.address_count(), 256u);
}

TEST(EiaSet, AdjacentBelowTopOfSpaceMerges) {
  EiaSet set;
  set.add(prefix("255.255.255.128/25"));  // ends at the very top
  set.add(prefix("255.255.255.0/25"));    // adjacent below
  EXPECT_EQ(set.range_count(), 1u);
  EXPECT_TRUE(set.contains(ip("255.255.255.255")));
  EXPECT_EQ(set.address_count(), 256u);
}

TEST(EiaSet, InsertBelowExistingTopOfSpaceRange) {
  // With a top-ending range already stored, inserting a disjoint lower
  // range must not be swallowed by a wrapped "last + 1 < first" compare.
  EiaSet set;
  set.add(prefix("255.255.255.255/32"));
  set.add(prefix("10.0.0.0/24"));
  EXPECT_EQ(set.range_count(), 2u);
  EXPECT_TRUE(set.contains(ip("10.0.0.1")));
  EXPECT_TRUE(set.contains(ip("255.255.255.255")));
  EXPECT_FALSE(set.contains(ip("255.255.255.254")));
  set.add(prefix("255.255.255.254/31"));  // merges into the top range only
  EXPECT_EQ(set.range_count(), 2u);
  EXPECT_TRUE(set.contains(ip("255.255.255.254")));
}

TEST(EiaSet, TopOfSpaceOverlapCoalesces) {
  EiaSet set;
  set.add(prefix("255.255.0.0/16"));
  set.add(prefix("255.0.0.0/8"));  // covers and extends below
  EXPECT_EQ(set.range_count(), 1u);
  EXPECT_EQ(set.address_count(), std::uint64_t{1} << 24);
  EXPECT_TRUE(set.contains(ip("255.255.255.255")));
}

TEST(EiaSet, ToCidrsRoundTripsTopOfSpace) {
  EiaSet set;
  set.add(prefix("255.255.255.0/24"));
  set.add(prefix("255.255.128.0/17"));
  const auto cidrs = set.to_cidrs();
  EiaSet rebuilt;
  for (const auto& p : cidrs) rebuilt.add(p);
  EXPECT_EQ(rebuilt.range_count(), set.range_count());
  EXPECT_EQ(rebuilt.address_count(), set.address_count());
  EXPECT_TRUE(rebuilt.contains(ip("255.255.255.255")));
}

TEST(EiaSet, ToCidrsRoundTripProperty) {
  // Pseudorandom prefixes (top-of-space biased), decomposed and re-added,
  // must reproduce the identical range structure.
  util::SplitMix64 rng{0xe1a5e7};
  for (int trial = 0; trial < 50; ++trial) {
    EiaSet set;
    for (int i = 0; i < 40; ++i) {
      const auto word = rng.next();
      const int length = static_cast<int>(word % 33);
      std::uint32_t base = static_cast<std::uint32_t>(word >> 32);
      if (i % 5 == 0) base |= 0xFFF00000u;  // bias toward the top of space
      const std::uint32_t mask =
          length == 0 ? 0u : ~std::uint32_t{0} << (32 - length);
      set.add(net::Prefix{net::IPv4Address{base & mask}, length});
    }
    EiaSet rebuilt;
    for (const auto& p : set.to_cidrs()) rebuilt.add(p);
    ASSERT_EQ(rebuilt.range_count(), set.range_count()) << "trial " << trial;
    ASSERT_EQ(rebuilt.address_count(), set.address_count()) << "trial " << trial;
    for (int probe = 0; probe < 200; ++probe) {
      const auto address = net::IPv4Address{static_cast<std::uint32_t>(rng.next())};
      ASSERT_EQ(rebuilt.contains(address), set.contains(address))
          << "trial " << trial << " @ " << address.to_string();
    }
  }
}

TEST(EiaTable, ExpectedLookupPerIngress) {
  EiaTable table;
  table.add_expected(9001, prefix("3.0.0.0/11"));
  table.add_expected(9002, prefix("3.32.0.0/11"));
  EXPECT_TRUE(table.is_expected(9001, ip("3.1.2.3"), 0));
  EXPECT_FALSE(table.is_expected(9002, ip("3.1.2.3"), 0));
  EXPECT_TRUE(table.is_expected(9002, ip("3.40.0.1"), 0));
  EXPECT_FALSE(table.is_expected(9003, ip("3.1.2.3"), 0));  // unknown ingress
}

TEST(EiaTable, ExpectedIngressFindsOwner) {
  EiaTable table;
  table.add_expected(9001, prefix("3.0.0.0/11"));
  table.add_expected(9002, prefix("3.32.0.0/11"));
  EXPECT_EQ(table.expected_ingress(ip("3.1.2.3"), 0), std::optional<IngressId>{9001});
  EXPECT_EQ(table.expected_ingress(ip("3.40.0.1"), 0), std::optional<IngressId>{9002});
  EXPECT_EQ(table.expected_ingress(ip("99.0.0.1"), 0), std::nullopt);
}

TEST(EiaTable, ExpectedIngressPrefersLowestWhenShared) {
  EiaTable table;
  table.add_expected(9005, prefix("50.0.0.0/8"));
  table.add_expected(9001, prefix("50.0.0.0/8"));
  EXPECT_EQ(table.expected_ingress(ip("50.1.1.1"), 0), std::optional<IngressId>{9001});
}

TEST(EiaTable, LearnsSlash24AfterThreshold) {
  EiaTableConfig config;
  config.learn_threshold = 5;
  EiaTable table(config);
  table.add_expected(9001, prefix("3.0.0.0/11"));

  const auto newcomer = ip("77.1.2.3");
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(table.observe_mismatch(9001, newcomer, 0));
    EXPECT_FALSE(table.is_expected(9001, newcomer, 0));
  }
  EXPECT_TRUE(table.observe_mismatch(9001, newcomer, 0));  // 5th flow learns
  EXPECT_TRUE(table.is_expected(9001, newcomer, 0));
  // The whole /24 was learned, but not the neighboring /24.
  EXPECT_TRUE(table.is_expected(9001, ip("77.1.2.250"), 0));
  EXPECT_FALSE(table.is_expected(9001, ip("77.1.3.1"), 0));
}

TEST(EiaTable, LearningIsPerIngress) {
  EiaTableConfig config;
  config.learn_threshold = 3;
  EiaTable table(config);
  const auto source = ip("88.5.5.5");
  table.observe_mismatch(9001, source, 0);
  table.observe_mismatch(9001, source, 0);
  table.observe_mismatch(9002, source, 0);  // different ingress: separate counter
  EXPECT_FALSE(table.is_expected(9001, source, 0));
  EXPECT_FALSE(table.is_expected(9002, source, 0));
  EXPECT_TRUE(table.observe_mismatch(9001, source, 0));
  EXPECT_TRUE(table.is_expected(9001, source, 0));
  EXPECT_FALSE(table.is_expected(9002, source, 0));
}

TEST(EiaTable, CounterKeyedBySlash24NotHost) {
  EiaTableConfig config;
  config.learn_threshold = 3;
  EiaTable table(config);
  // Three different hosts in one /24 accumulate on the same counter.
  table.observe_mismatch(9001, ip("66.1.1.1"), 0);
  table.observe_mismatch(9001, ip("66.1.1.2"), 0);
  EXPECT_TRUE(table.observe_mismatch(9001, ip("66.1.1.3"), 0));
  EXPECT_TRUE(table.is_expected(9001, ip("66.1.1.200"), 0));
}

TEST(EiaTable, FullPendingBankDecaysInsteadOfRefusing) {
  EiaTableConfig config;
  config.learn_threshold = 2;
  config.max_pending_counters = EiaTable::kPendingBanks;  // 1 counter per bank
  EiaTable table(config);
  const std::uint32_t first = 0x3C000000u;  // 60.0.0.0/24
  const std::uint32_t second = colliding_slash24(first);
  table.observe_mismatch(9001, net::IPv4Address{first + 1}, 0);
  EXPECT_EQ(table.stats().pending_rejected, 0u);
  // The newcomer finds its bank full: the once-seen occupant is halved to
  // zero and swept, and the newcomer gets a counter (pre-fix behavior was
  // a silent refusal that starved it forever).
  EXPECT_FALSE(table.observe_mismatch(9001, net::IPv4Address{second + 1}, 0));
  EXPECT_EQ(table.stats().pending_rejected, 1u);
  EXPECT_TRUE(table.observe_mismatch(9001, net::IPv4Address{second + 2}, 0));
  EXPECT_TRUE(table.is_expected(9001, net::IPv4Address{second + 9}, 0));
}

TEST(EiaTable, FullPendingBankEvictsMinimumWhenDecayFreesNothing) {
  EiaTableConfig config;
  config.learn_threshold = 10;
  config.max_pending_counters = EiaTable::kPendingBanks;  // 1 counter per bank
  EiaTable table(config);
  const std::uint32_t occupant = 0x3D000000u;  // 61.0.0.0/24
  const std::uint32_t newcomer = colliding_slash24(occupant);
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(table.observe_mismatch(9001, net::IPv4Address{occupant + 1}, 0));
  }
  // Halving 4 -> 2 leaves the bank full, so the minimum entry is evicted
  // and the newcomer still gets tracked.
  EXPECT_FALSE(table.observe_mismatch(9001, net::IPv4Address{newcomer + 1}, 0));
  EXPECT_EQ(table.stats().pending_rejected, 1u);
  EXPECT_EQ(table.pending_counters(), 1u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(table.observe_mismatch(9001, net::IPv4Address{newcomer + 2}, 0));
  }
  EXPECT_TRUE(table.observe_mismatch(9001, net::IPv4Address{newcomer + 3}, 0));
}

TEST(EiaTable, LegitimateSourceLearnsThroughAttackerFlood) {
  // The starvation regression: a spoofed flood of distinct /24s fills the
  // pending map to its cap, then a legitimate new source shows up. Before
  // the decay/eviction fix it could never learn.
  EiaTableConfig config;
  config.learn_threshold = 3;
  config.max_pending_counters = 2 * EiaTable::kPendingBanks;
  EiaTable table(config);
  util::SplitMix64 flood_rng{42};
  for (int i = 0; i < 10000; ++i) {
    table.observe_mismatch(
        9001, net::IPv4Address{static_cast<std::uint32_t>(flood_rng.next())}, 0);
  }
  // The bound holds throughout.
  EXPECT_LE(table.pending_counters(), config.max_pending_counters);
  EXPECT_GT(table.stats().pending_rejected, 0u);
  const auto legit = ip("77.200.1.1");
  EXPECT_FALSE(table.observe_mismatch(9001, legit, 0));
  EXPECT_FALSE(table.observe_mismatch(9001, legit, 0));
  EXPECT_TRUE(table.observe_mismatch(9001, legit, 0));
  EXPECT_TRUE(table.is_expected(9001, ip("77.200.1.200"), 0));
}

/// A mismatch stream for the pending-bank tests: sources drawn from a pool
/// small enough that some (ingress, /24) keys reach the learn threshold
/// and large enough that the banks overflow, so decay and min-eviction
/// both fire.
std::vector<std::pair<IngressId, net::IPv4Address>> mismatch_stream(std::uint64_t seed,
                                                                    std::size_t length) {
  util::Rng rng{seed};
  std::vector<std::pair<IngressId, net::IPv4Address>> out;
  for (std::size_t i = 0; i < length; ++i) {
    const auto slash24 = static_cast<std::uint32_t>(rng.below(rng.below(4) == 0 ? 40 : 3000));
    out.emplace_back(static_cast<IngressId>(9001 + rng.below(3)),
                     net::IPv4Address{(0x50000000u + (slash24 << 8)) | 7u});
  }
  return out;
}

TEST(EiaTable, PendingBanksMatchTheNodeBasedReference) {
  for (const std::size_t bank_cap : {1u, 2u, 3u, 4u}) {
    for (const int threshold : {2, 3, 5}) {
      EiaTableConfig config;
      config.learn_threshold = threshold;
      config.max_pending_counters = bank_cap * EiaTable::kPendingBanks;
      EiaTable table(config);
      reference::ReferencePendingBanks model(threshold, config.max_pending_counters);
      const auto stream = mismatch_stream(bank_cap * 10 + threshold, 6000);
      for (std::size_t i = 0; i < stream.size(); ++i) {
        const auto [ingress, source] = stream[i];
        const std::string where = "cap " + std::to_string(bank_cap) + " threshold " +
                                  std::to_string(threshold) + " flow " + std::to_string(i);
        ASSERT_EQ(table.observe_mismatch(ingress, source, 0), model.observe(ingress, source))
            << where;
        ASSERT_EQ(table.pending_counters(), model.counters()) << where;
        ASSERT_EQ(table.stats().pending_rejected, model.rejected) << where;
        if (i % 16 == 0) {
          ASSERT_EQ(table.pending_entries(), model.entries()) << where;
        }
        ASSERT_LE(table.pending_bank_slots(),
                  EiaTable::PendingBank::capacity_for(bank_cap)) << where;
      }
      EXPECT_EQ(table.pending_entries(), model.entries());
      EXPECT_GT(model.rejected, 0u);
    }
  }
}

TEST(EiaTable, RestoredPendingCountersContinueLikeTheOriginal) {
  // restore_pending round trip: a fresh table (and the reference) rebuilt
  // from pending_entries() learns exactly as the original does from then on.
  EiaTableConfig config;
  config.learn_threshold = 3;
  config.max_pending_counters = 3 * EiaTable::kPendingBanks;
  EiaTable original(config);
  const auto stream = mismatch_stream(77, 8000);
  for (std::size_t i = 0; i < stream.size() / 2; ++i) {
    original.observe_mismatch(stream[i].first, stream[i].second, 0);
  }
  const auto pending = original.pending_entries();
  ASSERT_FALSE(pending.empty());
  EiaTable restored(config);
  reference::ReferencePendingBanks model(config.learn_threshold, config.max_pending_counters);
  for (const auto& [key, count] : pending) {
    restored.restore_pending(key, count);
    model.restore(key, count);
  }
  EXPECT_EQ(restored.pending_entries(), pending);
  EXPECT_EQ(model.entries(), pending);
  for (std::size_t i = stream.size() / 2; i < stream.size(); ++i) {
    const auto [ingress, source] = stream[i];
    const bool learned = original.observe_mismatch(ingress, source, 0);
    ASSERT_EQ(restored.observe_mismatch(ingress, source, 0), learned) << i;
    ASSERT_EQ(model.observe(ingress, source), learned) << i;
  }
  EXPECT_EQ(restored.pending_entries(), original.pending_entries());
  EXPECT_EQ(model.entries(), original.pending_entries());
}

TEST(EiaTable, PendingBanksStayBoundedThroughAMillionSpoofedSlash24s) {
  EiaTableConfig config;
  config.learn_threshold = 4;
  config.max_pending_counters = 100 * EiaTable::kPendingBanks;
  EiaTable table(config);
  const std::size_t bound = EiaTable::PendingBank::capacity_for(100);
  for (std::uint32_t i = 0; i < 1'000'000; ++i) {
    // i * odd is a bijection mod 2^24: a million distinct /24s.
    const std::uint32_t key24 = (i * 2654435761u) << 8;
    table.observe_mismatch(static_cast<IngressId>(9001 + i % 4), net::IPv4Address{key24 | 9u},
                           0);
    ASSERT_LE(table.pending_counters(), config.max_pending_counters) << i;
    ASSERT_LE(table.pending_bank_slots(), bound) << i;
  }
  EXPECT_GT(table.stats().pending_rejected, 0u);
  const auto legit = ip("77.200.1.1");
  for (int i = 1; i < config.learn_threshold; ++i) {
    EXPECT_FALSE(table.observe_mismatch(9001, legit, 0));
  }
  EXPECT_TRUE(table.observe_mismatch(9001, legit, 0));
  EXPECT_TRUE(table.is_expected(9001, ip("77.200.1.200"), 0));
}

TEST(EiaTable, LearnedEntryFreesCounter) {
  EiaTableConfig config;
  config.learn_threshold = 2;
  EiaTable table(config);
  table.observe_mismatch(9001, ip("61.0.0.1"), 0);
  EXPECT_EQ(table.pending_counters(), 1u);
  EXPECT_TRUE(table.observe_mismatch(9001, ip("61.0.0.2"), 0));
  EXPECT_EQ(table.pending_counters(), 0u);
}

TEST(EiaTable, SetForReturnsNullForUnknownIngress) {
  EiaTable table;
  EXPECT_EQ(table.set_for(1234), nullptr);
  table.add_expected(1234, prefix("3.0.0.0/11"));
  ASSERT_NE(table.set_for(1234), nullptr);
  EXPECT_EQ(table.set_for(1234)->range_count(), 1u);
}

// -- Dense, branch-free membership against references ----------------------

/// Membership as the ordered list of add/remove operations applied to a
/// table: the last operation whose prefix covers an address decides it.
class OpModel {
 public:
  void declare(IngressId ingress) { declared_.insert(ingress); }
  void add(IngressId ingress, const net::Prefix& prefix) {
    declare(ingress);
    ops_.push_back({ingress, prefix, true});
  }
  void remove(IngressId ingress, const net::Prefix& prefix) {
    ops_.push_back({ingress, prefix, false});
  }
  [[nodiscard]] bool declared(IngressId ingress) const {
    return declared_.contains(ingress);
  }
  [[nodiscard]] bool contains(IngressId ingress, net::IPv4Address address) const {
    for (auto op = ops_.rbegin(); op != ops_.rend(); ++op) {
      if (op->ingress == ingress && op->prefix.contains(address)) return op->add;
    }
    return false;
  }
  /// The lowest declared ingress containing `address`.
  [[nodiscard]] std::optional<IngressId> owner(net::IPv4Address address) const {
    for (const IngressId ingress : declared_) {
      if (contains(ingress, address)) return ingress;
    }
    return std::nullopt;
  }

 private:
  struct Op {
    IngressId ingress;
    net::Prefix prefix;
    bool add;
  };
  std::vector<Op> ops_;
  std::set<IngressId> declared_;
};

using Intervals = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

/// A set's contents as sorted [first, last] intervals, from its CIDR export.
Intervals intervals_of(const EiaSet& set) {
  Intervals out;
  for (const auto& cidr : set.to_cidrs()) {
    out.emplace_back(cidr.first().value(), cidr.last().value());
  }
  return out;
}

/// Membership by binary search, as EiaSet::contains did for every set
/// before small sets were scanned.
bool binary_search_contains(const Intervals& intervals, std::uint32_t value) {
  const auto it = std::upper_bound(
      intervals.begin(), intervals.end(), value,
      [](std::uint32_t v, const auto& interval) { return v < interval.first; });
  return it != intervals.begin() && value <= std::prev(it)->second;
}

/// Mostly short random prefixes, a sixth anchored at 0.0.0.0 and a sixth
/// ending at 255.255.255.255.
net::Prefix random_prefix(util::Rng& rng) {
  const auto length = static_cast<int>(rng.below(33));
  switch (rng.below(6)) {
    case 0: return net::Prefix{net::IPv4Address{0u}, length};
    case 1: return net::Prefix{net::IPv4Address{0xFFFFFFFFu}, length};
    default:
      return net::Prefix{net::IPv4Address{static_cast<std::uint32_t>(rng())},
                         12 + static_cast<int>(rng.below(21))};
  }
}

/// Checks every membership surface of `table` against `model`: set_for,
/// the dense-index is_expected, EiaSet::contains, the binary-search
/// reference over the set's own contents, and expected_ingress.
void expect_matches(EiaTable& table, const OpModel& model,
                    const std::vector<IngressId>& ids,
                    const std::vector<std::uint32_t>& probes, util::TimeMs now) {
  for (const IngressId ingress : ids) {
    SCOPED_TRACE("ingress " + std::to_string(ingress));
    const EiaSet* set = table.set_for(ingress);
    ASSERT_EQ(set != nullptr, model.declared(ingress));
    const Intervals intervals = set != nullptr ? intervals_of(*set) : Intervals{};
    for (const std::uint32_t probe : probes) {
      const net::IPv4Address address{probe};
      const bool truth = model.contains(ingress, address);
      ASSERT_EQ(table.is_expected(ingress, address, now), truth) << address.to_string();
      if (set == nullptr) continue;
      ASSERT_EQ(set->contains(address), truth) << address.to_string();
      ASSERT_EQ(binary_search_contains(intervals, probe), truth) << address.to_string();
    }
  }
  for (const std::uint32_t probe : probes) {
    const net::IPv4Address address{probe};
    ASSERT_EQ(table.expected_ingress(address, now), model.owner(address))
        << address.to_string();
  }
}

TEST(EiaTable, DenseMembershipMatchesReferencesThroughEveryMutation) {
  EiaTableConfig config;
  config.learn_threshold = 1;
  config.lifecycle.max_idle_ms = 1000;
  constexpr util::TimeMs kLearnAt = 5000;
  constexpr util::TimeMs kSweepAt = kLearnAt + 10 * 1000;
  util::Rng rng{26};
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    // Declared ids span the whole id space on even rounds; ids every
    // round leaves out sit below, inside and above the index's span.
    std::vector<IngressId> declared{9001, 9002, 9004, 9009};
    if (round % 2 == 0) {
      declared.push_back(0);
      declared.push_back(0xFFFF);
    }
    std::vector<IngressId> ids = declared;
    for (const IngressId absent : {1, 8999, 9000, 9003, 9005, 9010, 0xFFFE}) {
      ids.push_back(absent);
    }

    EiaTable table(config);
    OpModel model;
    std::vector<net::Prefix> touched;
    for (const IngressId ingress : declared) {
      // Set sizes on both sides of the scan/binary-search cut-over.
      const auto prefixes = rng.below(3 * EiaSet::kScanRanges);
      model.declare(ingress);
      table.declare_ingress(ingress);
      for (std::uint64_t p = 0; p < prefixes; ++p) {
        const net::Prefix prefix = random_prefix(rng);
        table.add_expected(ingress, prefix);
        model.add(ingress, prefix);
        touched.push_back(prefix);
      }
    }
    std::vector<std::uint32_t> probes{0u, 1u, 0x7FFFFFFFu, 0x80000000u, 0xFFFFFFFEu,
                                      0xFFFFFFFFu};
    for (int p = 0; p < 300; ++p) probes.push_back(static_cast<std::uint32_t>(rng()));
    const auto add_edges = [&](const net::Prefix& prefix) {
      for (const std::uint32_t edge : {prefix.first().value(), prefix.last().value()}) {
        probes.push_back(edge - 1);
        probes.push_back(edge);
        probes.push_back(edge + 1);
      }
    };
    for (const auto& prefix : touched) add_edges(prefix);
    expect_matches(table, model, ids, probes, 0);

    // Learning adds /24s (some inside preloads); the sweep past their
    // idle limit unlearns every one by interval subtraction.
    std::vector<std::pair<IngressId, net::Prefix>> learned;
    for (const IngressId ingress : declared) {
      for (int k = 0; k < 12; ++k) {
        const net::IPv4Address source{static_cast<std::uint32_t>(
            k % 3 == 0 && !touched.empty()
                ? touched[rng.below(touched.size())].first().value() + rng.below(256)
                : rng())};
        ASSERT_TRUE(table.observe_mismatch(ingress, source, kLearnAt));
        learned.emplace_back(ingress, net::Prefix{source, 24});
        model.add(ingress, learned.back().second);
        add_edges(learned.back().second);
      }
    }
    expect_matches(table, model, ids, probes, kLearnAt);
    EXPECT_GT(table.age_sweep(kSweepAt), 0u);
    for (const auto& [ingress, prefix] : learned) model.remove(ingress, prefix);
    expect_matches(table, model, ids, probes, kSweepAt);

    // A copy answers alike and owns its index: growing it below the
    // original's lowest id leaves the original untouched.
    EiaTable copy = table;
    expect_matches(copy, model, ids, probes, kSweepAt);
    OpModel copy_model = model;
    copy.add_expected(round % 2 == 0 ? 1 : 8999, net::Prefix{net::IPv4Address{0u}, 1});
    copy_model.add(round % 2 == 0 ? 1 : 8999, net::Prefix{net::IPv4Address{0u}, 1});
    expect_matches(copy, copy_model, ids, probes, kSweepAt);
    expect_matches(table, model, ids, probes, kSweepAt);

    // So does the table rebuilt from its persisted form.
    auto imported = import_eia(export_eia(table), config);
    ASSERT_TRUE(imported.has_value()) << imported.error().message;
    expect_matches(*imported, model, ids, probes, kSweepAt);
  }
}

TEST(EiaTable, MemoryBytesCountsTheDenseIndex) {
  EiaTable table;
  table.declare_ingress(9001);
  const std::size_t one = table.memory_bytes();
  EXPECT_GE(one, sizeof(EiaSet));
  // A span of 10 ids holds 10 sets, declared or not.
  table.declare_ingress(9010);
  EXPECT_GE(table.memory_bytes(), one + 9 * sizeof(EiaSet));
  EXPECT_EQ(table.ingress_count(), 2u);
}

}  // namespace
}  // namespace infilter::core
