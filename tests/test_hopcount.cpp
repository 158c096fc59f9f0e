// Tests for the TTL hop-count detector (src/hopcount): initial-TTL
// inference, range learning/classification, decay (the only reset), the
// anti-poisoning learning policy, the deterministic path model, and the
// versioned serialization format -- including the save/load -> identical
// verdicts guarantee alongside the EIA sets.

#include "hopcount/hopcount.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/eia_io.h"
#include "core/engine.h"
#include "hopcount/hopcount_io.h"
#include "hopcount/path_model.h"
#include "runtime/runtime.h"
#include "util/rng.h"

namespace infilter::hopcount {
namespace {

net::IPv4Address ip(const char* text) { return *net::IPv4Address::parse(text); }

// -- Initial-TTL inference --

TEST(HopCount, InfersInitialTtlFromObservedValue) {
  EXPECT_EQ(infer_initial_ttl(0), 0);  // "not observed"
  EXPECT_EQ(infer_initial_ttl(1), 32);
  EXPECT_EQ(infer_initial_ttl(32), 32);
  EXPECT_EQ(infer_initial_ttl(33), 64);
  EXPECT_EQ(infer_initial_ttl(64), 64);
  EXPECT_EQ(infer_initial_ttl(65), 128);
  EXPECT_EQ(infer_initial_ttl(128), 128);
  EXPECT_EQ(infer_initial_ttl(129), 255);
  EXPECT_EQ(infer_initial_ttl(255), 255);
}

TEST(HopCount, RecoversHopCounts) {
  EXPECT_EQ(hops_from_ttl(0), -1);
  EXPECT_EQ(hops_from_ttl(64), 0);
  EXPECT_EQ(hops_from_ttl(57), 7);    // 64 - 57
  EXPECT_EQ(hops_from_ttl(120), 8);   // 128 - 120
  EXPECT_EQ(hops_from_ttl(245), 10);  // 255 - 245
}

// -- HopCountTable learning and classification --

TEST(HopCountTable, ClassifiesUnknownUntilLearnThreshold) {
  HopCountTable table;
  const auto src = ip("10.1.2.3");
  for (int i = 0; i < table.config().learn_threshold - 1; ++i) {
    table.observe(9001, src, 57, 0);
    EXPECT_EQ(table.classify(9001, src, 57, 0), TtlClass::kUnknown);
    EXPECT_EQ(table.stats().established_keys, 0u);
  }
  table.observe(9001, src, 57, 0);
  EXPECT_EQ(table.classify(9001, src, 57, 0), TtlClass::kConsistent);
  EXPECT_EQ(table.stats().established_keys, 1u);
}

TEST(HopCountTable, ToleranceWindowsTheLearnedRange) {
  HopCountConfig config;
  config.tolerance = 2;
  config.learn_threshold = 2;
  HopCountTable table(config);
  const auto src = ip("10.1.2.3");
  // Learn hop counts 7 and 9 (TTLs 57 and 55 against initial 64).
  table.observe(9001, src, 57, 0);
  table.observe(9001, src, 55, 0);
  // Window is [7 - 2, 9 + 2] hops = TTLs 59 down to 53.
  EXPECT_EQ(table.classify(9001, src, 59, 0), TtlClass::kConsistent);
  EXPECT_EQ(table.classify(9001, src, 53, 0), TtlClass::kConsistent);
  EXPECT_EQ(table.classify(9001, src, 60, 0), TtlClass::kMiss);  // 4 hops
  EXPECT_EQ(table.classify(9001, src, 52, 0), TtlClass::kMiss);  // 12 hops
  // A different initial-TTL family at the same path length is consistent:
  // only the recovered hop count matters.
  EXPECT_EQ(table.classify(9001, src, 120, 0), TtlClass::kConsistent);  // 8 hops
}

TEST(HopCountTable, KeysAreSlash24PerIngress) {
  HopCountConfig config;
  config.learn_threshold = 1;
  HopCountTable table(config);
  table.observe(9001, ip("10.1.2.3"), 57, 0);
  // Same /24, other host: shares the range.
  EXPECT_EQ(table.classify(9001, ip("10.1.2.200"), 57, 0), TtlClass::kConsistent);
  // Other /24 and other ingress: no range yet.
  EXPECT_EQ(table.classify(9001, ip("10.1.3.3"), 57, 0), TtlClass::kUnknown);
  EXPECT_EQ(table.classify(9002, ip("10.1.2.3"), 57, 0), TtlClass::kUnknown);
}

TEST(HopCountTable, MissingTtlIsIgnoredAndUnknown) {
  HopCountTable table;
  table.observe(9001, ip("10.1.2.3"), 0, 0);
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.classify(9001, ip("10.1.2.3"), 0, 0), TtlClass::kUnknown);
}

TEST(HopCountTable, IdleEntriesDecayAndRelearn) {
  HopCountConfig config;
  config.learn_threshold = 1;
  config.decay_ms = 1000;
  HopCountTable table(config);
  const auto src = ip("10.1.2.3");
  table.observe(9001, src, 57, 0);
  EXPECT_EQ(table.classify(9001, src, 50, 500), TtlClass::kMiss);
  // Past the decay deadline the stale range no longer accuses anyone...
  EXPECT_EQ(table.classify(9001, src, 50, 1501), TtlClass::kUnknown);
  // ...and the next observation restarts learning around the new path.
  table.observe(9001, src, 50, 1501);
  EXPECT_EQ(table.classify(9001, src, 50, 1502), TtlClass::kConsistent);
  EXPECT_EQ(table.classify(9001, src, 57, 1502), TtlClass::kMiss);
  EXPECT_EQ(table.stats().expired_entries, 1u);
  EXPECT_EQ(table.stats().established_keys, 2u);
}

TEST(HopCountTable, EstablishedRangeOnlyRefreshes) {
  HopCountConfig config;
  config.learn_threshold = 1;
  config.decay_ms = 1000;
  HopCountTable table(config);
  const auto src = ip("10.1.2.3");
  table.observe(9001, src, 57, 0);  // 7 hops: established
  // Later observations -- in or out of the window -- neither widen nor
  // replace the range; they only push the decay deadline out.
  table.observe(9001, src, 44, 900);  // 20 hops
  table.observe(9001, src, 44, 1800);
  const auto entries = table.entries();
  ASSERT_EQ(entries.size(), 1u);
  EXPECT_EQ(entries[0].entry.min_hops, 7);
  EXPECT_EQ(entries[0].entry.max_hops, 7);
  EXPECT_EQ(entries[0].entry.count, 1);
  EXPECT_EQ(entries[0].entry.last_seen, 1800u);
  EXPECT_EQ(table.classify(9001, src, 44, 2700), TtlClass::kMiss);
  EXPECT_EQ(table.stats().expired_entries, 0u);
}

TEST(HopCountTable, FullTableLearnsNewKeysOnceOldOnesDecay) {
  HopCountConfig config;
  config.learn_threshold = 1;
  config.decay_ms = 1000;
  config.max_entries = 64;
  HopCountTable table(config);
  const auto old_key = [](std::uint32_t i) { return net::IPv4Address{(10u << 24) | (i << 8)}; };
  for (std::uint32_t i = 0; i < 64; ++i) table.observe(9001, old_key(i), 57, 0);
  // Half the old keys stay live; the other half idle past decay_ms.
  for (std::uint32_t i = 0; i < 32; ++i) table.observe(9001, old_key(i), 57, 900);
  ASSERT_EQ(table.size(), 64u);

  // The first new key on the full table sweeps out the decayed half...
  table.observe(9001, ip("10.200.0.1"), 57, 1001);
  EXPECT_EQ(table.stats().reclaim_sweeps, 1u);
  EXPECT_EQ(table.stats().expired_entries, 32u);
  EXPECT_EQ(table.size(), 33u);
  EXPECT_EQ(table.classify(9001, ip("10.200.0.1"), 57, 1001), TtlClass::kConsistent);
  // ...and the room it made takes further new keys without another sweep.
  for (std::uint32_t i = 1; i < 32; ++i) {
    table.observe(9002, old_key(i), 57, 1002);
    EXPECT_EQ(table.classify(9002, old_key(i), 57, 1002), TtlClass::kConsistent);
  }
  EXPECT_EQ(table.size(), 64u);
  EXPECT_EQ(table.stats().reclaim_sweeps, 1u);
  // The live half kept its ranges through the sweep.
  for (std::uint32_t i = 0; i < 32; ++i) {
    EXPECT_EQ(table.classify(9001, old_key(i), 44, 1002), TtlClass::kMiss);
  }
}

TEST(HopCountTable, FullTableOfLiveEntriesServesThemAndBoundsItsSweeps) {
  HopCountConfig config;
  config.learn_threshold = 1;
  config.decay_ms = 8000;
  config.max_entries = 64;
  HopCountTable table(config);
  for (std::uint32_t i = 0; i < 64; ++i) {
    table.observe(9001, net::IPv4Address{(10u << 24) | (i << 8)}, 57, 0);
  }
  // A flood of fresh keys over 4 s of flow time, none of the old entries
  // decayed: at most one sweep per decay_ms / 8 = 1 s, whatever the flood.
  constexpr std::uint32_t kFlood = 20000;
  for (std::uint32_t i = 0; i < kFlood; ++i) {
    table.observe(9001, net::IPv4Address{(20u << 24) | (i << 8)}, 57, i / 5);
  }
  EXPECT_EQ(table.size(), 64u);
  EXPECT_EQ(table.stats().expired_entries, 0u);
  EXPECT_GE(table.stats().reclaim_sweeps, 1u);
  EXPECT_LE(table.stats().reclaim_sweeps, (kFlood / 5) / (config.decay_ms / 8) + 1);
  EXPECT_EQ(table.classify(9001, ip("20.0.1.1"), 57, 4000), TtlClass::kUnknown);
  for (std::uint32_t i = 0; i < 64; ++i) {
    EXPECT_EQ(table.classify(9001, net::IPv4Address{(10u << 24) | (i << 8) | 9u}, 57, 4000),
              TtlClass::kConsistent);
  }
  // Without decay nothing can be reclaimed, so no sweep ever runs.
  config.decay_ms = 0;
  HopCountTable forever(config);
  for (std::uint32_t i = 0; i < 64 + 100; ++i) {
    forever.observe(9001, net::IPv4Address{(10u << 24) | (i << 8)}, 57, i);
  }
  EXPECT_EQ(forever.size(), 64u);
  EXPECT_EQ(forever.stats().reclaim_sweeps, 0u);
}

// A std::map model of the table's documented behaviour: the flat table
// must agree with it on every classification, and on size(), stats() and
// entries(), through growth, decay, restore and full-table reclaim.
class ReferenceTable {
 public:
  explicit ReferenceTable(HopCountConfig config) : config_(config) {}

  TtlClass classify(IngressId ingress, net::IPv4Address source, std::uint8_t ttl,
                    util::TimeMs now) {
    ++stats_.classified;
    const int hops = hops_from_ttl(ttl);
    if (hops < 0) return TtlClass::kUnknown;
    const auto it = entries_.find(key(ingress, source));
    if (it == entries_.end() || it->second.count < config_.learn_threshold ||
        stale(it->second, now)) {
      return TtlClass::kUnknown;
    }
    return hops >= it->second.min_hops - config_.tolerance &&
                   hops <= it->second.max_hops + config_.tolerance
               ? TtlClass::kConsistent
               : TtlClass::kMiss;
  }

  void observe(IngressId ingress, net::IPv4Address source, std::uint8_t ttl,
               util::TimeMs now) {
    const int hops = hops_from_ttl(ttl);
    if (hops < 0) return;
    auto it = entries_.find(key(ingress, source));
    if (it == entries_.end()) {
      if (entries_.size() >= config_.max_entries && !reclaim(now)) return;
      it = entries_.emplace(key(ingress, source), HopCountTable::Entry{}).first;
    } else if (stale(it->second, now)) {
      it->second = HopCountTable::Entry{};
      ++stats_.expired_entries;
    }
    auto& entry = it->second;
    entry.last_seen = now;
    if (entry.count >= config_.learn_threshold) return;
    const auto hops8 = static_cast<std::uint8_t>(hops);
    entry.min_hops = entry.count == 0 ? hops8 : std::min(entry.min_hops, hops8);
    entry.max_hops = entry.count == 0 ? hops8 : std::max(entry.max_hops, hops8);
    if (++entry.count == config_.learn_threshold) ++stats_.established_keys;
  }

  TtlClass analyze(IngressId ingress, net::IPv4Address source, std::uint8_t ttl,
                   util::TimeMs now, bool trusted) {
    const TtlClass result = classify(ingress, source, ttl, now);
    if (trusted && result != TtlClass::kMiss) observe(ingress, source, ttl, now);
    return result;
  }

  void restore(IngressId ingress, net::IPv4Address source, HopCountTable::Entry entry) {
    entry.count = std::clamp(entry.count, 0, HopCountTable::kMaxCount);
    entries_[key(ingress, source)] = entry;
  }

  [[nodiscard]] std::size_t size() const { return entries_.size(); }
  [[nodiscard]] const HopCountStats& stats() const { return stats_; }

  void expect_same(const HopCountTable& table) const {
    ASSERT_EQ(table.size(), entries_.size());
    EXPECT_EQ(table.stats().classified, stats_.classified);
    EXPECT_EQ(table.stats().established_keys, stats_.established_keys);
    EXPECT_EQ(table.stats().expired_entries, stats_.expired_entries);
    EXPECT_EQ(table.stats().reclaim_sweeps, stats_.reclaim_sweeps);
    const auto exported = table.entries();
    ASSERT_EQ(exported.size(), entries_.size());
    auto it = entries_.begin();
    for (const auto& e : exported) {
      EXPECT_EQ(e.ingress, it->first.first);
      EXPECT_EQ(e.slash24.address().value(), it->first.second);
      EXPECT_EQ(e.slash24.length(), 24);
      EXPECT_EQ(e.entry.min_hops, it->second.min_hops);
      EXPECT_EQ(e.entry.max_hops, it->second.max_hops);
      EXPECT_EQ(e.entry.count, it->second.count);
      EXPECT_EQ(e.entry.last_seen, it->second.last_seen);
      ++it;
    }
  }

 private:
  static std::pair<IngressId, std::uint32_t> key(IngressId ingress,
                                                 net::IPv4Address source) {
    return {ingress, source.value() & 0xFFFFFF00u};
  }
  bool stale(const HopCountTable::Entry& entry, util::TimeMs now) const {
    return config_.decay_ms != 0 && now > entry.last_seen &&
           now - entry.last_seen > config_.decay_ms;
  }
  bool reclaim(util::TimeMs now) {
    if (config_.decay_ms == 0 || now < next_sweep_at_) return false;
    next_sweep_at_ = now + std::max<util::DurationMs>(config_.decay_ms / 8, 1);
    ++stats_.reclaim_sweeps;
    std::erase_if(entries_, [&](const auto& kv) {
      const bool gone = stale(kv.second, now);
      stats_.expired_entries += gone ? 1 : 0;
      return gone;
    });
    return entries_.size() < config_.max_entries;
  }

  HopCountConfig config_;
  HopCountStats stats_;
  std::map<std::pair<IngressId, std::uint32_t>, HopCountTable::Entry> entries_;
  util::TimeMs next_sweep_at_ = 0;
};

TEST(HopCountTable, MatchesReferenceModelThroughGrowthDecayAndReclaim) {
  struct Case {
    int learn_threshold;
    util::DurationMs decay_ms;
    std::size_t max_entries;
  };
  const Case cases[] = {{3, 1000, 600}, {1, 1000, 40}, {2, 0, 300}, {5, 7, 2000}};
  for (const auto& c : cases) {
    SCOPED_TRACE("learn_threshold=" + std::to_string(c.learn_threshold) +
                 " decay_ms=" + std::to_string(c.decay_ms) +
                 " max_entries=" + std::to_string(c.max_entries));
    HopCountConfig config;
    config.learn_threshold = c.learn_threshold;
    config.decay_ms = c.decay_ms;
    config.max_entries = c.max_entries;
    HopCountTable table(config);
    ReferenceTable model(config);
    util::Rng rng(c.max_entries);

    // Keys: a pool twice the bound, plus the extreme keys that an
    // empty-slot sentinel could alias -- ingress 0 with 0.0.0.0/24 and
    // ingress 0xFFFF with 255.255.255.0/24.
    std::vector<std::pair<IngressId, net::IPv4Address>> keys = {
        {0, net::IPv4Address{0}},
        {0xFFFF, net::IPv4Address{0xFFFFFFFFu}},
        {0, net::IPv4Address{0xFFFFFF00u}},
        {0xFFFF, net::IPv4Address{0x000000FFu}}};
    while (keys.size() < 2 * c.max_entries) {
      keys.emplace_back(static_cast<IngressId>(9001 + rng.below(4)),
                        net::IPv4Address{static_cast<std::uint32_t>(rng())});
    }
    const std::uint8_t ttls[] = {0, 64, 57, 55, 53, 120, 200, 250, 1, 33};
    util::TimeMs now = 1;
    std::size_t capacities_seen = 0;
    std::size_t last_capacity = 0;
    for (int op = 0; op < 40000; ++op) {
      // Flow time mostly creeps forward, sometimes leaps past decay_ms,
      // sometimes steps back (reordered batches).
      const auto step = rng.below(100);
      if (step < 2) now += 1500;
      else if (step < 4) now -= std::min<util::TimeMs>(now, 5);
      else if (step < 40) now += 1;
      const auto& [ingress, source] = keys[rng.below(keys.size())];
      const std::uint8_t ttl = ttls[rng.below(std::size(ttls))];
      switch (rng.below(10)) {
        case 0:
          ASSERT_EQ(table.classify(ingress, source, ttl, now),
                    model.classify(ingress, source, ttl, now));
          break;
        case 1:
          table.observe(ingress, source, ttl, now);
          model.observe(ingress, source, ttl, now);
          break;
        case 2: {
          if (rng.below(20) != 0) break;  // rare: restores ignore the bound
          const auto min_hops = static_cast<std::uint8_t>(rng.below(256));
          const HopCountTable::Entry entry{
              min_hops, static_cast<std::uint8_t>(rng.range(min_hops, 255)),
              static_cast<int>(rng.below(301)), now - std::min<util::TimeMs>(now, 3)};
          table.restore(ingress, source, entry);
          model.restore(ingress, source, entry);
          break;
        }
        case 3:
          if (rng.below(200) == 0) table = HopCountTable(table);  // copies keep state
          break;
        default: {
          const bool trusted = rng.below(10) != 0;
          ASSERT_EQ(table.classify_and_observe(ingress, source, ttl, now, trusted),
                    model.analyze(ingress, source, ttl, now, trusted))
              << "op " << op;
        }
      }
      if (table.capacity() != last_capacity) {
        last_capacity = table.capacity();
        ++capacities_seen;
      }
      if (op % 2000 == 0) {
        ASSERT_NO_FATAL_FAILURE(model.expect_same(table)) << "op " << op;
      }
    }
    ASSERT_NO_FATAL_FAILURE(model.expect_same(table));
    EXPECT_GE(capacities_seen, 3u);  // grew through several doublings
    if (c.decay_ms != 0) {
      EXPECT_GT(model.stats().reclaim_sweeps, 0u);
    }
  }
}

// The slot hash mixes in the ingress and is independent of the runtime's
// shard hash: a shard's table, which only ever sees that shard's keys,
// still spreads them over all of its slots.
TEST(HopCountTable, OneShardsKeysKeepProbesShort) {
  HopCountConfig config;
  config.learn_threshold = 1;
  HopCountTable shard0(config);
  for (std::uint32_t block = 0; shard0.size() < 90000; ++block) {
    const net::IPv4Address source{(block << 8) | 1u};
    if (runtime::ShardedRuntime::shard_of(source, 4) == 0) {
      shard0.observe(9001, source, 57, 0);
    }
  }
  // 90000 keys at load 0.69 of 2^17 slots. Random keys reach probe runs
  // of 64-83 at this load; a hash correlated with the shard would crowd
  // every key onto a quarter of the home slots, and runs would reach
  // thousands.
  EXPECT_EQ(shard0.capacity(), std::size_t{1} << 17);
  EXPECT_LE(shard0.longest_probe(), 128u);
}

// -- HopCountAnalysis learning policy --

TEST(HopCountAnalysis, LearnsOnlyFromEiaVouchedNonMissFlows) {
  HopCountConfig config;
  config.learn_threshold = 1;
  HopCountAnalysis analysis(config);
  const auto src = ip("10.1.2.3");
  // EIA-miss flows never teach the table, however many arrive.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(analysis.analyze(9001, src, 44, 0, /*eia_hit=*/false),
              TtlClass::kUnknown);
  }
  EXPECT_EQ(analysis.table().size(), 0u);
  // An EIA-vouched flow establishes the range...
  EXPECT_EQ(analysis.analyze(9001, src, 57, 0, /*eia_hit=*/true),
            TtlClass::kUnknown);
  // ...after which a spoofer's wrong path length is a miss, and -- the
  // anti-poisoning rule -- the miss itself never widens the range, even
  // though the spoofed source passes the EIA check.
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(analysis.analyze(9001, src, 44, 0, /*eia_hit=*/true),
              TtlClass::kMiss);
  }
  EXPECT_EQ(analysis.analyze(9001, src, 57, 0, /*eia_hit=*/true),
            TtlClass::kConsistent);
}

// -- PathModel --

TEST(PathModel, IsDeterministicAndSeparatesHonestFromAttackers) {
  const PathModel model;
  const PathModel same;
  const auto src = ip("10.1.2.3");
  EXPECT_EQ(model.source_ttl(src, 7), same.source_ttl(src, 7));
  EXPECT_EQ(model.attacker_ttl(42, 7), same.attacker_ttl(42, 7));

  const auto& config = model.config();
  for (std::uint32_t i = 0; i < 200; ++i) {
    const net::IPv4Address source{0x0a000000u + (i << 8) + 3};
    // Stable per-/24 hop count in [min, max].
    EXPECT_EQ(model.source_hops(source),
              model.source_hops(net::IPv4Address{source.value() + 100}));
    EXPECT_GE(model.source_hops(source), config.min_hops);
    EXPECT_LE(model.source_hops(source), config.max_hops);
    // Per-flow jitter stays within +/-1 of the stable hop count.
    const int hops = hops_from_ttl(model.source_ttl(source, i));
    EXPECT_LE(std::abs(hops - model.source_hops(source)), 1);
    // Attacker paths sit strictly beyond every honest window: the honest
    // maximum plus jitter plus the default tolerance never reaches the
    // attacker minimum. This is the separation the detector relies on.
    const int attacker = hops_from_ttl(model.attacker_ttl(i + 1, i));
    EXPECT_GE(attacker, config.attacker_min_hops);
    EXPECT_LE(attacker, config.attacker_max_hops);
    EXPECT_GT(attacker, config.max_hops + 1 + HopCountConfig{}.tolerance);
  }
}

TEST(PathModel, JitterSpreadsAttackerTtls) {
  const PathModel model;
  int below = 0;
  for (std::uint64_t flow = 0; flow < 400; ++flow) {
    const int hops = hops_from_ttl(model.attacker_ttl(7, flow, 10));
    EXPECT_GE(hops, 1);
    if (hops <= model.config().max_hops + HopCountConfig{}.tolerance) ++below;
  }
  // With +/-10 jitter a real fraction of flows dips into the honest range
  // -- the evasion the jitter kind models (and partially achieves).
  EXPECT_GT(below, 0);
  EXPECT_LT(below, 400);
}

// -- Serialization (hopcount_io) --

TEST(HopCountIo, RoundTripsEveryField) {
  HopCountConfig config;
  config.learn_threshold = 2;
  HopCountTable table(config);
  table.observe(9001, ip("10.1.2.3"), 57, 100);
  table.observe(9001, ip("10.1.2.9"), 55, 200);
  table.observe(9001, ip("10.9.1.1"), 120, 300);
  table.observe(9002, ip("10.1.2.3"), 44, 400);
  table.observe(9002, ip("10.1.2.3"), 45, 500);  // established

  const auto text = export_hopcount(table);
  EXPECT_EQ(text.substr(0, kHopCountMagic.size()), kHopCountMagic);
  const auto imported = import_hopcount(text, config);
  ASSERT_TRUE(imported) << imported.error().message;

  const auto original = table.entries();
  const auto restored = imported->entries();
  ASSERT_EQ(original.size(), restored.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(original[i].ingress, restored[i].ingress);
    EXPECT_EQ(original[i].slash24.to_string(), restored[i].slash24.to_string());
    EXPECT_EQ(original[i].entry.min_hops, restored[i].entry.min_hops);
    EXPECT_EQ(original[i].entry.max_hops, restored[i].entry.max_hops);
    EXPECT_EQ(original[i].entry.count, restored[i].entry.count);
    EXPECT_EQ(original[i].entry.last_seen, restored[i].entry.last_seen);
  }
  // A second export of the imported table is byte-identical: the format is
  // canonical.
  EXPECT_EQ(export_hopcount(*imported), text);

  // A legacy line with a non-zero out_streak column loads and classifies
  // exactly like the same line with 0, and re-exports with 0.
  const std::string magic = std::string(kHopCountMagic) + "\n";
  const std::string stanza = magic + "ingress 9001\n";
  const auto legacy = import_hopcount(stanza + "  10.1.2.0/24 3 5 12 4 100\n");
  const auto current = import_hopcount(stanza + "  10.1.2.0/24 3 5 12 0 100\n");
  ASSERT_TRUE(legacy) << legacy.error().message;
  ASSERT_TRUE(current) << current.error().message;
  for (const std::uint8_t ttl : {0, 44, 55, 57, 59, 61, 62}) {
    EXPECT_EQ(legacy->classify(9001, ip("10.1.2.9"), ttl, 200),
              current->classify(9001, ip("10.1.2.9"), ttl, 200))
        << int{ttl};
  }
  EXPECT_EQ(export_hopcount(*legacy), export_hopcount(*current));
  EXPECT_NE(export_hopcount(*legacy).find("10.1.2.0/24 3 5 12 0 100\n"),
            std::string::npos);

  // Dump -> import -> dump is byte-identical at every table capacity: the
  // slot order never leaks into the format.
  std::vector<std::size_t> capacities;
  for (const std::uint32_t keys : {3u, 200u, 5000u}) {
    HopCountTable sized(config);
    for (std::uint32_t i = 0; i < keys; ++i) {
      const net::IPv4Address source{((i * 40503u) << 8) | 7u};
      for (std::uint32_t k = 0; k <= i % 3; ++k) {
        sized.observe(static_cast<IngressId>(9001 + i % 3), source,
                      static_cast<std::uint8_t>(40 + (i + k) % 20), 100 + i + k);
      }
    }
    capacities.push_back(sized.capacity());
    const auto dump = export_hopcount(sized);
    const auto back = import_hopcount(dump, config);
    ASSERT_TRUE(back) << back.error().message;
    EXPECT_EQ(back->size(), keys);
    EXPECT_EQ(export_hopcount(*back), dump) << keys << " keys";
  }
  EXPECT_LT(capacities[0], capacities[1]);
  EXPECT_LT(capacities[1], capacities[2]);
}

TEST(HopCountIo, RejectsMissingOrWrongMagic) {
  EXPECT_FALSE(import_hopcount(""));
  EXPECT_FALSE(import_hopcount("ingress 9001\n"));
  EXPECT_FALSE(import_hopcount("# comment first\ninfilter-hopcount v1\n"));
  EXPECT_FALSE(import_hopcount("infilter-hopcount v2\n"));
  EXPECT_FALSE(import_hopcount("infilter-eia v1\n"));
  EXPECT_TRUE(import_hopcount("infilter-hopcount v1\n"));
}

TEST(HopCountIo, RejectsCorruptBodies) {
  const std::string magic = std::string(kHopCountMagic) + "\n";
  // Entry before any ingress stanza.
  EXPECT_FALSE(import_hopcount(magic + "10.1.2.0/24 3 5 12 0 100\n"));
  // Bad ingress id.
  EXPECT_FALSE(import_hopcount(magic + "ingress nope\n"));
  EXPECT_FALSE(import_hopcount(magic + "ingress 70000\n"));
  // Non-/24 prefix.
  EXPECT_FALSE(
      import_hopcount(magic + "ingress 9001\n10.1.0.0/16 3 5 12 0 100\n"));
  // Wrong field count and non-numeric fields.
  EXPECT_FALSE(import_hopcount(magic + "ingress 9001\n10.1.2.0/24 3 5\n"));
  EXPECT_FALSE(import_hopcount(magic + "ingress 9001\n10.1.2.0/24 3 5 12 100\n"));
  // The legacy out_streak column is still validated: a negative or
  // non-numeric streak is corrupt.
  EXPECT_FALSE(
      import_hopcount(magic + "ingress 9001\n10.1.2.0/24 3 5 12 -1 100\n"));
  EXPECT_FALSE(
      import_hopcount(magic + "ingress 9001\n10.1.2.0/24 3 5 12 x 100\n"));
  EXPECT_FALSE(
      import_hopcount(magic + "ingress 9001\n10.1.2.0/24 3 five 12 0 100\n"));
  // Line numbers surface in the message.
  const auto error = import_hopcount(magic + "ingress 9001\nbroken line here\n");
  ASSERT_FALSE(error);
  EXPECT_NE(error.error().message.find("line 3"), std::string::npos)
      << error.error().message;
}

// The satellite guarantee: an engine restored from the exported EIA sets
// plus the exported hop-count table produces verdicts identical to the
// engine that kept its state in memory, on an identical replay.
TEST(HopCountIo, SaveLoadReplayMatchesLiveEngineVerdicts) {
  core::EngineConfig config;
  config.use_scan_analysis = config.use_nns = false;  // no shared scan state to copy
  config.use_hopcount = true;
  config.hopcount.learn_threshold = 3;

  core::InFilterEngine live(config);
  live.add_expected(9001, *net::Prefix::parse("10.1.0.0/16"));

  netflow::V5Record record;
  record.dst_ip = ip("192.0.2.1");
  record.proto = 6;
  record.dst_port = 443;

  // Warm-up: honest flows establish EIA-vouched hop-count ranges.
  util::TimeMs now = 0;
  for (int i = 0; i < 40; ++i) {
    record.src_ip = net::IPv4Address{ip("10.1.2.0").value() +
                                     static_cast<std::uint32_t>(i % 4) * 256 + 7};
    record.ttl = 57;
    (void)live.process(record, 9001, ++now);
  }
  ASSERT_GT(live.hopcount_table().size(), 0u);

  // Save both tables, load them into a fresh engine.
  const auto eia_text = core::export_eia(live.eia());
  const auto hopcount_text = export_hopcount(live.hopcount_table());
  core::InFilterEngine restored(config);
  const auto eia = core::import_eia(eia_text);
  ASSERT_TRUE(eia) << eia.error().message;
  for (const auto ingress : eia->ingresses()) {
    for (const auto& prefix : eia->set_for(ingress)->to_cidrs()) {
      restored.add_expected(ingress, prefix);
    }
  }
  const auto hopcount = import_hopcount(hopcount_text, config.hopcount);
  ASSERT_TRUE(hopcount) << hopcount.error().message;
  restored.install_hopcount(*hopcount);

  // Replay: honest, in-EIA spoofed (wrong path), and out-of-EIA spoofed
  // flows must all draw identical verdicts from both engines.
  struct Probe {
    const char* src;
    std::uint8_t ttl;
  };
  const Probe probes[] = {
      {"10.1.2.7", 57},    // honest: legal
      {"10.1.2.7", 44},    // in-EIA spoof, attacker path: suspect
      {"10.1.99.1", 57},   // in-EIA, range never learned: legal
      {"172.16.0.1", 44},  // out-of-EIA + wrong path: fused attack
      {"172.16.0.1", 0},   // out-of-EIA, no TTL: plain EIA mismatch
  };
  for (const auto& probe : probes) {
    record.src_ip = ip(probe.src);
    record.ttl = probe.ttl;
    ++now;
    const auto a = live.process(record, 9001, now);
    const auto b = restored.process(record, 9001, now);
    EXPECT_EQ(a.attack, b.attack) << probe.src;
    EXPECT_EQ(a.suspect, b.suspect) << probe.src;
    EXPECT_EQ(a.stage, b.stage) << probe.src;
  }
}

}  // namespace
}  // namespace infilter::hopcount
