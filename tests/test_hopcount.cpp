// Tests for the TTL hop-count detector (src/hopcount): initial-TTL
// inference, range learning/classification, decay (the only reset), the
// anti-poisoning learning policy, the deterministic path model, and the
// versioned serialization format -- including the save/load -> identical
// verdicts guarantee alongside the EIA sets.

#include "hopcount/hopcount.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/eia_io.h"
#include "core/engine.h"
#include "hopcount/hopcount_io.h"
#include "hopcount/path_model.h"

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

TEST(HopCountTable, FullTableIgnoresNewKeysButServesOldOnes) {
  HopCountConfig config;
  config.learn_threshold = 1;
  config.max_entries = 1;
  HopCountTable table(config);
  table.observe(9001, ip("10.1.2.3"), 57, 0);
  table.observe(9001, ip("10.9.9.9"), 57, 0);
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(table.classify(9001, ip("10.9.9.9"), 57, 0), TtlClass::kUnknown);
  EXPECT_EQ(table.classify(9001, ip("10.1.2.3"), 57, 0), TtlClass::kConsistent);
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
