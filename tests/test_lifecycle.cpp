// Tests for the lifecycle subsystem (src/lifecycle): exact-EIA entry
// aging (learning / member / expired tombstone, relearn and its
// determinism contract),
// EiaSet prefix removal, age-metadata persistence through eia_io, live
// shard-pool resizes with state migration (bit-consistency against a
// serial replay of the realized dispatch order), the resize/flush/
// snapshot race under live producers (TSan lane), and the long-horizon
// churn soak harness (sim/soak.h).

#include "lifecycle/lifecycle.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/eia.h"
#include "core/eia_io.h"
#include "lifecycle/migrate.h"
#include "runtime/runtime.h"
#include "runtime_fixtures.h"
#include "sim/soak.h"
#include "sim/testbed.h"

namespace infilter {
namespace {

using namespace fixtures;

net::Prefix prefix(const char* text) { return *net::Prefix::parse(text); }

net::IPv4Address addr(const char* text) { return *net::IPv4Address::parse(text); }

// -- The idle-expiry predicate (lifecycle/lifecycle.h) --

TEST(Lifecycle, IdleExpiredIsMonotoneInNow) {
  constexpr util::TimeMs kLastSeen = 1000;
  constexpr util::DurationMs kMaxIdle = 500;
  EXPECT_FALSE(lifecycle::idle_expired(kLastSeen, 1500, kMaxIdle));  // boundary
  EXPECT_TRUE(lifecycle::idle_expired(kLastSeen, 1501, kMaxIdle));
  // Monotone: once expired at T, expired at every later T'.
  bool expired = false;
  for (util::TimeMs now = 0; now < 3000; now += 7) {
    const bool e = lifecycle::idle_expired(kLastSeen, now, kMaxIdle);
    EXPECT_TRUE(!expired || e) << "expiry regressed at now=" << now;
    expired = e;
  }
}

TEST(Lifecycle, RebasedClockNeverExpires) {
  // Exporter restart: record timestamps rebase below last_seen. The
  // predicate must treat a past-reading clock as "no idle time at all".
  EXPECT_FALSE(lifecycle::idle_expired(5000, 0, 10));
  EXPECT_FALSE(lifecycle::idle_expired(5000, 5000, 10));
}

TEST(Lifecycle, EnabledIffMaxIdleIsSet) {
  lifecycle::LifecycleConfig config;
  EXPECT_FALSE(config.enabled());
  config.max_idle_ms = 1000;
  EXPECT_TRUE(config.enabled());
}

// -- EiaSet::remove --

TEST(EiaSetRemove, SplitsCoveringRange) {
  core::EiaSet set;
  set.add(prefix("10.0.0.0/16"));
  EXPECT_TRUE(set.remove(prefix("10.0.1.0/24")));
  EXPECT_TRUE(set.contains(addr("10.0.0.5")));
  EXPECT_FALSE(set.contains(addr("10.0.1.5")));
  EXPECT_TRUE(set.contains(addr("10.0.2.5")));
  EXPECT_EQ(set.range_count(), 2u);
  EXPECT_EQ(set.address_count(), 65536u - 256u);
  // Already gone: nothing left to remove.
  EXPECT_FALSE(set.remove(prefix("10.0.1.0/24")));
}

TEST(EiaSetRemove, TrimsRangeEdgesAndEmptiesExactMatch) {
  core::EiaSet set;
  set.add(prefix("10.1.0.0/24"));
  set.add(prefix("10.1.1.0/24"));
  // Trim the front /24 off the merged [10.1.0.0, 10.1.1.255] range.
  EXPECT_TRUE(set.remove(prefix("10.1.0.0/24")));
  EXPECT_FALSE(set.contains(addr("10.1.0.9")));
  EXPECT_TRUE(set.contains(addr("10.1.1.9")));
  // Remove the remainder exactly: the set goes empty.
  EXPECT_TRUE(set.remove(prefix("10.1.1.0/24")));
  EXPECT_EQ(set.range_count(), 0u);
  EXPECT_EQ(set.address_count(), 0u);
  EXPECT_FALSE(set.remove(prefix("10.1.1.0/24")));
}

// -- EiaTable aging --

core::EiaTableConfig aging_config(util::DurationMs max_idle) {
  core::EiaTableConfig config;
  config.learn_threshold = 2;
  config.lifecycle.max_idle_ms = max_idle;
  return config;
}

// Learns `source`'s /24 into `ingress` at virtual time `now`.
void learn(core::EiaTable& table, core::IngressId ingress, net::IPv4Address source,
           util::TimeMs now) {
  bool learned = false;
  for (int i = 0; i < table.config().learn_threshold; ++i) {
    learned = table.observe_mismatch(ingress, source, now);
  }
  ASSERT_TRUE(learned);
}

TEST(EiaAging, EntryWalksLearningMemberExpired) {
  core::EiaTable table(aging_config(1000));
  ASSERT_TRUE(table.aging_enabled());
  table.declare_ingress(9001);
  const auto src = addr("10.1.2.3");

  EXPECT_EQ(table.pending_counters(), 0u);
  EXPECT_EQ(table.aged_entry_count(), 0u);
  // Learning: a pending counter, not yet a member.
  ASSERT_FALSE(table.observe_mismatch(9001, src, 100));
  EXPECT_EQ(table.pending_counters(), 1u);
  EXPECT_FALSE(table.is_expected(9001, src, 100));
  EXPECT_EQ(table.aged_entry_count(), 0u);
  ASSERT_TRUE(table.observe_mismatch(9001, src, 100));
  EXPECT_EQ(table.pending_counters(), 0u);

  // Member: a hit refreshes last_seen.
  EXPECT_TRUE(table.is_expected(9001, src, 700));
  ASSERT_EQ(table.aged_entries().size(), 1u);
  EXPECT_EQ(table.aged_entries()[0].age.learned_at, 100u);
  EXPECT_EQ(table.aged_entries()[0].age.last_seen, 700u);
  EXPECT_FALSE(table.aged_entries()[0].age.expired);
  EXPECT_EQ(table.lifecycle_stats().entries_refreshed, 1u);

  // Past max_idle the lookup itself expires the entry: membership gone,
  // the age record kept as a tombstone.
  EXPECT_FALSE(table.is_expected(9001, src, 2000));
  ASSERT_EQ(table.aged_entries().size(), 1u);
  EXPECT_TRUE(table.aged_entries()[0].age.expired);
  EXPECT_EQ(table.lifecycle_stats().entries_expired, 1u);
  // The tombstone is permanent until relearned: still expired much later.
  EXPECT_FALSE(table.is_expected(9001, src, 9000));
  EXPECT_TRUE(table.aged_entries()[0].age.expired);
  EXPECT_EQ(table.lifecycle_stats().entries_expired, 1u);  // counted once
  EXPECT_EQ(table.lifecycle_stats().entries_refreshed, 1u);
}

TEST(EiaAging, RelearnAfterExpiryIsCountedAndLive) {
  core::EiaTable table(aging_config(1000));
  table.declare_ingress(9001);
  const auto src = addr("10.1.2.3");
  learn(table, 9001, src, 100);
  EXPECT_FALSE(table.is_expected(9001, src, 5000));  // idled out
  EXPECT_EQ(table.lifecycle_stats().entries_expired, 1u);

  learn(table, 9001, src, 5100);
  EXPECT_EQ(table.lifecycle_stats().entries_relearned, 1u);
  EXPECT_TRUE(table.is_expected(9001, src, 5200));
  ASSERT_EQ(table.aged_entries().size(), 1u);
  EXPECT_EQ(table.aged_entries()[0].age, (lifecycle::EntryAge{5100, 5200, false}));
}

TEST(EiaAging, PreloadedRangesNeverAge) {
  core::EiaTable table(aging_config(10));
  table.add_expected(9001, prefix("3.0.0.0/11"));
  const auto src = addr("3.0.0.7");
  EXPECT_TRUE(table.is_expected(9001, src, 1u << 30));
  EXPECT_EQ(table.lifecycle_stats().entries_expired, 0u);
  EXPECT_EQ(table.aged_entry_count(), 0u);
}

TEST(EiaAging, ExporterRebaseNeverExpires) {
  core::EiaTable table(aging_config(1000));
  table.declare_ingress(9001);
  const auto src = addr("10.1.2.3");
  learn(table, 9001, src, 50000);
  // The exporter restarted: flow timestamps read far below last_seen.
  EXPECT_TRUE(table.is_expected(9001, src, 0));
  EXPECT_TRUE(table.is_expected(9001, src, 10));
  EXPECT_EQ(table.lifecycle_stats().entries_expired, 0u);
}

TEST(EiaAging, SweepMatchesLazyExpiryExactly) {
  // Two identical tables, one swept eagerly at T: every later lookup must
  // answer the same -- the sweep only reclaims what lazy expiry would
  // have rejected anyway (verdict-neutral).
  core::EiaTable swept(aging_config(1000));
  core::EiaTable lazy(aging_config(1000));
  for (auto* table : {&swept, &lazy}) {
    table->declare_ingress(9001);
    learn(*table, 9001, addr("10.1.2.3"), 100);   // idles out by T
    learn(*table, 9001, addr("10.7.7.7"), 4800);  // still fresh at T
  }
  const std::size_t expired = swept.age_sweep(5000);
  EXPECT_EQ(expired, 1u);
  EXPECT_EQ(swept.aged_entry_count(), 2u);  // tombstone retained
  for (const char* probe : {"10.1.2.3", "10.7.7.7", "10.9.9.9"}) {
    EXPECT_EQ(swept.is_expected(9001, addr(probe), 5200),
              lazy.is_expected(9001, addr(probe), 5200))
        << probe;
  }
  EXPECT_EQ(swept.lifecycle_stats().entries_expired,
            lazy.lifecycle_stats().entries_expired);
}

TEST(EiaAging, DisabledConfigNeverAges) {
  core::EiaTable table;  // default: aging off
  ASSERT_FALSE(table.aging_enabled());
  table.declare_ingress(9001);
  const auto src = addr("10.1.2.3");
  for (int i = 0; i < table.config().learn_threshold; ++i) {
    table.observe_mismatch(9001, src, 100);
  }
  // No expiry however far the clock runs, and no age metadata kept.
  EXPECT_TRUE(table.is_expected(9001, src, ~util::TimeMs{0} / 2));
  EXPECT_EQ(table.aged_entry_count(), 0u);
  EXPECT_EQ(table.age_sweep(~util::TimeMs{0} / 2), 0u);
  EXPECT_EQ(table.lifecycle_stats().entries_expired, 0u);
}

// -- Persistence (core/eia_io.h) --

TEST(EiaIoLifecycle, AgeMetadataRoundTripsByteIdentically) {
  core::EiaTable table(aging_config(60000));
  table.add_expected(9001, prefix("3.0.0.0/11"));  // preload: no age line
  learn(table, 9001, addr("10.1.2.3"), 1000);
  learn(table, 9002, addr("10.5.0.9"), 2000);
  EXPECT_FALSE(table.is_expected(9002, addr("10.5.0.9"), 500000));  // tombstone

  const auto text = core::export_eia(table);
  EXPECT_NE(text.find("lifecycle v1 max_idle=60000"), std::string::npos);
  EXPECT_NE(text.find("age 9001 10.1.2.0/24 1000 1000"), std::string::npos);
  EXPECT_NE(text.find("age 9002 10.5.0.0/24 2000 2000 expired"), std::string::npos);

  auto imported = core::import_eia(text);
  ASSERT_TRUE(imported.has_value()) << imported.error().message;
  // The directive overrides the caller's (default, aging-off) config.
  EXPECT_EQ(imported->config().lifecycle.max_idle_ms, 60000u);
  ASSERT_TRUE(imported->aging_enabled());
  EXPECT_EQ(imported->aged_entries(), table.aged_entries());
  // Byte-exact round trip: export(import(export(t))) == export(t).
  // Checked before any aging-aware lookup -- those refresh last_seen.
  EXPECT_EQ(core::export_eia(*imported), text);
  EXPECT_TRUE(imported->is_expected(9001, addr("10.1.2.3"), 1500));
  EXPECT_FALSE(imported->is_expected(9002, addr("10.5.0.9"), 1500));  // expired
  ASSERT_EQ(imported->aged_entries().size(), 2u);
  EXPECT_EQ(imported->aged_entries()[1].ingress, 9002);
  EXPECT_TRUE(imported->aged_entries()[1].age.expired);

  // A legacy directive still carrying the retired stale_after parameter
  // loads exactly like one without it.
  const std::string directive = "lifecycle v1 max_idle=60000\n";
  ASSERT_NE(text.find(directive), std::string::npos);
  std::string legacy = text;
  legacy.replace(text.find(directive), directive.size(),
                 "lifecycle v1 max_idle=60000 stale_after=800\n");
  auto reloaded = core::import_eia(legacy);
  ASSERT_TRUE(reloaded.has_value()) << reloaded.error().message;
  EXPECT_EQ(reloaded->config().lifecycle.max_idle_ms, 60000u);
  EXPECT_EQ(reloaded->aged_entries(), table.aged_entries());
  EXPECT_EQ(core::export_eia(*reloaded), text);
}

TEST(EiaIoLifecycle, AgingOffExportCarriesNoLifecycleLines) {
  core::EiaTable table;
  table.add_expected(9001, prefix("3.0.0.0/11"));
  const auto text = core::export_eia(table);
  EXPECT_EQ(text.find("lifecycle"), std::string::npos);
  EXPECT_EQ(text.find("age "), std::string::npos);
}

TEST(EiaIoLifecycle, LegacyDumpLoadsEstablishedUnderAgingConfig) {
  // A pre-lifecycle file: plain stanzas, no directive, no age lines.
  const std::string legacy = "ingress 9001\n  10.1.2.0/24\n";
  auto config = aging_config(60000);
  auto imported = core::import_eia(legacy, config);
  ASSERT_TRUE(imported.has_value()) << imported.error().message;
  ASSERT_TRUE(imported->aging_enabled());
  EXPECT_EQ(imported->aged_entry_count(), 0u);
  // No metadata = treated as an operator preload: a member forever.
  EXPECT_TRUE(imported->is_expected(9001, addr("10.1.2.3"), 1u << 30));
  EXPECT_EQ(imported->lifecycle_stats().entries_expired, 0u);
}

TEST(EiaIoLifecycle, DirectiveAfterStateLinesIsRejected) {
  const std::string bad = "ingress 9001\n  10.1.2.0/24\nlifecycle v1 max_idle=5\n";
  const auto imported = core::import_eia(bad);
  EXPECT_FALSE(imported.has_value());
  // A malformed legacy stale_after value is still an error, with its line.
  const auto malformed = core::import_eia(
      "# dump\nlifecycle v1 max_idle=5 stale_after=abc\ningress 9001\n");
  ASSERT_FALSE(malformed.has_value());
  EXPECT_NE(malformed.error().message.find("line 2"), std::string::npos)
      << malformed.error().message;
}

// -- Verdict neutrality at the engine level --

// Aging enabled but never firing (max_idle beyond the horizon) must be
// bit-identical to aging off: the metadata bookkeeping (stamps, refreshes,
// tombstone checks) is pure observation, never a verdict input.
TEST(LifecycleEngine, AgingWithNoExpiryIsBitIdenticalToAgingOff) {
  const auto config = small_testbed_config();
  const auto baseline = sim::run_experiment(config);
  auto aged = config;
  aged.engine.eia.lifecycle.max_idle_ms = 365 * util::kDay;
  expect_same_result(baseline, sim::run_experiment(aged));
}

// -- Live resize: bit-consistency across the boundary --

// The tentpole acceptance sweep: at every (shard count, producer count),
// a grow resize at ~1/3 and a shrink back at ~2/3 of the stream -- fired
// from the control thread while producers are live -- must leave the
// verdicts, alert stream and scan stats bit-identical to a fresh serial engine
// replaying the realized dispatch order. Aging is ON with a horizon that
// fires mid-stream, so expiry/relearn state rides the migration too.
TEST(LifecycleResize, MidStreamResizeSweepReplaysIdenticalAlertStream) {
  auto config = small_testbed_config();
  config.engine.eia.lifecycle.max_idle_ms = 2000;
  const ReplayFixture fx(config);
  const auto n = fx.stream.flows.size();

  for (const int shards : {1, 2, 4, 8}) {
    for (const int producers : {1, 2, 4}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " producers=" + std::to_string(producers));
      runtime::RuntimeConfig rc;
      rc.shards = shards;
      ReplayOptions options;
      // Grow, then shrink back, from the control thread mid-stream. The
      // exact trigger point is irrelevant to the property -- any boundary
      // must be invisible in the replayed stream.
      options.during = [&](runtime::ShardedRuntime& rt, const std::atomic<int>& live) {
        const auto wait_processed = [&](std::uint64_t target) {
          while (rt.stats().processed < target && live.load() > 0) {
            std::this_thread::yield();
          }
        };
        wait_processed(n / 3);
        EXPECT_TRUE(rt.resize(shards * 2));
        wait_processed(2 * n / 3);
        EXPECT_TRUE(rt.resize(std::max(1, shards / 2)));
      };
      options.after = [&](runtime::ShardedRuntime& rt) {
        EXPECT_EQ(rt.shard_count(), static_cast<std::size_t>(std::max(1, shards / 2)));
        const auto snap = rt.snapshot();
        EXPECT_DOUBLE_EQ(snap.value("infilter_lifecycle_resizes_total"), 2.0);
        // Resize-retired engine history stays in the merged view: every
        // flow is still accounted for after two pool replacements.
        EXPECT_DOUBLE_EQ(snap.value("infilter_flows_total"), static_cast<double>(n));
      };
      expect_realized_order_replays(fx, rc, round_robin_plans(n, producers), 128,
                                    options);
    }
  }
}

// The path infilter-detect's --dump-eia takes: a 4-shard pool's harvest,
// installed into one fresh engine, exports exactly the bytes a serial
// engine fed the same flows exports -- learned /24s and their age
// metadata included. Harvest and export must compose, not just resize.
TEST(LifecycleHarvest, FourShardImageExportsTheSerialEiaDump) {
  auto config = small_testbed_config();
  config.route_change_blocks = 8;  // moved prefixes the EIA rule learns
  config.engine.eia.learn_threshold = 2;
  config.engine.eia.lifecycle.max_idle_ms = 2000;
  const ReplayFixture fx(config);
  // The EIA half is all a dump reads; Basic InFilter needs no training.
  core::EngineConfig engine = fx.engine;
  engine.use_scan_analysis = engine.use_nns = false;

  core::InFilterEngine serial(engine);
  sim::preload_eia(fx.config, serial);
  runtime::RuntimeConfig rc;
  rc.shards = 4;
  rc.engine = engine;
  runtime::ShardedRuntime rt(rc);
  sim::preload_eia(fx.config, rt);
  const auto items = fx.items();
  for (std::size_t at = 0; at < items.size(); at += 256) {
    const std::size_t n = std::min<std::size_t>(256, items.size() - at);
    rt.submit_batch(std::span(items).subspan(at, n));
  }
  rt.shutdown();
  for (const auto& item : items) {
    (void)serial.process(item.record, item.ingress, item.now);
  }

  std::vector<const core::InFilterEngine*> engines;
  for (std::size_t s = 0; s < rt.shard_count(); ++s) {
    engines.push_back(&rt.shard_engine(s));
  }
  core::InFilterEngine image(engine);
  lifecycle::install_engine_state(lifecycle::harvest_engines(engines), image, 0, 1);

  const std::string expected = core::export_eia(serial.eia());
  ASSERT_GT(serial.eia().lifecycle_stats().entries_expired, 0u);  // aging fired
  ASSERT_NE(expected.find("\nage "), std::string::npos);         // and learned
  EXPECT_EQ(core::export_eia(image.eia()), expected);
}

// The race lane: resize(), flush(), and snapshot() hammered from the
// control thread while producer threads submit -- nothing lost, nothing
// double-counted, whatever interleaving the scheduler picks. Run under
// INFILTER_SANITIZE=thread this pins the absence of data races in the
// quiesce/harvest/restart protocol (scripts/check.sh's lifecycle lane).
TEST(LifecycleResize, ResizeFlushSnapshotRaceProducersSafely) {
  constexpr int kProducers = 3;
  constexpr std::uint64_t kPerProducer = 2000;
  runtime::RuntimeConfig config;
  config.shards = 2;
  config.producers = kProducers;
  config.queue_depth = 64;
  config.backpressure = runtime::BackpressurePolicy::kBlock;
  config.engine.use_scan_analysis = config.engine.use_nns = false;
  config.engine.eia.lifecycle.max_idle_ms = 50;  // churn mid-run too
  runtime::ShardedRuntime rt(config);
  std::atomic<int> live{kProducers};
  auto producers = start_producers(rt, kProducers, kPerProducer, live);
  const int sizes[] = {3, 1, 4, 2};
  std::size_t next_size = 0;
  while (live.load() > 0) {
    EXPECT_TRUE(rt.resize(sizes[next_size++ % 4]));
    const auto snap = rt.snapshot();
    EXPECT_GT(snap.value("infilter_runtime_shards"), 0.0);
    rt.flush();
    std::this_thread::sleep_for(std::chrono::microseconds(100));
  }
  for (auto& t : producers) t.join();
  rt.flush();
  const auto stats = rt.stats();
  EXPECT_EQ(stats.submitted, kPerProducer * kProducers);
  EXPECT_EQ(stats.dispatched, kPerProducer * kProducers);
  EXPECT_EQ(stats.processed, kPerProducer * kProducers);
  EXPECT_EQ(stats.dropped, 0u);
  // Retired-pool history keeps the merged flow count exact.
  EXPECT_DOUBLE_EQ(rt.snapshot().value("infilter_flows_total"),
                   static_cast<double>(kPerProducer * kProducers));
}

TEST(LifecycleResize, RejectsInvalidAndPostShutdownRequests) {
  runtime::RuntimeConfig config;
  config.shards = 2;
  config.engine.use_scan_analysis = config.engine.use_nns = false;
  runtime::ShardedRuntime rt(config);
  EXPECT_FALSE(rt.resize(0));
  EXPECT_TRUE(rt.resize(2));  // same-size no-op succeeds
  EXPECT_EQ(rt.shard_count(), 2u);
  rt.shutdown();
  EXPECT_FALSE(rt.resize(4));
}

// -- The churn soak harness (sim/soak.h) --

// Acceptance: aging + two live resizes (grow then shrink) across a
// multi-wave horizon with day-long idle gaps and per-wave exporter
// restarts must not decay detection quality versus a static-pool run of
// the same waves. With a single submitting producer the realized order is
// the submission order, so the two runs' verdicts are bit-identical --
// asserted exactly, not within a tolerance.
TEST(LifecycleSoak, ResizedRunMatchesStaticPoolQuality) {
  sim::SoakConfig soak;
  soak.base = small_testbed_config();
  soak.base.normal_flows_per_source = 400;
  soak.base.runtime_shards = 2;
  soak.base.runtime_queue_depth = 512;
  // Routing churn donates blocks between sources, so drift entries get
  // learned each wave; a low threshold makes that certain at this scale.
  soak.base.route_change_blocks = 8;
  soak.base.engine.eia.learn_threshold = 2;
  soak.base.engine.eia.lifecycle.max_idle_ms = 12 * util::kHour;
  soak.waves = 3;
  soak.wave_gap_ms = util::kDay;
  soak.resizes = {{.before_wave = 1, .shards = 4}, {.before_wave = 2, .shards = 1}};
  const auto churned = sim::run_soak(soak);

  auto static_pool = soak;
  static_pool.resizes.clear();
  const auto baseline = sim::run_soak(static_pool);

  EXPECT_EQ(churned.resizes, 2u);
  EXPECT_EQ(baseline.resizes, 0u);
  EXPECT_GT(churned.migrated_entries, 0u);
  EXPECT_GT(churned.resize_pause_p99_us, 0.0);
  ASSERT_EQ(churned.waves.size(), 3u);
  EXPECT_EQ(churned.waves[1].shards, 4);
  EXPECT_EQ(churned.waves[2].shards, 1);
  // The day-long gaps exceed max_idle: learned drift entries expire and
  // relearn across waves in both runs.
  EXPECT_GT(churned.entries_expired, 0u);
  EXPECT_GT(churned.min_detection_rate(), 0.0);
  for (std::size_t w = 0; w < churned.waves.size(); ++w) {
    SCOPED_TRACE("wave " + std::to_string(w));
    const auto& c = churned.waves[w];
    const auto& b = baseline.waves[w];
    EXPECT_DOUBLE_EQ(c.detection_rate, b.detection_rate);
    EXPECT_DOUBLE_EQ(c.flow_detection_rate, b.flow_detection_rate);
    EXPECT_DOUBLE_EQ(c.false_positive_rate, b.false_positive_rate);
    EXPECT_DOUBLE_EQ(c.benign_suspect_rate, b.benign_suspect_rate);
    EXPECT_EQ(c.entries_expired, b.entries_expired);
    EXPECT_EQ(c.entries_relearned, b.entries_relearned);
  }
}

// The explicit sweep is verdict-neutral: eager reclamation between waves
// versus purely lazy expiry yields the same quality trajectory.
TEST(LifecycleSoak, EagerSweepIsVerdictNeutral) {
  sim::SoakConfig soak;
  soak.base = small_testbed_config();
  soak.base.normal_flows_per_source = 400;
  soak.base.runtime_shards = 2;
  soak.base.route_change_blocks = 8;
  soak.base.engine.eia.learn_threshold = 2;
  soak.base.engine.eia.lifecycle.max_idle_ms = 12 * util::kHour;
  soak.waves = 2;
  soak.age_sweep_between_waves = true;
  const auto swept = sim::run_soak(soak);
  EXPECT_GT(swept.waves.at(0).swept + swept.waves.at(1).swept, 0u);

  auto lazy_config = soak;
  lazy_config.age_sweep_between_waves = false;
  const auto lazy = sim::run_soak(lazy_config);
  ASSERT_EQ(swept.waves.size(), lazy.waves.size());
  for (std::size_t w = 0; w < swept.waves.size(); ++w) {
    SCOPED_TRACE("wave " + std::to_string(w));
    EXPECT_DOUBLE_EQ(swept.waves[w].detection_rate, lazy.waves[w].detection_rate);
    EXPECT_DOUBLE_EQ(swept.waves[w].false_positive_rate,
                     lazy.waves[w].false_positive_rate);
    EXPECT_DOUBLE_EQ(swept.waves[w].benign_suspect_rate,
                     lazy.waves[w].benign_suspect_rate);
    EXPECT_EQ(lazy.waves[w].swept, 0u);
  }
}

}  // namespace
}  // namespace infilter
