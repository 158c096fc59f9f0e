#include "lifecycle/migrate.h"

#include <algorithm>
#include <cassert>
#include <set>

#include "util/rng.h"

namespace infilter::lifecycle {

std::size_t shard_of_key24(std::uint32_t key24, std::size_t shards) {
  return static_cast<std::size_t>(util::SplitMix64{key24}.next() % shards);
}

std::size_t EngineHarvest::entry_count() const {
  std::size_t membership = 0;
  for (const auto& [ingress, prefixes] : cidrs) membership += prefixes.size();
  return membership + ages.size() + pending.size() + hopcount.size();
}

EngineHarvest harvest_engines(
    const std::vector<const core::InFilterEngine*>& engines) {
  assert(!engines.empty());
  EngineHarvest harvest;
  const std::size_t old_shards = engines.size();

  std::set<core::IngressId> ingress_union;
  for (const auto* engine : engines) {
    for (const core::IngressId ingress : engine->eia().ingresses()) {
      ingress_union.insert(ingress);
    }
  }
  for (const core::IngressId ingress : ingress_union) {
    core::EiaSet merged;
    for (const auto* engine : engines) {
      const core::EiaSet* set = engine->eia().set_for(ingress);
      if (set == nullptr) continue;
      for (const net::Prefix& prefix : set->to_cidrs()) merged.add(prefix);
    }
    harvest.cidrs.emplace_back(ingress, merged.to_cidrs());
  }

  // Age metadata and pending counters live only on their owner shard, so
  // a plain union across engines is the serial map.
  for (const auto* engine : engines) {
    const auto ages = engine->eia().aged_entries();
    harvest.ages.insert(harvest.ages.end(), ages.begin(), ages.end());
    const auto pending = engine->eia().pending_entries();
    harvest.pending.insert(harvest.pending.end(), pending.begin(),
                           pending.end());
  }
  std::sort(harvest.ages.begin(), harvest.ages.end(),
            [](const auto& a, const auto& b) {
              return a.ingress != b.ingress ? a.ingress < b.ingress
                                            : a.key24 < b.key24;
            });
  std::sort(harvest.pending.begin(), harvest.pending.end());

  // Hop-count entries: keep each key's evolved copy from its owner (a
  // replicated preload is identical everywhere until its owner touches it).
  for (std::size_t s = 0; s < old_shards; ++s) {
    for (const auto& exported : engines[s]->hopcount_table().entries()) {
      const std::uint32_t key24 = exported.slash24.address().value();
      if (old_shards == 1 || shard_of_key24(key24, old_shards) == s) {
        harvest.hopcount.push_back(exported);
      }
    }
  }
  std::sort(harvest.hopcount.begin(), harvest.hopcount.end(),
            [](const auto& a, const auto& b) {
              if (a.ingress != b.ingress) return a.ingress < b.ingress;
              return a.slash24.address().value() < b.slash24.address().value();
            });

  return harvest;
}

EngineHarvest harvest_eia(const core::EiaTable& table) {
  EngineHarvest harvest;
  for (const core::IngressId ingress : table.ingresses()) {
    harvest.cidrs.emplace_back(ingress, table.set_for(ingress)->to_cidrs());
  }
  harvest.ages = table.aged_entries();
  harvest.pending = table.pending_entries();
  return harvest;
}

void install_engine_state(const EngineHarvest& harvest,
                          core::InFilterEngine& engine, std::size_t shard,
                          std::size_t new_shards) {
  core::EiaTable& table = engine.eia_mut();
  for (const auto& [ingress, prefixes] : harvest.cidrs) {
    table.declare_ingress(ingress);
    for (const net::Prefix& prefix : prefixes) table.add_expected(ingress, prefix);
  }

  for (const auto& aged : harvest.ages) {
    if (new_shards == 1 || shard_of_key24(aged.key24, new_shards) == shard) {
      table.restore_age(aged.ingress, aged.key24, aged.age);
    }
  }
  for (const auto& [key, count] : harvest.pending) {
    const auto key24 = static_cast<std::uint32_t>(key & 0xFFFFFFFFu);
    if (new_shards == 1 || shard_of_key24(key24, new_shards) == shard) {
      table.restore_pending(key, count);
    }
  }

  if (!harvest.hopcount.empty()) {
    hopcount::HopCountTable hc{engine.config().hopcount};
    for (const auto& exported : harvest.hopcount) {
      hc.restore(exported.ingress, exported.slash24.address(), exported.entry);
    }
    engine.install_hopcount(std::move(hc));
  }
}

}  // namespace infilter::lifecycle
