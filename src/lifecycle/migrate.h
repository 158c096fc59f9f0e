// Shard-engine state migration for ShardedRuntime::resize.
//
// A resize quiesces the pool (two-phase flush, workers joined), harvests
// the per-shard engines' learned state into one serial-equivalent image,
// and installs that image into a freshly built shard map. The invariant
// throughout: after installation, every key's state on its new owner
// shard is exactly the state a serial engine that processed the same
// flow sequence would hold. That extends the runtime's bit-identical
// serial-replay contract across the resize boundary.
//
// Per-component protocol (owner = the shard the source-/24 hash maps to):
//
//   * EIA membership -- union of every old shard's interval sets, as
//     minimal CIDRs, replicated to every new engine. Learned /24s exist
//     only on their old owner and preloads are replicated identically
//     everywhere, so the union IS the serial set; entries for keys a new
//     shard does not own are dead weight it never looks up (the same
//     argument install_hopcount documents for hop-count preloads).
//   * EIA age metadata + pending learn counters -- harvested from their
//     owner (each lives only there) and installed filtered by the NEW
//     owner hash: pending banks must hold exactly the serial contents,
//     because bank-full decay depends on bank occupancy.
//   * Hop-count ranges -- entries filtered by old owner on harvest (an
//     install_hopcount preload is replicated, and only the owner's copy
//     has evolved), then replicated to every new engine like a preload.
//   * Scan buffers -- not handled here: the shared scan stage owns them
//     on the persistent scan engine, which survives the resize untouched.

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/engine.h"

namespace infilter::lifecycle {

/// The runtime's shard hash (runtime.cpp shard_of), exposed so migration
/// filters with the exact same mapping. `key24` is the /24 base address.
[[nodiscard]] std::size_t shard_of_key24(std::uint32_t key24, std::size_t shards);

/// One serial-equivalent image of a quiescent shard pool's learned state.
struct EngineHarvest {
  /// Union membership as minimal CIDRs per declared ingress, ascending
  /// (an ingress with an empty set keeps an empty list).
  std::vector<std::pair<core::IngressId, std::vector<net::Prefix>>> cidrs;

  std::vector<core::EiaTable::AgedEntry> ages;
  std::vector<std::pair<std::uint64_t, int>> pending;
  std::vector<hopcount::HopCountTable::ExportedEntry> hopcount;

  /// Distinct state records carried (infilter_lifecycle_migrated_entries).
  [[nodiscard]] std::size_t entry_count() const;
};

/// Harvests the serial-equivalent state image from a quiescent pool.
/// `engines[s]` must be old shard s's engine; all share one EngineConfig.
[[nodiscard]] EngineHarvest harvest_engines(
    const std::vector<const core::InFilterEngine*>& engines);

/// The image of one EIA table -- membership, age metadata and pending
/// learn counters -- as harvest_engines would take it from a one-shard
/// pool: how an imported dump (core/eia_io.h) is installed with its
/// learned state intact.
[[nodiscard]] EngineHarvest harvest_eia(const core::EiaTable& table);

/// Installs the image into new shard `shard` of `new_shards`. Membership
/// and hop-count ranges are replicated; age metadata and pending counters
/// are filtered to the keys this shard owns.
void install_engine_state(const EngineHarvest& harvest,
                          core::InFilterEngine& engine, std::size_t shard,
                          std::size_t new_shards);

}  // namespace infilter::lifecycle
