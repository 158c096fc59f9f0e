// TTL hop-count detection -- a second spoofing witness, independent of EIA.
//
// InFilter's hypothesis is that traffic from a given source reaches the
// protected AS over a stable path. The Expected-IP-Address sets test one
// consequence (the ingress point is stable); the IP TTL tests another: the
// *path length* is stable too. Scheitle et al. ("Carrier-Grade Anomaly
// Detection Using Time-to-Live Header Information") show per-source TTL
// stability survives at carrier scale, and SMap documents that real
// spoofers routinely forge addresses that are perfectly valid at the
// ingress they attack -- the one attack class the EIA sets cannot see.
//
// A HopCountTable learns, per (ingress, source /24), the expected range of
// hop counts. The hop count is recovered from the observed TTL by the
// standard initial-TTL inference: operating systems send with an initial
// TTL of 32, 64, 128 or 255, so the smallest of those >= the observed TTL
// is the likely initial value and (initial - observed) the path length.
// Learning mirrors the EIA table's learn/detect phases: a key classifies
// flows only after learn_threshold trusted observations, and idle entries
// decay so a genuine route change re-learns instead of alarming forever.
// Decay is the only reset: an established range is never widened or
// replaced by later observations, only forgotten after decay_ms idle.

#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "net/ipv4.h"
#include "util/time.h"

namespace infilter::hopcount {

/// Identifies an ingress point (Peer AS / Border Router); numerically
/// identical to core::IngressId -- hopcount sits below core in the layer
/// order, so the alias is repeated here rather than included.
using IngressId = std::uint16_t;

/// Per-flow TTL classification.
enum class TtlClass : std::uint8_t {
  kUnknown,     ///< no TTL on the record, or the key has no established range
  kConsistent,  ///< hop count within the learned tolerance window
  kMiss,        ///< hop count outside the window: path-length mismatch
};

/// The likely initial TTL for an observed value: the smallest of the
/// common initial TTLs {32, 64, 128, 255} that is >= observed. 0 (no TTL
/// recorded) maps to 0.
[[nodiscard]] constexpr std::uint8_t infer_initial_ttl(std::uint8_t observed) {
  if (observed == 0) return 0;
  if (observed <= 32) return 32;
  if (observed <= 64) return 64;
  if (observed <= 128) return 128;
  return 255;
}

/// Hop count recovered from an observed TTL, or -1 when no TTL was
/// recorded (observed == 0).
[[nodiscard]] constexpr int hops_from_ttl(std::uint8_t observed) {
  return observed == 0 ? -1 : infer_initial_ttl(observed) - observed;
}

struct HopCountConfig {
  /// Half-width of the acceptance window around the learned hop-count
  /// range: a flow is consistent iff its hop count lands in
  /// [min - tolerance, max + tolerance]. Absorbs load-shared paths and
  /// transient reroutes of a hop or two.
  int tolerance = 2;
  /// Trusted observations of an (ingress, source /24) key before its
  /// range is established and flows classify (mirrors the EIA table's
  /// learn threshold); until then the key classifies as unknown.
  int learn_threshold = 5;
  /// Entries idle longer than this are expired and re-learned from the
  /// next observation -- the time-decay that lets a genuine route change
  /// converge instead of alarming forever. 0 disables decay.
  util::DurationMs decay_ms = 10 * util::kMinute;
  /// Bound on the table; spoofed floods from diffuse sources must not
  /// grow it without limit. When full, a new key first reclaims decayed
  /// entries (at most one sweep per decay_ms / 8 of flow time) and is not
  /// tracked if none has decayed.
  std::size_t max_entries = 1 << 20;
};

/// Lifetime counters of one HopCountTable (observability surface).
struct HopCountStats {
  std::uint64_t classified = 0;        ///< classify() calls
  std::uint64_t established_keys = 0;  ///< keys that completed learning
  std::uint64_t expired_entries = 0;   ///< entries reset or reclaimed after decay_ms idle
  std::uint64_t reclaim_sweeps = 0;    ///< full-table sweeps for decayed entries
};

/// Learned per-(ingress, source /24) expected hop-count ranges, in an
/// open-addressed, linear-probing table of 16-byte slots (DESIGN.md
/// "Hop-count detector"). An empty table allocates nothing.
class HopCountTable {
 public:
  /// Serialization image of one learned range (hopcount_io).
  struct Entry {
    std::uint8_t min_hops = 0;
    std::uint8_t max_hops = 0;
    int count = 0;  ///< observations folded in; >= learn_threshold = established
    util::TimeMs last_seen = 0;
  };
  struct ExportedEntry {
    IngressId ingress = 0;
    net::Prefix slash24;
    Entry entry;
  };

  /// The largest count a slot holds; learn_threshold may not exceed it,
  /// and a restored count above it is stored as kMaxCount (every count at
  /// or past the threshold behaves the same).
  static constexpr int kMaxCount = 254;

  explicit HopCountTable(HopCountConfig config = {});

  /// Classifies `source`'s TTL at `ingress` against the learned range.
  /// Read-only with respect to the ranges (stats are counted); an entry
  /// past its decay deadline classifies as unknown.
  [[nodiscard]] TtlClass classify(IngressId ingress, net::IPv4Address source,
                                  std::uint8_t ttl, util::TimeMs now) const;

  /// Folds one trusted observation into the key's range: creates the
  /// entry (or resets it once past its decay deadline), widens the range
  /// while the key is still learning, and otherwise only refreshes
  /// last_seen. Records without a TTL, and new keys when the table is
  /// full and nothing has decayed, are ignored. Callers decide what
  /// "trusted" means -- the engine only feeds flows the EIA sets vouch for
  /// and that did not themselves classify as a miss, so a spoofer cannot
  /// poison the ranges it is being checked against.
  void observe(IngressId ingress, net::IPv4Address source, std::uint8_t ttl,
               util::TimeMs now);

  /// classify(), then -- when `trusted` and the flow is not a miss --
  /// observe(), on one probe of the table.
  TtlClass classify_and_observe(IngressId ingress, net::IPv4Address source,
                                std::uint8_t ttl, util::TimeMs now, bool trusted);

  /// Cache hint: starts loading the key's home slot, so a lookup a few
  /// flows later finds it resident. No effect on the table's state.
  void prefetch(IngressId ingress, net::IPv4Address source) const;

  /// Restores one entry verbatim (import path); replaces any existing
  /// entry for the key. `slash24` is canonicalized to its /24. Ignores
  /// max_entries, like an import.
  void restore(IngressId ingress, net::IPv4Address source, const Entry& entry);

  /// Every entry, sorted by (ingress, /24) for deterministic export.
  [[nodiscard]] std::vector<ExportedEntry> entries() const;

  [[nodiscard]] std::size_t size() const { return slots_.size; }
  /// Slots allocated: 0, or a power of two that keeps size() at most 3/4
  /// of it.
  [[nodiscard]] std::size_t capacity() const { return slots_.capacity; }
  /// The longest run of slots any entry's lookup walks (1 = found at
  /// home); O(capacity), for tests and diagnostics.
  [[nodiscard]] std::size_t longest_probe() const;
  [[nodiscard]] const HopCountConfig& config() const { return config_; }
  [[nodiscard]] const HopCountStats& stats() const { return stats_; }

 private:
  /// One entry. `word` packs, from the top: the 40-bit key (ingress << 24
  /// | source /24 >> 8), min_hops, max_hops, and count + 1 in the low
  /// byte, so an occupied slot is never 0 and 0 marks an empty slot.
  struct Slot {
    std::uint64_t word = 0;
    util::TimeMs last_seen = 0;
  };
  /// Zero-filled (= all empty), mmap-backed slot storage: growth unmaps
  /// the superseded array, so its pages go back to the OS instead of
  /// staying resident in the allocator. A moved-from array is empty.
  struct SlotArray {
    Slot* data = nullptr;
    std::size_t capacity = 0;  ///< 0 or a power of two
    std::size_t size = 0;      ///< occupied slots
    unsigned shift = 64;       ///< 64 - log2(capacity): index = top hash bits

    SlotArray() = default;
    explicit SlotArray(std::size_t slots);
    SlotArray(const SlotArray& other);
    SlotArray(SlotArray&& other) noexcept;
    SlotArray& operator=(SlotArray other) noexcept;
    ~SlotArray();
  };

  static std::uint64_t key_of(IngressId ingress, net::IPv4Address source);
  [[nodiscard]] std::size_t home_of(std::uint64_t key) const;
  /// The key's slot, or the empty slot that ends its probe run.
  [[nodiscard]] std::size_t find(std::uint64_t key) const;
  [[nodiscard]] bool stale(util::TimeMs last_seen, util::TimeMs now) const;
  [[nodiscard]] TtlClass classify_slot(const Slot& slot, int hops,
                                       util::TimeMs now) const;
  /// observe()'s fold at `index`, the result of find(key) (any value on an
  /// unallocated table); inserts the key when its slot is empty, unless a
  /// full table has no room.
  void fold(std::size_t index, std::uint64_t key, int hops, util::TimeMs now);
  /// Claims a slot for `key`, known absent; `index` is find(key). Grows
  /// the array first when the insert would pass the load limit. Returns
  /// the slot.
  std::size_t insert(std::size_t index, std::uint64_t key);
  void grow();
  /// Empties slot `index` and shifts the rest of its probe run back
  /// (backward-shift deletion: no tombstones).
  void erase(std::size_t index);
  /// Full-table reclaim: erases every entry decayed at `now`, at most once
  /// per decay_ms / 8 of flow time. Returns whether room was made.
  bool reclaim(util::TimeMs now);

  HopCountConfig config_;
  /// Mutable: classify() is logically const but counts its calls.
  mutable HopCountStats stats_;
  SlotArray slots_;
  /// Flow time before which reclaim() does not sweep again.
  util::TimeMs next_sweep_at_ = 0;
};

/// The engine-facing analysis stage: classify every flow, learn only from
/// flows the EIA sets vouch for.
class HopCountAnalysis {
 public:
  explicit HopCountAnalysis(HopCountConfig config = {});

  /// Classifies the flow; when `eia_hit` and the flow is not itself a
  /// miss, its TTL is folded into the learned range. EIA-miss flows and
  /// TTL-miss flows never update the table.
  TtlClass analyze(IngressId ingress, net::IPv4Address source, std::uint8_t ttl,
                   util::TimeMs now, bool eia_hit);

  /// Replaces the learned state (training-phase preload / import).
  void install(HopCountTable table) { table_ = std::move(table); }

  [[nodiscard]] const HopCountTable& table() const { return table_; }

 private:
  HopCountTable table_;
};

}  // namespace infilter::hopcount
