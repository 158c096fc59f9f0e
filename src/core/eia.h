// Expected IP Address (EIA) sets -- the Basic InFilter data structure.
//
// Section 3: "The system would maintain a data structure containing the
// Expected source IP Address set (EIA set) on a per Peer AS basis.
// Incoming traffic with a source IP address not present in the
// corresponding Peer AS' EIA set would be flagged as a potential attack."
//
// An EIA set is a set of address ranges, stored as sorted disjoint
// intervals for O(log n) membership tests. The table supports the three
// initialization modes of Section 5.1.3(a) (preload by subnet mask, by
// hand, or learned from live flow data) and the Normal-processing-phase
// auto-learning rule of Section 5.2: a source /24 is added to an ingress's
// EIA set once enough flows from it arrive there.
//
// Membership storage is pluggable (core/eia_backend.h): the default exact
// interval sets, or a memory-bounded Bloom / counting-Bloom backend for
// internet-scale deployments. The table owns the learning machinery
// either way; only the membership representation varies.

#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/eia_backend.h"
#include "lifecycle/lifecycle.h"
#include "net/ipv4.h"
#include "util/time.h"

namespace infilter::core {

/// A set of IPv4 ranges with O(log n) lookup.
class EiaSet {
 public:
  /// Adds a prefix, merging overlapping/adjacent ranges.
  void add(const net::Prefix& prefix);

  [[nodiscard]] bool contains(net::IPv4Address address) const;
  [[nodiscard]] std::size_t range_count() const { return ranges_.size(); }
  [[nodiscard]] std::uint64_t address_count() const;
  /// Heap bytes held by the range store (capacity, not size: the memory
  /// actually reserved is what a deployment budget cares about).
  [[nodiscard]] std::size_t memory_bytes() const {
    return ranges_.capacity() * sizeof(Range);
  }

  /// Decomposes the stored ranges into the minimal list of CIDR prefixes
  /// covering exactly the same addresses (for persistence and display).
  [[nodiscard]] std::vector<net::Prefix> to_cidrs() const;

  /// Removes a prefix's addresses, splitting covering ranges as needed
  /// (lifecycle expiry of learned /24s). Returns true when any stored
  /// address was actually removed.
  bool remove(const net::Prefix& prefix);

 private:
  struct Range {
    std::uint32_t first;
    std::uint32_t last;  // inclusive
  };
  std::vector<Range> ranges_;  ///< sorted by first, disjoint, non-adjacent
};

/// Lifetime counters of one EiaTable (observability surface).
struct EiaStats {
  std::uint64_t lookups = 0;           ///< is_expected() calls
  std::uint64_t hits = 0;              ///< lookups that matched
  std::uint64_t learned_prefixes = 0;  ///< /24s auto-learned (Section 5.2a)
  std::uint64_t mismatch_observations = 0;
  /// Insert-when-full events on the pending learn-counter map: each one
  /// triggered the decay/eviction policy instead of (as before the fix)
  /// silently refusing to ever track the new candidate.
  std::uint64_t pending_rejected = 0;
  [[nodiscard]] std::uint64_t misses() const { return lookups - hits; }
};

struct EiaTableConfig {
  /// Flows from the same (ingress, source /24) before the /24 is learned
  /// into that ingress's EIA set (Section 5.2a's "predefined threshold").
  int learn_threshold = 5;
  /// Bound on the pending learn-counter map; spoofed floods would
  /// otherwise grow it without limit. The bound is enforced per bank
  /// (kPendingBanks banks keyed by the source /24's shard hash, cap =
  /// max_pending_counters / kPendingBanks, at least 1): when a bank is
  /// full, counters in it are halved and zeroed entries swept -- and if
  /// that frees nothing, the smallest (count, key) entry is evicted -- so
  /// a spoofed flood can delay but never permanently block a legitimate
  /// new source from learning. Bank-local decay keeps a flow's learning
  /// outcome a function of its own shard's history, preserving the
  /// sharded runtime's replay contract.
  std::size_t max_pending_counters = 1 << 20;
  /// Membership storage (core/eia_backend.h).
  EiaBackendConfig backend;
  /// Learned-entry aging (src/lifecycle). Off by default, which keeps the
  /// table bit-identical to the pre-lifecycle pipeline. Active only on
  /// backends that can remove a /24 (exact, counting-Bloom); the plain
  /// Bloom backend keeps its own rotating-sub-filter aging.
  lifecycle::LifecycleConfig lifecycle;
};

/// Per-ingress EIA sets plus the auto-learning machinery. Move-only: the
/// membership backend is owned behind a pointer.
class EiaTable {
 public:
  explicit EiaTable(EiaTableConfig config = {});

  /// Preloads `prefix` into `ingress`'s EIA set (training phase).
  void add_expected(IngressId ingress, const net::Prefix& prefix);

  /// Ensures `ingress` has an (initially empty) EIA set.
  void declare_ingress(IngressId ingress);

  /// Basic InFilter check: does `ingress` expect this source? Exact on
  /// the exact backend; on the probabilistic backends, subject to the
  /// configured false-positive budget (never falsely negative for a
  /// still-live learned key).
  [[nodiscard]] bool is_expected(IngressId ingress, net::IPv4Address source) const;

  /// Aging-aware check: with lifecycle aging enabled, first expires the
  /// (ingress, source /24) entry if it has idled past max_idle_ms of the
  /// flow-carried virtual time (membership removed, tombstone kept so a
  /// later relearn is counted), then refreshes last_seen on a hit. With
  /// aging off this is exactly the const overload -- bit-identical.
  /// Expiry is lazy and per-key (see lifecycle/lifecycle.h for why that
  /// preserves the serial-replay contract).
  [[nodiscard]] bool is_expected(IngressId ingress, net::IPv4Address source,
                                 util::TimeMs now);

  /// The ingress whose EIA set contains `source` (AS_IP(phi) of Section
  /// 5.2), or nullopt if no EIA set contains it. When several match, the
  /// lowest ingress id wins (deterministic). On the probabilistic
  /// backends this is the first-matching-ingress under the false-positive
  /// budget: a false positive can name a lower ingress than the exact
  /// answer. Callers use it as alert context and TTL-witness selection,
  /// both tolerant of an approximate answer (core/eia_backend.h).
  [[nodiscard]] std::optional<IngressId> expected_ingress(net::IPv4Address source) const;

  /// Aging-aware variant: expires the source's idled entries at every
  /// ingress first (no refresh -- a /24 seen only at *other* ingresses is
  /// exactly the drift aging exists to forget). Identical to the const
  /// overload with aging off.
  [[nodiscard]] std::optional<IngressId> expected_ingress(net::IPv4Address source,
                                                          util::TimeMs now);

  /// Records a flow that failed the check. Once learn_threshold flows from
  /// the same source /24 arrive at the same ingress, the /24 is added to
  /// that ingress's EIA set. Returns true when this call learned the /24.
  bool observe_mismatch(IngressId ingress, net::IPv4Address source);

  /// Aging-aware variant: on a learn, stamps the entry's age metadata
  /// (learned_at = last_seen = now) and counts a relearn when the key had
  /// previously expired. Identical to the plain overload with aging off.
  bool observe_mismatch(IngressId ingress, net::IPv4Address source,
                        util::TimeMs now);

  /// Eagerly expires every entry whose idle time exceeds max_idle_ms at
  /// `now`: removes its membership and keeps its age tombstone, so age
  /// metadata is not reclaimed. Uses the same predicate as the lazy lookup
  /// path, so it is verdict-neutral: it only removes entries every later
  /// lookup would have rejected anyway. Returns the number expired.
  std::size_t age_sweep(util::TimeMs now);

  /// True when entry aging is active (config enabled AND the backend can
  /// remove a /24).
  [[nodiscard]] bool aging_enabled() const {
    return config_.lifecycle.enabled() && backend_->supports_unlearn();
  }

  /// State of the (ingress, source /24) entry at `now`, or nullopt for
  /// keys the table knows nothing about. Preloaded (operator-provisioned)
  /// members report kEstablished forever.
  [[nodiscard]] std::optional<lifecycle::EntryState> entry_state(
      IngressId ingress, net::IPv4Address source, util::TimeMs now) const;

  [[nodiscard]] const lifecycle::LifecycleStats& lifecycle_stats() const {
    return lifecycle_stats_;
  }
  /// Age-metadata entries held (live + tombstones).
  [[nodiscard]] std::size_t aged_entry_count() const { return age_.size(); }

  /// One exported age record (persistence in eia_io, shard migration).
  struct AgedEntry {
    IngressId ingress;
    std::uint32_t key24;  ///< first address of the /24
    lifecycle::EntryAge age;

    friend bool operator==(const AgedEntry&, const AgedEntry&) = default;
  };
  /// All age metadata, sorted by (ingress, key24) -- deterministic.
  [[nodiscard]] std::vector<AgedEntry> aged_entries() const;
  /// Reattaches age metadata to a key (import / migration). Does not
  /// touch membership; pair with add_expected for live entries.
  void restore_age(IngressId ingress, std::uint32_t key24,
                   const lifecycle::EntryAge& age);

  /// Pending learn counters, sorted by key -- deterministic export for
  /// shard migration. Key layout: (ingress << 32) | source /24.
  [[nodiscard]] std::vector<std::pair<std::uint64_t, int>> pending_entries() const;
  /// Re-inserts one pending counter into its bank (shard migration).
  void restore_pending(std::uint64_t key, int count);

  [[nodiscard]] std::size_t ingress_count() const { return backend_->ingress_count(); }
  /// The exact backend's interval set (null for unknown ingresses and on
  /// the probabilistic backends, which have no interval representation).
  [[nodiscard]] const EiaSet* set_for(IngressId ingress) const {
    return backend_->set_for(ingress);
  }
  [[nodiscard]] std::size_t pending_counters() const;
  /// All ingress ids with an EIA set, ascending.
  [[nodiscard]] std::vector<IngressId> ingresses() const {
    return backend_->ingresses();
  }
  /// Stored ranges across every ingress's EIA set (probabilistic
  /// backends: /24 inserts performed).
  [[nodiscard]] std::size_t total_ranges() const { return backend_->total_ranges(); }
  /// Bytes held by the membership backend (infilter_eia_backend_bytes).
  [[nodiscard]] std::size_t memory_bytes() const { return backend_->memory_bytes(); }
  /// Bloom fill ratio; 0.0 on the exact backend.
  [[nodiscard]] double fill_ratio() const { return backend_->fill_ratio(); }
  [[nodiscard]] const EiaStats& stats() const { return stats_; }
  [[nodiscard]] const EiaTableConfig& config() const { return config_; }
  [[nodiscard]] const EiaBackend& backend() const { return *backend_; }
  /// Mutable backend access for persistence (eia_io) and tests.
  [[nodiscard]] EiaBackend& backend_mut() { return *backend_; }

  /// Pending-map banks; a power of two so bank-local decay refines every
  /// power-of-two runtime shard count (see max_pending_counters).
  static constexpr std::size_t kPendingBanks = 64;

 private:
  using PendingMap = std::unordered_map<std::uint64_t, int>;

  static std::uint64_t age_key(IngressId ingress, net::IPv4Address source) {
    return (std::uint64_t{ingress} << 32) | (source.value() & 0xFFFFFF00u);
  }
  /// Expires the entry behind `age` if it has idled out at `now`:
  /// membership removed, tombstone kept. Returns true when it did.
  bool expire_if_idle(IngressId ingress, std::uint32_t key24,
                      lifecycle::EntryAge& age, util::TimeMs now);

  EiaTableConfig config_;
  std::unique_ptr<EiaBackend> backend_;
  /// Mutable: is_expected() is logically const but counts its lookups.
  mutable EiaStats stats_;
  /// (ingress << 32 | source /24) -> observed mismatch count, banked by
  /// the /24's shard hash.
  std::array<PendingMap, kPendingBanks> pending_;
  std::size_t pending_bank_cap_;
  /// (ingress << 32 | source /24) -> age metadata for auto-learned keys
  /// (preloads exempt); expired entries stay as tombstones.
  std::unordered_map<std::uint64_t, lifecycle::EntryAge> age_;
  lifecycle::LifecycleStats lifecycle_stats_;
};

}  // namespace infilter::core
