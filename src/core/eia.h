// Expected IP Address (EIA) sets -- the Basic InFilter data structure.
//
// Section 3: "The system would maintain a data structure containing the
// Expected source IP Address set (EIA set) on a per Peer AS basis.
// Incoming traffic with a source IP address not present in the
// corresponding Peer AS' EIA set would be flagged as a potential attack."
//
// An EIA set is a set of address ranges, stored as sorted disjoint
// intervals. Membership scans a small set branch-free and binary-searches
// a large one. The table supports the three initialization modes of
// Section 5.1.3(a) (preload by subnet mask, by hand, or learned from live
// flow data) and the Normal-processing-phase auto-learning rule of
// Section 5.2: a source /24 is added to an ingress's EIA set once enough
// flows from it arrive there.
//
// Membership is exact: one EiaSet per ingress, held in a dense vector
// indexed by ingress id minus the lowest declared id (one entry per peer
// AS, whose ids are contiguous collector ports, so it stays small and
// finding a flow's set is one subtraction and one compare). Lifecycle aging
// (src/lifecycle) unlearns an idle /24 by interval subtraction, and
// core/eia_io persists the sets as minimal CIDR lists.

#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>
#include <utility>
#include <vector>

#include "lifecycle/lifecycle.h"
#include "net/ipv4.h"
#include "util/count_table.h"
#include "util/time.h"

namespace infilter::core {

/// Identifies an ingress (peer AS link); the flow's receiving port.
using IngressId = std::uint16_t;

/// A set of IPv4 ranges. Lookup is a branch-free scan of up to
/// kScanRanges ranges, and a binary search above that.
class EiaSet {
 public:
  /// Largest set that contains() scans linearly. A peer AS's EIA set is
  /// a handful of prefixes, and a scan of that many costs less than the
  /// mispredicted branches of a binary search over them.
  static constexpr std::size_t kScanRanges = 16;

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
  std::uint64_t lookups = 0;  ///< is_expected() calls
  /// Insert-when-full events on the pending learn-counter map: each one
  /// triggered the decay/eviction policy instead of (as before the fix)
  /// silently refusing to ever track the new candidate.
  std::uint64_t pending_rejected = 0;
};

struct EiaTableConfig {
  /// Flows from the same (ingress, source /24) before the /24 is learned
  /// into that ingress's EIA set (Section 5.2a's "predefined threshold").
  int learn_threshold = 5;
  /// Bound on the pending learn counters; spoofed floods would otherwise
  /// grow them without limit. The bound is enforced per bank
  /// (kPendingBanks banks keyed by the source /24's shard hash, cap =
  /// max_pending_counters / kPendingBanks, at least 1): when a bank is
  /// full, counters in it are halved and zeroed entries swept in place --
  /// and if that frees nothing, the smallest (count, key) entry is evicted
  /// -- so a spoofed flood can delay but never permanently block a
  /// legitimate new source from learning. Each bank is an open-addressed
  /// count table that grows lazily to at most
  /// CountTable::capacity_for(cap) slots, so a warm bank takes a flood of
  /// new keys without allocating. Bank-local decay keeps a flow's learning
  /// outcome a function of its own shard's history, preserving the
  /// sharded runtime's replay contract.
  std::size_t max_pending_counters = 1 << 20;
  /// Learned-entry aging (src/lifecycle). Off by default, which keeps the
  /// table bit-identical to the pre-lifecycle pipeline.
  lifecycle::LifecycleConfig lifecycle;
};

/// Per-ingress EIA sets plus the auto-learning machinery.
class EiaTable {
 public:
  explicit EiaTable(EiaTableConfig config = {});

  /// Preloads `prefix` into `ingress`'s EIA set (training phase).
  void add_expected(IngressId ingress, const net::Prefix& prefix);

  /// Ensures `ingress` has an (initially empty) EIA set.
  void declare_ingress(IngressId ingress);

  /// Basic InFilter check: does `ingress` expect this source? With
  /// lifecycle aging enabled, first expires the (ingress, source /24)
  /// entry if it has idled past max_idle_ms of the flow-carried virtual
  /// time (membership removed, tombstone kept so a later relearn is
  /// counted), then refreshes last_seen on a hit. With aging off `now` is
  /// unused and this is a plain membership test. Expiry is lazy and
  /// per-key (see lifecycle/lifecycle.h for why that preserves the
  /// serial-replay contract).
  [[nodiscard]] bool is_expected(IngressId ingress, net::IPv4Address source,
                                 util::TimeMs now);

  /// The ingress whose EIA set contains `source` (AS_IP(phi) of Section
  /// 5.2), or nullopt if no EIA set contains it. When several match, the
  /// lowest ingress id wins (deterministic). With aging enabled, first
  /// expires the source's idled entries at every ingress (no refresh -- a
  /// /24 seen only at *other* ingresses is exactly the drift aging exists
  /// to forget). Allocation-free: walks the sets in place.
  [[nodiscard]] std::optional<IngressId> expected_ingress(net::IPv4Address source,
                                                          util::TimeMs now);

  /// Records a flow that failed the check. Once learn_threshold flows from
  /// the same source /24 arrive at the same ingress, the /24 is added to
  /// that ingress's EIA set. Returns true when this call learned the /24.
  /// With aging enabled, a learn also stamps the entry's age metadata
  /// (learned_at = last_seen = now) and counts a relearn when the key had
  /// previously expired.
  bool observe_mismatch(IngressId ingress, net::IPv4Address source,
                        util::TimeMs now);

  /// Eagerly expires every entry whose idle time exceeds max_idle_ms at
  /// `now`: removes its membership and keeps its age tombstone, so age
  /// metadata is not reclaimed. Uses the same predicate as the lazy lookup
  /// path, so it is verdict-neutral: it only removes entries every later
  /// lookup would have rejected anyway. Returns the number expired.
  std::size_t age_sweep(util::TimeMs now);

  /// True when entry aging is active.
  [[nodiscard]] bool aging_enabled() const { return config_.lifecycle.enabled(); }

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
  /// Re-inserts one pending counter into its bank (shard migration),
  /// ignoring the bank cap like an import. A count <= 0 clears the key's
  /// counter.
  void restore_pending(std::uint64_t key, int count);

  [[nodiscard]] std::size_t ingress_count() const { return ids_.size(); }
  /// `ingress`'s interval set, or null for unknown ingresses.
  [[nodiscard]] const EiaSet* set_for(IngressId ingress) const;
  [[nodiscard]] std::size_t pending_counters() const;
  /// Slots of the largest pending bank. Without restore_pending past the
  /// bank cap, never above PendingBank::capacity_for(max_pending_counters
  /// / kPendingBanks).
  [[nodiscard]] std::size_t pending_bank_slots() const;
  /// All ingress ids with an EIA set, ascending.
  [[nodiscard]] const std::vector<IngressId>& ingresses() const { return ids_; }
  /// Stored ranges across every ingress's EIA set.
  [[nodiscard]] std::size_t total_ranges() const;
  /// Bytes held by the EIA sets and their dense index
  /// (infilter_eia_backend_bytes).
  [[nodiscard]] std::size_t memory_bytes() const;
  [[nodiscard]] const EiaStats& stats() const { return stats_; }
  [[nodiscard]] const EiaTableConfig& config() const { return config_; }

  /// Pending-map banks; a power of two so bank-local decay refines every
  /// power-of-two runtime shard count (see max_pending_counters).
  static constexpr std::size_t kPendingBanks = 64;
  /// One pending bank: (ingress << 32 | source /24) -> mismatch count.
  using PendingBank = util::CountTable<std::uint64_t>;

 private:
  /// `ingress`'s set, created empty on first use.
  EiaSet& set_ref(IngressId ingress);
  /// `ingress`'s position in the dense index; >= sets_.size() outside the
  /// index's span (an id below base_ wraps). An undeclared id inside the
  /// span has an empty set.
  [[nodiscard]] std::size_t index_of(IngressId ingress) const {
    return std::size_t{ingress} - base_;
  }

  static std::uint64_t age_key(IngressId ingress, net::IPv4Address source) {
    return (std::uint64_t{ingress} << 32) | (source.value() & 0xFFFFFF00u);
  }
  /// Plain membership test, no aging and no stats.
  [[nodiscard]] bool member(IngressId ingress, net::IPv4Address source) const {
    const std::size_t at = index_of(ingress);
    return at < sets_.size() && sets_[at].contains(source);
  }
  /// Expires the entry behind `age` if it has idled out at `now`:
  /// membership removed, tombstone kept. Returns true when it did.
  bool expire_if_idle(IngressId ingress, std::uint32_t key24,
                      lifecycle::EntryAge& age, util::TimeMs now);

  EiaTableConfig config_;
  /// The dense index: sets_[id - base_] is ingress id's set, from the
  /// lowest declared id to the highest.
  std::size_t base_ = 0;
  std::vector<EiaSet> sets_;
  /// Declared ingress ids, ascending.
  std::vector<IngressId> ids_;
  EiaStats stats_;
  /// (ingress << 32 | source /24) -> observed mismatch count, banked by
  /// the /24's shard hash.
  std::array<PendingBank, kPendingBanks> pending_;
  std::size_t pending_bank_cap_;
  /// (ingress << 32 | source /24) -> age metadata for auto-learned keys
  /// (preloads exempt); expired entries stay as tombstones.
  std::unordered_map<std::uint64_t, lifecycle::EntryAge> age_;
  lifecycle::LifecycleStats lifecycle_stats_;
};

}  // namespace infilter::core
