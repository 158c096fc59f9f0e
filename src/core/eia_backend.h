// Pluggable EIA membership backends.
//
// The paper's EIA sets are exact per-(peer AS, /24) interval maps. At
// SMap scale (internet-wide deployments seeing millions of source /24s
// across hundreds of peer ASes) exact sets are the last pipeline data
// structure with no memory story, so the membership layer is pluggable:
//
//   * kExact          -- the original sorted-interval EiaSet per ingress.
//                        Bit-identical to the historical EiaTable.
//   * kBloom          -- Bloom-filter membership over a fixed bit budget
//                        (k hashes), aged Azzana-style by periodic erasure
//                        of one of R rotating sub-filters.
//   * kCountingBloom  -- counting-Bloom variant (8-bit saturating
//                        counters) that additionally supports unlearning,
//                        for churn-driven entry aging.
//
// Granularity: the probabilistic backends store membership at /24
// granularity -- the EIA auto-learning grain (Section 5.2) and the
// runtime's shard key. A preloaded prefix shorter than /24 is expanded
// into its covering /24s; longer ones are widened to their /24.
//
// Sharding contract: the bit space is partitioned into kBloomBanks banks
// keyed by the SAME /24 hash the runtime's shard_of uses
// (runtime/runtime.cpp). A membership probe for source S only reads bits
// that keys in S's bank can set, and every key of one bank lands on one
// runtime shard whenever the shard count divides kBloomBanks (any
// power of two <= 1024). Per-bank rotation counters keep the aging
// schedule bank-local too. Hence Bloom verdicts -- false positives
// included -- are identical at every such shard x producer count for a
// given seed, preserving the runtime's bit-identical-replay contract
// per backend.
//
// Probabilistic contract: contains() has no false negatives for learned
// keys still covered by a live sub-filter; false positives occur at the
// configured budget (classic Bloom bound per bank). expected_ingress()
// returns the FIRST ingress (ascending id) whose filter accepts the
// source -- under false positives that may name a lower-id ingress than
// an exact table would; callers treat it as alert context / TTL-witness
// selection, both of which tolerate an approximate answer.

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/ipv4.h"
#include "util/result.h"

namespace infilter::core {

using IngressId = std::uint16_t;

class EiaSet;  // core/eia.h

enum class EiaBackendType : std::uint8_t {
  kExact,
  kBloom,
  kCountingBloom,
};

[[nodiscard]] const char* eia_backend_name(EiaBackendType type);

/// Bank count of the probabilistic backends. Must stay a power of two at
/// least as large as any shard count that wants Bloom verdict
/// shard-invariance (see the sharding contract above).
inline constexpr std::size_t kBloomBanks = 1024;

/// Cap on a probabilistic backend's total budget: `bits` times the number
/// of filter arrays (one shared array, or one per declared ingress with
/// per_ingress). 2^30 positions are 128 MiB of Bloom bits or 1 GiB of
/// counting-Bloom counters, 16x the budget bench/eia_scale gives 10^7
/// /24s. parse_eia_backend and import_eia (core/eia_io.h) reject anything
/// larger, so a hostile option or dump fails cleanly instead of
/// exhausting memory.
inline constexpr std::uint64_t kMaxEiaBackendBits = std::uint64_t{1} << 30;

struct EiaBackendConfig {
  EiaBackendType type = EiaBackendType::kExact;

  /// Total bit budget (kBloom) or counter budget (kCountingBloom) across
  /// all banks and sub-filters. Rounded up so every (bank, sub-filter)
  /// segment holds a whole number of 64-bit words.
  std::size_t bits = std::size_t{1} << 23;

  /// Hash probes per key (the classic Bloom k).
  int hashes = 4;

  /// Rotating sub-filters R for Azzana-style aging. Membership checks all
  /// R; inserts go to the bank's current sub-filter. 1 = a plain filter.
  int subfilters = 1;

  /// Inserts into one bank between aging steps: after this many the
  /// bank's oldest sub-filter is erased and becomes current. 0 disables
  /// aging (the default; entries then live forever, like exact sets).
  /// Meaningful only with subfilters >= 2.
  std::uint64_t rotate_every = 0;

  /// false (default): one shared bit array, hashed with the ingress id as
  /// salt. true: a separate array of `bits` per declared ingress.
  bool per_ingress = false;

  /// Seeds the position hashes (not the bank hash, which is pinned to the
  /// runtime's shard hash). Same seed => same bit patterns => same
  /// verdicts on the same learned stream.
  std::uint64_t hash_seed = 0x9e3779b97f4a7c15ULL;

  friend bool operator==(const EiaBackendConfig&, const EiaBackendConfig&) = default;
};

/// Parses the CLI / persistence syntax:
///   "exact" | "bloom[:BITS[,K[,R[,ROTATE]]]]" | "cbloom[:BITS[,K[,R[,ROTATE]]]]"
[[nodiscard]] util::Result<EiaBackendConfig> parse_eia_backend(std::string_view text);

/// Predicted fill ratio of one live sub-filter after `slash24_inserts`
/// keys (1 - e^{-k.n/m}, m = bits / subfilters); 0.0 on the exact
/// backend. The CLIs warn at preload time when the configured budget
/// cannot hold the expected set -- a saturated filter answers "expected"
/// for every source, silently disabling detection.
[[nodiscard]] double predicted_fill_ratio(const EiaBackendConfig& config,
                                          std::uint64_t slash24_inserts);

/// Membership storage behind EiaTable. Implementations are engine-private
/// (single-threaded) like the table itself.
class EiaBackend {
 public:
  virtual ~EiaBackend() = default;

  [[nodiscard]] virtual EiaBackendType type() const = 0;

  /// Ensures `ingress` exists (possibly with nothing learned).
  virtual void declare_ingress(IngressId ingress) = 0;

  /// Adds `prefix` to `ingress`'s membership (see the granularity note).
  virtual void add(IngressId ingress, const net::Prefix& prefix) = 0;

  [[nodiscard]] virtual bool contains(IngressId ingress,
                                      net::IPv4Address source) const = 0;

  /// First ingress (ascending id) whose membership accepts `source`.
  [[nodiscard]] virtual std::optional<IngressId> expected_ingress(
      net::IPv4Address source) const = 0;

  [[nodiscard]] virtual std::vector<IngressId> ingresses() const = 0;
  [[nodiscard]] virtual std::size_t ingress_count() const = 0;

  /// Exact: stored interval count. Probabilistic: /24 inserts performed.
  [[nodiscard]] virtual std::size_t total_ranges() const = 0;

  /// Bytes held by the membership structures (the memory story).
  [[nodiscard]] virtual std::size_t memory_bytes() const = 0;

  /// Set bit (nonzero counter) fraction; 0 for the exact backend.
  [[nodiscard]] virtual double fill_ratio() const { return 0.0; }

  /// kCountingBloom only: removes one learned /24 (counter decrement;
  /// saturated counters are pinned and stay). No-op elsewhere.
  virtual void unlearn(IngressId ingress, const net::Prefix& prefix);
  [[nodiscard]] virtual bool supports_unlearn() const { return false; }

  /// The exact backend's interval set for `ingress` (null on the
  /// probabilistic backends, which have no interval representation).
  [[nodiscard]] virtual const EiaSet* set_for(IngressId /*ingress*/) const {
    return nullptr;
  }
};

[[nodiscard]] std::unique_ptr<EiaBackend> make_eia_backend(
    const EiaBackendConfig& config);

// -- Concrete types (exposed for persistence in eia_io and for tests) --

/// The historical per-ingress sorted-interval table, bit-identical to the
/// pre-backend EiaTable.
class ExactEiaBackend final : public EiaBackend {
 public:
  ExactEiaBackend();
  ~ExactEiaBackend() override;  // out of line: EiaSet is incomplete here
  [[nodiscard]] EiaBackendType type() const override {
    return EiaBackendType::kExact;
  }
  void declare_ingress(IngressId ingress) override;
  void add(IngressId ingress, const net::Prefix& prefix) override;
  [[nodiscard]] bool contains(IngressId ingress,
                              net::IPv4Address source) const override;
  [[nodiscard]] std::optional<IngressId> expected_ingress(
      net::IPv4Address source) const override;
  [[nodiscard]] std::vector<IngressId> ingresses() const override;
  [[nodiscard]] std::size_t ingress_count() const override;
  [[nodiscard]] std::size_t total_ranges() const override;
  [[nodiscard]] std::size_t memory_bytes() const override;
  [[nodiscard]] const EiaSet* set_for(IngressId ingress) const override;
  /// Exact interval subtraction -- the lifecycle layer's expiry hook
  /// (src/lifecycle): removes the prefix's addresses from `ingress`'s
  /// set, splitting covering ranges as needed.
  [[nodiscard]] bool supports_unlearn() const override { return true; }
  void unlearn(IngressId ingress, const net::Prefix& prefix) override;

 private:
  EiaSet& set_ref(IngressId ingress);
  /// Sorted by ingress id; small (one entry per peer AS).
  std::vector<std::pair<IngressId, std::unique_ptr<EiaSet>>> sets_;
};

/// Shared machinery of the two probabilistic backends: the banked segment
/// layout, the shard-consistent bank hash, the k position hashes, and the
/// per-bank rotation bookkeeping. `Cell` is the per-position storage.
class BankedBloomBase : public EiaBackend {
 public:
  explicit BankedBloomBase(EiaBackendConfig config);

  void declare_ingress(IngressId ingress) override;
  void add(IngressId ingress, const net::Prefix& prefix) override;
  [[nodiscard]] bool contains(IngressId ingress,
                              net::IPv4Address source) const override;
  [[nodiscard]] std::optional<IngressId> expected_ingress(
      net::IPv4Address source) const override;
  [[nodiscard]] std::vector<IngressId> ingresses() const override;
  [[nodiscard]] std::size_t ingress_count() const override;
  [[nodiscard]] std::size_t total_ranges() const override;

  [[nodiscard]] const EiaBackendConfig& config() const { return config_; }
  /// Bits (kBloom) / counters (kCountingBloom) per (bank, sub-filter)
  /// segment after the whole-word rounding.
  [[nodiscard]] std::size_t segment_positions() const { return segment_positions_; }
  /// /24 inserts performed (each expansion of a wide prefix counts one).
  [[nodiscard]] std::uint64_t insert_count() const { return inserts_; }
  /// Aging erasures performed across all banks.
  [[nodiscard]] std::uint64_t rotations() const { return rotations_; }

  // Persistence accessors (eia_io): per-bank rotation state.
  [[nodiscard]] const std::vector<std::uint8_t>& bank_current() const {
    return bank_current_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& bank_inserts() const {
    return bank_inserts_;
  }
  void restore_bank_state(std::vector<std::uint8_t> current,
                          std::vector<std::uint64_t> inserts,
                          std::uint64_t total_inserts, std::uint64_t rotations);

 protected:
  struct Probe {
    std::size_t bank;
    std::uint64_t base;  ///< first position hash
    std::uint64_t step;  ///< double-hashing stride (odd)
  };
  [[nodiscard]] Probe probe_for(IngressId ingress, std::uint32_t key24) const;
  /// Storage index of position `pos` in (bank, sub-filter) coordinates.
  [[nodiscard]] std::size_t position_index(std::size_t bank, int sub,
                                           std::uint64_t pos) const {
    return (bank * static_cast<std::size_t>(config_.subfilters) +
            static_cast<std::size_t>(sub)) *
               segment_positions_ +
           static_cast<std::size_t>(pos % segment_positions_);
  }

  /// Per-ingress filter id: 0 in shared mode, the ingress's slot
  /// otherwise. Grows per_ingress storage on first use.
  [[nodiscard]] std::size_t filter_slot(IngressId ingress);
  [[nodiscard]] std::optional<std::size_t> filter_slot_of(IngressId ingress) const;

  // Storage hooks implemented by the concrete cell types. Filter arrays
  // are addressed by sorted ingress position (per-ingress mode) or slot 0
  // (shared mode); insert_filter adds an empty array at `at`.
  virtual void insert_filter(std::size_t at) = 0;
  [[nodiscard]] virtual std::size_t filter_count() const = 0;
  virtual void set_position(std::size_t filter, std::size_t index) = 0;
  virtual void clear_position(std::size_t filter, std::size_t index) = 0;
  [[nodiscard]] virtual bool test_position(std::size_t filter,
                                           std::size_t index) const = 0;
  virtual void erase_segment(std::size_t filter, std::size_t bank, int sub) = 0;

  void insert_key(IngressId ingress, std::uint32_t key24);
  [[nodiscard]] bool test_key(IngressId ingress, std::uint32_t key24) const;
  void remove_key(IngressId ingress, std::uint32_t key24);
  virtual void decrement_position(std::size_t filter, std::size_t index) {
    (void)filter;
    (void)index;
  }

  EiaBackendConfig config_;
  std::size_t segment_positions_ = 0;  ///< positions per (bank, sub) segment
  std::size_t positions_total_ = 0;    ///< positions per filter array
  std::vector<IngressId> ingresses_;   ///< sorted, ascending
  std::uint64_t inserts_ = 0;
  std::uint64_t rotations_ = 0;
  std::vector<std::uint8_t> bank_current_;   ///< current sub-filter per bank
  std::vector<std::uint64_t> bank_inserts_;  ///< inserts since last rotation
};

/// Plain bit-array Bloom backend.
class BloomEiaBackend final : public BankedBloomBase {
 public:
  explicit BloomEiaBackend(EiaBackendConfig config);
  [[nodiscard]] EiaBackendType type() const override {
    return EiaBackendType::kBloom;
  }
  [[nodiscard]] std::size_t memory_bytes() const override;
  [[nodiscard]] double fill_ratio() const override;

  /// One word array per filter (shared mode: exactly one).
  [[nodiscard]] const std::vector<std::vector<std::uint64_t>>& word_arrays() const {
    return words_;
  }
  [[nodiscard]] std::vector<std::vector<std::uint64_t>>& word_arrays() {
    return words_;
  }

 protected:
  void insert_filter(std::size_t at) override;
  [[nodiscard]] std::size_t filter_count() const override { return words_.size(); }
  void set_position(std::size_t filter, std::size_t index) override;
  void clear_position(std::size_t filter, std::size_t index) override;
  [[nodiscard]] bool test_position(std::size_t filter,
                                   std::size_t index) const override;
  void erase_segment(std::size_t filter, std::size_t bank, int sub) override;

 private:
  std::vector<std::vector<std::uint64_t>> words_;
};

/// Counting-Bloom backend: 8-bit saturating counters; supports unlearn.
class CountingBloomEiaBackend final : public BankedBloomBase {
 public:
  explicit CountingBloomEiaBackend(EiaBackendConfig config);
  [[nodiscard]] EiaBackendType type() const override {
    return EiaBackendType::kCountingBloom;
  }
  [[nodiscard]] std::size_t memory_bytes() const override;
  [[nodiscard]] double fill_ratio() const override;
  [[nodiscard]] bool supports_unlearn() const override { return true; }
  void unlearn(IngressId ingress, const net::Prefix& prefix) override;

  [[nodiscard]] const std::vector<std::vector<std::uint8_t>>& counter_arrays() const {
    return counters_;
  }
  [[nodiscard]] std::vector<std::vector<std::uint8_t>>& counter_arrays() {
    return counters_;
  }

 protected:
  void insert_filter(std::size_t at) override;
  [[nodiscard]] std::size_t filter_count() const override {
    return counters_.size();
  }
  void set_position(std::size_t filter, std::size_t index) override;
  void clear_position(std::size_t filter, std::size_t index) override;
  [[nodiscard]] bool test_position(std::size_t filter,
                                   std::size_t index) const override;
  void erase_segment(std::size_t filter, std::size_t bank, int sub) override;
  void decrement_position(std::size_t filter, std::size_t index) override;

 private:
  std::vector<std::vector<std::uint8_t>> counters_;
};

}  // namespace infilter::core
