#include "core/eia_backend.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <charconv>
#include <cmath>

#include "core/eia.h"
#include "util/rng.h"

namespace infilter::core {
namespace {

/// The runtime's shard hash over the /24 key (runtime/runtime.cpp
/// shard_of) -- the bank hash MUST stay identical to it so a bank's keys
/// all land on one shard (see the sharding contract in eia_backend.h).
std::uint64_t shard_hash(std::uint32_t key24) {
  return util::SplitMix64{key24}.next();
}

/// Visits the /24 keys covered by `prefix` (the membership grain).
template <typename Fn>
void for_each_slash24(const net::Prefix& prefix, Fn&& fn) {
  const std::uint32_t first = prefix.first().value() & 0xFFFFFF00u;
  const std::uint32_t last = prefix.last().value() & 0xFFFFFF00u;
  for (std::uint64_t key = first; key <= last; key += 0x100u) {
    fn(static_cast<std::uint32_t>(key));
  }
}

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  std::uint64_t value = 0;
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

}  // namespace

const char* eia_backend_name(EiaBackendType type) {
  switch (type) {
    case EiaBackendType::kExact: return "exact";
    case EiaBackendType::kBloom: return "bloom";
    case EiaBackendType::kCountingBloom: return "cbloom";
  }
  return "?";
}

util::Result<EiaBackendConfig> parse_eia_backend(std::string_view text) {
  EiaBackendConfig config;
  const auto colon = text.find(':');
  const auto name = text.substr(0, colon);
  if (name == "exact") {
    if (colon != std::string_view::npos) {
      return util::Error{"backend 'exact' takes no parameters"};
    }
    return config;
  }
  if (name == "bloom") {
    config.type = EiaBackendType::kBloom;
  } else if (name == "cbloom") {
    config.type = EiaBackendType::kCountingBloom;
  } else {
    return util::Error{"unknown EIA backend '" + std::string(name) +
                       "' (want exact, bloom or cbloom)"};
  }
  if (colon == std::string_view::npos) return config;

  // BITS[,K[,R[,ROTATE]]]
  std::string_view rest = text.substr(colon + 1);
  std::uint64_t* fields[] = {nullptr, nullptr, nullptr, nullptr};
  std::uint64_t bits = 0;
  std::uint64_t hashes = 0;
  std::uint64_t subfilters = 0;
  std::uint64_t rotate = 0;
  fields[0] = &bits;
  fields[1] = &hashes;
  fields[2] = &subfilters;
  fields[3] = &rotate;
  int field = 0;
  while (!rest.empty()) {
    if (field >= 4) return util::Error{"too many backend parameters in '" +
                                       std::string(text) + "'"};
    const auto comma = rest.find(',');
    const auto token = rest.substr(0, comma);
    const auto value = parse_u64(token);
    if (!value.has_value()) {
      return util::Error{"bad backend parameter '" + std::string(token) + "'"};
    }
    *fields[field++] = *value;
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
  }
  if (field >= 1) {
    if (bits < 64 || bits > kMaxEiaBackendBits) {
      return util::Error{"backend bits must be in [64, 2^30]"};
    }
    config.bits = static_cast<std::size_t>(bits);
  }
  if (field >= 2) {
    if (hashes < 1 || hashes > 16) {
      return util::Error{"backend hash count must be in [1, 16]"};
    }
    config.hashes = static_cast<int>(hashes);
  }
  if (field >= 3) {
    if (subfilters < 1 || subfilters > 8) {
      return util::Error{"backend sub-filter count must be in [1, 8]"};
    }
    config.subfilters = static_cast<int>(subfilters);
  }
  if (field >= 4) config.rotate_every = rotate;
  if (config.rotate_every > 0 && config.subfilters < 2) {
    return util::Error{"aging (rotate > 0) needs at least 2 sub-filters"};
  }
  return config;
}

double predicted_fill_ratio(const EiaBackendConfig& config,
                            std::uint64_t slash24_inserts) {
  if (config.type == EiaBackendType::kExact) return 0.0;
  const double live_bits = static_cast<double>(config.bits) /
                           static_cast<double>(std::max(1, config.subfilters));
  return 1.0 - std::exp(-static_cast<double>(config.hashes) *
                        static_cast<double>(slash24_inserts) / live_bits);
}

std::unique_ptr<EiaBackend> make_eia_backend(const EiaBackendConfig& config) {
  switch (config.type) {
    case EiaBackendType::kExact: return std::make_unique<ExactEiaBackend>();
    case EiaBackendType::kBloom: return std::make_unique<BloomEiaBackend>(config);
    case EiaBackendType::kCountingBloom:
      return std::make_unique<CountingBloomEiaBackend>(config);
  }
  return nullptr;
}

void EiaBackend::unlearn(IngressId ingress, const net::Prefix& prefix) {
  (void)ingress;
  (void)prefix;
}

// -- ExactEiaBackend ---------------------------------------------------

ExactEiaBackend::ExactEiaBackend() = default;
ExactEiaBackend::~ExactEiaBackend() = default;

EiaSet& ExactEiaBackend::set_ref(IngressId ingress) {
  auto it = std::lower_bound(sets_.begin(), sets_.end(), ingress,
                             [](const auto& entry, IngressId id) {
                               return entry.first < id;
                             });
  if (it == sets_.end() || it->first != ingress) {
    it = sets_.insert(it, {ingress, std::make_unique<EiaSet>()});
  }
  return *it->second;
}

void ExactEiaBackend::declare_ingress(IngressId ingress) { (void)set_ref(ingress); }

void ExactEiaBackend::add(IngressId ingress, const net::Prefix& prefix) {
  set_ref(ingress).add(prefix);
}

bool ExactEiaBackend::contains(IngressId ingress, net::IPv4Address source) const {
  const EiaSet* set = set_for(ingress);
  return set != nullptr && set->contains(source);
}

std::optional<IngressId> ExactEiaBackend::expected_ingress(
    net::IPv4Address source) const {
  for (const auto& [ingress, set] : sets_) {
    if (set->contains(source)) return ingress;
  }
  return std::nullopt;
}

std::vector<IngressId> ExactEiaBackend::ingresses() const {
  std::vector<IngressId> out;
  out.reserve(sets_.size());
  for (const auto& [ingress, set] : sets_) out.push_back(ingress);
  return out;
}

std::size_t ExactEiaBackend::ingress_count() const { return sets_.size(); }

std::size_t ExactEiaBackend::total_ranges() const {
  std::size_t total = 0;
  for (const auto& [ingress, set] : sets_) total += set->range_count();
  return total;
}

std::size_t ExactEiaBackend::memory_bytes() const {
  std::size_t total = sets_.capacity() * sizeof(sets_[0]);
  for (const auto& [ingress, set] : sets_) total += sizeof(EiaSet) + set->memory_bytes();
  return total;
}

void ExactEiaBackend::unlearn(IngressId ingress, const net::Prefix& prefix) {
  auto it = std::lower_bound(sets_.begin(), sets_.end(), ingress,
                             [](const auto& entry, IngressId id) {
                               return entry.first < id;
                             });
  if (it == sets_.end() || it->first != ingress) return;
  it->second->remove(prefix);
}

const EiaSet* ExactEiaBackend::set_for(IngressId ingress) const {
  auto it = std::lower_bound(sets_.begin(), sets_.end(), ingress,
                             [](const auto& entry, IngressId id) {
                               return entry.first < id;
                             });
  if (it == sets_.end() || it->first != ingress) return nullptr;
  return it->second.get();
}

// -- BankedBloomBase ---------------------------------------------------

BankedBloomBase::BankedBloomBase(EiaBackendConfig config)
    : config_(config) {
  assert(config_.hashes >= 1);
  assert(config_.subfilters >= 1);
  // Whole 64-bit words per (bank, sub-filter) segment, rounded up so the
  // configured budget is a floor on precision, never exceeded by much.
  const std::size_t segments =
      kBloomBanks * static_cast<std::size_t>(config_.subfilters);
  const std::size_t words_per_segment =
      std::max<std::size_t>(1, (config_.bits + segments * 64 - 1) / (segments * 64));
  segment_positions_ = words_per_segment * 64;
  positions_total_ = segments * segment_positions_;
  bank_current_.assign(kBloomBanks, 0);
  bank_inserts_.assign(kBloomBanks, 0);
}

void BankedBloomBase::declare_ingress(IngressId ingress) {
  (void)filter_slot(ingress);
}

std::size_t BankedBloomBase::filter_slot(IngressId ingress) {
  auto it = std::lower_bound(ingresses_.begin(), ingresses_.end(), ingress);
  const auto pos = static_cast<std::size_t>(it - ingresses_.begin());
  if (it == ingresses_.end() || *it != ingress) {
    ingresses_.insert(it, ingress);
    // Filter arrays are addressed by sorted ingress position, so a
    // mid-list ingress inserts its (empty) array at the same position.
    if (config_.per_ingress) {
      insert_filter(pos);
    } else if (filter_count() == 0) {
      insert_filter(0);
    }
  }
  return config_.per_ingress ? pos : 0;
}

std::optional<std::size_t> BankedBloomBase::filter_slot_of(IngressId ingress) const {
  auto it = std::lower_bound(ingresses_.begin(), ingresses_.end(), ingress);
  if (it == ingresses_.end() || *it != ingress) return std::nullopt;
  return config_.per_ingress
             ? static_cast<std::size_t>(it - ingresses_.begin())
             : 0;
}

BankedBloomBase::Probe BankedBloomBase::probe_for(IngressId ingress,
                                                  std::uint32_t key24) const {
  const std::uint64_t h = shard_hash(key24);
  // The ingress salt only applies in shared mode; per-ingress arrays are
  // already separated, and keeping their bit patterns salt-free lets an
  // operator compare filters across ingresses.
  const std::uint64_t salt =
      config_.per_ingress ? 0
                          : 0x1005e1a0ULL * (static_cast<std::uint64_t>(ingress) + 1);
  util::SplitMix64 mix{h ^ config_.hash_seed ^ salt};
  Probe probe;
  probe.bank = static_cast<std::size_t>(h % kBloomBanks);
  probe.base = mix.next();
  probe.step = mix.next() | 1;  // odd: walks every position eventually
  return probe;
}

void BankedBloomBase::insert_key(IngressId ingress, std::uint32_t key24) {
  const std::size_t filter = filter_slot(ingress);
  const Probe probe = probe_for(ingress, key24);
  // Azzana-style aging: every rotate_every inserts into a bank, the
  // bank's oldest sub-filter is erased and becomes the write target, so
  // an idle key expires after R-1 .. R full rotations. Bank-local
  // counters keep the schedule independent of other banks' traffic (and
  // hence of the runtime shard count).
  if (config_.rotate_every > 0 && config_.subfilters >= 2) {
    if (bank_inserts_[probe.bank] >= config_.rotate_every) {
      const int next =
          (bank_current_[probe.bank] + 1) % config_.subfilters;
      // Erase in every filter array: rotation is a bank property, shared
      // by per-ingress filters so the schedule stays key-driven.
      for (std::size_t f = 0; f < filter_count(); ++f) {
        erase_segment(f, probe.bank, next);
      }
      bank_current_[probe.bank] = static_cast<std::uint8_t>(next);
      bank_inserts_[probe.bank] = 0;
      ++rotations_;
    }
    ++bank_inserts_[probe.bank];
  }
  const int sub = bank_current_[probe.bank];
  for (int i = 0; i < config_.hashes; ++i) {
    const std::uint64_t pos = probe.base + static_cast<std::uint64_t>(i) * probe.step;
    set_position(filter, position_index(probe.bank, sub, pos));
  }
  ++inserts_;
}

bool BankedBloomBase::test_key(IngressId ingress, std::uint32_t key24) const {
  const auto filter = filter_slot_of(ingress);
  if (!filter.has_value()) return false;
  const Probe probe = probe_for(ingress, key24);
  for (int sub = 0; sub < config_.subfilters; ++sub) {
    bool all = true;
    for (int i = 0; i < config_.hashes && all; ++i) {
      const std::uint64_t pos =
          probe.base + static_cast<std::uint64_t>(i) * probe.step;
      all = test_position(*filter, position_index(probe.bank, sub, pos));
    }
    if (all) return true;
  }
  return false;
}

void BankedBloomBase::remove_key(IngressId ingress, std::uint32_t key24) {
  const auto filter = filter_slot_of(ingress);
  if (!filter.has_value()) return;
  const Probe probe = probe_for(ingress, key24);
  for (int sub = 0; sub < config_.subfilters; ++sub) {
    for (int i = 0; i < config_.hashes; ++i) {
      const std::uint64_t pos =
          probe.base + static_cast<std::uint64_t>(i) * probe.step;
      decrement_position(*filter, position_index(probe.bank, sub, pos));
    }
  }
}

void BankedBloomBase::add(IngressId ingress, const net::Prefix& prefix) {
  for_each_slash24(prefix, [&](std::uint32_t key24) { insert_key(ingress, key24); });
}

bool BankedBloomBase::contains(IngressId ingress, net::IPv4Address source) const {
  return test_key(ingress, source.value() & 0xFFFFFF00u);
}

std::optional<IngressId> BankedBloomBase::expected_ingress(
    net::IPv4Address source) const {
  const std::uint32_t key24 = source.value() & 0xFFFFFF00u;
  for (const IngressId ingress : ingresses_) {
    if (test_key(ingress, key24)) return ingress;
  }
  return std::nullopt;
}

std::vector<IngressId> BankedBloomBase::ingresses() const { return ingresses_; }

std::size_t BankedBloomBase::ingress_count() const { return ingresses_.size(); }

std::size_t BankedBloomBase::total_ranges() const {
  return static_cast<std::size_t>(inserts_);
}

void BankedBloomBase::restore_bank_state(std::vector<std::uint8_t> current,
                                         std::vector<std::uint64_t> inserts,
                                         std::uint64_t total_inserts,
                                         std::uint64_t rotations) {
  assert(current.size() == kBloomBanks && inserts.size() == kBloomBanks);
  bank_current_ = std::move(current);
  bank_inserts_ = std::move(inserts);
  inserts_ = total_inserts;
  rotations_ = rotations;
}

// -- BloomEiaBackend ---------------------------------------------------

BloomEiaBackend::BloomEiaBackend(EiaBackendConfig config)
    : BankedBloomBase(config) {}

void BloomEiaBackend::insert_filter(std::size_t at) {
  words_.insert(words_.begin() + static_cast<std::ptrdiff_t>(at),
                std::vector<std::uint64_t>(positions_total_ / 64, 0));
}

void BloomEiaBackend::set_position(std::size_t filter, std::size_t index) {
  words_[filter][index / 64] |= std::uint64_t{1} << (index % 64);
}

void BloomEiaBackend::clear_position(std::size_t filter, std::size_t index) {
  words_[filter][index / 64] &= ~(std::uint64_t{1} << (index % 64));
}

bool BloomEiaBackend::test_position(std::size_t filter, std::size_t index) const {
  return (words_[filter][index / 64] >> (index % 64)) & 1u;
}

void BloomEiaBackend::erase_segment(std::size_t filter, std::size_t bank, int sub) {
  const std::size_t first =
      position_index(bank, sub, 0) / 64;
  const std::size_t count = segment_positions_ / 64;
  std::fill_n(words_[filter].begin() + static_cast<std::ptrdiff_t>(first), count, 0);
}

std::size_t BloomEiaBackend::memory_bytes() const {
  std::size_t total = bank_current_.size() + bank_inserts_.size() * sizeof(std::uint64_t);
  for (const auto& array : words_) total += array.capacity() * sizeof(std::uint64_t);
  return total;
}

double BloomEiaBackend::fill_ratio() const {
  std::uint64_t set = 0;
  std::uint64_t bits = 0;
  for (const auto& array : words_) {
    for (const std::uint64_t word : array) set += std::popcount(word);
    bits += array.size() * 64;
  }
  return bits == 0 ? 0.0 : static_cast<double>(set) / static_cast<double>(bits);
}

// -- CountingBloomEiaBackend -------------------------------------------

CountingBloomEiaBackend::CountingBloomEiaBackend(EiaBackendConfig config)
    : BankedBloomBase(config) {}

void CountingBloomEiaBackend::insert_filter(std::size_t at) {
  counters_.insert(counters_.begin() + static_cast<std::ptrdiff_t>(at),
                   std::vector<std::uint8_t>(positions_total_, 0));
}

void CountingBloomEiaBackend::set_position(std::size_t filter, std::size_t index) {
  auto& counter = counters_[filter][index];
  if (counter != 0xFF) ++counter;  // saturate: 255 pins the position forever
}

void CountingBloomEiaBackend::clear_position(std::size_t filter, std::size_t index) {
  counters_[filter][index] = 0;
}

bool CountingBloomEiaBackend::test_position(std::size_t filter,
                                            std::size_t index) const {
  return counters_[filter][index] != 0;
}

void CountingBloomEiaBackend::erase_segment(std::size_t filter, std::size_t bank,
                                            int sub) {
  const std::size_t first = position_index(bank, sub, 0);
  std::fill_n(counters_[filter].begin() + static_cast<std::ptrdiff_t>(first),
              segment_positions_, 0);
}

void CountingBloomEiaBackend::decrement_position(std::size_t filter,
                                                 std::size_t index) {
  auto& counter = counters_[filter][index];
  if (counter != 0 && counter != 0xFF) --counter;
}

void CountingBloomEiaBackend::unlearn(IngressId ingress, const net::Prefix& prefix) {
  for_each_slash24(prefix, [&](std::uint32_t key24) { remove_key(ingress, key24); });
}

std::size_t CountingBloomEiaBackend::memory_bytes() const {
  std::size_t total = bank_current_.size() + bank_inserts_.size() * sizeof(std::uint64_t);
  for (const auto& array : counters_) total += array.capacity();
  return total;
}

double CountingBloomEiaBackend::fill_ratio() const {
  std::uint64_t nonzero = 0;
  std::uint64_t count = 0;
  for (const auto& array : counters_) {
    for (const std::uint8_t c : array) nonzero += c != 0 ? 1 : 0;
    count += array.size();
  }
  return count == 0 ? 0.0 : static_cast<double>(nonzero) / static_cast<double>(count);
}

}  // namespace infilter::core
