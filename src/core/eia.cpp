#include "core/eia.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "util/rng.h"

namespace infilter::core {

void EiaSet::add(const net::Prefix& prefix) {
  Range incoming{prefix.first().value(), prefix.last().value()};

  // Find the insertion window: all ranges overlapping or adjacent to the
  // incoming one get merged into it.
  auto first = std::lower_bound(
      ranges_.begin(), ranges_.end(), incoming,
      [](const Range& r, const Range& v) {
        // r ends strictly before v starts (and is not adjacent).
        return r.last != ~std::uint32_t{0} && r.last + 1 < v.first;
      });
  auto last = first;
  while (last != ranges_.end() &&
         (incoming.last == ~std::uint32_t{0} || last->first <= incoming.last + 1)) {
    incoming.first = std::min(incoming.first, last->first);
    incoming.last = std::max(incoming.last, last->last);
    ++last;
  }
  const auto at = ranges_.erase(first, last);
  ranges_.insert(at, incoming);
}

bool EiaSet::contains(net::IPv4Address address) const {
  const std::uint32_t value = address.value();
  if (ranges_.size() <= kScanRanges) {
    // value in [first, last] as one unsigned compare: below first wraps
    // past last - first.
    bool hit = false;
    for (const Range& r : ranges_) hit |= value - r.first <= r.last - r.first;
    return hit;
  }
  auto it = std::upper_bound(ranges_.begin(), ranges_.end(), value,
                             [](std::uint32_t v, const Range& r) { return v < r.first; });
  if (it == ranges_.begin()) return false;
  --it;
  return value >= it->first && value <= it->last;
}

std::vector<net::Prefix> EiaSet::to_cidrs() const {
  std::vector<net::Prefix> out;
  for (const auto& range : ranges_) {
    // Greedy minimal decomposition: at each step emit the largest
    // power-of-two block that is aligned at `at` and fits within the range.
    std::uint64_t at = range.first;
    const std::uint64_t end = std::uint64_t{range.last} + 1;
    while (at < end) {
      // Largest alignment of `at` (32 for at == 0).
      int length = at == 0 ? 0 : 32 - std::countr_zero(static_cast<std::uint32_t>(at));
      // Shrink the block until it fits in the remaining span.
      while (length < 32 &&
             (std::uint64_t{1} << (32 - length)) > end - at) {
        ++length;
      }
      out.emplace_back(net::IPv4Address{static_cast<std::uint32_t>(at)}, length);
      at += std::uint64_t{1} << (32 - length);
    }
  }
  return out;
}

bool EiaSet::remove(const net::Prefix& prefix) {
  const std::uint32_t first = prefix.first().value();
  const std::uint32_t last = prefix.last().value();

  // First stored range that could overlap [first, last].
  auto it = std::upper_bound(ranges_.begin(), ranges_.end(), first,
                             [](std::uint32_t v, const Range& r) { return v < r.first; });
  if (it != ranges_.begin() && std::prev(it)->last >= first) --it;

  bool removed = false;
  while (it != ranges_.end() && it->first <= last) {
    const Range hit = *it;
    removed = true;
    // Keep the pieces of `hit` outside [first, last], if any.
    const bool keep_low = hit.first < first;
    const bool keep_high = hit.last > last;
    if (keep_low && keep_high) {
      it->last = first - 1;
      it = std::next(ranges_.insert(std::next(it), Range{last + 1, hit.last}));
    } else if (keep_low) {
      it->last = first - 1;
      ++it;
    } else if (keep_high) {
      it->first = last + 1;
      ++it;
    } else {
      it = ranges_.erase(it);
    }
  }
  return removed;
}

std::uint64_t EiaSet::address_count() const {
  std::uint64_t total = 0;
  for (const auto& range : ranges_) {
    total += std::uint64_t{range.last} - range.first + 1;
  }
  return total;
}

EiaTable::EiaTable(EiaTableConfig config)
    : config_(config),
      pending_bank_cap_(std::max<std::size_t>(
          1, config.max_pending_counters / kPendingBanks)) {
  assert(config_.learn_threshold > 0);
}

EiaSet& EiaTable::set_ref(IngressId ingress) {
  if (sets_.empty()) {
    base_ = ingress;
  } else if (ingress < base_) {
    sets_.insert(sets_.begin(), base_ - ingress, EiaSet{});
    base_ = ingress;
  }
  const std::size_t at = index_of(ingress);
  if (at >= sets_.size()) sets_.resize(at + 1);
  const auto id = std::lower_bound(ids_.begin(), ids_.end(), ingress);
  if (id == ids_.end() || *id != ingress) ids_.insert(id, ingress);
  return sets_[at];
}

const EiaSet* EiaTable::set_for(IngressId ingress) const {
  return std::binary_search(ids_.begin(), ids_.end(), ingress)
             ? &sets_[index_of(ingress)]
             : nullptr;
}

void EiaTable::add_expected(IngressId ingress, const net::Prefix& prefix) {
  set_ref(ingress).add(prefix);
}

void EiaTable::declare_ingress(IngressId ingress) { (void)set_ref(ingress); }

std::size_t EiaTable::total_ranges() const {
  std::size_t total = 0;
  for (const auto& set : sets_) total += set.range_count();
  return total;
}

std::size_t EiaTable::memory_bytes() const {
  std::size_t total =
      sets_.capacity() * sizeof(EiaSet) + ids_.capacity() * sizeof(IngressId);
  for (const auto& set : sets_) total += set.memory_bytes();
  return total;
}

std::size_t EiaTable::pending_counters() const {
  std::size_t total = 0;
  for (const auto& bank : pending_) total += bank.size();
  return total;
}

std::size_t EiaTable::pending_bank_slots() const {
  std::size_t largest = 0;
  for (const auto& bank : pending_) largest = std::max(largest, bank.capacity());
  return largest;
}

bool EiaTable::observe_mismatch(IngressId ingress, net::IPv4Address source,
                                util::TimeMs now) {
  const std::uint32_t key24 = source.value() & 0xFFFFFF00u;
  const std::uint64_t key = (std::uint64_t{ingress} << 32) | key24;
  // Bank by the /24's shard hash (the exact function the runtime's
  // shard_of uses), so every key that can influence a bank's decay lives
  // on the same runtime shard: a flow's learning outcome stays a function
  // of its own shard's history at every power-of-two shard count.
  auto& bank = pending_[util::SplitMix64{key24}.next() % kPendingBanks];
  if (bank.size() >= pending_bank_cap_ && bank.count(key) == 0) {
    // Insert-when-full: decay instead of the historical silent refusal
    // (which let a spoofed flood permanently starve legitimate new
    // sources of learning). Halve every counter and sweep the zeroed
    // ones -- a flood's once-seen keys all go -- then, if the bank is
    // somehow still full of entries with >= 2 observations, evict the
    // deterministic minimum so the newcomer always gets a counter.
    ++stats_.pending_rejected;
    bank.halve();
    if (bank.size() >= pending_bank_cap_) bank.erase_min();
  }
  if (static_cast<int>(bank.increment(key)) < config_.learn_threshold) return false;
  set_ref(ingress).add(net::Prefix{source, 24});
  bank.erase(key);
  if (aging_enabled()) {
    auto& age = age_[key];
    if (age.expired) ++lifecycle_stats_.entries_relearned;
    age = lifecycle::EntryAge{.learned_at = now, .last_seen = now, .expired = false};
  }
  return true;
}

// -- Lifecycle aging (src/lifecycle) --------------------------------------

bool EiaTable::expire_if_idle(IngressId ingress, std::uint32_t key24,
                              lifecycle::EntryAge& age, util::TimeMs now) {
  if (age.expired ||
      !lifecycle::idle_expired(age.last_seen, now, config_.lifecycle.max_idle_ms)) {
    return false;
  }
  if (const std::size_t at = index_of(ingress); at < sets_.size()) {
    sets_[at].remove(net::Prefix{net::IPv4Address{key24}, 24});
  }
  age.expired = true;
  ++lifecycle_stats_.entries_expired;
  return true;
}

bool EiaTable::is_expected(IngressId ingress, net::IPv4Address source,
                           util::TimeMs now) {
  ++stats_.lookups;
  if (!aging_enabled()) return member(ingress, source);
  auto it = age_.find(age_key(ingress, source));
  if (it != age_.end()) {
    expire_if_idle(ingress, source.value() & 0xFFFFFF00u, it->second, now);
  }
  const bool hit = member(ingress, source);
  if (hit && it != age_.end() && !it->second.expired &&
      now > it->second.last_seen) {
    it->second.last_seen = now;
    ++lifecycle_stats_.entries_refreshed;
  }
  return hit;
}

std::optional<IngressId> EiaTable::expected_ingress(net::IPv4Address source,
                                                    util::TimeMs now) {
  if (aging_enabled()) {
    const std::uint32_t key24 = source.value() & 0xFFFFFF00u;
    for (const IngressId ingress : ids_) {
      auto it = age_.find((std::uint64_t{ingress} << 32) | key24);
      if (it != age_.end()) expire_if_idle(ingress, key24, it->second, now);
    }
  }
  for (const IngressId ingress : ids_) {
    if (member(ingress, source)) return ingress;
  }
  return std::nullopt;
}

std::size_t EiaTable::age_sweep(util::TimeMs now) {
  if (!aging_enabled()) return 0;
  std::size_t expired = 0;
  for (auto& [key, age] : age_) {
    const auto ingress = static_cast<IngressId>(key >> 32);
    const auto key24 = static_cast<std::uint32_t>(key & 0xFFFFFFFFu);
    if (expire_if_idle(ingress, key24, age, now)) ++expired;
  }
  return expired;
}

std::vector<EiaTable::AgedEntry> EiaTable::aged_entries() const {
  std::vector<AgedEntry> out;
  out.reserve(age_.size());
  for (const auto& [key, age] : age_) {
    out.push_back(AgedEntry{static_cast<IngressId>(key >> 32),
                            static_cast<std::uint32_t>(key & 0xFFFFFFFFu), age});
  }
  std::sort(out.begin(), out.end(), [](const AgedEntry& a, const AgedEntry& b) {
    return a.ingress != b.ingress ? a.ingress < b.ingress : a.key24 < b.key24;
  });
  return out;
}

void EiaTable::restore_age(IngressId ingress, std::uint32_t key24,
                           const lifecycle::EntryAge& age) {
  age_[(std::uint64_t{ingress} << 32) | (key24 & 0xFFFFFF00u)] = age;
}

std::vector<std::pair<std::uint64_t, int>> EiaTable::pending_entries() const {
  std::vector<std::pair<std::uint64_t, int>> out;
  out.reserve(pending_counters());
  for (const auto& bank : pending_) {
    bank.for_each([&](std::uint64_t key, std::uint32_t count) {
      out.emplace_back(key, static_cast<int>(count));
    });
  }
  std::sort(out.begin(), out.end());
  return out;
}

void EiaTable::restore_pending(std::uint64_t key, int count) {
  const auto key24 = static_cast<std::uint32_t>(key & 0xFFFFFFFFu);
  pending_[util::SplitMix64{key24}.next() % kPendingBanks].assign(
      key, static_cast<std::uint32_t>(std::max(count, 0)));
}

}  // namespace infilter::core
