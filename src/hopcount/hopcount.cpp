#include "hopcount/hopcount.h"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <new>

#include "lifecycle/lifecycle.h"

namespace infilter::hopcount {
namespace {

/// The first insert allocates this many slots.
constexpr std::size_t kMinCapacity = 16;

/// The load limit, 3/4: an insert that would pass it doubles the array.
constexpr bool over_load(std::size_t size, std::size_t capacity) {
  return size * 4 > capacity * 3;
}

/// Arrays at least this large ask for transparent huge pages.
constexpr std::size_t kHugePage = std::size_t{2} << 20;

/// Fibonacci hashing (2^64 / golden ratio); the slot index is the top
/// bits of key * kGolden. The key carries the ingress. This is
/// deliberately not the runtime's shard hash (SplitMix64 of the source /24
/// alone, runtime::ShardedRuntime::shard_of): a shard's table only ever
/// sees one shard's keys, and a hash correlated with the shard would
/// crowd them onto a fraction of the home slots.
constexpr std::uint64_t kGolden = 0x9E3779B97F4A7C15ull;

/// Slot::word layout: key << 24 | min_hops << 16 | max_hops << 8 | count + 1.
constexpr unsigned kKeyShift = 24;

std::uint64_t pack(std::uint64_t key, std::uint8_t min_hops, std::uint8_t max_hops,
                   int count) {
  return key << kKeyShift | std::uint64_t{min_hops} << 16 |
         std::uint64_t{max_hops} << 8 |
         static_cast<std::uint64_t>(std::clamp(count, 0, HopCountTable::kMaxCount) + 1);
}
constexpr std::uint8_t min_of(std::uint64_t word) {
  return static_cast<std::uint8_t>(word >> 16);
}
constexpr std::uint8_t max_of(std::uint64_t word) {
  return static_cast<std::uint8_t>(word >> 8);
}
constexpr int count_of(std::uint64_t word) { return static_cast<int>(word & 0xFF) - 1; }

}  // namespace

HopCountTable::SlotArray::SlotArray(std::size_t slots) {
  if (slots == 0) return;
  // Anonymous pages arrive zero-filled: every slot starts empty.
  void* pages = mmap(nullptr, slots * sizeof(Slot), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (pages == MAP_FAILED) throw std::bad_alloc();
  // Lookups land on random slots: huge pages spare a TLB miss per lookup
  // on an array of many pages. A hint only; failure changes nothing.
  if (slots * sizeof(Slot) >= kHugePage) madvise(pages, slots * sizeof(Slot), MADV_HUGEPAGE);
  data = static_cast<Slot*>(pages);
  capacity = slots;
  shift = 64 - static_cast<unsigned>(std::countr_zero(slots));
}

HopCountTable::SlotArray::SlotArray(const SlotArray& other) : SlotArray(other.capacity) {
  if (capacity != 0) std::memcpy(data, other.data, capacity * sizeof(Slot));
  size = other.size;
}

HopCountTable::SlotArray::SlotArray(SlotArray&& other) noexcept
    : data(std::exchange(other.data, nullptr)),
      capacity(std::exchange(other.capacity, 0)),
      size(std::exchange(other.size, 0)),
      shift(std::exchange(other.shift, 64)) {}

HopCountTable::SlotArray& HopCountTable::SlotArray::operator=(SlotArray other) noexcept {
  std::swap(data, other.data);
  std::swap(capacity, other.capacity);
  std::swap(size, other.size);
  std::swap(shift, other.shift);
  return *this;
}

HopCountTable::SlotArray::~SlotArray() {
  if (data != nullptr) munmap(data, capacity * sizeof(Slot));
}

HopCountTable::HopCountTable(HopCountConfig config) : config_(config) {
  assert(config_.learn_threshold <= kMaxCount);
}

std::uint64_t HopCountTable::key_of(IngressId ingress, net::IPv4Address source) {
  return std::uint64_t{ingress} << 24 | source.value() >> 8;
}

std::size_t HopCountTable::home_of(std::uint64_t key) const {
  return static_cast<std::size_t>((key * kGolden) >> slots_.shift);
}

std::size_t HopCountTable::find(std::uint64_t key) const {
  // Terminates: the load limit keeps at least a quarter of the slots empty.
  const std::size_t mask = slots_.capacity - 1;
  for (std::size_t i = home_of(key);; i = (i + 1) & mask) {
    const std::uint64_t word = slots_.data[i].word;
    if (word == 0 || word >> kKeyShift == key) return i;
  }
}

bool HopCountTable::stale(util::TimeMs last_seen, util::TimeMs now) const {
  // Shared idle-expiry predicate (lifecycle/lifecycle.h): the hop-count
  // decay clock and the EIA entry-aging clock are the same flow-carried
  // virtual time, so the testbed drives both deterministically.
  return config_.decay_ms != 0 &&
         lifecycle::idle_expired(last_seen, now, config_.decay_ms);
}

TtlClass HopCountTable::classify_slot(const Slot& slot, int hops,
                                      util::TimeMs now) const {
  if (slot.word == 0 || count_of(slot.word) < config_.learn_threshold ||
      stale(slot.last_seen, now)) {
    return TtlClass::kUnknown;
  }
  if (hops >= int{min_of(slot.word)} - config_.tolerance &&
      hops <= int{max_of(slot.word)} + config_.tolerance) {
    return TtlClass::kConsistent;
  }
  return TtlClass::kMiss;
}

TtlClass HopCountTable::classify(IngressId ingress, net::IPv4Address source,
                                 std::uint8_t ttl, util::TimeMs now) const {
  ++stats_.classified;
  const int hops = hops_from_ttl(ttl);
  if (hops < 0 || slots_.capacity == 0) return TtlClass::kUnknown;
  return classify_slot(slots_.data[find(key_of(ingress, source))], hops, now);
}

void HopCountTable::observe(IngressId ingress, net::IPv4Address source,
                            std::uint8_t ttl, util::TimeMs now) {
  const int hops = hops_from_ttl(ttl);
  if (hops < 0) return;
  const auto key = key_of(ingress, source);
  fold(slots_.capacity == 0 ? 0 : find(key), key, hops, now);
}

TtlClass HopCountTable::classify_and_observe(IngressId ingress,
                                             net::IPv4Address source,
                                             std::uint8_t ttl, util::TimeMs now,
                                             bool trusted) {
  ++stats_.classified;
  const int hops = hops_from_ttl(ttl);
  if (hops < 0) return TtlClass::kUnknown;
  const auto key = key_of(ingress, source);
  if (slots_.capacity == 0) {
    if (trusted) fold(0, key, hops, now);
    return TtlClass::kUnknown;
  }
  const std::size_t index = find(key);
  const TtlClass result = classify_slot(slots_.data[index], hops, now);
  if (trusted && result != TtlClass::kMiss) fold(index, key, hops, now);
  return result;
}

void HopCountTable::prefetch(IngressId ingress, net::IPv4Address source) const {
  if (slots_.capacity == 0) return;
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(&slots_.data[home_of(key_of(ingress, source))]);
#endif
}

void HopCountTable::fold(std::size_t index, std::uint64_t key, int hops,
                         util::TimeMs now) {
  if (slots_.capacity == 0 || slots_.data[index].word == 0) {
    if (slots_.size >= config_.max_entries) {
      if (!reclaim(now)) return;
      index = find(key);
    }
    index = insert(index, key);
  } else if (stale(slots_.data[index].last_seen, now)) {
    // Idle past the decay deadline: the old range no longer describes the
    // path; start learning over from this observation.
    slots_.data[index].word = pack(key, 0, 0, 0);
    ++stats_.expired_entries;
  }

  Slot& slot = slots_.data[index];
  slot.last_seen = now;
  int count = count_of(slot.word);
  if (count >= config_.learn_threshold) return;  // established: refresh only

  const auto hops8 = static_cast<std::uint8_t>(std::clamp(hops, 0, 255));
  const std::uint8_t min_hops = count == 0 ? hops8 : std::min(min_of(slot.word), hops8);
  const std::uint8_t max_hops = count == 0 ? hops8 : std::max(max_of(slot.word), hops8);
  slot.word = pack(key, min_hops, max_hops, ++count);
  if (count == config_.learn_threshold) ++stats_.established_keys;
}

std::size_t HopCountTable::insert(std::size_t index, std::uint64_t key) {
  if (over_load(slots_.size + 1, slots_.capacity)) {
    grow();
    index = find(key);
  }
  slots_.data[index].word = pack(key, 0, 0, 0);
  ++slots_.size;
  return index;
}

void HopCountTable::grow() {
  const std::size_t capacity = std::max(kMinCapacity, slots_.capacity * 2);
  // The superseded array is unmapped when `old` leaves scope.
  const SlotArray old = std::exchange(slots_, SlotArray(capacity));
  slots_.size = old.size;
  for (std::size_t i = 0; i < old.capacity; ++i) {
    if (old.data[i].word != 0) slots_.data[find(old.data[i].word >> kKeyShift)] = old.data[i];
  }
}

void HopCountTable::erase(std::size_t hole) {
  const std::size_t mask = slots_.capacity - 1;
  for (std::size_t i = (hole + 1) & mask; slots_.data[i].word != 0; i = (i + 1) & mask) {
    // The entry at i may fill the hole unless its home lies in (hole, i]:
    // then it is already as close to home as the run allows.
    const std::size_t home = home_of(slots_.data[i].word >> kKeyShift);
    if (((i - home) & mask) >= ((i - hole) & mask)) {
      slots_.data[hole] = slots_.data[i];
      hole = i;
    }
  }
  slots_.data[hole] = Slot{};
  --slots_.size;
}

bool HopCountTable::reclaim(util::TimeMs now) {
  // A flood of fresh keys into a full table of live entries must stay
  // O(1) per flow, so a sweep runs at most once per decay_ms / 8 of flow
  // time. Flow time that steps back delays the next sweep until it passes
  // the old deadline again.
  if (config_.decay_ms == 0 || slots_.capacity == 0 || now < next_sweep_at_) {
    return false;
  }
  next_sweep_at_ = now + std::max<util::DurationMs>(config_.decay_ms / 8, 1);
  ++stats_.reclaim_sweeps;

  // Start just past an empty slot, so no probe run wraps around the start:
  // an erase then only shifts not-yet-visited entries back into the slot
  // being examined, which is examined again.
  const std::size_t mask = slots_.capacity - 1;
  std::size_t start = 0;
  while (slots_.data[start].word != 0) ++start;
  std::size_t i = (start + 1) & mask;
  for (std::size_t visited = 1; visited < slots_.capacity;) {
    if (slots_.data[i].word != 0 && stale(slots_.data[i].last_seen, now)) {
      erase(i);
      ++stats_.expired_entries;
      continue;
    }
    i = (i + 1) & mask;
    ++visited;
  }
  return slots_.size < config_.max_entries;
}

void HopCountTable::restore(IngressId ingress, net::IPv4Address source,
                            const Entry& entry) {
  const auto key = key_of(ingress, source);
  std::size_t index = slots_.capacity == 0 ? 0 : find(key);
  if (slots_.capacity == 0 || slots_.data[index].word == 0) index = insert(index, key);
  slots_.data[index] =
      Slot{pack(key, entry.min_hops, entry.max_hops, entry.count), entry.last_seen};
}

std::vector<HopCountTable::ExportedEntry> HopCountTable::entries() const {
  std::vector<ExportedEntry> out;
  out.reserve(slots_.size);
  for (std::size_t i = 0; i < slots_.capacity; ++i) {
    const Slot& slot = slots_.data[i];
    if (slot.word == 0) continue;
    const std::uint64_t key = slot.word >> kKeyShift;
    out.push_back(ExportedEntry{
        static_cast<IngressId>(key >> 24),
        net::Prefix{net::IPv4Address{static_cast<std::uint32_t>(key << 8)}, 24},
        Entry{min_of(slot.word), max_of(slot.word), count_of(slot.word),
              slot.last_seen}});
  }
  std::sort(out.begin(), out.end(), [](const auto& a, const auto& b) {
    return a.ingress != b.ingress ? a.ingress < b.ingress
                                  : a.slash24.address() < b.slash24.address();
  });
  return out;
}

std::size_t HopCountTable::longest_probe() const {
  const std::size_t mask = slots_.capacity - 1;
  std::size_t longest = 0;
  for (std::size_t i = 0; i < slots_.capacity; ++i) {
    if (slots_.data[i].word == 0) continue;
    const std::size_t home = home_of(slots_.data[i].word >> kKeyShift);
    longest = std::max(longest, ((i - home) & mask) + 1);
  }
  return longest;
}

HopCountAnalysis::HopCountAnalysis(HopCountConfig config) : table_(config) {}

TtlClass HopCountAnalysis::analyze(IngressId ingress, net::IPv4Address source,
                                   std::uint8_t ttl, util::TimeMs now,
                                   bool eia_hit) {
  // Learn only from flows the EIA sets vouch for, and never from a flow
  // that itself looks like a forged path -- a spoofer must not be able to
  // drag the range toward its own hop count.
  return table_.classify_and_observe(ingress, source, ttl, now, eia_hit);
}

}  // namespace infilter::hopcount
