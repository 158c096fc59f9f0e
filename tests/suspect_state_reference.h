// Test-only references for the suspect path's per-key state: the
// node-based structures that util::CountTable replaced. ReferenceScan is
// the deque plus nested unordered_maps ScanAnalysis used to keep, and
// ReferencePendingBanks is the unordered_map pending-counter half of
// EiaTable::observe_mismatch. The differential tests drive a reference and
// the production class over one stream and require equal answers after
// every step.

#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <iterator>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/eia.h"
#include "core/scan.h"
#include "util/rng.h"

namespace infilter::core::reference {

/// ScanAnalysis as a deque of buffered flows plus, per port and per host,
/// a map of buffered-flow counts whose size is the distinct count.
class ReferenceScan {
 public:
  explicit ReferenceScan(ScanConfig config) : config_(config) {
    config_.buffer_size = std::max<std::size_t>(config_.buffer_size, 1);
    config_.network_scan_threshold = std::max(config_.network_scan_threshold, 2);
    config_.host_scan_threshold = std::max(config_.host_scan_threshold, 2);
  }

  ScanVerdict observe(const netflow::V5Record& record) {
    while (buffer_.size() >= config_.buffer_size) evict_oldest();
    ++stats_.observed;
    const Flow flow{record.dst_ip.value(), record.dst_port};
    buffer_.push_back(flow);
    by_port_[flow.port][flow.host] += 1;
    by_host_[flow.host][flow.port] += 1;
    if (hosts_on_port(flow.port) >= config_.network_scan_threshold) {
      ++stats_.network_scans;
      return ScanVerdict::kNetworkScan;
    }
    if (ports_on_host(record.dst_ip) >= config_.host_scan_threshold) {
      ++stats_.host_scans;
      return ScanVerdict::kHostScan;
    }
    return ScanVerdict::kClean;
  }

  [[nodiscard]] std::size_t buffered_flows() const { return buffer_.size(); }
  [[nodiscard]] const ScanStats& stats() const { return stats_; }
  [[nodiscard]] int hosts_on_port(std::uint16_t port) const {
    const auto it = by_port_.find(port);
    return it == by_port_.end() ? 0 : static_cast<int>(it->second.size());
  }
  [[nodiscard]] int ports_on_host(net::IPv4Address host) const {
    const auto it = by_host_.find(host.value());
    return it == by_host_.end() ? 0 : static_cast<int>(it->second.size());
  }

 private:
  struct Flow {
    std::uint32_t host;
    std::uint16_t port;
  };

  void evict_oldest() {
    ++stats_.evictions;
    const Flow flow = buffer_.front();
    buffer_.pop_front();
    auto port_it = by_port_.find(flow.port);
    if (--port_it->second[flow.host] <= 0) port_it->second.erase(flow.host);
    if (port_it->second.empty()) by_port_.erase(port_it);
    auto host_it = by_host_.find(flow.host);
    if (--host_it->second[flow.port] <= 0) host_it->second.erase(flow.port);
    if (host_it->second.empty()) by_host_.erase(host_it);
  }

  ScanConfig config_;
  ScanStats stats_;
  std::deque<Flow> buffer_;
  std::unordered_map<std::uint16_t, std::unordered_map<std::uint32_t, int>> by_port_;
  std::unordered_map<std::uint32_t, std::unordered_map<std::uint16_t, int>> by_host_;
};

/// EiaTable's pending learn counters as kPendingBanks unordered_maps, with
/// the same insert-when-full policy: halve every counter, erase the
/// zeros, then evict the minimum (count, key) if the bank is still full.
class ReferencePendingBanks {
 public:
  ReferencePendingBanks(int learn_threshold, std::size_t max_pending_counters)
      : learn_threshold_(learn_threshold),
        bank_cap_(std::max<std::size_t>(1, max_pending_counters / EiaTable::kPendingBanks)) {}

  /// The pending half of EiaTable::observe_mismatch: true when this
  /// mismatch learns (ingress, source /24).
  bool observe(IngressId ingress, net::IPv4Address source) {
    const std::uint32_t key24 = source.value() & 0xFFFFFF00u;
    const std::uint64_t key = (std::uint64_t{ingress} << 32) | key24;
    auto& bank = bank_of(key24);
    auto it = bank.find(key);
    if (it == bank.end()) {
      if (bank.size() >= bank_cap_) {
        ++rejected;
        for (auto entry = bank.begin(); entry != bank.end();) {
          entry->second /= 2;
          entry = entry->second == 0 ? bank.erase(entry) : std::next(entry);
        }
        if (bank.size() >= bank_cap_) {
          auto victim = bank.begin();
          for (auto entry = std::next(bank.begin()); entry != bank.end(); ++entry) {
            if (entry->second < victim->second ||
                (entry->second == victim->second && entry->first < victim->first)) {
              victim = entry;
            }
          }
          bank.erase(victim);
        }
      }
      it = bank.emplace(key, 0).first;
    }
    if (++it->second < learn_threshold_) return false;
    bank.erase(it);
    return true;
  }

  void restore(std::uint64_t key, int count) {
    bank_of(static_cast<std::uint32_t>(key & 0xFFFFFFFFu))[key] = count;
  }

  [[nodiscard]] std::vector<std::pair<std::uint64_t, int>> entries() const {
    std::vector<std::pair<std::uint64_t, int>> out;
    for (const auto& bank : banks_) out.insert(out.end(), bank.begin(), bank.end());
    std::sort(out.begin(), out.end());
    return out;
  }

  [[nodiscard]] std::size_t counters() const {
    std::size_t total = 0;
    for (const auto& bank : banks_) total += bank.size();
    return total;
  }

  std::uint64_t rejected = 0;

 private:
  using Bank = std::unordered_map<std::uint64_t, int>;

  Bank& bank_of(std::uint32_t key24) {
    return banks_[util::SplitMix64{key24}.next() % EiaTable::kPendingBanks];
  }

  int learn_threshold_;
  std::size_t bank_cap_;
  std::array<Bank, EiaTable::kPendingBanks> banks_;
};

}  // namespace infilter::core::reference
