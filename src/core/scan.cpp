#include "core/scan.h"

#include <algorithm>

namespace infilter::core {

ScanAnalysis::ScanAnalysis(ScanConfig config) : config_(config) {
  // Clamp rather than assert: an assert disappears in release builds, and
  // buffer_size == 0 would then evict from an empty ring on the first
  // observe(). Thresholds below 2 would flag every buffered flow, which no
  // caller can mean.
  config_.buffer_size = std::max<std::size_t>(config_.buffer_size, 1);
  config_.network_scan_threshold = std::max(config_.network_scan_threshold, 2);
  config_.host_scan_threshold = std::max(config_.host_scan_threshold, 2);
}

ScanVerdict ScanAnalysis::observe(const netflow::V5Record& record) {
  const PairKey pair = PairKey{record.dst_ip.value()} << 16 | record.dst_port;
  if (ring_.size() < config_.buffer_size) {
    ring_.push_back(pair);
  } else {
    evict(ring_[oldest_]);
    ring_[oldest_] = pair;
    if (++oldest_ == ring_.size()) oldest_ = 0;
  }

  ++stats_.observed;
  // A pair's first buffered flow adds one distinct host to its port and
  // one distinct port to its host; a repeat changes neither count.
  const bool new_pair = pairs_.increment(pair) == 1;
  const auto hosts = static_cast<int>(new_pair ? hosts_on_port_.increment(record.dst_port)
                                               : hosts_on_port_.count(record.dst_port));
  const auto ports = static_cast<int>(new_pair ? ports_on_host_.increment(record.dst_ip.value())
                                               : ports_on_host_.count(record.dst_ip.value()));

  if (hosts >= config_.network_scan_threshold) {
    ++stats_.network_scans;
    return ScanVerdict::kNetworkScan;
  }
  if (ports >= config_.host_scan_threshold) {
    ++stats_.host_scans;
    return ScanVerdict::kHostScan;
  }
  return ScanVerdict::kClean;
}

void ScanAnalysis::evict(PairKey pair) {
  ++stats_.evictions;
  if (pairs_.decrement(pair) != 0) return;
  hosts_on_port_.decrement(static_cast<std::uint16_t>(pair));
  ports_on_host_.decrement(static_cast<std::uint32_t>(pair >> 16));
}

std::size_t ScanAnalysis::table_slots() const {
  return std::max({pairs_.capacity(), hosts_on_port_.capacity(),
                   ports_on_host_.capacity()});
}

}  // namespace infilter::core
