// Scan Analysis (Section 4.1).
//
// A bounded buffer of recently observed *suspect* flows (flows that failed
// the EIA check) feeds two counters:
//
//   * network scan: flows targeting one destination port across many
//     distinct destination hosts (Slammer-style sweeps);
//   * host scan: flows targeting many distinct destination ports on one
//     host (nmap Idlescan-style blind scans).
//
// When either count crosses its threshold the triggering flow is flagged.
// The paper uses a buffer of about 200 flows; spoofing "is expected to not
// occur excessively", so the memory footprint stays small.
//
// The buffer is a ring of packed (destination host, port) keys beside three
// open-addressed count tables (util/count_table.h): buffered flows per
// (host, port) pair, distinct hosts per port and distinct ports per host.
// The distinct counts move only when a pair's count crosses 0 <-> 1, so
// observe() is O(1), and once the ring and tables have grown to the
// buffer's working set it allocates nothing. Both grow lazily: a large
// buffer_size commits memory only as flows arrive.

#pragma once

#include <cstdint>
#include <vector>

#include "net/ipv4.h"
#include "netflow/v5.h"
#include "util/count_table.h"

namespace infilter::core {

struct ScanConfig {
  /// Clamped to >= 1 by the ScanAnalysis constructor: a zero-size buffer
  /// would make observe() evict from an empty ring.
  std::size_t buffer_size = 200;
  /// Distinct destination hosts on one destination port that constitute a
  /// network scan. Clamped to >= 2 (a threshold of 1 would flag every
  /// suspect flow, including the first from a source).
  int network_scan_threshold = 15;
  /// Distinct destination ports on one destination host that constitute a
  /// host scan. Clamped to >= 2.
  int host_scan_threshold = 15;
};

/// The verdict for one suspect flow.
enum class ScanVerdict : std::uint8_t { kClean, kNetworkScan, kHostScan };

/// Lifetime counters of one ScanAnalysis (observability surface).
struct ScanStats {
  std::uint64_t observed = 0;       ///< suspect flows buffered
  std::uint64_t network_scans = 0;  ///< flows flagged as network scans
  std::uint64_t host_scans = 0;     ///< flows flagged as host scans
  std::uint64_t evictions = 0;      ///< flows aged out of the buffer
};

class ScanAnalysis {
 public:
  /// Out-of-range config values are clamped (see ScanConfig), so a release
  /// build fed `buffer_size == 0` degrades to a one-flow buffer instead of
  /// evicting from an empty ring. Allocates only the tables' minimum slots,
  /// whatever the buffer size.
  explicit ScanAnalysis(ScanConfig config = {});

  /// The configuration actually in effect after clamping.
  [[nodiscard]] const ScanConfig& config() const { return config_; }

  /// Buffers a suspect flow and evaluates both counters for it.
  ScanVerdict observe(const netflow::V5Record& record);

  [[nodiscard]] std::size_t buffered_flows() const { return ring_.size(); }
  [[nodiscard]] const ScanStats& stats() const { return stats_; }
  /// Distinct destination hosts currently buffered for `dst_port`.
  [[nodiscard]] int hosts_on_port(std::uint16_t dst_port) const {
    return static_cast<int>(hosts_on_port_.count(dst_port));
  }
  /// Distinct destination ports currently buffered for `host`.
  [[nodiscard]] int ports_on_host(net::IPv4Address host) const {
    return static_cast<int>(ports_on_host_.count(host.value()));
  }
  /// Slots of the largest count table. Each holds at most buffer_size
  /// keys, so this never exceeds CountTable::capacity_for(buffer_size).
  [[nodiscard]] std::size_t table_slots() const;

 private:
  /// (dst_ip << 16) | dst_port: one buffered flow's (host, port) pair.
  using PairKey = std::uint64_t;

  void evict(PairKey pair);

  ScanConfig config_;
  ScanStats stats_;
  /// The buffered flows' pairs, oldest at ring_[oldest_] once the ring has
  /// grown to buffer_size; until then it only appends.
  std::vector<PairKey> ring_;
  std::size_t oldest_ = 0;
  /// (host, port) pair -> buffered flows.
  util::CountTable<PairKey> pairs_;
  /// dst_port -> distinct buffered hosts.
  util::CountTable<std::uint16_t> hosts_on_port_;
  /// dst_ip -> distinct buffered ports.
  util::CountTable<std::uint32_t> ports_on_host_;
};

}  // namespace infilter::core
