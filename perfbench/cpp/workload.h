// The benchmark's workloads: what each one generates from a seed, and the
// prepared inputs every phase replays. Generation happens once per run,
// before any timer starts.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/engine.h"
#include "sim/testbed.h"

namespace perfbench {

struct WorkloadSpec {
  std::string name;
  /// Traffic shape and engine configuration (sim/testbed.h).
  infilter::sim::ExperimentConfig config;
  /// Latency phase: records/s offered open loop, and whether they cross
  /// loopback UDP into an IngestPipeline (else they are submitted straight
  /// into the sharded runtime).
  double offered_rps = 0;
  bool over_udp = false;
};

/// The named workload at full or toy (`smoke`) size; an empty name marks an
/// unknown workload.
[[nodiscard]] WorkloadSpec make_spec(const std::string& name, std::uint64_t seed,
                                     bool smoke);

/// Export datagrams of the whole stream, one socket per ingress, in send
/// order (a datagram is sent once its 30th record -- or the ingress's last
/// record -- has arrived in the stream).
struct Datagrams {
  std::vector<std::vector<std::uint8_t>> bytes;
  std::vector<std::uint16_t> socket;       ///< socket (= ingress index) per datagram
  std::vector<std::uint32_t> first_slot;   ///< per datagram: first record's slot
  std::vector<std::uint16_t> records;      ///< per datagram: record count
  /// Socket-major record layout: socket s holds slots
  /// [socket_offsets[s], socket_offsets[s + 1]); slot_stream[slot] is the
  /// stream index of that record.
  std::vector<std::size_t> socket_offsets;
  std::vector<std::uint32_t> slot_stream;
};

struct Prepared {
  WorkloadSpec spec;
  infilter::sim::TestbedStream stream;
  /// stream.flows as engine inputs (ingress = arrival port, now = last).
  std::vector<infilter::core::FlowInput> inputs;
  std::vector<infilter::netflow::V5Record> training;
  infilter::core::EngineConfig engine;
  Datagrams datagrams;
  /// FNV-1a over every generated record, label, ingress and training
  /// record: equal hashes mean two commits replayed identical traffic.
  std::uint64_t content_hash = 0;
};

[[nodiscard]] Prepared prepare(const WorkloadSpec& spec);

/// Preloads the testbed's Table 3 EIA sets through `add(ingress, prefix)`.
template <class Add>
void preload_eia(const infilter::sim::ExperimentConfig& config, Add&& add);

/// Cheap record fingerprint for the verdict-to-record join check.
[[nodiscard]] std::uint64_t fingerprint(const infilter::netflow::V5Record& r);

}  // namespace perfbench

#include "dagflow/allocation.h"

template <class Add>
void perfbench::preload_eia(const infilter::sim::ExperimentConfig& config, Add&& add) {
  for (int s = 0; s < config.sources; ++s) {
    const auto port = static_cast<infilter::core::IngressId>(config.first_port + s);
    const auto range = infilter::dagflow::eia_range(s, config.blocks_per_source);
    for (int b = range.first.index(); b <= range.last.index(); ++b) {
      add(port, infilter::net::SubBlock{b}.prefix());
    }
  }
}
