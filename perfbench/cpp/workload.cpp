#include "workload.h"

#include <algorithm>

#include "dagflow/dagflow.h"
#include "netflow/v5.h"
#include "traffic/normal.h"

namespace perfbench {

using namespace infilter;

namespace {

/// Normal flows per testbed source, full size and smoke size.
struct Size {
  std::size_t full;
  std::size_t smoke;
};

sim::ExperimentConfig base_config(std::uint64_t seed, Size flows, bool smoke) {
  sim::ExperimentConfig config;
  config.seed = seed;
  config.normal_flows_per_source = smoke ? flows.smoke : flows.full;
  config.training_flows = smoke ? 600 : 1500;
  // 48 unary bits per flow statistic (d = 240), as bench/throughput runs.
  config.engine.cluster.bits_per_feature = 48;
  return config;
}

class Fnv {
 public:
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (v >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001b3ULL;
    }
  }
  void mix(const netflow::V5Record& r) {
    mix((std::uint64_t{r.src_ip.value()} << 32) | r.dst_ip.value());
    mix((std::uint64_t{r.next_hop.value()} << 32) | (std::uint64_t{r.input_if} << 16) |
        r.output_if);
    mix((std::uint64_t{r.packets} << 32) | r.bytes);
    mix((std::uint64_t{r.first} << 32) | r.last);
    mix((std::uint64_t{r.src_port} << 48) | (std::uint64_t{r.dst_port} << 32) |
        (std::uint64_t{r.ttl} << 24) | (std::uint64_t{r.tcp_flags} << 16) |
        (std::uint64_t{r.proto} << 8) | r.tos);
    mix((std::uint64_t{r.src_as} << 32) | (std::uint64_t{r.dst_as} << 16) |
        (std::uint64_t{r.src_mask} << 8) | r.dst_mask);
  }
  [[nodiscard]] std::uint64_t value() const { return hash_; }

 private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// The training trace sim::train_clusters would replay for this config: one
/// Dagflow instance over every used sub-block (Section 6.3).
std::vector<netflow::V5Record> training_records(const sim::ExperimentConfig& config) {
  util::Rng rng{config.seed ^ 0x7e51a11ULL};
  traffic::NormalTrafficModel model;
  const traffic::Trace trace = model.generate(config.training_flows, 0, rng);
  std::vector<net::SubBlock> blocks;
  for (int s = 0; s < config.sources; ++s) {
    for (const auto& block : dagflow::eia_range(s, config.blocks_per_source).expand()) {
      blocks.push_back(block);
    }
  }
  dagflow::Dagflow replayer(dagflow::DagflowConfig{.netflow_port = 8999},
                            dagflow::AddressPool::from_subblocks(blocks),
                            config.seed ^ 0xdaf1ULL);
  std::vector<netflow::V5Record> records;
  for (const auto& flow : replayer.replay(trace)) records.push_back(flow.record);
  return records;
}

Datagrams build_datagrams(const sim::ExperimentConfig& config,
                          const std::vector<dagflow::LabeledFlow>& flows) {
  const auto sockets = static_cast<std::size_t>(config.sources);
  // Pass 1: socket-major slot layout.
  std::vector<std::size_t> per_socket(sockets, 0);
  for (const auto& flow : flows) ++per_socket[flow.arrival_port - config.first_port];
  Datagrams out;
  out.socket_offsets.assign(sockets + 1, 0);
  for (std::size_t s = 0; s < sockets; ++s) {
    out.socket_offsets[s + 1] = out.socket_offsets[s] + per_socket[s];
  }
  out.slot_stream.resize(flows.size());

  // Pass 2: fill per-socket datagrams in stream order; a datagram leaves
  // when it holds kV5MaxRecords records or its socket has no more.
  std::vector<std::size_t> next_slot(out.socket_offsets.begin(),
                                     out.socket_offsets.end() - 1);
  std::vector<std::vector<netflow::V5Record>> pending(sockets);
  std::vector<std::uint32_t> sequence(sockets, 0);
  std::vector<std::size_t> remaining = per_socket;
  for (std::size_t i = 0; i < flows.size(); ++i) {
    const std::size_t s = flows[i].arrival_port - config.first_port;
    out.slot_stream[next_slot[s]++] = static_cast<std::uint32_t>(i);
    pending[s].push_back(flows[i].record);
    --remaining[s];
    if (pending[s].size() < netflow::kV5MaxRecords && remaining[s] > 0) continue;
    netflow::V5Header header;
    header.sys_uptime_ms = pending[s].back().last;
    header.flow_sequence = sequence[s];
    sequence[s] += static_cast<std::uint32_t>(pending[s].size());
    out.bytes.push_back(netflow::encode(header, pending[s]));
    out.socket.push_back(static_cast<std::uint16_t>(s));
    out.first_slot.push_back(
        static_cast<std::uint32_t>(next_slot[s] - pending[s].size()));
    out.records.push_back(static_cast<std::uint16_t>(pending[s].size()));
    pending[s].clear();
  }
  return out;
}

}  // namespace

WorkloadSpec make_spec(const std::string& name, std::uint64_t seed, bool smoke) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "wide_fused_replay") {
    // One ingress attacked at 2%, TTL detection fused with EIA, and 256
    // active /24s per block: hop-count state far beyond the caches.
    spec.config = base_config(seed, {100000, 2000}, smoke);
    spec.config.attack_volume = 0.02;
    spec.config.ttl_scenario = true;
    spec.config.engine.use_hopcount = true;
    spec.config.source_active_slash24s = 256;
    spec.offered_rps = 150000;
  } else if (name == "live_ingest") {
    // Two-source testbed exported as NetFlow v5 over loopback.
    spec.config = base_config(seed, {300000, 3000}, smoke);
    spec.config.sources = 2;
    spec.config.attack_volume = 0.02;
    spec.offered_rps = 100000;
    spec.over_udp = true;
  } else {
    spec.name.clear();
  }
  return spec;
}

std::uint64_t fingerprint(const netflow::V5Record& r) {
  return (std::uint64_t{r.src_ip.value()} << 32 | r.dst_ip.value()) ^
         (std::uint64_t{r.first} << 40) ^ (std::uint64_t{r.last} << 8) ^
         (std::uint64_t{r.src_port} << 16) ^ r.dst_port;
}

Prepared prepare(const WorkloadSpec& spec) {
  Prepared p;
  p.spec = spec;
  p.stream = sim::generate_stream(spec.config);
  p.inputs.reserve(p.stream.flows.size());
  Fnv hash;
  for (const auto& flow : p.stream.flows) {
    p.inputs.push_back(core::FlowInput{flow.record, flow.arrival_port,
                                       static_cast<util::TimeMs>(flow.record.last)});
    hash.mix(flow.record);
    hash.mix((std::uint64_t{flow.arrival_port} << 16) |
             (std::uint64_t{flow.attack} << 8) |
             static_cast<std::uint64_t>(flow.attack_kind));
  }
  p.training = training_records(spec.config);
  for (const auto& record : p.training) hash.mix(record);
  p.content_hash = hash.value();
  // The derivation sim::run_experiment uses.
  p.engine = spec.config.engine;
  p.engine.seed = spec.config.seed ^ 0xe191eULL;
  p.datagrams = build_datagrams(spec.config, p.stream.flows);
  return p;
}

}  // namespace perfbench
