// Throughput of the sharded detection runtime (src/runtime) against the
// serial batched engine on the same Section 6 testbed workload.
//
// The paper's prototype analyzed one POP's NetFlow feed on one CPU; the
// runtime is the piece that scales the identical pipeline across cores.
// This bench replays one generated testbed stream (sim::generate_stream)
// through (a) a single InFilterEngine calling process_batch() in 256-flow
// chunks -- the serial baseline -- and (b) a ShardedRuntime at several
// shard counts, and writes BENCH_throughput.json: records/sec, speedup vs
// the serial baseline, and the runtime's drop/backpressure counters.
// Speedups are only meaningful up to `hardware_threads` (reported in the
// JSON) -- on a single-core host every shard count serializes onto one CPU
// and the sharded numbers mostly measure dispatch overhead.
//
// Usage:
//   throughput [--smoke]            # small preset, used by the ctest entry
//              [--flows 5000]       # normal flows per testbed source
//              [--threads 1,2,4]    # shard counts to sweep
//              [--producers 2]      # concurrent submitters in the
//                                   # multi-producer run (equivalence-gated
//                                   # against a serial replay in the
//                                   # realized merge order)
//              [--source-dist uniform|zipf]  # zipf skews source /24
//                                   # popularity (shard imbalance becomes
//                                   # reproducible; see src/traffic/sources.h)
//              [--zipf-s 1.26] [--churn 0]   # zipf exponent / draws per
//                                   # hot-set rotation
//              [--queue-depth 4096]
//              [--out BENCH_throughput.json]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "dagflow/allocation.h"
#include "obs/export.h"
#include "runtime/runtime.h"
#include "sim/testbed.h"
#include "traffic/sources.h"
#include "util/args.h"

using namespace infilter;

namespace {

struct Measurement {
  int shards = 0;       ///< 0 = serial engine (process_batch)
  int producers = 0;    ///< concurrent submitters (sharded runs)
  double seconds = 0;
  double records_per_sec = 0;
  std::uint64_t attacks = 0;  ///< attack verdicts, a cross-check vs serial
  std::uint64_t dropped = 0;
  std::uint64_t backpressure_waits = 0;
  std::uint64_t batches = 0;
  std::uint64_t shard_peak_min = 0;  ///< min/max over shards of peak ring
  std::uint64_t shard_peak_max = 0;  ///< occupancy during the run
};

core::EngineConfig engine_config(const sim::ExperimentConfig& config) {
  // Mirrors sim::run_experiment so verdict counts line up with the
  // testbed's: same derived seed, same shared clusters.
  core::EngineConfig engine = config.engine;
  engine.seed = config.seed ^ 0xe191eULL;
  return engine;
}

Measurement run_serial_batch(const sim::ExperimentConfig& config,
                             const sim::TestbedStream& stream,
                             std::shared_ptr<const core::TrainedClusters> clusters) {
  core::InFilterEngine engine(engine_config(config));
  sim::preload_eia(config, engine);
  engine.set_clusters(std::move(clusters));

  constexpr std::size_t kBatch = 256;
  std::vector<core::FlowInput> inputs(kBatch);
  std::vector<core::Verdict> verdicts(kBatch);

  Measurement m;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t begin = 0; begin < stream.flows.size();) {
    const std::size_t n = std::min(kBatch, stream.flows.size() - begin);
    for (std::size_t i = 0; i < n; ++i) {
      const auto& flow = stream.flows[begin + i];
      inputs[i].record = flow.record;
      inputs[i].ingress = flow.arrival_port;
      inputs[i].now = static_cast<util::TimeMs>(flow.record.last);
    }
    engine.process_batch(std::span(inputs).first(n), std::span(verdicts).first(n));
    for (std::size_t i = 0; i < n; ++i) m.attacks += verdicts[i].attack ? 1 : 0;
    begin += n;
  }
  m.seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  m.records_per_sec =
      m.seconds > 0 ? static_cast<double>(stream.flows.size()) / m.seconds : 0;
  return m;
}

Measurement run_sharded(const sim::ExperimentConfig& config,
                        const sim::TestbedStream& stream, int shards,
                        std::size_t queue_depth,
                        std::shared_ptr<const core::TrainedClusters> clusters) {
  runtime::RuntimeConfig runtime_config;
  runtime_config.shards = shards;
  runtime_config.queue_depth = queue_depth;
  runtime_config.engine = engine_config(config);
  std::atomic<std::uint64_t> attacks{0};
  runtime::ShardedRuntime rt(
      runtime_config, nullptr,
      [&](const runtime::FlowItem&, const core::Verdict& verdict) {
        if (verdict.attack) attacks.fetch_add(1, std::memory_order_relaxed);
      });
  sim::preload_eia(config, rt);
  rt.set_clusters(std::move(clusters));

  // Batched dispatch, like a collector draining a socket buffer.
  constexpr std::size_t kDispatchBatch = 512;
  std::vector<runtime::FlowItem> batch;
  batch.reserve(kDispatchBatch);

  Measurement m;
  m.shards = shards;
  const auto start = std::chrono::steady_clock::now();
  for (const auto& flow : stream.flows) {
    batch.push_back(runtime::FlowItem{flow.record, flow.arrival_port,
                                      static_cast<util::TimeMs>(flow.record.last), 0});
    if (batch.size() == kDispatchBatch) {
      rt.submit_batch(batch);
      batch.clear();
    }
  }
  if (!batch.empty()) rt.submit_batch(batch);
  rt.flush();
  m.seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  m.records_per_sec =
      m.seconds > 0 ? static_cast<double>(stream.flows.size()) / m.seconds : 0;
  m.attacks = attacks.load(std::memory_order_relaxed);

  const auto stats = rt.stats();
  m.producers = static_cast<int>(rt.producer_count());
  m.dropped = stats.dropped;
  m.backpressure_waits = stats.backpressure_waits;
  m.batches = stats.batches;
  const auto peaks = rt.shard_queue_peaks();
  if (!peaks.empty()) {
    m.shard_peak_min = *std::min_element(peaks.begin(), peaks.end());
    m.shard_peak_max = *std::max_element(peaks.begin(), peaks.end());
  }
  return m;
}

/// Multi-producer run: `producers` threads submit disjoint round-robin
/// slices of the stream concurrently into the same shard rings. The
/// runtime's claim order (FlowItem::seq) defines the realized total
/// order; replaying the stream serially in exactly that order must give
/// element-wise identical attack verdicts -- the multi-producer merge
/// adds interleaving freedom but no verdict drift.
Measurement run_sharded_mp(const sim::ExperimentConfig& config,
                           const sim::TestbedStream& stream, int shards,
                           int producers, std::size_t queue_depth,
                           std::shared_ptr<const core::TrainedClusters> clusters,
                           bool* equivalent) {
  runtime::RuntimeConfig runtime_config;
  runtime_config.shards = shards;
  runtime_config.producers = producers;
  runtime_config.queue_depth = queue_depth;
  runtime_config.engine = engine_config(config);
  const std::size_t n = stream.flows.size();
  // Indexed by tag (= stream index); each tag is written by exactly one
  // verdict-hook call, so plain vectors are race-free.
  std::vector<std::uint64_t> seq_of(n, 0);
  std::vector<std::uint8_t> attack_of(n, 0);
  runtime::ShardedRuntime rt(
      runtime_config, nullptr,
      [&](const runtime::FlowItem& item, const core::Verdict& verdict) {
        seq_of[item.tag] = item.seq;
        attack_of[item.tag] = verdict.attack ? 1 : 0;
      });
  sim::preload_eia(config, rt);
  rt.set_clusters(clusters);

  Measurement m;
  m.shards = shards;
  const auto start = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> submitters;
    submitters.reserve(static_cast<std::size_t>(producers));
    for (int p = 0; p < producers; ++p) {
      submitters.emplace_back([&, p] {
        constexpr std::size_t kDispatchBatch = 512;
        std::vector<runtime::FlowItem> batch;
        batch.reserve(kDispatchBatch);
        for (std::size_t i = static_cast<std::size_t>(p); i < n;
             i += static_cast<std::size_t>(producers)) {
          const auto& flow = stream.flows[i];
          batch.push_back(runtime::FlowItem{
              flow.record, flow.arrival_port,
              static_cast<util::TimeMs>(flow.record.last), i});
          if (batch.size() == kDispatchBatch) {
            rt.submit_batch(batch, p);
            batch.clear();
          }
        }
        if (!batch.empty()) rt.submit_batch(batch, p);
      });
    }
    for (auto& t : submitters) t.join();
  }
  rt.flush();
  m.seconds = std::chrono::duration<double>(
                  std::chrono::steady_clock::now() - start)
                  .count();
  m.records_per_sec = m.seconds > 0 ? static_cast<double>(n) / m.seconds : 0;
  for (const auto a : attack_of) m.attacks += a;

  const auto stats = rt.stats();
  m.producers = static_cast<int>(rt.producer_count());
  m.dropped = stats.dropped;
  m.backpressure_waits = stats.backpressure_waits;
  m.batches = stats.batches;
  const auto peaks = rt.shard_queue_peaks();
  if (!peaks.empty()) {
    m.shard_peak_min = *std::min_element(peaks.begin(), peaks.end());
    m.shard_peak_max = *std::max_element(peaks.begin(), peaks.end());
  }

  // Equivalence gate: serial replay in realized claim order.
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return seq_of[a] < seq_of[b]; });
  core::InFilterEngine replay(engine_config(config));
  sim::preload_eia(config, replay);
  replay.set_clusters(std::move(clusters));
  bool identical = true;
  for (const auto i : order) {
    const auto& flow = stream.flows[i];
    const auto verdict =
        replay.process(flow.record, flow.arrival_port, flow.record.last);
    if ((verdict.attack ? 1 : 0) != attack_of[i]) {
      identical = false;
      break;
    }
  }
  if (equivalent != nullptr) *equivalent = identical;
  return m;
}

std::string to_json(const Measurement& m, double serial_rps) {
  std::string out = "    {";
  if (m.shards > 0) {
    out += m.producers > 1 ? "\"mode\": \"sharded_multi_producer\""
                           : "\"mode\": \"sharded\"";
    out += ", \"shards\": " + std::to_string(m.shards);
    out += ", \"producers\": " + std::to_string(m.producers);
  } else {
    out += "\"mode\": \"serial_batch\"";
  }
  out += ", \"seconds\": " + obs::format_number(m.seconds);
  out += ", \"records_per_sec\": " + obs::format_number(m.records_per_sec);
  if (m.shards > 0 && serial_rps > 0) {
    out += ", \"speedup_vs_serial\": " +
           obs::format_number(m.records_per_sec / serial_rps);
    out += ", \"dropped\": " + obs::format_number(static_cast<double>(m.dropped));
    out += ", \"backpressure_waits\": " +
           obs::format_number(static_cast<double>(m.backpressure_waits));
    out += ", \"worker_batches\": " +
           obs::format_number(static_cast<double>(m.batches));
  }
  if (m.shards > 0) {
    out += ", \"shard_queue_peak_min\": " + std::to_string(m.shard_peak_min);
    out += ", \"shard_queue_peak_max\": " + std::to_string(m.shard_peak_max);
  }
  out += ", \"attack_verdicts\": " +
         obs::format_number(static_cast<double>(m.attacks));
  out += "}";
  return out;
}

/// Rewrites each flow's source /24 by Zipf(s)-ranked popularity over the
/// distinct /24s its ingress already uses, keeping the host byte. Sources
/// stay inside the same expected EIA blocks -- only how often each /24
/// appears changes -- so shard imbalance (shard_of keys on the source
/// /24) becomes reproducible without moving traffic between EIA sets.
void apply_source_skew(sim::TestbedStream& stream, double zipf_s,
                       std::size_t churn_every, std::uint64_t seed) {
  std::map<std::uint16_t, std::vector<std::uint32_t>> slash24s_by_port;
  {
    std::map<std::uint16_t, std::unordered_set<std::uint32_t>> seen;
    for (const auto& flow : stream.flows) {
      const auto slash24 = flow.record.src_ip.value() & 0xFFFFFF00u;
      if (seen[flow.arrival_port].insert(slash24).second) {
        slash24s_by_port[flow.arrival_port].push_back(slash24);
      }
    }
  }
  std::map<std::uint16_t, traffic::ZipfSourceModel> models;
  for (const auto& [port, list] : slash24s_by_port) {
    models.emplace(port,
                   traffic::ZipfSourceModel(
                       list.size(),
                       traffic::SourceSkewConfig{zipf_s, churn_every},
                       seed ^ port));
  }
  util::Rng rng{seed};
  for (auto& flow : stream.flows) {
    const auto& list = slash24s_by_port[flow.arrival_port];
    const auto index = models.at(flow.arrival_port).draw(rng);
    flow.record.src_ip =
        net::IPv4Address{list[index] | (flow.record.src_ip.value() & 0xFFu)};
  }
}

std::vector<int> parse_thread_counts(const std::string& spec) {
  std::vector<int> counts;
  std::size_t at = 0;
  while (at <= spec.size()) {
    const auto comma = spec.find(',', at);
    const auto token = spec.substr(
        at, comma == std::string::npos ? std::string::npos : comma - at);
    if (const int n = std::atoi(token.c_str()); n > 0) counts.push_back(n);
    if (comma == std::string::npos) break;
    at = comma + 1;
  }
  return counts;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = util::Args::parse(argc, argv, {"smoke"});
  if (!parsed) {
    std::fprintf(stderr, "throughput: %s\n", parsed.error().message.c_str());
    return 1;
  }
  const auto& args = *parsed;
  const bool smoke = args.has("smoke");

  sim::ExperimentConfig config;
  config.seed = 33;
  config.engine.cluster.bits_per_feature = 48;
  config.normal_flows_per_source = static_cast<std::size_t>(
      args.int_or("flows", smoke ? 400 : 5000));
  config.training_flows = smoke ? 300 : 1500;
  config.attack_volume = 0.04;
  config.attacked_ingresses = config.sources;

  const auto thread_counts =
      parse_thread_counts(args.value_or("threads", smoke ? "1,2" : "1,2,4"));
  const auto queue_depth =
      static_cast<std::size_t>(args.int_or("queue-depth", 4096));
  const int producers =
      std::max(1, static_cast<int>(args.int_or("producers", 2)));
  const auto source_dist = args.value_or("source-dist", "uniform");
  if (source_dist != "uniform" && source_dist != "zipf") {
    std::fprintf(stderr, "throughput: --source-dist must be uniform or zipf\n");
    return 1;
  }
  const double zipf_s = std::atof(args.value_or("zipf-s", "1.26").c_str());
  const auto churn = static_cast<std::size_t>(args.int_or("churn", 0));

  std::printf("generating testbed stream (%zu flows/source)...\n",
              config.normal_flows_per_source);
  auto stream = sim::generate_stream(config);
  if (source_dist == "zipf") {
    apply_source_skew(stream, zipf_s, churn, config.seed);
    std::printf("source skew: zipf(s=%.2f), churn every %zu draws\n", zipf_s,
                churn);
  }
  const auto clusters = sim::train_clusters(config);
  std::printf("replaying %zu records\n", stream.flows.size());

  const auto serial = run_serial_batch(config, stream, clusters);
  std::printf("serial_batch: %.0f records/sec (%llu attack verdicts)\n",
              serial.records_per_sec,
              static_cast<unsigned long long>(serial.attacks));

  std::vector<Measurement> sharded;
  for (const int shards : thread_counts) {
    sharded.push_back(run_sharded(config, stream, shards, queue_depth, clusters));
    const auto& m = sharded.back();
    std::printf("sharded x%d: %.0f records/sec (%.2fx serial, %llu attack verdicts)\n",
                m.shards, m.records_per_sec,
                serial.records_per_sec > 0 ? m.records_per_sec / serial.records_per_sec
                                           : 0.0,
                static_cast<unsigned long long>(m.attacks));
  }

  // Multi-producer run at the widest shard count, gated on element-wise
  // equivalence with a serial replay in the realized claim order.
  const int mp_shards = thread_counts.empty() ? 2 : thread_counts.back();
  bool mp_equivalent = false;
  const auto mp = run_sharded_mp(config, stream, mp_shards, producers,
                                 queue_depth, clusters, &mp_equivalent);
  std::printf(
      "sharded x%d / %d producers: %.0f records/sec (%llu attack verdicts, "
      "shard peaks %llu..%llu, replay-equivalent: %s)\n",
      mp.shards, mp.producers, mp.records_per_sec,
      static_cast<unsigned long long>(mp.attacks),
      static_cast<unsigned long long>(mp.shard_peak_min),
      static_cast<unsigned long long>(mp.shard_peak_max),
      mp_equivalent ? "yes" : "NO");

  std::string doc = "{\n  \"bench\": \"throughput\",\n";
  doc += "  \"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency()) + ",\n";
  doc += "  \"records\": " + std::to_string(stream.flows.size()) + ",\n";
  doc += "  \"source_dist\": \"" + source_dist + "\",\n";
  if (source_dist == "zipf") {
    doc += "  \"zipf_s\": " + obs::format_number(zipf_s) + ",\n";
    doc += "  \"churn_every\": " + std::to_string(churn) + ",\n";
  }
  doc += "  \"runs\": [\n";
  doc += to_json(serial, 0);
  for (const auto& m : sharded) {
    doc += ",\n" + to_json(m, serial.records_per_sec);
  }
  doc += ",\n" + to_json(mp, serial.records_per_sec);
  doc += "\n  ]\n}\n";

  const auto out_path = args.value_or("out", "BENCH_throughput.json");
  std::ofstream out(out_path, std::ios::trunc);
  out << doc;
  if (!out) {
    std::fprintf(stderr, "throughput: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());

  // Correctness gates (perf ratios stay informational on small hosts).
  if (!mp_equivalent) {
    std::fprintf(stderr,
                 "FAIL: multi-producer verdicts diverged from the serial "
                 "replay in realized claim order\n");
    return 1;
  }
  if (mp.dropped != 0) {
    std::fprintf(stderr, "FAIL: multi-producer run dropped %llu flows under kBlock\n",
                 static_cast<unsigned long long>(mp.dropped));
    return 1;
  }
  return 0;
}
