// Ablation: the KOR approximate NNS vs an exact linear scan, and the
// sensitivity of the structure to its parameters (M2, M3, d).
//
// DESIGN.md calls out the approximate structure as a core design choice:
// [KOR] buys sub-linear search at the cost of approximation. This bench
// quantifies both sides on the engine's real flow encoding:
//   * accuracy: how often the approximate neighbor's distance leads to the
//     same anomalous/normal decision as the exact neighbor's;
//   * speed: per-query latency of KOR vs exact scan as training grows;
//   * memory: table bytes vs M2;
//   * batching: assess_batch() (level-synchronous probing over the SoA
//     tables, arena-backed encoding) vs per-flow assess() on a testbed
//     stream, plus a steady-state heap-allocation count proving the batch
//     encode path does zero per-flow allocations. The batch section writes
//     BENCH_nns_batch.json.
//
// Usage:
//   nns_ablation [--smoke]             # batch section only, small preset
//                [--out BENCH_nns_batch.json]

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/cluster.h"
#include "dagflow/dagflow.h"
#include "obs/export.h"
#include "sim/testbed.h"
#include "traffic/attacks.h"
#include "traffic/normal.h"
#include "util/args.h"

#include "heap_counter.h"

using namespace infilter;
using Clock = std::chrono::steady_clock;

namespace {

std::vector<netflow::V5Record> flows_from_trace(const traffic::Trace& trace,
                                                std::uint64_t seed) {
  dagflow::Dagflow replayer(
      dagflow::DagflowConfig{},
      dagflow::AddressPool::from_subblocks({*net::SubBlock::parse("1a")}), seed);
  std::vector<netflow::V5Record> records;
  for (const auto& labeled : replayer.replay(trace)) records.push_back(labeled.record);
  return records;
}

struct Evaluation {
  double agreement = 0;   // same verdict as exact, over all queries
  double detect_rate = 0; // anomalous verdicts on attack flows
  double pass_rate = 0;   // normal verdicts on normal flows
  double us_per_query = 0;
};

Evaluation evaluate(const core::ClusterConfig& config,
                    const std::vector<netflow::V5Record>& training,
                    const std::vector<netflow::V5Record>& normal_queries,
                    const std::vector<netflow::V5Record>& attack_queries) {
  core::TrainedClusters approx(training, config, 101);
  core::ClusterConfig exact_config = config;
  exact_config.use_exact_nns = true;
  core::TrainedClusters exact(training, exact_config, 101);

  util::Rng rng{7};
  Evaluation out;
  int agree = 0;
  int total = 0;
  int detected = 0;
  int passed = 0;

  const auto start = Clock::now();
  for (const auto& query : normal_queries) {
    const bool a = approx.assess(query, rng).anomalous;
    const bool e = exact.assess(query, rng).anomalous;
    agree += (a == e) ? 1 : 0;
    passed += a ? 0 : 1;
    ++total;
  }
  for (const auto& query : attack_queries) {
    const bool a = approx.assess(query, rng).anomalous;
    const bool e = exact.assess(query, rng).anomalous;
    agree += (a == e) ? 1 : 0;
    detected += a ? 1 : 0;
    ++total;
  }
  const auto elapsed =
      std::chrono::duration<double, std::micro>(Clock::now() - start).count();

  out.agreement = static_cast<double>(agree) / total;
  out.detect_rate = static_cast<double>(detected) / attack_queries.size();
  out.pass_rate = static_cast<double>(passed) / normal_queries.size();
  out.us_per_query = elapsed / total / 2;  // two assessments per query
  return out;
}

int benchmarkish_sink = 0;

double time_queries(const core::TrainedClusters& clusters,
                    const std::vector<netflow::V5Record>& queries) {
  util::Rng rng{9};
  const auto start = Clock::now();
  for (const auto& query : queries) {
    benchmarkish_sink += clusters.assess(query, rng).distance;
  }
  return std::chrono::duration<double, std::micro>(Clock::now() - start).count() /
         static_cast<double>(queries.size());
}

struct BatchTiming {
  std::size_t records = 0;
  std::size_t batch_size = 0;
  double per_flow_us = 0;     // assess() per query
  double batch_us = 0;        // assess_batch() per query
  std::uint64_t steady_allocs = 0;  // heap allocations in a warm batch pass
  std::size_t steady_flows = 0;     // flows covered by that pass
};

/// Same per-query RNG seeding on both paths so the comparison times the
/// identical probe schedule (matching the engine's per-flow seed scheme).
util::Rng query_rng(std::size_t i) { return util::Rng{0x9e90 + 7 * i}; }

BatchTiming measure_batch(const sim::ExperimentConfig& config,
                          std::size_t batch_size) {
  const auto stream = sim::generate_stream(config);
  const auto clusters = sim::train_clusters(config);

  std::vector<netflow::V5Record> records;
  records.reserve(stream.flows.size());
  for (const auto& flow : stream.flows) records.push_back(flow.record);

  BatchTiming t;
  t.records = records.size();
  t.batch_size = batch_size;

  // Per-flow reference path: one assess() per record.
  long long sink = 0;
  {
    const auto start = Clock::now();
    for (std::size_t i = 0; i < records.size(); ++i) {
      auto rng = query_rng(i);
      sink += clusters->assess(records[i], rng).distance;
    }
    t.per_flow_us =
        std::chrono::duration<double, std::micro>(Clock::now() - start).count() /
        static_cast<double>(records.size());
  }

  // Batched path: reused scratch, chunks of batch_size.
  core::TrainedClusters::BatchScratch scratch;
  std::vector<util::Rng> rngs(batch_size, util::Rng{0});
  std::vector<core::TrainedClusters::Assessment> out(batch_size);
  const auto run_batched = [&] {
    for (std::size_t begin = 0; begin < records.size();) {
      const std::size_t n = std::min(batch_size, records.size() - begin);
      for (std::size_t i = 0; i < n; ++i) rngs[i] = query_rng(begin + i);
      clusters->assess_batch(std::span(records).subspan(begin, n),
                             std::span(rngs).first(n),
                             std::span(out).first(n), scratch);
      for (std::size_t i = 0; i < n; ++i) sink += out[i].distance;
      begin += n;
    }
  };
  {
    const auto start = Clock::now();
    run_batched();
    t.batch_us =
        std::chrono::duration<double, std::micro>(Clock::now() - start).count() /
        static_cast<double>(records.size());
  }

  // Steady-state allocation probe: the first pass grew the arena pools, so
  // a second pass over the same stream must not touch the heap at all.
  {
    const auto before = bench::heap_allocs();
    run_batched();
    t.steady_allocs = bench::heap_allocs() - before;
    t.steady_flows = records.size();
  }

  if (sink == 42) std::printf("(sink)\n");  // defeat dead-code elimination
  return t;
}

int run_batch_section(const util::Args& args, bool smoke) {
  sim::ExperimentConfig config;
  config.seed = 33;
  // Full runs measure at the paper's d=720 operating point (where the NNS
  // stage actually hurts, per Section 6.4); smoke shrinks to d=240.
  config.engine.cluster.bits_per_feature = smoke ? 48 : 144;
  config.normal_flows_per_source =
      static_cast<std::size_t>(args.int_or("flows", smoke ? 300 : 3000));
  config.training_flows = smoke ? 300 : 1500;
  config.attack_volume = 0.04;
  config.attacked_ingresses = config.sources;

  const auto batch_size =
      static_cast<std::size_t>(args.int_or("batch", 256));
  std::printf("=== batched vs per-flow NNS on the testbed stream ===\n");
  const auto t = measure_batch(config, batch_size);
  const double speedup = t.batch_us > 0 ? t.per_flow_us / t.batch_us : 0;
  std::printf("%zu records, batch=%zu\n", t.records, t.batch_size);
  std::printf("per-flow assess:   %.2f us/flow\n", t.per_flow_us);
  std::printf("assess_batch:      %.2f us/flow (%.2fx)\n", t.batch_us, speedup);
  std::printf("steady-state heap allocations over %zu flows: %llu\n",
              t.steady_flows,
              static_cast<unsigned long long>(t.steady_allocs));

  std::string doc = "{\n  \"bench\": \"nns_batch\",\n";
  doc += "  \"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency()) + ",\n";
  doc += "  \"records\": " + std::to_string(t.records) + ",\n";
  doc += "  \"batch_size\": " + std::to_string(t.batch_size) + ",\n";
  doc += "  \"per_flow_us_per_query\": " + obs::format_number(t.per_flow_us) + ",\n";
  doc += "  \"batch_us_per_query\": " + obs::format_number(t.batch_us) + ",\n";
  doc += "  \"speedup_batch_vs_per_flow\": " + obs::format_number(speedup) + ",\n";
  doc += "  \"steady_state_heap_allocs\": " + std::to_string(t.steady_allocs) + ",\n";
  doc += "  \"steady_state_flows\": " + std::to_string(t.steady_flows) + "\n}\n";

  const auto out_path = args.value_or("out", "BENCH_nns_batch.json");
  std::ofstream out(out_path, std::ios::trunc);
  out << doc;
  if (!out) {
    std::fprintf(stderr, "nns_ablation: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return 0;
}

void run_ablation_sections() {
  traffic::NormalTrafficModel model;
  util::Rng rng{55};
  const auto training = flows_from_trace(model.generate(2000, 0, rng), 1);
  const auto normal_queries = flows_from_trace(model.generate(400, 0, rng), 2);
  traffic::AttackConfig attack_config;
  attack_config.companion_fraction = 0;
  const auto attack_queries =
      flows_from_trace(traffic::generate_attack_set(attack_config, 0, 60000, rng), 3);

  std::printf("=== KOR vs exact NNS: verdict agreement on real flow encodings ===\n");
  std::printf("training %zu flows, %zu normal + %zu attack queries\n\n",
              training.size(), normal_queries.size(), attack_queries.size());

  std::printf("--- M3 sweep (registration ball radius), d=720, M2=12 ---\n");
  std::printf("%-6s %-12s %-12s %-12s\n", "M3", "agreement", "detect", "pass-normal");
  for (const int m3 : {1, 2, 3, 4}) {
    core::ClusterConfig config;
    config.kor.m3 = m3;
    const auto eval = evaluate(config, training, normal_queries, attack_queries);
    std::printf("%-6d %10.1f%% %10.1f%% %10.1f%%\n", m3, 100 * eval.agreement,
                100 * eval.detect_rate, 100 * eval.pass_rate);
  }

  std::printf("\n--- M2 sweep (trace width / table size), d=720, M3=3 ---\n");
  std::printf("%-6s %-12s %-12s %-14s\n", "M2", "agreement", "detect", "table MiB");
  for (const int m2 : {8, 10, 12, 14}) {
    core::ClusterConfig config;
    config.kor.m2 = m2;
    const auto eval = evaluate(config, training, normal_queries, attack_queries);
    // Size probe: one subcluster structure at this M2.
    std::vector<nns::BitVector> sample;
    const auto encoder = core::make_flow_encoder(config.bits_per_feature);
    for (std::size_t i = 0; i < std::min<std::size_t>(300, training.size()); ++i) {
      sample.push_back(
          encoder.encode(flowtools::FlowStats::from_record(training[i]).as_array()));
    }
    nns::KorParams params = config.kor;
    const nns::KorNns probe(sample, params);
    std::printf("%-6d %10.1f%% %10.1f%% %12.1f\n", m2, 100 * eval.agreement,
                100 * eval.detect_rate,
                static_cast<double>(probe.table_bytes()) / (1024.0 * 1024.0));
  }

  std::printf("\n--- d sweep (unary bits per flow), M2=12, M3=3 ---\n");
  std::printf("%-6s %-12s %-12s %-12s\n", "d", "agreement", "detect", "pass-normal");
  for (const int bits : {40, 80, 144, 200}) {
    core::ClusterConfig config;
    config.bits_per_feature = bits;
    const auto eval = evaluate(config, training, normal_queries, attack_queries);
    std::printf("%-6d %10.1f%% %10.1f%% %10.1f%%\n", bits * 5, 100 * eval.agreement,
                100 * eval.detect_rate, 100 * eval.pass_rate);
  }

  std::printf("\n--- query latency: KOR binary search vs exact linear scan ---\n");
  std::printf("%-10s %-14s %-14s\n", "training", "KOR us/query", "exact us/query");
  for (const std::size_t n : {std::size_t{250}, std::size_t{1000}, std::size_t{2000}}) {
    const std::vector<netflow::V5Record> subset(
        training.begin(), training.begin() + static_cast<std::ptrdiff_t>(n));
    core::ClusterConfig config;
    const core::TrainedClusters kor(subset, config, 77);
    core::ClusterConfig exact_config;
    exact_config.use_exact_nns = true;
    const core::TrainedClusters exact(subset, exact_config, 77);
    std::printf("%-10zu %12.1f %14.1f\n", n, time_queries(kor, normal_queries),
                time_queries(exact, normal_queries));
  }
  std::printf("\n(sink: %d)\n", benchmarkish_sink);
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = util::Args::parse(argc, argv, {"smoke"});
  if (!parsed) {
    std::fprintf(stderr, "nns_ablation: %s\n", parsed.error().message.c_str());
    return 1;
  }
  const auto& args = *parsed;
  const bool smoke = args.has("smoke");
  // Smoke mode (the ctest entry) runs only the batch section; the full
  // parameter ablation takes minutes and is invoked manually.
  if (!smoke) run_ablation_sections();
  return run_batch_section(args, smoke);
}
