// EIA scale sweep: exact interval sets at 10^5 / 10^6 / 10^7 learned /24s.
//
// One ingress learns a deterministic pseudo-random subset of the /24 space
// at each target scale. We record memory_bytes() and is_expected() ns/flow
// over a fixed probe stream that mixes learned and unlearned /24s at the
// sweep's density. The run is a regression gate (exit 1 on violation), not
// just a number printer: every probe's answer must equal the ground-truth
// membership of its /24, the set the table was built from.
//
// Usage:
//   eia_scale [--smoke] [--seed N] [--out BENCH_eia_scale.json]

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "core/eia.h"
#include "obs/export.h"
#include "util/args.h"
#include "util/rng.h"

using namespace infilter;

namespace {

constexpr core::IngressId kIngress = 9001;
constexpr std::uint32_t kSlash24Count = 1u << 24;

/// Deterministic membership: /24 index k is learned iff its hash clears
/// the density threshold. Ascending iteration gives the table its cheap
/// append-path inserts; at high density adjacent /24s coalesce into
/// ranges, exactly the merging a real deployment would see.
bool in_universe(std::uint64_t seed, std::uint32_t slash24, std::uint64_t target) {
  return (util::SplitMix64{seed ^ (0x5ca1eULL << 32) ^ slash24}.next() &
          (kSlash24Count - 1)) < target;
}

core::EiaTable build_table(std::uint64_t seed, std::uint64_t target,
                           std::uint64_t* learned) {
  core::EiaTable table;
  std::uint64_t count = 0;
  for (std::uint32_t k = 0; k < kSlash24Count; ++k) {
    if (!in_universe(seed, k, target)) continue;
    table.add_expected(kIngress, net::Prefix{net::IPv4Address{k << 8}, 24});
    ++count;
  }
  *learned = count;
  return table;
}

net::IPv4Address probe_address(std::uint64_t seed, std::uint64_t i) {
  return net::IPv4Address{static_cast<std::uint32_t>(
      util::SplitMix64{seed ^ (0xbe11ULL << 32) ^ i}.next())};
}

struct SweepRow {
  std::uint64_t scale = 0;
  std::uint64_t learned = 0;
  std::uint64_t ranges = 0;
  std::uint64_t memory_bytes = 0;
  double lookup_ns = 0;
  double hit_ratio = 0;
  std::uint64_t wrong_answers = 0;
};

/// Checks is_expected against ground truth over `probes` addresses (an
/// untimed pass that also warms the structure), then times a second pass.
void measure_lookups(core::EiaTable& table, std::uint64_t seed,
                     std::uint64_t probes, SweepRow& row) {
  for (std::uint64_t i = 0; i < probes; ++i) {
    const auto ip = probe_address(seed, i);
    const bool truth = in_universe(seed, ip.value() >> 8, row.scale);
    row.wrong_answers += table.is_expected(kIngress, ip, 0) != truth ? 1 : 0;
  }

  std::uint64_t hits = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < probes; ++i) {
    hits += table.is_expected(kIngress, probe_address(seed, i), 0) ? 1 : 0;
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  row.hit_ratio = static_cast<double>(hits) / static_cast<double>(probes);
  row.lookup_ns =
      static_cast<double>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()) /
      static_cast<double>(probes);
}

std::string sweep_row_json(const SweepRow& r) {
  std::string d = "    {\"mode\": \"exact@" + std::to_string(r.scale) + "\"";
  d += ", \"scale\": " + std::to_string(r.scale);
  d += ", \"learned_slash24s\": " + std::to_string(r.learned);
  d += ", \"ranges\": " + std::to_string(r.ranges);
  d += ", \"memory_bytes\": " + std::to_string(r.memory_bytes);
  d += ", \"lookup_ns_per_flow\": " + obs::format_number(r.lookup_ns);
  d += ", \"lookup_hit_ratio\": " + obs::format_number(r.hit_ratio);
  d += ", \"wrong_answers\": " + std::to_string(r.wrong_answers);
  d += "}";
  return d;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = util::Args::parse(argc, argv, {"smoke"});
  if (!parsed) {
    std::fprintf(stderr, "eia_scale: %s\n", parsed.error().message.c_str());
    return 1;
  }
  const auto& args = *parsed;
  const bool smoke = args.has("smoke");
  const auto seed = static_cast<std::uint64_t>(args.int_or("seed", 29));

  const std::vector<std::uint64_t> scales =
      smoke ? std::vector<std::uint64_t>{100000}
            : std::vector<std::uint64_t>{100000, 1000000, 10000000};
  const std::uint64_t probes = smoke ? (1ull << 19) : (1ull << 21);

  std::printf("=== EIA scale sweep (seed %llu, %llu probes/scale) ===\n",
              static_cast<unsigned long long>(seed),
              static_cast<unsigned long long>(probes));
  std::printf("%-16s %12s %12s %14s %10s %8s\n", "mode", "learned", "ranges", "memory",
              "ns/flow", "wrong");

  int failures = 0;
  std::vector<SweepRow> sweep;
  for (const std::uint64_t scale : scales) {
    SweepRow row;
    row.scale = scale;
    core::EiaTable table = build_table(seed, scale, &row.learned);
    row.ranges = table.total_ranges();
    row.memory_bytes = table.memory_bytes();
    measure_lookups(table, seed, probes, row);
    std::printf("exact@%-10llu %12llu %12llu %14llu %10.1f %8llu\n",
                static_cast<unsigned long long>(scale),
                static_cast<unsigned long long>(row.learned),
                static_cast<unsigned long long>(row.ranges),
                static_cast<unsigned long long>(row.memory_bytes), row.lookup_ns,
                static_cast<unsigned long long>(row.wrong_answers));
    if (row.wrong_answers != 0) {
      std::fprintf(stderr, "eia_scale: FAIL: exact@%llu answered %llu probes wrong\n",
                   static_cast<unsigned long long>(scale),
                   static_cast<unsigned long long>(row.wrong_answers));
      ++failures;
    }
    sweep.push_back(row);
  }

  std::string doc = "{\n  \"bench\": \"eia_scale\",\n";
  doc += "  \"seed\": " + std::to_string(seed) + ",\n";
  doc += "  \"smoke\": " + std::string(smoke ? "true" : "false") + ",\n";
  doc += "  \"probes_per_scale\": " + std::to_string(probes) + ",\n";
  doc += "  \"runs\": [\n";
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    doc += sweep_row_json(sweep[i]) + (i + 1 < sweep.size() ? ",\n" : "\n");
  }
  doc += "  ],\n";
  doc += "  \"failures\": " + std::to_string(failures) + "\n}\n";

  const auto out_path = args.value_or("out", "BENCH_eia_scale.json");
  std::ofstream out(out_path, std::ios::trunc);
  out << doc;
  if (!out) {
    std::fprintf(stderr, "eia_scale: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());
  return failures == 0 ? 0 : 1;
}
