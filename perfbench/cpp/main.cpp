// perfbench: the InFilter repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--smoke] [--out-dir DIR]
//
// Generates the named workload from the seed (untimed), then measures, in
// S seconds, the system through its public entry points only:
//   serial   InFilterEngine::process_batch on one thread (serial_rps);
//   replay   ShardedRuntime::submit_batch + flush, 2 shards, 1 producer,
//            kBlock, default queue depth, closed loop (replay_rps);
//   latency  open loop at a fixed record rate, from each record's
//            scheduled send time to its VerdictHook call -- over loopback
//            UDP into an IngestPipeline for live_ingest, straight into a
//            one-shard runtime otherwise (verdict_p50_us; the traced run
//            reports the p99).
// Every verdict is checked: sharded verdicts must equal the serial pass
// element by element, and every record offered to the latency phase must
// get exactly one verdict. With --trace 1 the run instead reports the
// per-layer ledger (layers.cpp) and writes its spans as Chrome trace JSON.
// The last line of stdout is the JSON result object.

#include <malloc.h>
#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "flowtools/udp.h"
#include "ingest/ingest.h"
#include "runtime/affinity.h"
#include "runtime/runtime.h"
#include "stats.h"
#include "util/args.h"

using namespace infilter;
namespace pb = perfbench;

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#ifdef NDEBUG
constexpr bool kDebugBuild = false;
#else
constexpr bool kDebugBuild = true;
#endif

using Clusters = std::shared_ptr<const core::TrainedClusters>;

constexpr std::size_t kSerialBatch = 256;  ///< process_batch chunk (the testbed's)
constexpr std::size_t kSubmitBatch = 512;  ///< submit_batch chunk, closed loop
/// Open-loop batch of the direct latency phase. Two records every 13 us at
/// 150k records/s keep the shard worker inside its spin-before-park window
/// (64 yields), so a record's latency is the hand-off and its processing.
/// With 30-record batches every 200 us the worker parked before each one,
/// and the wake-up of a halted vCPU, which the hypervisor schedules,
/// spread verdict_p50_us by 0.29 of its median over ten seeds.
constexpr std::size_t kPacedBatch = 2;
constexpr int kReplayShards = 2;
/// Set-up repeats before the measured passes; an untraced run adds
/// kSetupPerPass more between its passes, so the median samples the whole
/// run. Back to back at the start, the median of 41 was bimodal from process
/// to process (13 or 18 ms on the same seed), with the stretch of machine
/// time the first second fell in.
constexpr int kSetupRepeats = 9;
constexpr int kSetupPerPass = 2;
/// The latency phase gets at most this share of --seconds and ends sooner
/// once the whole stream is offered; the alternating serial/replay passes
/// get the rest.
constexpr double kLatencyShare = 0.4;
/// Serial passes are timed per segment of this many process_batch chunks
/// (8192 records), on the thread's CPU clock; serial_rps sums each
/// segment's fastest time across the passes (stats.h: segment_min_sum).
constexpr std::size_t kSegmentBatches = 32;
/// Thread placement on hosts with at least four CPUs: this thread (serial
/// passes, the replay producer, the open-loop sender) on CPU 3, runtime
/// workers on CPUs 1 and 2 and the scan thread on CPU 0, which takes most
/// of the interrupts. Unpinned, the scheduler's placement of two workers
/// and a producer on four CPUs changed replay_rps by up to a fifth from
/// process to process.
constexpr int kPinnedCpus = 4;
bool pinned() { return std::thread::hardware_concurrency() >= kPinnedCpus; }
/// Freed memory stays mapped: every pass builds its state tables afresh, and
/// with glibc's default trimming the pages given back between passes had to
/// be faulted in again, at a cost that varied with the host's memory
/// pressure. Retaining them halved the run-to-run spread of serial_rps and
/// replay_rps on wide_fused_replay on the 4-vCPU guest.
constexpr int kMmapThreshold = 32 << 20;  // glibc's largest allowed value
constexpr int kTrimThreshold = 1 << 30;

double seconds_since(std::uint64_t start_ns) {
  return static_cast<double>(pb::now_ns() - start_ns) / 1e9;
}

/// This thread's CPU time. Kernels with paravirtual steal accounting leave
/// out the time the hypervisor ran other guests on this vCPU, and no kernel
/// counts the time this thread waited for another one.
std::uint64_t thread_cpu_ns() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

double rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  double pages_total = 0;
  double pages_resident = 0;
  statm >> pages_total >> pages_resident;
  return pages_resident * static_cast<double>(::sysconf(_SC_PAGESIZE));
}

/// Sleeps, then spins for the last few microseconds, until the steady
/// clock reads `deadline_ns`. main() sets a 1 us timer slack, so the sleep
/// overshoots by microseconds rather than the default 50 us.
void wait_until(std::uint64_t deadline_ns) {
  for (;;) {
    const std::uint64_t now = pb::now_ns();
    if (now >= deadline_ns) return;
    if (deadline_ns - now > 50'000) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(deadline_ns - now - 30'000));
    }
  }
}

struct Run {
  const pb::Prepared& p;
  Clusters clusters;
  pb::Report& report;
  pb::SpanLog* spans = nullptr;  ///< null in untraced runs
  double rss_peak = 0;
  void note_rss() { rss_peak = std::max(rss_peak, rss_bytes()); }
};

template <class Target>
void preload(const pb::Prepared& p, Target& target) {
  pb::preload_eia(p.spec.config, [&](core::IngressId ingress, const net::Prefix& prefix) {
    target.add_expected(ingress, prefix);
  });
}

std::size_t count_mismatches(const std::vector<core::Verdict>& got,
                             const std::vector<core::Verdict>& want, std::size_t n) {
  std::size_t bad = 0;
  for (std::size_t i = 0; i < n; ++i) bad += pb::same_verdict(got[i], want[i]) ? 0 : 1;
  return bad;
}

// ---------------------------------------------------------------------------
// Set-up: clusters trained, runtime constructed, EIA preloaded, receivers
// started -- the bring-up of the latency phase's system.
// ---------------------------------------------------------------------------

runtime::RuntimeConfig runtime_config(const pb::Prepared& p, int shards, int producers) {
  runtime::RuntimeConfig config;
  config.shards = shards;
  config.producers = producers;
  config.engine = p.engine;
  if (pinned()) config.cpu_set = {1, 2, 0};
  return config;
}

/// The latency phase's runtime: one shard, so a verdict never waits on
/// another shard's progress; over UDP, one producer per receiver.
runtime::RuntimeConfig latency_runtime_config(const pb::Prepared& p) {
  return runtime_config(p, 1, p.spec.over_udp ? p.spec.config.sources : 1);
}

ingest::IngestConfig ingest_config(const pb::Prepared& p) {
  ingest::IngestConfig config;
  const auto sockets = static_cast<std::size_t>(p.spec.config.sources);
  config.ports.assign(sockets, 0);
  for (std::size_t s = 0; s < sockets; ++s) {
    config.ingress_ids.push_back(
        static_cast<core::IngressId>(p.spec.config.first_port + static_cast<int>(s)));
  }
  config.receiver_threads = static_cast<int>(sockets);
  return config;
}

struct SetupTimes {
  double train_s = 0;
  double start_s = 0;
  double preload_s = 0;
};

SetupTimes setup_once(Run& run, Clusters* keep) {
  pb::ScopedSpan span(run.spans, "setup");
  SetupTimes t;
  pb::XmlSink sink;
  std::uint64_t mark = pb::now_ns();
  Clusters clusters;
  {
    pb::ScopedSpan s(run.spans, "setup.train");
    clusters = std::make_shared<const core::TrainedClusters>(
        run.p.training, run.p.engine.cluster, run.p.spec.config.seed);
  }
  t.train_s = seconds_since(mark);
  mark = pb::now_ns();
  std::unique_ptr<runtime::ShardedRuntime> rt;
  {
    pb::ScopedSpan s(run.spans, "setup.start_runtime");
    rt = std::make_unique<runtime::ShardedRuntime>(latency_runtime_config(run.p), &sink);
  }
  t.start_s = seconds_since(mark);
  mark = pb::now_ns();
  {
    pb::ScopedSpan s(run.spans, "setup.preload");
    preload(run.p, *rt);
    rt->set_clusters(clusters);
  }
  t.preload_s = seconds_since(mark);
  if (run.p.spec.over_udp) {
    mark = pb::now_ns();
    pb::ScopedSpan s(run.spans, "setup.start_ingest");
    auto pipeline = ingest::IngestPipeline::create(ingest_config(run.p), *rt);
    t.start_s += seconds_since(mark);
    if (!pipeline) {
      run.report.problem("ingest pipeline: " + pipeline.error().message);
    } else {
      (*pipeline)->stop();
    }
  }
  rt->shutdown();
  if (keep != nullptr && !*keep) *keep = clusters;
  return t;
}

void measure_setup(Run& run, Clusters* clusters, int repeats, std::vector<SetupTimes>& times) {
  for (int i = 0; i < repeats; ++i) times.push_back(setup_once(run, clusters));
  run.report.attempt(static_cast<std::uint64_t>(repeats));
}

void report_setup(Run& run, const std::vector<SetupTimes>& times) {
  std::vector<double> total, train, start, load;
  for (const SetupTimes& t : times) {
    total.push_back(t.train_s + t.start_s + t.preload_s);
    train.push_back(t.train_s * 1e3);
    start.push_back(t.start_s * 1e3);
    load.push_back(t.preload_s * 1e3);
  }
  if (run.spans == nullptr) {
    run.report.metric("setup_s", pb::median(total), "s");
  } else {
    run.report.metric("setup.preload_ms", pb::median(load), "ms");
    run.report.metric("setup.train_ms", pb::median(train), "ms");
    run.report.metric("setup.start_ms", pb::median(start), "ms");
  }
}

// ---------------------------------------------------------------------------
// Serial: InFilterEngine::process_batch on this thread.
// ---------------------------------------------------------------------------

/// Returns the pass's wall seconds; `segments` receives each segment's
/// CPU seconds (kSegmentBatches).
double serial_pass(Run& run, std::vector<core::Verdict>& out, pb::EngineCounts* counts,
                   std::vector<double>& segments) {
  pb::ScopedSpan span(run.spans, "serial.pass");
  pb::XmlSink sink;
  core::InFilterEngine engine(run.p.engine, &sink);
  preload(run.p, engine);
  engine.set_clusters(run.clusters);
  const std::span<const core::FlowInput> inputs(run.p.inputs);
  segments.clear();
  const std::uint64_t start = pb::now_ns();
  std::uint64_t mark = thread_cpu_ns();
  for (std::size_t begin = 0, chunk = 1; begin < inputs.size(); begin += kSerialBatch, ++chunk) {
    const std::size_t n = std::min(kSerialBatch, inputs.size() - begin);
    engine.process_batch(inputs.subspan(begin, n), std::span(out).subspan(begin, n));
    if (chunk % kSegmentBatches == 0 || begin + n == inputs.size()) {
      const std::uint64_t now = thread_cpu_ns();
      segments.push_back(static_cast<double>(now - mark) / 1e9);
      mark = now;
    }
  }
  const double seconds = seconds_since(start);
  run.note_rss();
  if (counts != nullptr) *counts = pb::engine_counts(engine);
  return seconds;
}

// ---------------------------------------------------------------------------
// Replay: ShardedRuntime::submit_batch + flush, one producer, closed loop.
// ---------------------------------------------------------------------------

struct ReplayLedger {
  std::uint64_t submit_ns = 0;
  std::uint64_t flush_ns = 0;
  runtime::RuntimeStats stats;
  std::vector<std::size_t> peaks;
};

double replay_pass(Run& run, std::vector<core::Verdict>& out, ReplayLedger* ledger) {
  pb::ScopedSpan span(run.spans, "replay.pass");
  pb::XmlSink sink;
  runtime::ShardedRuntime rt(
      runtime_config(run.p, kReplayShards, 1), &sink,
      [&out](const runtime::FlowItem& item, const core::Verdict& verdict) {
        out[item.tag] = verdict;
      });
  preload(run.p, rt);
  rt.set_clusters(run.clusters);
  std::vector<runtime::FlowItem> batch;
  batch.reserve(kSubmitBatch);
  const auto& inputs = run.p.inputs;
  const auto submit = [&] {
    {
      pb::ScopedSpan s(run.spans, "runtime.submit_batch",
                       ledger != nullptr ? &ledger->submit_ns : nullptr);
      rt.submit_batch(batch);
    }
    batch.clear();
  };
  const std::uint64_t start = pb::now_ns();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    batch.push_back(runtime::FlowItem{inputs[i].record, inputs[i].ingress, inputs[i].now, i});
    if (batch.size() == kSubmitBatch) submit();
  }
  if (!batch.empty()) submit();
  {
    pb::ScopedSpan s(run.spans, "runtime.flush", ledger != nullptr ? &ledger->flush_ns : nullptr);
    rt.flush();
  }
  const double seconds = seconds_since(start);
  run.note_rss();
  if (ledger != nullptr) {
    ledger->stats = rt.stats();
    ledger->peaks = rt.shard_queue_peaks();
  }
  return seconds;
}

// ---------------------------------------------------------------------------
// Latency: open loop at offered_rps, scheduled send time -> VerdictHook.
// ---------------------------------------------------------------------------

struct LatencyResult {
  /// One per record that got its verdict: in send order, then (after
  /// latency_phase) ascending.
  std::vector<double> latency_us;
  std::vector<double> lag_us;  ///< sender lateness per send
  std::uint64_t offered = 0;
  std::uint64_t failed = 0;
  ingest::IngestStats ingest;
};

/// Per-slot verdict bookkeeping written by the VerdictHook (each slot by
/// one hook call; `calls` catches duplicates). main() allocates it, one slot
/// per record, before the RSS baseline, so it never counts as detector memory.
struct Arrivals {
  explicit Arrivals(std::size_t n) : done_ns(n, 0), fingerprint(n, 0), verdicts(n), calls(n) {}
  std::vector<std::uint64_t> done_ns;
  std::vector<std::uint64_t> fingerprint;
  std::vector<core::Verdict> verdicts;
  std::vector<std::atomic<std::uint32_t>> calls;
  std::atomic<std::uint64_t> stray{0};

  void record(std::size_t slot, const runtime::FlowItem& item, const core::Verdict& v) {
    done_ns[slot] = pb::now_ns();
    fingerprint[slot] = pb::fingerprint(item.record);
    verdicts[slot] = v;
    calls[slot].fetch_add(1, std::memory_order_relaxed);
  }
};

LatencyResult paced_direct(Run& run, double seconds, const std::vector<core::Verdict>& reference,
                           Arrivals& arrivals) {
  pb::ScopedSpan span(run.spans, "latency.direct");
  const auto& inputs = run.p.inputs;
  const double rate = run.p.spec.offered_rps;
  const std::size_t n =
      std::min(inputs.size(), static_cast<std::size_t>(rate * seconds) + 1);
  pb::XmlSink sink;
  runtime::ShardedRuntime rt(
      latency_runtime_config(run.p), &sink,
      [&](const runtime::FlowItem& item, const core::Verdict& verdict) {
        if (item.tag < n) {
          arrivals.record(item.tag, item, verdict);
        } else {
          arrivals.stray.fetch_add(1, std::memory_order_relaxed);
        }
      });
  preload(run.p, rt);
  rt.set_clusters(run.clusters);

  LatencyResult result;
  std::vector<std::uint64_t> sched((n + kPacedBatch - 1) / kPacedBatch);
  std::vector<runtime::FlowItem> batch;
  batch.reserve(kPacedBatch);
  const std::uint64_t t0 = pb::now_ns() + 1'000'000;
  for (std::size_t k = 0; k < sched.size(); ++k) {
    const std::size_t begin = k * kPacedBatch;
    const std::size_t end = std::min(n, begin + kPacedBatch);
    sched[k] = t0 + static_cast<std::uint64_t>(static_cast<double>(begin) / rate * 1e9);
    batch.clear();
    for (std::size_t i = begin; i < end; ++i) {
      batch.push_back(runtime::FlowItem{inputs[i].record, inputs[i].ingress, inputs[i].now, i});
    }
    wait_until(sched[k]);
    result.lag_us.push_back(static_cast<double>(pb::now_ns() - sched[k]) / 1e3);
    rt.submit_batch(batch);
  }
  rt.flush();
  rt.shutdown();

  result.offered = n;
  for (std::size_t i = 0; i < n; ++i) {
    const bool ok = arrivals.calls[i].load() == 1 &&
                    arrivals.fingerprint[i] == pb::fingerprint(inputs[i].record) &&
                    pb::same_verdict(arrivals.verdicts[i], reference[i]);
    if (!ok) {
      ++result.failed;
      continue;
    }
    result.latency_us.push_back(
        static_cast<double>(arrivals.done_ns[i] - sched[i / kPacedBatch]) / 1e3);
  }
  result.failed += arrivals.stray.load();
  return result;
}

LatencyResult paced_udp(Run& run, double seconds, Arrivals& arrivals) {
  pb::ScopedSpan span(run.spans, "latency.udp");
  const pb::Datagrams& dg = run.p.datagrams;
  const double rate = run.p.spec.offered_rps;
  const auto budget = static_cast<std::size_t>(rate * seconds);
  std::size_t datagrams = 0;
  std::vector<std::uint64_t> before;  // records sent before datagram d
  for (std::size_t sent = 0; datagrams < dg.bytes.size() && sent < budget; ++datagrams) {
    before.push_back(sent);
    sent += dg.records[datagrams];
  }

  const std::span<const std::size_t> offsets(dg.socket_offsets);
  pb::XmlSink sink;
  runtime::ShardedRuntime rt(
      latency_runtime_config(run.p), &sink,
      [&](const runtime::FlowItem& item, const core::Verdict& verdict) {
        if (const auto slot = pb::join_tag(item.tag, offsets)) {
          arrivals.record(*slot, item, verdict);
        } else {
          arrivals.stray.fetch_add(1, std::memory_order_relaxed);
        }
      });
  preload(run.p, rt);
  rt.set_clusters(run.clusters);

  LatencyResult result;
  auto pipeline = ingest::IngestPipeline::create(ingest_config(run.p), rt);
  auto sender = flowtools::UdpSender::create();
  if (!pipeline || !sender) {
    run.report.problem("live ingest could not start: " +
                       (!pipeline ? pipeline.error().message : sender.error().message));
    result.failed = result.offered = 1;
    return result;
  }
  const auto ports = (*pipeline)->ports();
  std::vector<std::uint64_t> sched(datagrams);
  const std::uint64_t t0 = pb::now_ns() + 1'000'000;
  std::uint64_t send_errors = 0;
  for (std::size_t d = 0; d < datagrams; ++d) {
    sched[d] = t0 + static_cast<std::uint64_t>(static_cast<double>(before[d]) / rate * 1e9);
    wait_until(sched[d]);
    result.lag_us.push_back(static_cast<double>(pb::now_ns() - sched[d]) / 1e3);
    if (!sender->send(ports[dg.socket[d]], dg.bytes[d])) ++send_errors;
  }
  // Everything sent is either received or counted as a kernel drop; allow
  // the receivers a bounded moment to catch up, then drain and flush.
  const std::uint64_t settle = pb::now_ns();
  while (seconds_since(settle) < 5.0) {
    const auto stats = (*pipeline)->stats();
    if (stats.datagrams_received + stats.kernel_drops >= datagrams) break;
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  (*pipeline)->drain();
  (*pipeline)->quiesce([&] { rt.flush(); });
  result.ingest = (*pipeline)->stats();
  (*pipeline)->stop();
  rt.shutdown();

  for (std::size_t d = 0; d < datagrams; ++d) {
    for (std::size_t k = 0; k < dg.records[d]; ++k) {
      const std::size_t slot = dg.first_slot[d] + k;
      ++result.offered;
      const auto& record = run.p.inputs[dg.slot_stream[slot]].record;
      if (arrivals.calls[slot].load() != 1 ||
          arrivals.fingerprint[slot] != pb::fingerprint(record)) {
        ++result.failed;
        continue;
      }
      result.latency_us.push_back(static_cast<double>(arrivals.done_ns[slot] - sched[d]) / 1e3);
    }
  }
  result.failed += arrivals.stray.load() + send_errors;
  return result;
}

LatencyResult latency_phase(Run& run, double seconds, const std::vector<core::Verdict>& reference,
                            Arrivals& arrivals) {
  LatencyResult result = run.p.spec.over_udp ? paced_udp(run, seconds, arrivals)
                                             : paced_direct(run, seconds, reference, arrivals);
  run.report.attempt(result.offered, result.failed);
  if (result.failed != 0) {
    run.report.problem(std::to_string(result.failed) + " of " +
                       std::to_string(result.offered) +
                       " offered records lost, duplicated or misjoined");
  }
  std::sort(result.latency_us.begin(), result.latency_us.end());
  std::sort(result.lag_us.begin(), result.lag_us.end());
  return result;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

std::string json_number(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string metrics_json(const pb::Report& report) {
  std::string out = "{";
  for (std::size_t i = 0; i < report.metrics().size(); ++i) {
    const auto& m = report.metrics()[i];
    out += (i == 0 ? "" : ", ") + std::string("\"") + m.name + "\": {\"value\": " +
           json_number(m.value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  return out + "}";
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string out_dir = ".bench_build/results";
};

}  // namespace

namespace perfbench {

bool same_verdict(const core::Verdict& a, const core::Verdict& b) {
  if (a.attack != b.attack || a.stage != b.stage || a.suspect != b.suspect ||
      a.nns.has_value() != b.nns.has_value()) {
    return false;
  }
  return !a.nns.has_value() ||
         (a.nns->anomalous == b.nns->anomalous && a.nns->cluster == b.nns->cluster &&
          a.nns->distance == b.nns->distance && a.nns->threshold == b.nns->threshold);
}

EngineCounts engine_counts(const core::InFilterEngine& engine) {
  const auto& m = engine.metrics();
  EngineCounts c;
  c.eia_hits = m.eia_hits->value();
  c.eia_misses = m.eia_misses->value();
  c.eia_learned = m.eia_learned->value();
  c.hop_consistent = m.hopcount_consistent->value();
  c.hop_miss = m.hopcount_miss->value();
  c.hop_unknown = m.hopcount_unknown->value();
  c.scan_analyzed = m.scan_analyzed->value();
  c.scan_flagged = m.scan_network->value() + m.scan_host->value();
  c.nns_assessed = m.nns_assessed->value();
  c.alerts = m.alerts_total->value();
  return c;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  const auto parsed = util::Args::parse(argc, argv, {"smoke"});
  if (!parsed) {
    std::fprintf(stderr, "perfbench: %s\n", parsed.error().message.c_str());
    return 2;
  }
  Options opt;
  opt.workload = parsed->value_or("workload", "");
  opt.seed = static_cast<std::uint64_t>(parsed->int_or("seed", 1));
  opt.seconds = parsed->double_or("seconds", 10);
  opt.trace = parsed->int_or("trace", 0) != 0;
  opt.smoke = parsed->has("smoke");
  opt.out_dir = parsed->value_or("out-dir", opt.out_dir);
  if (kDebugBuild || kSanitized) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a %s build; build RelWithDebInfo "
                 "or Release without sanitizers\n",
                 kDebugBuild ? "debug (assertions on)" : "sanitizer");
    return 2;
  }
  const pb::WorkloadSpec spec = pb::make_spec(opt.workload, opt.seed, opt.smoke);
  if (spec.name.empty() || opt.seconds <= 0) {
    std::fprintf(stderr, "perfbench: unknown workload '%s' or bad --seconds\n",
                 opt.workload.c_str());
    return 2;
  }

  if (::mallopt(M_MMAP_THRESHOLD, kMmapThreshold) == 0 ||
      ::mallopt(M_TRIM_THRESHOLD, kTrimThreshold) == 0) {
    std::fprintf(stderr, "perfbench: mallopt refused the retention thresholds\n");
  }
  // The open-loop sender on this thread sleeps to its schedule.
  ::prctl(PR_SET_TIMERSLACK, 1000UL);
  if (pinned() && !runtime::pin_current_thread({3}, 0)) {
    std::fprintf(stderr, "perfbench: could not pin the main thread to CPU 3\n");
  }

  // -- Inputs (untimed) --
  std::uint64_t mark = pb::now_ns();
  const pb::Prepared prepared = pb::prepare(spec);
  const double generate_s = seconds_since(mark);
  std::printf("inputs: workload=%s seed=%llu records=%zu training=%zu datagrams=%zu "
              "hash=%016llx generated_in=%.2fs\n",
              spec.name.c_str(), static_cast<unsigned long long>(opt.seed),
              prepared.inputs.size(), prepared.training.size(),
              prepared.datagrams.bytes.size(),
              static_cast<unsigned long long>(prepared.content_hash), generate_s);
  std::fflush(stdout);

  pb::Report report;
  pb::SpanLog span_log;
  Run run{prepared, nullptr, report, opt.trace ? &span_log : nullptr};
  const std::size_t n = prepared.inputs.size();
  const double S = opt.seconds;

  // The harness's own per-record buffers exist, filled, before the RSS
  // baseline: detector_rss_mb is the growth of the detector's state alone.
  std::vector<core::Verdict> reference(n);
  std::vector<core::Verdict> scratch(n);
  Arrivals arrivals(n);
  const double rss_inputs = rss_bytes();

  std::vector<SetupTimes> setups;
  measure_setup(run, &run.clusters, opt.smoke ? 2 : kSetupRepeats, setups);

  // -- Serial: the first pass is the warm-up and the reference --
  pb::EngineCounts counts;
  std::vector<double> segments;
  serial_pass(run, reference, &counts, segments);
  std::vector<double> serial_s;
  std::vector<std::vector<double>> serial_segments;
  std::vector<double> replay_s;
  const auto serial_timed = [&] {
    serial_s.push_back(serial_pass(run, scratch, nullptr, segments));
    serial_segments.push_back(segments);
    const auto bad = count_mismatches(scratch, reference, n);
    report.attempt(n, bad);
    if (bad != 0) report.problem("serial pass not deterministic");
  };
  const auto replay_checked = [&](ReplayLedger* ledger) {
    const double seconds = replay_pass(run, scratch, ledger);
    const auto bad = count_mismatches(scratch, reference, n);
    report.attempt(n, bad);
    if (bad != 0) report.problem("sharded verdicts differ from the serial pass");
    return seconds;
  };

  LatencyResult latency;
  if (!opt.trace) {
    // -- Replay warm-up, whose verdicts are also scored against ground truth --
    replay_checked(nullptr);
    // The RSS peak over the first serial and the first replay pass. Later
    // passes and the latency phase's runtime let malloc's retained free
    // memory creep by up to 7 MB, by an amount that depends on which arena
    // each new thread draws and on how many passes fit in --seconds.
    const double detector_rss = run.rss_peak - rss_inputs;
    sim::Scorer scorer(spec.config, prepared.stream);
    for (std::size_t i = 0; i < n; ++i) scorer.score(prepared.stream.flows[i], scratch[i]);
    const sim::ExperimentResult quality = scorer.finalize();

    const std::uint64_t start = pb::now_ns();
    latency = latency_phase(run, S * kLatencyShare, reference, arrivals);

    // -- Timed serial and replay passes, alternating so both metrics sample
    // the same stretch of machine time --
    while (replay_s.size() < 2 || seconds_since(start) < S) {
      measure_setup(run, nullptr, kSetupPerPass, setups);
      serial_timed();
      replay_s.push_back(replay_checked(nullptr));
    }
    // Serial throughput is records per CPU second of the one thread, summing
    // each segment's fastest CPU time across the passes. Interference from
    // other tenants of a shared host only ever slows a pass down -- by up to
    // a third, for seconds at a time, on the 4-vCPU guests this benchmark
    // runs on -- and on a busy host it spoiled every pass of some runs, so
    // even the fastest whole pass spread by a third of its median from run
    // to run. The CPU clock leaves out the time the vCPU was taken away, and
    // a segment of a few milliseconds needs only one pass that the rest of
    // the interference (cache and memory contention) left alone. Replay
    // throughput comes from the median pass:
    // how the scheduler interleaves the producer, two workers and the scan
    // thread makes single passes up to a fifth faster or slower, so the
    // fastest replay pass is a lucky draw.
    report.metric("serial_rps", static_cast<double>(n) / pb::segment_min_sum(serial_segments),
                  "1/s");
    report.metric("replay_rps", static_cast<double>(n) / pb::median(replay_s), "1/s");
    // The tail is printed below and reported by the traced run, not bounded:
    // on a busy shared host a few percent of records sat in 2-20 ms host
    // stalls, so even the 75th-percentile p99 of 1000-record windows spread
    // by half its median from run to run.
    report.metric("verdict_p50_us", pb::nearest_rank(latency.latency_us, 0.50), "us");
    report.metric("detector_rss_mb", detector_rss / (1024.0 * 1024.0), "MB");
    report.metric("detection_rate", quality.detection_rate(), "ratio");
    report.metric("false_positive_rate", quality.false_positive_rate(), "ratio");
    report.metric("benign_suspect_rate", quality.benign_suspect_rate(), "ratio");
    std::printf("quality: instances %d/%d detected, attack flows %llu (%.4f detected), "
                "benign flows %llu, false positives %llu, benign suspects %llu\n",
                quality.detected_instances, quality.attack_instances,
                static_cast<unsigned long long>(quality.attack_flows),
                quality.flow_detection_rate(),
                static_cast<unsigned long long>(quality.benign_flows),
                static_cast<unsigned long long>(quality.false_positives),
                static_cast<unsigned long long>(quality.benign_suspects));
    const auto list = [](const std::vector<double>& s) {
      std::string out = std::to_string(s.size()) + " passes [s]:";
      char buf[32];
      for (const double v : s) {
        std::snprintf(buf, sizeof buf, " %.4f", v);
        out += buf;
      }
      return out;
    };
    std::printf("passes: serial %s; replay %s\n", list(serial_s).c_str(),
                list(replay_s).c_str());
    std::printf("serial estimates [1/s]: fastest %.0f median %.0f segment_min %.0f\n",
                static_cast<double>(n) / *std::min_element(serial_s.begin(), serial_s.end()),
                static_cast<double>(n) / pb::median(serial_s),
                static_cast<double>(n) / pb::segment_min_sum(serial_segments));
    std::printf("latency: %zu samples, p50 %.3f us, p90 %.3f us, p99 %.3f us, max %.3f us\n",
                latency.latency_us.size(), pb::nearest_rank(latency.latency_us, 0.50),
                pb::nearest_rank(latency.latency_us, 0.90),
                pb::nearest_rank(latency.latency_us, 0.99),
                latency.latency_us.empty() ? 0.0 : latency.latency_us.back());
  } else {
    const auto serial_seconds = [&] {
      serial_timed();
      return serial_s.back();
    };
    pb::LayerContext context{prepared, run.clusters, reference, counts,
                             serial_seconds, S * 0.45, span_log};
    pb::run_layer_passes(context, report);

    ReplayLedger ledger;
    replay_checked(&ledger);
    const auto& st = ledger.stats;
    report.metric("runtime.submit_ns_per_record",
                  static_cast<double>(ledger.submit_ns) / static_cast<double>(n), "ns");
    report.metric("runtime.backpressure_waits", static_cast<double>(st.backpressure_waits),
                  "count");
    report.metric("runtime.records_per_worker_batch",
                  st.batches == 0 ? 0.0
                                  : static_cast<double>(st.processed) /
                                        static_cast<double>(st.batches),
                  "count");
    report.metric("runtime.flush_ms", static_cast<double>(ledger.flush_ns) / 1e6, "ms");
    report.metric("runtime.suspect_forward_ratio",
                  static_cast<double>(st.suspects_forwarded) / static_cast<double>(n), "ratio");
    report.metric("runtime.queue_peak_max",
                  static_cast<double>(*std::max_element(ledger.peaks.begin(), ledger.peaks.end())),
                  "count");
    report.metric("runtime.queue_peak_min",
                  static_cast<double>(*std::min_element(ledger.peaks.begin(), ledger.peaks.end())),
                  "count");

    latency = latency_phase(run, S * 0.2, reference, arrivals);
    report.metric("latency.verdict_p99_us", pb::nearest_rank(latency.latency_us, 0.99), "us");
    report.metric("ingest.kernel_drops", static_cast<double>(latency.ingest.kernel_drops),
                  "count");
    report.metric("ingest.records_shed", static_cast<double>(latency.ingest.records_shed),
                  "count");
    report.metric("ingest.sequence_gaps", static_cast<double>(latency.ingest.sequence_gaps),
                  "count");
    report.metric("ingest.sender_lag_p99_us", pb::nearest_rank(latency.lag_us, 0.99), "us");
  }

  report_setup(run, setups);

  // -- Environment record --
  const double lag_p50 = pb::nearest_rank(latency.lag_us, 0.50);
  const double lag_p99 = pb::nearest_rank(latency.lag_us, 0.99);
  const double lag_max = latency.lag_us.empty() ? 0.0 : latency.lag_us.back();
  std::ostringstream env;
  env << "{\"nproc\": " << std::thread::hardware_concurrency() << ", \"compiler\": \""
      << PERFBENCH_COMPILER << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
      << "\", \"threads\": {\"serial\": 1, \"replay_shards\": " << kReplayShards
      << ", \"replay_producers\": 1, \"latency_shards\": "
      << latency_runtime_config(prepared).shards << ", \"latency_producers\": "
      << latency_runtime_config(prepared).producers
      << "}, \"pinned\": " << (pinned() ? "true" : "false")
      << ", \"malloc\": {\"mmap_threshold\": " << kMmapThreshold
      << ", \"trim_threshold\": " << kTrimThreshold << "}, \"loopback_udp\": " << (spec.over_udp ? "true" : "false")
      << ", \"offered_rps\": " << json_number(spec.offered_rps)
      << ", \"generator_lag_us\": {\"p50\": " << json_number(lag_p50)
      << ", \"p99\": " << json_number(lag_p99) << ", \"max\": " << json_number(lag_max)
      << "}, \"records\": " << n << ", \"content_hash\": \"" << std::hex
      << prepared.content_hash << std::dec << "\", \"seconds\": " << json_number(S)
      << ", \"trace\": " << (opt.trace ? 1 : 0) << "}";
  std::printf("env: %s\n", env.str().c_str());
  for (const auto& m : report.metrics()) {
    std::printf("  %-34s %16.4f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& problem : report.problems()) std::printf("FAIL: %s\n", problem.c_str());

  std::error_code ec;
  std::filesystem::create_directories(opt.out_dir, ec);
  const std::string stem = opt.out_dir + "/" + spec.name + "_seed" +
                           std::to_string(opt.seed) + (opt.trace ? "_trace" : "");
  if (opt.trace) {
    if (span_log.write_chrome_json(stem + "_spans.json")) {
      std::printf("trace: %zu spans -> %s_spans.json\n", span_log.spans().size(), stem.c_str());
    } else {
      report.problem("could not write " + stem + "_spans.json");
    }
  }
  const std::string result = "{\"correct\": " + std::string(report.correct() ? "true" : "false") +
                             ", \"attempted\": " + std::to_string(report.attempted()) +
                             ", \"failed\": " + std::to_string(report.failed()) +
                             ", \"metrics\": " + metrics_json(report) + "}";
  std::ofstream(stem + ".json") << "{\"env\": " << env.str() << ", \"result\": " << result
                                << "}\n";
  std::printf("%s\n", result.c_str());
  return report.correct() ? 0 : 1;
}
