// Throughput of the threaded ingest pipeline (src/ingest) against the
// serial LiveCollector loop on the same exported datagram stream.
//
// The serial baseline is flowtools::LiveCollector driven the classic way:
// one thread interleaving socket polling, NetFlow v5 decode, and engine
// processing (the shape of the paper's prototype collector). The threaded runs put
// receiver thread(s) -- each decoding inline and dispatching directly
// into the ShardedRuntime as its own producer (no decode-thread hop) --
// on the same stream and report records/sec plus the pipeline's loss
// accounting (kernel drops, shed datagrams, sequence gaps). On a
// single-core host the speedup mostly measures handoff overhead --
// hardware_threads is in the JSON so readers can judge -- but the
// correctness cross-checks (identical attack-verdict counts at one and
// several receivers, zero steady-state heap allocations in the
// receive/decode hot path, no queue_ingest spans left in the trace)
// hold at any core count and fail the run when violated.
//
// Usage:
//   ingest_throughput [--smoke]           # small preset, used by ctest
//                     [--flows 3000]      # normal flows in the stream
//                     [--ingest-threads 1]
//                     [--threads 2]       # runtime shards
//                     [--out BENCH_ingest.json]

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "dagflow/dagflow.h"
#include "flowtools/udp.h"
#include "ingest/ingest.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "traffic/attacks.h"
#include "traffic/normal.h"
#include "util/args.h"

#include "heap_counter.h"

using namespace infilter;
using namespace std::chrono_literals;
using Clock = std::chrono::steady_clock;

namespace {

/// The ingress id both paths attribute the stream to, so the EIA tables
/// see identical keys regardless of which ephemeral port got bound.
constexpr core::IngressId kIngress = 9001;

struct Workload {
  std::vector<std::vector<std::uint8_t>> datagrams;
  std::size_t flows = 0;
  std::vector<netflow::V5Record> training;
};

/// Normal traffic from source 0's Table 3 blocks plus a spoofed Slammer
/// sweep -- the same shape as the testbed streams, exported as v5
/// datagrams so both paths start from bytes on a socket.
Workload make_workload(std::size_t normal_flows) {
  Workload w;
  traffic::NormalTrafficModel model;
  util::Rng rng{21};
  {
    const auto trace = model.generate(normal_flows, 0, rng);
    dagflow::Dagflow source(
        dagflow::DagflowConfig{},
        dagflow::AddressPool::from_allocation(dagflow::make_allocation(10, 100, 0, 0)[0]),
        9);
    const auto labeled = source.replay(trace);
    w.flows += labeled.size();
    for (auto& datagram : source.export_datagrams(labeled, 1000)) {
      w.datagrams.push_back(std::move(datagram));
    }
  }
  {
    traffic::AttackConfig attack_config;
    attack_config.companion_fraction = 0;
    const auto worm = traffic::generate_attack(traffic::AttackKind::kSlammer,
                                               attack_config, normal_flows / 2, rng);
    dagflow::Dagflow attacker(
        dagflow::DagflowConfig{},
        dagflow::AddressPool::from_subblocks({*net::SubBlock::parse("70a")}), 10);
    const auto labeled = attacker.replay(worm);
    w.flows += labeled.size();
    for (auto& datagram : attacker.export_datagrams(labeled, 2000)) {
      w.datagrams.push_back(std::move(datagram));
    }
  }
  {
    const auto trace = model.generate(600, 0, rng);
    dagflow::Dagflow replayer(
        dagflow::DagflowConfig{},
        dagflow::AddressPool::from_subblocks({*net::SubBlock::parse("1a")}), 7);
    for (const auto& labeled : replayer.replay(trace)) {
      w.training.push_back(labeled.record);
    }
  }
  return w;
}

core::EngineConfig engine_config() {
  core::EngineConfig engine;
  engine.cluster.bits_per_feature = 48;
  engine.seed = 5;
  return engine;
}

struct Measurement {
  double seconds = 0;
  double records_per_sec = 0;
  std::uint64_t attacks = 0;
  ingest::IngestStats ingest;  ///< zero-initialized for the serial run
  int producers = 0;           ///< runtime producer slots (= receiver threads)
  std::uint64_t shard_peak_min = 0;  ///< min/max over shards of peak ring
  std::uint64_t shard_peak_max = 0;  ///< occupancy during the run
};

/// The serial baseline: LiveCollector + one engine on one thread, polling
/// and analyzing in one loop.
Measurement run_serial(const Workload& w) {
  auto collector = flowtools::LiveCollector::bind({0});
  if (!collector) {
    std::fprintf(stderr, "serial bind: %s\n", collector.error().message.c_str());
    std::exit(1);
  }
  core::InFilterEngine engine(engine_config());
  for (const auto& block : dagflow::eia_range(0).expand()) {
    engine.add_expected(kIngress, block.prefix());
  }
  engine.train(w.training);

  auto sender = flowtools::UdpSender::create();
  const auto port = collector->ports()[0];

  Measurement m;
  std::size_t consumed = 0;
  const auto process_new = [&] {
    const auto& flows = collector->capture().flows();
    for (; consumed < flows.size(); ++consumed) {
      const auto& flow = flows[consumed];
      const auto verdict = engine.process(flow.record, kIngress, flow.record.last);
      m.attacks += verdict.attack ? 1 : 0;
    }
  };

  const auto start = Clock::now();
  for (std::size_t i = 0; i < w.datagrams.size(); ++i) {
    (void)sender->send(port, w.datagrams[i]);
    // Interleave receive/decode/analyze, like the monitor's poll loop --
    // and keep the kernel queue shallow so nothing is lost to overflow.
    if (i % 32 == 31) {
      (void)collector->poll_once(0);
      process_new();
    }
  }
  while (consumed < w.flows) {
    (void)collector->poll_once(1);
    process_new();
  }
  m.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  m.records_per_sec =
      m.seconds > 0 ? static_cast<double>(w.flows) / m.seconds : 0;
  return m;
}

/// Sends the whole stream into a live pipeline, round-robining datagrams
/// over the bound ports (so every receiver thread sees traffic) and
/// pacing against the received count so tiny test arenas never push loss
/// into the kernel.
void send_paced(flowtools::UdpSender& sender, const ingest::IngestPipeline& pipeline,
                const std::vector<std::uint16_t>& ports, const Workload& w,
                std::uint64_t base) {
  std::uint64_t sent = 0;
  for (const auto& datagram : w.datagrams) {
    (void)sender.send(ports[sent % ports.size()], datagram);
    ++sent;
    while (pipeline.stats().datagrams_received + 256 < base + sent) {
      std::this_thread::sleep_for(50us);
    }
  }
  while (pipeline.stats().datagrams_received < base + sent) {
    std::this_thread::sleep_for(200us);
  }
}

/// Receiver thread(s) dispatching directly into a sharded runtime on the
/// same bytes (receiver i is runtime producer i; no decode thread).
/// `tracer` (optional) attaches the flight recorder to every stage -- the
/// overhead runs pass it disabled, the journey run enabled. `repeats`
/// replays the datagram stream that many times inside the measured window,
/// stretching sub-millisecond smoke workloads into something a throughput
/// *ratio* can be judged on (sequence gaps across replays are expected and
/// not counted against the run).
Measurement run_threaded(const Workload& w, int receivers, int shards,
                         obs::Tracer* tracer = nullptr, int repeats = 1) {
  runtime::RuntimeConfig runtime_config;
  runtime_config.shards = shards;
  runtime_config.producers = std::max(1, receivers);
  runtime_config.engine = engine_config();
  runtime_config.tracer = tracer;
  std::atomic<std::uint64_t> attacks{0};
  runtime::ShardedRuntime rt(
      runtime_config, nullptr,
      [&](const runtime::FlowItem&, const core::Verdict& verdict) {
        if (verdict.attack) attacks.fetch_add(1, std::memory_order_relaxed);
      });
  for (const auto& block : dagflow::eia_range(0).expand()) {
    rt.add_expected(kIngress, block.prefix());
  }
  rt.train(w.training);

  ingest::IngestConfig config;
  config.ports.assign(static_cast<std::size_t>(std::max(1, receivers)), 0);
  config.ingress_ids.assign(config.ports.size(), kIngress);
  config.receiver_threads = receivers;
  config.tracer = tracer;
  auto pipeline = ingest::IngestPipeline::create(config, rt);
  if (!pipeline) {
    std::fprintf(stderr, "pipeline: %s\n", pipeline.error().message.c_str());
    std::exit(1);
  }
  auto sender = flowtools::UdpSender::create();
  const auto bound = (*pipeline)->ports();

  Measurement m;
  const auto start = Clock::now();
  for (int r = 0; r < repeats; ++r) {
    send_paced(*sender, **pipeline, bound, w, r * w.datagrams.size());
  }
  (*pipeline)->quiesce([&] { rt.flush(); });
  m.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  m.records_per_sec =
      m.seconds > 0 ? static_cast<double>(w.flows * repeats) / m.seconds : 0;
  m.attacks = attacks.load(std::memory_order_relaxed);
  m.ingest = (*pipeline)->stats();
  m.producers = static_cast<int>(rt.producer_count());
  const auto peaks = rt.shard_queue_peaks();
  if (!peaks.empty()) {
    m.shard_peak_min = *std::min_element(peaks.begin(), peaks.end());
    m.shard_peak_max = *std::max_element(peaks.begin(), peaks.end());
  }
  (*pipeline)->stop();
  rt.shutdown();
  return m;
}

/// The allocation probe: a pipeline with a null dispatcher isolates the
/// receive -> decode -> dispatch path. Pass 1 warms the thread-local
/// working sets; pass 2 over the same stream must not touch the heap at
/// all.
/// The flight recorder rides along *enabled* at sample_every=1 -- its ring
/// memory is allocated at lane registration (warm time), so even the
/// maximally-traced steady state must stay off the heap.
std::uint64_t probe_steady_allocs(const Workload& w) {
  obs::TracerConfig trace_config;
  trace_config.sample_every = 1;
  trace_config.enabled = true;
  obs::Tracer tracer(trace_config);
  ingest::IngestConfig config;
  config.ports = {0};
  config.ingress_ids = {kIngress};
  config.tracer = &tracer;
  auto pipeline = ingest::IngestPipeline::create(
      config,
      [](std::span<const runtime::FlowItem> items, int) { return items.size(); });
  if (!pipeline) {
    std::fprintf(stderr, "probe pipeline: %s\n", pipeline.error().message.c_str());
    std::exit(1);
  }
  auto sender = flowtools::UdpSender::create();
  const auto bound = (*pipeline)->ports();

  send_paced(*sender, **pipeline, bound, w, 0);  // warm pass
  (*pipeline)->drain();

  const auto before = bench::heap_allocs();
  send_paced(*sender, **pipeline, bound, w, w.datagrams.size());
  (*pipeline)->drain();
  const auto allocs = bench::heap_allocs() - before;
  (*pipeline)->stop();
  return allocs;
}

std::string ingest_json(const ingest::IngestStats& s) {
  std::string out;
  out += "\"kernel_drops\": " + std::to_string(s.kernel_drops);
  out += ", \"records_shed\": " + std::to_string(s.records_shed);
  out += ", \"sequence_gaps\": " + std::to_string(s.sequence_gaps);
  out += ", \"socket_errors\": " + std::to_string(s.socket_errors);
  out += ", \"pinned_threads\": " + std::to_string(s.pinned_threads);
  return out;
}

/// Per-run shard/producer occupancy fields shared by the threaded runs.
std::string occupancy_json(const Measurement& m) {
  std::string out;
  out += "\"producers\": " + std::to_string(m.producers);
  out += ", \"shard_queue_peak_min\": " + std::to_string(m.shard_peak_min);
  out += ", \"shard_queue_peak_max\": " + std::to_string(m.shard_peak_max);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = util::Args::parse(argc, argv, {"smoke"});
  if (!parsed) {
    std::fprintf(stderr, "ingest_throughput: %s\n", parsed.error().message.c_str());
    return 1;
  }
  const auto& args = *parsed;
  const bool smoke = args.has("smoke");

  const auto flows = static_cast<std::size_t>(
      args.int_or("flows", smoke ? 400 : 3000));
  const int receivers = static_cast<int>(args.int_or("ingest-threads", 1));
  const int shards = static_cast<int>(args.int_or("threads", 2));

  std::printf("generating workload (%zu normal flows)...\n", flows);
  const auto workload = make_workload(flows);
  std::printf("replaying %zu datagrams / %zu records\n",
              workload.datagrams.size(), workload.flows);

  const auto serial = run_serial(workload);
  std::printf("serial_collector: %.0f records/sec (%llu attack verdicts)\n",
              serial.records_per_sec,
              static_cast<unsigned long long>(serial.attacks));

  const auto threaded = run_threaded(workload, receivers, shards);
  std::printf(
      "threaded_ingest (%d receiver(s) direct -> %d shards): %.0f records/sec "
      "(%.2fx serial, %llu attack verdicts, %llu kernel drops)\n",
      receivers, shards, threaded.records_per_sec,
      serial.records_per_sec > 0 ? threaded.records_per_sec / serial.records_per_sec
                                 : 0.0,
      static_cast<unsigned long long>(threaded.attacks),
      static_cast<unsigned long long>(threaded.ingest.kernel_drops));

  // Multi-producer run: several receivers dispatching concurrently into
  // the same shard rings. The verdict cross-check below pins the
  // multi-producer merge to the serial answer.
  const int receivers_mp = std::max(2, receivers);
  const auto threaded_mp = run_threaded(workload, receivers_mp, shards);
  std::printf(
      "threaded_ingest_multi (%d receivers direct -> %d shards): %.0f "
      "records/sec (%llu attack verdicts, shard peaks %llu..%llu)\n",
      receivers_mp, shards, threaded_mp.records_per_sec,
      static_cast<unsigned long long>(threaded_mp.attacks),
      static_cast<unsigned long long>(threaded_mp.shard_peak_min),
      static_cast<unsigned long long>(threaded_mp.shard_peak_max));

  // Gate: tracing compiled in and attached but *disabled* must cost at most
  // 2% throughput against the untraced pipeline (the disabled hot path is
  // one relaxed load + branch per hop). Wall-clock over loopback UDP is far
  // noisier than 2%, so each side replays the stream enough times to fill
  // 0.6 s at the single-replay rate (~0.15 s at the steady rate), the pair
  // is measured up to four times alternating, and the best throughput
  // either side reached is judged (noise only ever subtracts from a
  // best-of).
  const int repeats = std::max(
      1, static_cast<int>(0.6 * threaded.records_per_sec /
                          static_cast<double>(std::max<std::size_t>(1, workload.flows))));
  double best_untraced = 0.0;
  double best_disabled = 0.0;
  double overhead_ratio = 0.0;
  Measurement traced_off;
  for (int attempt = 0; attempt < 4 && overhead_ratio < 0.98; ++attempt) {
    best_untraced = std::max(
        best_untraced,
        run_threaded(workload, receivers, shards, nullptr, repeats).records_per_sec);
    obs::Tracer off;  // TracerConfig{}.enabled == false
    traced_off = run_threaded(workload, receivers, shards, &off, repeats);
    best_disabled = std::max(best_disabled, traced_off.records_per_sec);
    if (best_untraced > 0) overhead_ratio = best_disabled / best_untraced;
  }
  std::printf("tracer disabled: %.0f records/sec best-of (%.3fx untraced, %dx replay)\n",
              best_disabled, overhead_ratio, repeats);

  // The journey run: every record traced (sample_every=1), spans exported
  // as Chrome trace-event JSON for Perfetto and cross-checked offline by
  // scripts/bench_summary.py --validate-trace against the e2e histogram.
  obs::TracerConfig trace_config;
  trace_config.sample_every = 1;
  trace_config.ring_capacity = 1 << 17;  // hold the whole run; drops gate below
  trace_config.enabled = true;
  obs::Tracer tracer(trace_config);
  const auto traced = run_threaded(workload, receivers, shards, &tracer);
  const auto trace_snapshot = tracer.snapshot();
  const auto* e2e = trace_snapshot.histogram("infilter_e2e_latency_us");
  std::printf(
      "tracer enabled (1-in-1): %.0f records/sec, %llu journeys, e2e p50 "
      "%.2fus p99 %.2fus, %llu span events (%llu dropped)\n",
      traced.records_per_sec,
      static_cast<unsigned long long>(e2e != nullptr ? e2e->count : 0),
      e2e != nullptr ? e2e->quantile(0.50) : 0.0,
      e2e != nullptr ? e2e->quantile(0.99) : 0.0,
      static_cast<unsigned long long>(tracer.events_emitted()),
      static_cast<unsigned long long>(tracer.events_dropped()));
  const auto trace_path = args.value_or("trace-out", "BENCH_ingest_trace.json");
  const auto trace_json = tracer.chrome_trace_json();
  {
    std::ofstream trace_file(trace_path, std::ios::trunc);
    trace_file << trace_json;
    if (!trace_file) {
      std::fprintf(stderr, "ingest_throughput: cannot write %s\n", trace_path.c_str());
      return 1;
    }
    std::printf("wrote %s\n", trace_path.c_str());
  }

  const auto steady_allocs = probe_steady_allocs(workload);
  std::printf("steady-state heap allocations over %zu datagrams: %llu\n",
              workload.datagrams.size(),
              static_cast<unsigned long long>(steady_allocs));

  std::string doc = "{\n  \"bench\": \"ingest\",\n";
  doc += "  \"hardware_threads\": " +
         std::to_string(std::thread::hardware_concurrency()) + ",\n";
  doc += "  \"datagrams\": " + std::to_string(workload.datagrams.size()) + ",\n";
  doc += "  \"records\": " + std::to_string(workload.flows) + ",\n";
  doc += "  \"runs\": [\n    {\"mode\": \"serial_collector\", \"seconds\": " +
         obs::format_number(serial.seconds) +
         ", \"records_per_sec\": " + obs::format_number(serial.records_per_sec) +
         ", \"attack_verdicts\": " + std::to_string(serial.attacks) + "},\n";
  doc += "    {\"mode\": \"threaded_ingest\", \"receiver_threads\": " +
         std::to_string(receivers) + ", \"shards\": " + std::to_string(shards) +
         ", \"seconds\": " + obs::format_number(threaded.seconds) +
         ", \"records_per_sec\": " + obs::format_number(threaded.records_per_sec) +
         ", \"speedup_vs_serial\": " +
         obs::format_number(serial.records_per_sec > 0
                                ? threaded.records_per_sec / serial.records_per_sec
                                : 0.0) +
         ", \"attack_verdicts\": " + std::to_string(threaded.attacks) + ", " +
         occupancy_json(threaded) + ", " + ingest_json(threaded.ingest) + "},\n";
  doc += "    {\"mode\": \"threaded_ingest_multi_receiver\", \"receiver_threads\": " +
         std::to_string(receivers_mp) + ", \"shards\": " + std::to_string(shards) +
         ", \"seconds\": " + obs::format_number(threaded_mp.seconds) +
         ", \"records_per_sec\": " + obs::format_number(threaded_mp.records_per_sec) +
         ", \"attack_verdicts\": " + std::to_string(threaded_mp.attacks) + ", " +
         occupancy_json(threaded_mp) + ", " + ingest_json(threaded_mp.ingest) +
         "},\n";
  doc += "    {\"mode\": \"threaded_ingest_tracer_disabled\", \"seconds\": " +
         obs::format_number(traced_off.seconds) +
         ", \"records_per_sec\": " + obs::format_number(best_disabled) +
         ", \"throughput_vs_untraced\": " + obs::format_number(overhead_ratio) +
         ", \"replays\": " + std::to_string(repeats) + "},\n";
  doc += "    {\"mode\": \"threaded_ingest_traced\", \"sample_every\": 1"
         ", \"seconds\": " + obs::format_number(traced.seconds) +
         ", \"records_per_sec\": " + obs::format_number(traced.records_per_sec) +
         ", \"attack_verdicts\": " + std::to_string(traced.attacks) +
         "}\n  ],\n";
  doc += "  \"trace\": {\"out\": \"" + trace_path +
         "\", \"journeys\": " + std::to_string(e2e != nullptr ? e2e->count : 0) +
         ", \"e2e_sum_us\": " + obs::format_number(e2e != nullptr ? e2e->sum : 0.0) +
         ", \"span_events\": " + std::to_string(tracer.events_emitted()) +
         ", \"span_events_dropped\": " + std::to_string(tracer.events_dropped()) +
         "},\n";
  doc += "  \"steady_state_heap_allocs\": " + std::to_string(steady_allocs) + ",\n";
  doc += "  \"steady_state_datagrams\": " + std::to_string(workload.datagrams.size()) +
         "\n}\n";

  const auto out_path = args.value_or("out", "BENCH_ingest.json");
  std::ofstream out(out_path, std::ios::trunc);
  out << doc;
  if (!out) {
    std::fprintf(stderr, "ingest_throughput: cannot write %s\n", out_path.c_str());
    return 1;
  }
  std::printf("wrote %s\n", out_path.c_str());

  // Correctness gates (perf numbers are informational on small hosts):
  // the threaded path must analyze every record, agree with the serial
  // verdict stream, and keep the hot path off the heap.
  if (threaded.ingest.records_dispatched != workload.flows) {
    std::fprintf(stderr, "FAIL: %llu of %zu records dispatched\n",
                 static_cast<unsigned long long>(threaded.ingest.records_dispatched),
                 workload.flows);
    return 1;
  }
  if (threaded.attacks != serial.attacks) {
    std::fprintf(stderr, "FAIL: attack verdicts diverged (serial %llu, threaded %llu)\n",
                 static_cast<unsigned long long>(serial.attacks),
                 static_cast<unsigned long long>(threaded.attacks));
    return 1;
  }
  if (threaded_mp.ingest.records_dispatched != workload.flows ||
      threaded_mp.attacks != serial.attacks) {
    std::fprintf(stderr,
                 "FAIL: multi-receiver run diverged (%llu of %zu records, "
                 "serial %llu vs multi %llu attack verdicts)\n",
                 static_cast<unsigned long long>(
                     threaded_mp.ingest.records_dispatched),
                 workload.flows, static_cast<unsigned long long>(serial.attacks),
                 static_cast<unsigned long long>(threaded_mp.attacks));
    return 1;
  }
  // Receiver-direct dispatch removed the receiver -> decode-thread hop;
  // nothing in the pipeline may emit a queue_ingest span anymore.
  if (trace_json.find("\"queue_ingest\"") != std::string::npos) {
    std::fprintf(stderr, "FAIL: exported trace still contains queue_ingest spans\n");
    return 1;
  }
  if (!INFILTER_BENCH_SANITIZED && steady_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: receive/decode hot path made %llu heap allocations\n",
                 static_cast<unsigned long long>(steady_allocs));
    return 1;
  }
  // Flight-recorder gates: disabled tracing within 2% of untraced, and the
  // fully-traced run must capture every record's journey losslessly (the
  // span-sum vs histogram identity is then checked offline against the
  // exported JSON by scripts/bench_summary.py --validate-trace).
  if (!INFILTER_BENCH_SANITIZED && overhead_ratio < 0.98) {
    std::fprintf(stderr,
                 "FAIL: tracer-disabled throughput %.3fx untraced (< 0.98)\n",
                 overhead_ratio);
    return 1;
  }
  if (e2e == nullptr || e2e->count != workload.flows) {
    std::fprintf(stderr, "FAIL: %llu of %zu journeys reached a verdict\n",
                 static_cast<unsigned long long>(e2e != nullptr ? e2e->count : 0),
                 workload.flows);
    return 1;
  }
  if (tracer.events_dropped() != 0) {
    std::fprintf(stderr, "FAIL: %llu span events dropped\n",
                 static_cast<unsigned long long>(tracer.events_dropped()));
    return 1;
  }
  if (traced.attacks != serial.attacks) {
    std::fprintf(stderr,
                 "FAIL: traced attack verdicts diverged (serial %llu, traced %llu)\n",
                 static_cast<unsigned long long>(serial.attacks),
                 static_cast<unsigned long long>(traced.attacks));
    return 1;
  }
  return 0;
}
