// infilter-monitor: the live InFilter analysis node (Figure 9, running).
//
// Binds the collector ports, trains from a capture of known-good traffic,
// then analyzes arriving NetFlow exports in real time, printing each alert
// as it fires plus a periodic status line and a final traceback report.
// Feed it with `infilter-flowgen --send --attacks ...` from another shell.
//
// Usage:
//   infilter-monitor --train TRAIN_FILE [--ports 9001,...]
//                    [--eia EIA_FILE] [--mode basic|enhanced]
//                    [--eia-max-idle MS]   # expire learned EIA entries idle
//                                          # longer than MS of flow time
//                                          # (0 = off; src/lifecycle)
//                    [--resize-shards N]   # live-resize the worker pool to N
//                                          # shards halfway through the run,
//                                          # migrating engine state
//                    [--duration-ms 30000] [--idmef]
//                    [--ttl-detect]        # fuse the TTL hop-count detector
//                                          # with the EIA check (src/hopcount)
//                    [--ttl-tolerance 2]   # hop-count window slack
//                    [--threads 1]         # worker shards (>= 1)
//                    [--queue-depth 4096]
//                    [--ingest-threads 1]  # recvmmsg receivers (>= 1), each
//                                          # decoding and dispatching
//                                          # directly into the runtime; the
//                                          # defaults (1 x 1) are the serial
//                                          # node
//                    [--cpu-set LIST]      # pin pipeline threads: "0-3,8"
//                                          # style; receivers first, then
//                                          # workers, then the scan thread.
//                                          # A hint -- missing cpus are
//                                          # counted, never fatal
//                    [--metrics-out FILE]  # final metrics dump: JSON when
//                                          # FILE ends in .json, else
//                                          # Prometheus text format
//                    [--trace-out FILE]    # flight-recorder export: Chrome
//                                          # trace-event JSON (Perfetto)
//                    [--trace-sample N]    # trace 1 in N records (default 64;
//                                          # either --trace-* flag enables the
//                                          # recorder); liveness stall warnings
//                                          # ride the status loop either way

#include <cstdio>
#include <fstream>
#include <limits>
#include <optional>
#include <sstream>

#include "app/node.h"
#include "core/eia_io.h"
#include "dagflow/allocation.h"
#include "flowtools/capture.h"
#include "obs/export.h"
#include "obs/process.h"
#include "obs/trace.h"
#include "runtime/affinity.h"
#include "util/args.h"

using namespace infilter;

namespace {

int fail(const std::string& message) {
  std::fprintf(stderr, "infilter-monitor: %s\n", message.c_str());
  return 1;
}

/// Prints alerts as they arrive (the console Alert UI).
class ConsoleSink final : public alert::AlertSink {
 public:
  explicit ConsoleSink(bool idmef) : idmef_(idmef) {}
  void consume(const alert::Alert& alert) override {
    if (idmef_) {
      std::fputs(alert.to_idmef_xml().c_str(), stdout);
      return;
    }
    std::printf("ALERT #%llu [%s] %s -> %s:%u via ingress %u\n",
                static_cast<unsigned long long>(alert.id),
                std::string(alert::stage_name(alert.stage)).c_str(),
                alert.source_ip.to_string().c_str(),
                alert.target_ip.to_string().c_str(), alert.target_port,
                alert.ingress_port);
  }

 private:
  bool idmef_;
};

/// Writes a metrics snapshot to `path`: JSON when the name ends in
/// ".json", Prometheus text exposition format otherwise.
bool write_metrics(const std::string& path, const obs::RegistrySnapshot& snapshot) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  const bool json = path.size() >= 5 && path.rfind(".json") == path.size() - 5;
  out << (json ? obs::to_json(snapshot) : obs::to_prometheus(snapshot));
  return static_cast<bool>(out);
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed = util::Args::parse(
      argc, argv, {"idmef", "ttl-detect"},
      {"cpu-set", "duration-ms", "eia", "eia-max-idle", "ingest-threads", "metrics-out",
       "mode", "ports", "queue-depth", "resize-shards", "threads", "trace-out",
       "trace-sample", "train", "ttl-tolerance"});
  if (!parsed) return fail(parsed.error().message);
  const auto& args = *parsed;

  app::NodeConfig config;
  if (args.has("ports")) {
    const auto ports = args.checked_int_list("ports", 0, 65535);
    if (!ports) return fail(ports.error().message);
    config.ports.assign(ports->begin(), ports->end());
  }
  const auto mode = args.value_or("mode", "enhanced");
  if (mode == "basic") config.engine.use_scan_analysis = config.engine.use_nns = false;
  else if (mode != "enhanced") return fail("--mode must be basic or enhanced");
  const auto max_idle = args.checked_int("eia-max-idle", 0, 0,
                                         std::numeric_limits<std::int64_t>::max());
  if (!max_idle) return fail(max_idle.error().message);
  config.engine.eia.lifecycle.max_idle_ms = static_cast<util::DurationMs>(*max_idle);
  config.engine.use_hopcount = args.has("ttl-detect");
  const auto ttl_tolerance = args.checked_int("ttl-tolerance", 2, 0, 255);
  if (!ttl_tolerance) return fail(ttl_tolerance.error().message);
  config.engine.hopcount.tolerance = static_cast<int>(*ttl_tolerance);
  // Validated numerics: a typo'd or out-of-range value must fail with a
  // message, not wrap into NodeConfig and misbehave there.
  const auto threads = args.checked_int("threads", 1, 1, 4096);
  if (!threads) return fail(threads.error().message);
  config.threads = static_cast<int>(*threads);
  const auto queue_depth = args.checked_int("queue-depth", 4096, 1, 1 << 24);
  if (!queue_depth) return fail(queue_depth.error().message);
  config.queue_depth = static_cast<std::size_t>(*queue_depth);
  const auto resize_arg = args.checked_int("resize-shards", 0, 0, 4096);
  if (!resize_arg) return fail(resize_arg.error().message);
  const int resize_shards = static_cast<int>(*resize_arg);
  const auto ingest_threads = args.checked_int("ingest-threads", 1, 1, 4096);
  if (!ingest_threads) return fail(ingest_threads.error().message);
  config.ingest_threads = static_cast<int>(*ingest_threads);
  if (const auto cpu_set = args.value("cpu-set")) {
    std::string error;
    const auto cpus = runtime::parse_cpu_set(*cpu_set, &error);
    if (!cpus) return fail(error);
    config.affinity = *cpus;
  }
  // An --eia dump is read before the node is built: its lifecycle
  // directive, when it has one, sets the engines' aging policy
  // (core/eia_io.h).
  std::optional<core::EiaTable> imported_eia;
  if (const auto eia_path = args.value("eia")) {
    std::ifstream in(*eia_path);
    if (!in) return fail("cannot open " + *eia_path);
    std::ostringstream text;
    text << in.rdbuf();
    auto imported = core::import_eia(text.str(), config.engine.eia);
    if (!imported) return fail(imported.error().message);
    imported_eia.emplace(std::move(*imported));
    config.engine.eia.lifecycle = imported_eia->config().lifecycle;
  }

  // Flight recorder: always attached, so the liveness watchdog sees every
  // pipeline thread; span tracing (the part with a cost) only turns on when
  // a --trace-* flag asks for it. Declared before the node: must outlive it.
  const auto trace_out = args.value("trace-out");
  const auto trace_sample = args.checked_int("trace-sample", 64, 1, 1 << 30);
  if (!trace_sample) return fail(trace_sample.error().message);
  obs::TracerConfig trace_config;
  trace_config.sample_every = static_cast<std::uint64_t>(*trace_sample);
  // Always on: the sampled e2e latency histogram feeds the live status
  // line (1-in-N records, bounded span rings). The Chrome trace export
  // itself still only happens with --trace-out.
  trace_config.enabled = true;
  obs::Tracer tracer(trace_config);
  config.tracer = &tracer;

  ConsoleSink console(args.has("idmef"));
  auto node = app::InFilterNode::create(config, &console);
  if (!node) return fail(node.error().message);

  // EIA sets: file (learned state included) or Table 3 defaults.
  if (imported_eia.has_value()) {
    (*node)->install_eia(*imported_eia);
  } else {
    for (int s = 0; s < 10; ++s) {
      for (const auto& block : dagflow::eia_range(s).expand()) {
        (*node)->add_expected(static_cast<core::IngressId>(9001 + s), block.prefix());
      }
    }
  }

  if (config.engine.use_nns) {
    const auto train_path = args.value("train");
    if (!train_path.has_value()) return fail("--train is required in enhanced mode");
    flowtools::FlowCapture training;
    if (const auto loaded = training.load(*train_path); !loaded) {
      return fail(loaded.error().message);
    }
    std::vector<netflow::V5Record> records;
    records.reserve(training.flows().size());
    for (const auto& flow : training.flows()) records.push_back(flow.record);
    (*node)->train(records);
    std::printf("trained on %zu flows; ", records.size());
  }
  std::printf(
      "monitoring %zu collector port(s): %d receiver thread(s) dispatching "
      "directly -> %d worker shard(s)\n",
      (*node)->ports().size(), config.ingest_threads, (*node)->threads());

  const auto duration_arg = args.checked_int("duration-ms", 30000, 1, 1 << 30);
  if (!duration_arg) return fail(duration_arg.error().message);
  const auto duration = *duration_arg;
  std::int64_t elapsed = 0;
  std::uint64_t last_processed = 0;
  bool resized = false;
  while (elapsed < duration) {
    constexpr int kSliceMs = 250;
    const auto processed = (*node)->poll_once(kSliceMs);
    if (!processed) return fail(processed.error().message);
    elapsed += kSliceMs;
    if (!resized && resize_shards > 0 && elapsed >= duration / 2) {
      // Live resize under traffic: ingest receivers stall on the submit
      // gate for the pause, then keep dispatching into the new pool.
      resized = (*node)->resize(resize_shards);
      if (resized) {
        std::printf("resized runtime to %d shard(s) mid-run\n", resize_shards);
      }
    }
    // The liveness watchdog: flag pipeline threads whose progress counter
    // stopped while their input queue is non-empty (wedged worker, stuck
    // decode stage...). One scan per slice keeps the baselines fresh.
    for (const auto& stall : tracer.scan_liveness(100.0)) {
      std::fprintf(stderr,
                   "WARN: thread '%s' stalled for %.0f ms (%s, %zu queued)\n",
                   stall.name.c_str(), stall.stalled_for_ms,
                   std::string(obs::thread_state_name(stall.state)).c_str(),
                   stall.queued);
    }
    const auto& stats = (*node)->stats();
    if (stats.flows_processed != last_processed && elapsed % 1000 < kSliceMs) {
      // Drain in-flight flows first, so the snapshot can safely merge
      // every shard engine's registry and the printed
      // flows/suspects/attacks agree with each other.
      (*node)->flush();
      const auto snapshot = (*node)->metrics();
      std::printf("status: %llu flows, %llu suspects, %llu attacks",
                  static_cast<unsigned long long>(stats.flows_processed),
                  static_cast<unsigned long long>(stats.suspects),
                  static_cast<unsigned long long>(stats.attacks_flagged));
      const auto* latency = snapshot.histogram("infilter_process_latency_us");
      if (latency != nullptr && latency->count > 0) {
        std::printf(" | process p50 %.2fus p95 %.2fus p99 %.2fus",
                    latency->quantile(0.50), latency->quantile(0.95),
                    latency->quantile(0.99));
      }
      // End-to-end (receive -> final verdict) from the always-on sampled
      // journey histogram -- the live view of what --trace-out exports.
      const auto* e2e = snapshot.histogram("infilter_e2e_latency_us");
      if (e2e != nullptr && e2e->count > 0) {
        std::printf(" | e2e p50 %.2fus p99 %.2fus", e2e->quantile(0.50),
                    e2e->quantile(0.99));
      }
      // Lifecycle health rides the same line: entry churn (aging on) and
      // pool resizes, from the engine/runtime lifecycle counters.
      if (const double resizes =
              snapshot.value("infilter_lifecycle_resizes_total");
          config.engine.eia.lifecycle.enabled() || resizes > 0) {
        std::printf(
            " | lifecycle %.0f expired %.0f relearned %.0f resize(s)",
            snapshot.value("infilter_lifecycle_entries_expired_total"),
            snapshot.value("infilter_lifecycle_entries_relearned_total"),
            resizes);
      }
      std::printf("\n");
      last_processed = stats.flows_processed;
    }
  }

  // Drain in-flight flows so the final numbers are exact.
  (*node)->flush();
  const auto& stats = (*node)->stats();
  std::printf("\nfinal: %llu flows processed, %llu suspects, %llu attacks, "
              "%llu datagrams (%llu malformed, %llu flows lost)\n",
              static_cast<unsigned long long>(stats.flows_processed),
              static_cast<unsigned long long>(stats.suspects),
              static_cast<unsigned long long>(stats.attacks_flagged),
              static_cast<unsigned long long>(stats.datagrams),
              static_cast<unsigned long long>(stats.malformed_datagrams),
              static_cast<unsigned long long>(stats.sequence_gaps));
  std::fputs((*node)->traceback().report().c_str(), stdout);

  if (tracer.enabled()) {
    const auto snapshot = (*node)->metrics();
    const auto* e2e = snapshot.histogram("infilter_e2e_latency_us");
    if (e2e != nullptr && e2e->count > 0) {
      std::printf(
          "trace: %llu journeys sampled (1 in %llu), e2e p50 %.2fus "
          "p99 %.2fus p99.9 %.2fus; %llu span events (%llu dropped)\n",
          static_cast<unsigned long long>(e2e->count),
          static_cast<unsigned long long>(tracer.sample_every()),
          e2e->quantile(0.50), e2e->quantile(0.99), e2e->quantile(0.999),
          static_cast<unsigned long long>(tracer.events_emitted()),
          static_cast<unsigned long long>(tracer.events_dropped()));
    }
  }

  if (const auto metrics_path = args.value("metrics-out")) {
    // Node metrics (engine/runtime/ingest + tracer) plus the process-level
    // self-metrics: RSS, CPU time, uptime, thread count.
    obs::Registry process_registry;
    obs::register_process_metrics(process_registry);
    const auto merged = obs::merge_snapshots(
        {(*node)->metrics(), process_registry.snapshot()});
    if (!write_metrics(*metrics_path, merged)) {
      return fail("cannot write metrics to " + *metrics_path);
    }
    std::printf("wrote metrics to %s\n", metrics_path->c_str());
  }

  if (trace_out.has_value()) {
    std::ofstream out(*trace_out, std::ios::trunc);
    if (!out) return fail("cannot open " + *trace_out);
    out << tracer.chrome_trace_json();
    if (!out) return fail("cannot write trace to " + *trace_out);
    std::printf("wrote Chrome trace-event JSON to %s (open in ui.perfetto.dev)\n",
                trace_out->c_str());
  }
  return 0;
}
