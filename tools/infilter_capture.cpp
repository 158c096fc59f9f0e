// infilter-capture: a live flow-capture node (Figure 9's flow-tools box).
//
// Binds one UDP socket per collector port, ingests NetFlow v5 export
// datagrams until a flow target or deadline is reached, and writes the
// capture for infilter-report / infilter-detect. Pair with
// `infilter-flowgen --send` in another shell for a live two-process run.
//
// Usage:
//   infilter-capture --out flows.bin [--ports 9001,9002,...]
//                    [--flows 1000] [--timeout-ms 10000] [--ascii]

#include <cstdio>
#include <fstream>
#include <limits>

#include "flowtools/ascii.h"
#include "flowtools/udp.h"
#include "util/args.h"

using namespace infilter;

namespace {

int fail(const std::string& message) {
  std::fprintf(stderr, "infilter-capture: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto parsed =
      util::Args::parse(argc, argv, {"ascii"}, {"flows", "out", "ports", "timeout-ms"});
  if (!parsed) return fail(parsed.error().message);
  const auto& args = *parsed;
  const auto out_path = args.value("out");
  if (!out_path.has_value()) return fail("--out FILE is required");

  std::vector<std::uint16_t> ports{9001, 9002, 9003, 9004, 9005,
                                   9006, 9007, 9008, 9009, 9010};
  if (args.has("ports")) {
    const auto parsed_ports = args.checked_int_list("ports", 0, 65535);
    if (!parsed_ports) return fail(parsed_ports.error().message);
    ports.assign(parsed_ports->begin(), parsed_ports->end());
  }

  const auto target = args.checked_int("flows", 1000, 1);
  if (!target) return fail(target.error().message);
  const auto timeout =
      args.checked_int("timeout-ms", 10000, 1, std::numeric_limits<int>::max());
  if (!timeout) return fail(timeout.error().message);

  auto collector = flowtools::LiveCollector::bind(ports);
  if (!collector) return fail(collector.error().message);
  std::printf("listening on %zu port(s); first is %u\n", ports.size(),
              collector->ports().front());

  const auto collected = collector->collect(static_cast<std::size_t>(*target),
                                            static_cast<int>(*timeout));
  if (!collected) return fail(collected.error().message);

  const auto& capture = collector->capture();
  std::printf("captured %zu flows (%zu datagrams, %zu malformed, %llu lost to gaps)\n",
              capture.flows().size(), capture.datagrams_received(),
              capture.datagrams_malformed(),
              static_cast<unsigned long long>(capture.sequence_gaps()));

  if (args.has("ascii")) {
    std::ofstream out(*out_path);
    if (!out) return fail("cannot open " + *out_path);
    out << flowtools::export_ascii(capture.flows());
  } else if (const auto saved = capture.save(*out_path); !saved) {
    return fail(saved.error().message);
  }
  std::printf("wrote %s\n", out_path->c_str());
  return 0;
}
