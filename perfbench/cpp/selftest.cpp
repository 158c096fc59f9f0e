// Self-test of the benchmark's own arithmetic: the median and percentile
// math every reported figure goes through, and the receiver-tag join that
// pairs each live verdict with its send slot. Exit 0 when every check holds.

#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

}  // namespace

int main() {
  using perfbench::join_tag;
  using perfbench::median;
  using perfbench::nearest_rank;

  check(median({}) == 0.0, "median of nothing is 0");
  check(median({7.0}) == 7.0, "median of one value");
  check(median({3.0, 1.0, 2.0}) == 2.0, "odd median sorts first");
  check(median({4.0, 1.0, 3.0, 2.0}) == 2.5, "even median averages the middle pair");

  std::vector<double> sample;
  for (int i = 1; i <= 1000; ++i) sample.push_back(i);
  check(nearest_rank(sample, 0.50) == 500.0, "p50 of 1..1000 is 500");
  check(nearest_rank(sample, 0.99) == 990.0, "p99 of 1..1000 leaves ten beyond");
  check(nearest_rank(sample, 1.0) == 1000.0, "p100 is the maximum");
  check(nearest_rank(sample, 0.0) == 1.0, "p0 is the minimum");
  const std::vector<double> small = {10.0, 20.0, 30.0};
  check(nearest_rank(small, 0.5) == 20.0, "p50 of three is the middle");
  check(nearest_rank(small, 0.99) == 30.0, "p99 of three is the maximum");
  check(nearest_rank({}, 0.5) == 0.0, "empty sample yields 0");

  // A tail stall confined to 2% of the samples moves the p99 to it, and
  // leaves the p50 alone.
  std::vector<double> stalled;
  for (int i = 1; i <= 1000; ++i) stalled.push_back(i <= 980 ? 10.0 : 1e6);
  check(nearest_rank(stalled, 0.99) == 1e6, "a 2% tail stall sets the p99");
  check(nearest_rank(stalled, 0.50) == 10.0, "a 2% tail stall leaves the p50");

  // Segment-wise fastest time: each pass is slowed in a different segment,
  // so no whole pass is clean, yet every segment has a clean time.
  using perfbench::segment_min_sum;
  const std::vector<std::vector<double>> bursts = {
      {9.0, 2.0, 3.0}, {1.0, 9.0, 3.0}, {1.0, 2.0, 9.0}};
  check(segment_min_sum(bursts) == 6.0, "a burst per pass leaves the segment minima");
  check(segment_min_sum({{1.0, 2.0, 3.0}}) == 6.0, "one pass is its own total");
  check(segment_min_sum({{5.0, 5.0}, {4.0, 6.0}}) == 9.0, "minima come from different passes");
  check(segment_min_sum({{1.0, 2.0, 3.0}, {1.0, 1.0}}) == 2.0,
        "segments beyond the shortest pass are ignored");
  check(segment_min_sum({}) == 0.0, "no passes yields 0");

  // Two sockets: socket 0 holds slots [0, 4), socket 1 holds [4, 10).
  const std::vector<std::size_t> offsets = {0, 4, 10};
  const std::uint64_t r1 = std::uint64_t{1} << perfbench::kReceiverTagShift;
  check(join_tag(0, offsets) == 0u, "receiver 0, record 0 -> slot 0");
  check(join_tag(3, offsets) == 3u, "receiver 0, last record");
  check(!join_tag(4, offsets), "receiver 0 overrun is stray");
  check(join_tag(r1, offsets) == 4u, "receiver 1 starts after socket 0");
  check(join_tag(r1 + 5, offsets) == 9u, "receiver 1, last record");
  check(!join_tag(r1 + 6, offsets), "receiver 1 overrun is stray");
  check(!join_tag(2 * r1, offsets), "unknown receiver is stray");
  check(!join_tag(0, std::vector<std::size_t>{0}), "empty layout joins nothing");

  std::printf("perfbench selftest: %s\n", failures == 0 ? "ok" : "FAILED");
  return failures == 0 ? 0 : 1;
}
