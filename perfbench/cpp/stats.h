// Order statistics and the live-ingest tag join -- the two pieces of the
// benchmark whose arithmetic its own self-test pins (selftest.cpp).

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty input.
[[nodiscard]] inline double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

/// Nearest-rank quantile of an ascending-sorted sample: the smallest value
/// with at least q * n samples at or below it. q in [0, 1]; 0 for an empty
/// sample. q = 0.99 over 1000 samples is the 990th smallest, which leaves
/// ten samples beyond it.
[[nodiscard]] inline double nearest_rank(std::span<const double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const double rank = std::ceil(q * static_cast<double>(sorted.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : std::min(sorted.size(), static_cast<std::size_t>(rank)) - 1;
  return sorted[index];
}

/// Segment-wise fastest time: `passes[p][s]` is the time pass p spent on
/// segment s of the same input; the result is, summed over the segments,
/// each segment's fastest time across passes. Interference from other
/// tenants only ever adds time, so every term tracks the code's own cost,
/// and a burst of interference has to hit the same segment in every pass
/// to move it -- unlike the fastest whole pass, which one burst per pass
/// spoils. Segments beyond the shortest pass are ignored; 0 for no passes.
[[nodiscard]] inline double segment_min_sum(const std::vector<std::vector<double>>& passes) {
  if (passes.empty()) return 0.0;
  std::size_t segments = passes.front().size();
  for (const auto& pass : passes) segments = std::min(segments, pass.size());
  double total = 0.0;
  for (std::size_t s = 0; s < segments; ++s) {
    double fastest = passes.front()[s];
    for (const auto& pass : passes) fastest = std::min(fastest, pass[s]);
    total += fastest;
  }
  return total;
}

/// Ingest receivers tag record i of receiver r as (r << 48) + i
/// (ingest/ingest.h). With one socket per receiver, receiver r's records are
/// its socket's records in send order, so a tag names one send slot.
inline constexpr int kReceiverTagShift = 48;

/// Maps a receiver tag to its slot in a socket-major layout where socket r's
/// records occupy [offsets[r], offsets[r + 1]). nullopt for a receiver index
/// or record index outside the layout (a stray or duplicated record).
[[nodiscard]] inline std::optional<std::size_t> join_tag(
    std::uint64_t tag, std::span<const std::size_t> offsets) {
  const std::uint64_t receiver = tag >> kReceiverTagShift;
  const std::uint64_t index = tag & ((std::uint64_t{1} << kReceiverTagShift) - 1);
  if (offsets.size() < 2 || receiver >= offsets.size() - 1) return std::nullopt;
  const std::size_t first = offsets[receiver];
  if (index >= offsets[receiver + 1] - first) return std::nullopt;
  return first + index;
}

}  // namespace perfbench
