#include "hopcount/hopcount_io.h"

#include <charconv>
#include <optional>
#include <sstream>
#include <vector>

namespace infilter::hopcount {
namespace {

std::string_view trim(std::string_view text) {
  while (!text.empty() && (text.front() == ' ' || text.front() == '\t')) {
    text.remove_prefix(1);
  }
  while (!text.empty() &&
         (text.back() == ' ' || text.back() == '\t' || text.back() == '\r')) {
    text.remove_suffix(1);
  }
  return text;
}

/// Splits a line on runs of spaces/tabs.
std::vector<std::string_view> fields_of(std::string_view line) {
  std::vector<std::string_view> fields;
  std::size_t at = 0;
  while (at < line.size()) {
    while (at < line.size() && (line[at] == ' ' || line[at] == '\t')) ++at;
    std::size_t end = at;
    while (end < line.size() && line[end] != ' ' && line[end] != '\t') ++end;
    if (end > at) fields.push_back(line.substr(at, end - at));
    at = end;
  }
  return fields;
}

template <typename T>
std::optional<T> parse_number(std::string_view text) {
  T value{};
  const auto end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

util::Error at_line(int line_number, const std::string& what) {
  return util::Error{"line " + std::to_string(line_number) + ": " + what};
}

}  // namespace

std::string export_hopcount(const HopCountTable& table) {
  std::ostringstream out;
  out << kHopCountMagic << "\n";
  out << "# ingress <id> followed by: <src /24> <min> <max> <count> "
         "<out_streak> <last_seen_ms>\n";
  std::optional<IngressId> current;
  for (const auto& exported : table.entries()) {
    if (!current.has_value() || *current != exported.ingress) {
      current = exported.ingress;
      out << "ingress " << *current << "\n";
    }
    const auto& e = exported.entry;
    // The legacy out_streak column is always written as 0.
    out << "  " << exported.slash24.to_string() << " " << int{e.min_hops}
        << " " << int{e.max_hops} << " " << e.count << " 0 " << e.last_seen
        << "\n";
  }
  return std::move(out).str();
}

util::Result<HopCountTable> import_hopcount(std::string_view text,
                                            HopCountConfig config) {
  HopCountTable table(config);
  std::optional<IngressId> current;
  bool magic_seen = false;
  int line_number = 0;

  std::size_t at = 0;
  while (at <= text.size()) {
    const auto newline = text.find('\n', at);
    const auto raw = text.substr(
        at, newline == std::string_view::npos ? text.size() - at : newline - at);
    at = newline == std::string_view::npos ? text.size() + 1 : newline + 1;
    ++line_number;

    const auto line = trim(raw);
    if (!magic_seen) {
      // The magic/version line must come before anything else, comments
      // included -- a truncated or foreign file fails here, not later.
      if (line.empty()) continue;
      if (line != kHopCountMagic) {
        return at_line(line_number, "expected '" + std::string(kHopCountMagic) +
                                        "', got '" + std::string(line) + "'");
      }
      magic_seen = true;
      continue;
    }
    if (line.empty() || line.front() == '#') continue;

    if (line.rfind("ingress", 0) == 0) {
      const auto id = parse_number<unsigned>(trim(line.substr(7)));
      if (!id.has_value() || *id > 0xFFFF) {
        return at_line(line_number, "bad ingress id '" +
                                        std::string(trim(line.substr(7))) + "'");
      }
      current = static_cast<IngressId>(*id);
      continue;
    }

    const auto fields = fields_of(line);
    if (fields.size() != 6) {
      return at_line(line_number, "expected 6 fields, got " +
                                      std::to_string(fields.size()));
    }
    const auto prefix = net::Prefix::parse(fields[0]);
    if (!prefix.has_value() || prefix->length() != 24) {
      return at_line(line_number,
                     "bad /24 prefix '" + std::string(fields[0]) + "'");
    }
    if (!current.has_value()) {
      return at_line(line_number, "entry before any 'ingress' stanza");
    }
    const auto min_hops = parse_number<unsigned>(fields[1]);
    const auto max_hops = parse_number<unsigned>(fields[2]);
    const auto count = parse_number<int>(fields[3]);
    // The legacy out_streak column is validated, then discarded.
    const auto out_streak = parse_number<int>(fields[4]);
    const auto last_seen = parse_number<std::uint64_t>(fields[5]);
    if (!min_hops.has_value() || !max_hops.has_value() || *min_hops > 255 ||
        *max_hops > 255 || *min_hops > *max_hops || !count.has_value() ||
        *count < 0 || !out_streak.has_value() || *out_streak < 0 ||
        !last_seen.has_value()) {
      return at_line(line_number, "bad entry fields '" + std::string(line) + "'");
    }
    table.restore(*current, prefix->address(),
                  HopCountTable::Entry{static_cast<std::uint8_t>(*min_hops),
                                       static_cast<std::uint8_t>(*max_hops),
                                       *count, *last_seen});
  }
  if (!magic_seen) {
    return util::Error{"missing '" + std::string(kHopCountMagic) +
                       "' header line"};
  }
  return table;
}

}  // namespace infilter::hopcount
