#include "core/eia_io.h"

#include <charconv>

namespace infilter::core {
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

std::optional<std::uint64_t> parse_u64(std::string_view text) {
  std::uint64_t value = 0;
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) return std::nullopt;
  return value;
}

/// Splits `line` at spaces/tabs into at most `max` tokens.
std::vector<std::string_view> tokens_of(std::string_view line) {
  std::vector<std::string_view> out;
  std::size_t at = 0;
  while (at < line.size()) {
    while (at < line.size() && (line[at] == ' ' || line[at] == '\t')) ++at;
    std::size_t end = at;
    while (end < line.size() && line[end] != ' ' && line[end] != '\t') ++end;
    if (end > at) out.push_back(line.substr(at, end - at));
    at = end;
  }
  return out;
}

/// The versioned lifecycle directive (aging policy) and the per-entry
/// age lines. Both appear only when age metadata exists, so a table that
/// never aged exports byte-identically to the historical format (the
/// round-trip tests pin it); legacy dumps without them load with every
/// member treated as a never-aging preload. The directive precedes the
/// state lines -- import honors it, overriding the caller's configured
/// policy so a reload resumes the exported aging behavior.
void append_lifecycle_directive(std::string& out, const EiaTable& table) {
  const lifecycle::LifecycleConfig& policy = table.config().lifecycle;
  out += "lifecycle v1 max_idle=" + std::to_string(policy.max_idle_ms) + "\n";
}

void append_age_entries(std::string& out, const EiaTable& table) {
  for (const EiaTable::AgedEntry& aged : table.aged_entries()) {
    out += "age " + std::to_string(aged.ingress) + " " +
           net::Prefix{net::IPv4Address{aged.key24}, 24}.to_string() + " " +
           std::to_string(aged.age.learned_at) + " " +
           std::to_string(aged.age.last_seen);
    if (aged.age.expired) out += " expired";
    out += "\n";
  }
}

}  // namespace

std::string export_eia(const EiaTable& table) {
  std::string out = "# InFilter EIA sets: ingress <id> followed by its expected prefixes\n";
  const bool aged = table.aged_entry_count() > 0;
  if (aged) append_lifecycle_directive(out, table);
  for (const auto ingress : table.ingresses()) {
    out += "ingress " + std::to_string(ingress) + "\n";
    for (const auto& prefix : table.set_for(ingress)->to_cidrs()) {
      out += "  " + prefix.to_string() + "\n";
    }
  }
  if (aged) append_age_entries(out, table);
  return out;
}

util::Result<EiaTable> import_eia(std::string_view text, EiaTableConfig config) {
  // The table is built at the first state line, so a lifecycle directive
  // before it can still set the aging policy.
  std::optional<EiaTable> table;
  std::optional<IngressId> current;
  int line_number = 0;

  auto fail = [&](const std::string& message) {
    return util::Error{"line " + std::to_string(line_number) + ": " + message};
  };
  auto ensure_table = [&]() -> EiaTable& {
    if (!table.has_value()) table.emplace(config);
    return *table;
  };

  std::size_t at = 0;
  while (at <= text.size()) {
    const auto newline = text.find('\n', at);
    const auto raw = text.substr(
        at, newline == std::string_view::npos ? text.size() - at : newline - at);
    at = newline == std::string_view::npos ? text.size() + 1 : newline + 1;
    ++line_number;

    const auto line = trim(raw);
    if (line.empty() || line.front() == '#') continue;

    if (line.rfind("lifecycle", 0) == 0 &&
        (line.size() == 9 || line[9] == ' ' || line[9] == '\t')) {
      if (table.has_value()) return fail("lifecycle directive after state lines");
      const auto parts = tokens_of(line);
      if (parts.size() < 2 || parts[1] != "v1") {
        return fail("unsupported lifecycle directive version");
      }
      for (std::size_t i = 2; i < parts.size(); ++i) {
        const auto eq = parts[i].find('=');
        const auto value = eq == std::string_view::npos
                               ? std::nullopt
                               : parse_u64(parts[i].substr(eq + 1));
        if (!value.has_value()) {
          return fail("bad lifecycle parameter '" + std::string(parts[i]) + "'");
        }
        const auto name = parts[i].substr(0, eq);
        if (name == "max_idle") {
          config.lifecycle.max_idle_ms = *value;
        } else if (name != "stale_after") {  // legacy: parsed, then ignored
          return fail("unknown lifecycle parameter '" + std::string(name) + "'");
        }
      }
      continue;
    }

    if (line.rfind("age ", 0) == 0) {
      const auto parts = tokens_of(line);
      if (parts.size() != 5 && parts.size() != 6) {
        return fail("age line wants: age INGRESS PREFIX LEARNED LAST [expired]");
      }
      const auto ingress = parse_u64(parts[1]);
      const auto prefix = net::Prefix::parse(parts[2]);
      const auto learned = parse_u64(parts[3]);
      const auto last = parse_u64(parts[4]);
      bool expired = false;
      if (parts.size() == 6) {
        if (parts[5] != "expired") {
          return fail("bad age flag '" + std::string(parts[5]) + "'");
        }
        expired = true;
      }
      if (!ingress.has_value() || *ingress > 0xFFFF || !prefix.has_value() ||
          prefix->length() != 24 || !learned.has_value() || !last.has_value()) {
        return fail("bad age line");
      }
      ensure_table().restore_age(
          static_cast<IngressId>(*ingress), prefix->address().value(),
          lifecycle::EntryAge{*learned, *last, expired});
      continue;
    }

    if (line.rfind("ingress", 0) == 0) {
      const auto id_text = trim(line.substr(7));
      const auto id = parse_u64(id_text);
      if (!id.has_value() || *id > 0xFFFF) {
        return fail("bad ingress id '" + std::string(id_text) + "'");
      }
      current = static_cast<IngressId>(*id);
      ensure_table().declare_ingress(*current);  // a stanza may be empty
      continue;
    }

    const auto prefix = net::Prefix::parse(line);
    if (!prefix.has_value()) {
      return fail("bad prefix '" + std::string(line) + "'");
    }
    if (!current.has_value()) {
      return fail("prefix before any 'ingress' stanza");
    }
    ensure_table().add_expected(*current, *prefix);
  }

  if (!table.has_value()) table.emplace(config);
  return std::move(*table);
}

}  // namespace infilter::core
