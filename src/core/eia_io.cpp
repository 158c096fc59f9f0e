#include "core/eia_io.h"

#include <algorithm>
#include <charconv>
#include <sstream>

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

std::optional<std::uint64_t> parse_u64(std::string_view text, int base = 10) {
  std::uint64_t value = 0;
  const auto* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value, base);
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

void append_hex(std::string& out, std::uint64_t value, int digits) {
  static const char* kHex = "0123456789abcdef";
  for (int shift = (digits - 1) * 4; shift >= 0; shift -= 4) {
    out.push_back(kHex[(value >> shift) & 0xF]);
  }
}

/// Emits `key=value` backend parameters for the directive line.
void append_backend_directive(std::string& out, const BankedBloomBase& backend) {
  const auto& config = backend.config();
  out += "backend ";
  out += eia_backend_name(config.type);
  out += " bits=" + std::to_string(config.bits);
  out += " k=" + std::to_string(config.hashes);
  out += " subfilters=" + std::to_string(config.subfilters);
  out += " rotate=" + std::to_string(config.rotate_every);
  out += " per_ingress=" + std::to_string(config.per_ingress ? 1 : 0);
  out += " seed=" + std::to_string(config.hash_seed);
  out += " inserts=" + std::to_string(backend.insert_count());
  out += " rotations=" + std::to_string(backend.rotations());
  out += "\n";
}

/// Emits runs of nonzero 64-bit words: "words <start-index> <hex16>...".
void append_word_runs(std::string& out, const std::vector<std::uint64_t>& words) {
  constexpr std::size_t kPerLine = 8;
  std::size_t i = 0;
  while (i < words.size()) {
    if (words[i] == 0) {
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < words.size() && end - i < kPerLine && words[end] != 0) ++end;
    out += "words " + std::to_string(i);
    for (std::size_t w = i; w < end; ++w) {
      out += ' ';
      append_hex(out, words[w], 16);
    }
    out += "\n";
    i = end;
  }
}

/// Emits runs of nonzero counter bytes: "bytes <start-index> <hex2>...".
void append_byte_runs(std::string& out, const std::vector<std::uint8_t>& bytes) {
  constexpr std::size_t kPerLine = 32;
  std::size_t i = 0;
  while (i < bytes.size()) {
    if (bytes[i] == 0) {
      ++i;
      continue;
    }
    std::size_t end = i;
    while (end < bytes.size() && end - i < kPerLine && bytes[end] != 0) ++end;
    out += "bytes " + std::to_string(i);
    for (std::size_t b = i; b < end; ++b) {
      out += ' ';
      append_hex(out, bytes[b], 2);
    }
    out += "\n";
    i = end;
  }
}

void append_bank_state(std::string& out, const BankedBloomBase& backend) {
  // Only meaningful (and only emitted) when aging is on: with rotate=0
  // every bank stays at sub-filter 0 with a zero insert counter.
  if (backend.config().rotate_every == 0) return;
  const auto& current = backend.bank_current();
  const auto& inserts = backend.bank_inserts();
  for (std::size_t bank = 0; bank < current.size(); ++bank) {
    if (current[bank] == 0 && inserts[bank] == 0) continue;
    out += "bank " + std::to_string(bank) + " " + std::to_string(current[bank]) +
           " " + std::to_string(inserts[bank]) + "\n";
  }
}

/// The versioned lifecycle directive (aging policy) and the per-entry
/// age lines. Both appear only when age metadata exists, so a table that
/// never aged exports byte-identically to the historical format (the
/// round-trip tests pin it); legacy dumps without them load with every
/// entry fresh/established. The directive precedes the state lines --
/// import honors it like the backend directive, overriding the caller's
/// configured policy so a reload resumes the exported aging behavior.
void append_lifecycle_directive(std::string& out, const EiaTable& table) {
  const lifecycle::LifecycleConfig& policy = table.config().lifecycle;
  out += "lifecycle v1 max_idle=" + std::to_string(policy.max_idle_ms) +
         " stale_after=" + std::to_string(policy.stale_after_ms) + "\n";
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

/// Parsed state of a "backend ..." directive line.
struct BackendDirective {
  EiaBackendConfig config;
  std::uint64_t inserts = 0;
  std::uint64_t rotations = 0;
};

util::Result<BackendDirective> parse_backend_directive(std::string_view line) {
  BackendDirective out;
  const auto parts = tokens_of(line);
  // parts[0] == "backend"
  if (parts.size() < 2) return util::Error{"backend directive missing type"};
  if (parts[1] == "exact") {
    out.config.type = EiaBackendType::kExact;
    return out;
  }
  if (parts[1] == "bloom") {
    out.config.type = EiaBackendType::kBloom;
  } else if (parts[1] == "cbloom") {
    out.config.type = EiaBackendType::kCountingBloom;
  } else {
    return util::Error{"unknown backend type '" + std::string(parts[1]) + "'"};
  }
  for (std::size_t i = 2; i < parts.size(); ++i) {
    const auto eq = parts[i].find('=');
    if (eq == std::string_view::npos) {
      return util::Error{"bad backend parameter '" + std::string(parts[i]) + "'"};
    }
    const auto name = parts[i].substr(0, eq);
    const auto value = parse_u64(parts[i].substr(eq + 1));
    if (!value.has_value()) {
      return util::Error{"bad backend parameter value in '" + std::string(parts[i]) +
                         "'"};
    }
    if (name == "bits") {
      out.config.bits = static_cast<std::size_t>(*value);
    } else if (name == "k") {
      out.config.hashes = static_cast<int>(*value);
    } else if (name == "subfilters") {
      out.config.subfilters = static_cast<int>(*value);
    } else if (name == "rotate") {
      out.config.rotate_every = *value;
    } else if (name == "per_ingress") {
      out.config.per_ingress = *value != 0;
    } else if (name == "seed") {
      out.config.hash_seed = *value;
    } else if (name == "inserts") {
      out.inserts = *value;
    } else if (name == "rotations") {
      out.rotations = *value;
    } else {
      return util::Error{"unknown backend parameter '" + std::string(name) + "'"};
    }
  }
  if (out.config.hashes < 1 || out.config.hashes > 16) {
    return util::Error{"backend k out of range"};
  }
  if (out.config.subfilters < 1 || out.config.subfilters > 8) {
    return util::Error{"backend subfilters out of range"};
  }
  if (out.config.bits > kMaxEiaBackendBits) {
    return util::Error{"backend bits above the 2^30 cap"};
  }
  return out;
}

}  // namespace

std::string export_eia(const EiaTable& table) {
  // The exact backend keeps the historical text format, byte-identical:
  // operators' configs and the round-trip tests both depend on it.
  if (table.backend().type() == EiaBackendType::kExact) {
    std::ostringstream out;
    out << "# InFilter EIA sets: ingress <id> followed by its expected prefixes\n";
    if (table.aged_entry_count() > 0) {
      std::string directive;
      append_lifecycle_directive(directive, table);
      out << directive;
    }
    for (const auto ingress : table.ingresses()) {
      out << "ingress " << ingress << "\n";
      for (const auto& prefix : table.set_for(ingress)->to_cidrs()) {
        out << "  " << prefix.to_string() << "\n";
      }
    }
    if (table.aged_entry_count() > 0) {
      std::string ages;
      append_age_entries(ages, table);
      out << ages;
    }
    return std::move(out).str();
  }

  // Probabilistic backends: the membership state IS the bit/counter
  // arrays, so they persist verbatim (sparse nonzero runs) together with
  // every parameter that shapes the hashes -- a reload answers exactly
  // like the exported table, false positives included.
  const auto& base = static_cast<const BankedBloomBase&>(table.backend());
  std::string out =
      "# InFilter EIA backend state (probabilistic; core/eia_backend.h)\n";
  append_backend_directive(out, base);
  if (table.aged_entry_count() > 0) append_lifecycle_directive(out, table);
  for (const auto ingress : table.ingresses()) {
    out += "ingress " + std::to_string(ingress) + "\n";
  }
  append_bank_state(out, base);
  if (base.type() == EiaBackendType::kBloom) {
    const auto& arrays =
        static_cast<const BloomEiaBackend&>(base).word_arrays();
    for (std::size_t slot = 0; slot < arrays.size(); ++slot) {
      out += "filter " + std::to_string(slot) + "\n";
      append_word_runs(out, arrays[slot]);
    }
  } else {
    const auto& arrays =
        static_cast<const CountingBloomEiaBackend&>(base).counter_arrays();
    for (std::size_t slot = 0; slot < arrays.size(); ++slot) {
      out += "filter " + std::to_string(slot) + "\n";
      append_byte_runs(out, arrays[slot]);
    }
  }
  if (table.aged_entry_count() > 0) append_age_entries(out, table);
  return out;
}

util::Result<EiaTable> import_eia(std::string_view text, EiaTableConfig config) {
  // First pass for the backend directive: it must precede any state and
  // decides which table we build (absent = the caller's configured
  // backend, historically exact).
  std::optional<BackendDirective> directive;
  std::optional<EiaTable> table;
  std::optional<IngressId> current;
  int line_number = 0;
  // Probabilistic import state.
  std::vector<std::uint8_t> bank_current(kBloomBanks, 0);
  std::vector<std::uint64_t> bank_inserts(kBloomBanks, 0);
  bool saw_bank_state = false;
  std::optional<std::size_t> current_filter;

  auto fail = [&](const std::string& message) {
    return util::Error{"line " + std::to_string(line_number) + ": " + message};
  };
  auto ensure_table = [&]() -> EiaTable& {
    if (!table.has_value()) table.emplace(config);
    return *table;
  };
  auto probabilistic = [&]() {
    return config.backend.type != EiaBackendType::kExact;
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

    if (line.rfind("backend", 0) == 0 &&
        (line.size() == 7 || line[7] == ' ' || line[7] == '\t')) {
      if (table.has_value()) return fail("backend directive after state lines");
      if (directive.has_value()) return fail("duplicate backend directive");
      auto parsed = parse_backend_directive(line);
      if (!parsed) return fail(parsed.error().message);
      directive = std::move(parsed).value();
      config.backend = directive->config;
      continue;
    }

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
        } else if (name == "stale_after") {
          config.lifecycle.stale_after_ms = *value;
        } else {
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
      EiaTable& target = ensure_table();
      if (probabilistic() && config.backend.per_ingress) {
        // Each new ingress allocates a whole filter array: bound the total
        // before allocating (kMaxEiaBackendBits).
        const auto known = target.backend().ingresses();
        const bool is_new =
            std::find(known.begin(), known.end(), *current) == known.end();
        if (is_new && (known.size() + 1) * std::uint64_t{config.backend.bits} >
                          kMaxEiaBackendBits) {
          return fail("per-ingress filters exceed the 2^30-bit backend cap");
        }
      }
      target.declare_ingress(*current);  // a stanza may be empty
      continue;
    }

    if (line.rfind("filter ", 0) == 0) {
      if (!probabilistic()) return fail("'filter' needs a probabilistic backend");
      const auto slot = parse_u64(trim(line.substr(7)));
      if (!slot.has_value()) return fail("bad filter slot");
      current_filter = static_cast<std::size_t>(*slot);
      continue;
    }

    if (line.rfind("words ", 0) == 0 || line.rfind("bytes ", 0) == 0) {
      if (!probabilistic()) return fail("'words' needs a probabilistic backend");
      const bool words = line.rfind("words ", 0) == 0;
      if (words != (config.backend.type == EiaBackendType::kBloom)) {
        return fail(words ? "'words' belongs to the bloom backend"
                          : "'bytes' belongs to the cbloom backend");
      }
      if (!current_filter.has_value()) return fail("state before any 'filter'");
      const auto parts = tokens_of(line);
      if (parts.size() < 3) return fail("truncated state line");
      const auto start = parse_u64(parts[1]);
      if (!start.has_value()) return fail("bad state offset");
      auto& backend = ensure_table().backend_mut();
      if (words) {
        auto& arrays = static_cast<BloomEiaBackend&>(backend).word_arrays();
        if (*current_filter >= arrays.size()) return fail("filter slot out of range");
        auto& array = arrays[*current_filter];
        for (std::size_t i = 2; i < parts.size(); ++i) {
          const auto value = parse_u64(parts[i], 16);
          const std::size_t index = *start + (i - 2);
          if (!value.has_value() || parts[i].size() != 16) {
            return fail("bad word '" + std::string(parts[i]) + "'");
          }
          if (index >= array.size()) return fail("word index out of range");
          array[index] = *value;
        }
      } else {
        auto& arrays =
            static_cast<CountingBloomEiaBackend&>(backend).counter_arrays();
        if (*current_filter >= arrays.size()) return fail("filter slot out of range");
        auto& array = arrays[*current_filter];
        for (std::size_t i = 2; i < parts.size(); ++i) {
          const auto value = parse_u64(parts[i], 16);
          const std::size_t index = *start + (i - 2);
          if (!value.has_value() || parts[i].size() != 2 || *value > 0xFF) {
            return fail("bad counter '" + std::string(parts[i]) + "'");
          }
          if (index >= array.size()) return fail("counter index out of range");
          array[index] = static_cast<std::uint8_t>(*value);
        }
      }
      continue;
    }

    if (line.rfind("bank ", 0) == 0) {
      if (!probabilistic()) return fail("'bank' needs a probabilistic backend");
      const auto parts = tokens_of(line);
      if (parts.size() != 4) return fail("bank line wants: bank INDEX CURRENT COUNT");
      const auto bank = parse_u64(parts[1]);
      const auto cur = parse_u64(parts[2]);
      const auto count = parse_u64(parts[3]);
      if (!bank.has_value() || !cur.has_value() || !count.has_value() ||
          *bank >= kBloomBanks || *cur > 0xFF) {
        return fail("bad bank state");
      }
      bank_current[*bank] = static_cast<std::uint8_t>(*cur);
      bank_inserts[*bank] = *count;
      saw_bank_state = true;
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
  if (probabilistic() && directive.has_value()) {
    auto& base = static_cast<BankedBloomBase&>(table->backend_mut());
    if (saw_bank_state || directive->inserts > 0 || directive->rotations > 0) {
      base.restore_bank_state(std::move(bank_current), std::move(bank_inserts),
                              directive->inserts, directive->rotations);
    }
  }
  return std::move(*table);
}

}  // namespace infilter::core
