// Hop-count table persistence, alongside core/eia_io.
//
// The learned TTL ranges survive restarts the same way the EIA sets do:
// as auditable text. Unlike the EIA format (which predates versioning and
// stays as-is), this format opens with a mandatory magic/version line so
// a future layout change is rejected loudly instead of half-parsed:
//
//     infilter-hopcount v1
//     # comment
//     ingress 9001
//       10.1.2.0/24 3 5 12 0 123456
//
// Each entry line is: <source /24> <min_hops> <max_hops> <count>
// <out_streak> <last_seen_ms>. Every field of the in-memory entry is
// persisted, so a table that is exported and re-imported continues
// learning -- and classifying -- exactly where the original left off.
// <out_streak> is a legacy column from a retired relearn rule: export
// always writes 0, and import checks it is an integer >= 0, then ignores
// it, so older dumps still load and classify unchanged.

#pragma once

#include <string>
#include <string_view>

#include "hopcount/hopcount.h"
#include "util/result.h"

namespace infilter::hopcount {

/// The mandatory first line of the format.
inline constexpr std::string_view kHopCountMagic = "infilter-hopcount v1";

/// Renders the table in the text format above.
[[nodiscard]] std::string export_hopcount(const HopCountTable& table);

/// Parses the text format into a fresh table using `config` for the
/// classification parameters. Fails with a line number on: missing or
/// mismatched magic/version line, unknown directives, entries before any
/// ingress stanza, non-/24 prefixes, malformed fields.
[[nodiscard]] util::Result<HopCountTable> import_hopcount(
    std::string_view text, HopCountConfig config = {});

}  // namespace infilter::hopcount
