// EIA set persistence.
//
// Operators configure and audit the Expected-IP-Address sets as text
// ("the EIA sets may also be initialized by hand", Section 5.1.3a). The
// format is one stanza per ingress:
//
//     # comment
//     ingress 9001
//       3.0.0.0/11
//       3.32.0.0/11
//     ingress 9002
//       18.96.0.0/11
//
// Export emits the minimal CIDR decomposition of each set, so a table
// that learned extra /24s round-trips exactly.
//
// Lifecycle aging (src/lifecycle) adds a versioned "lifecycle v1
// max_idle=..." directive plus one "age <ingress> <prefix/24>
// <learned_at> <last_seen> [expired]" line per aged entry. Both appear
// only when the table holds age metadata, so pre-lifecycle exports stay
// byte-identical; legacy dumps load with every member treated as a
// never-aging preload (no metadata). The directive overrides the caller's
// configured aging policy. Older dumps may also carry a "stale_after=..."
// parameter from a retired grace state: import still requires its value
// to be an unsigned integer, then ignores it.

#pragma once

#include <string>
#include <string_view>

#include "core/eia.h"
#include "util/result.h"

namespace infilter::core {

/// Renders the table in the text format above.
[[nodiscard]] std::string export_eia(const EiaTable& table);

/// Parses the text format into a fresh table using `config` for the
/// learning parameters. Fails with a line number on malformed input
/// (unknown directives, prefixes before any ingress stanza, bad CIDR).
[[nodiscard]] util::Result<EiaTable> import_eia(std::string_view text,
                                                EiaTableConfig config = {});

}  // namespace infilter::core
