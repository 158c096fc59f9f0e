// IDMEF consumption.
//
// Section 5.1.4: "The Alert User Interface is ... responsible for
// receiving, parsing and displaying IDMEF alerts from the Analysis
// module" and larger systems "consume such data in the standardized IDMEF
// format". This is the receiving half: a parser for the IDMEF documents
// the Alert type serializes, plus a stream splitter for concatenated
// messages (the on-the-wire form when alerts are appended to a feed).
//
// The parser handles the IDMEF-draft subset our analyzer emits; it is a
// schema-directed extractor, not a general XML engine.
//
// Threading contract (the emitting half lives in idmef.h): AlertSink
// implementations -- including anything that feeds this parser, such as a
// sink appending IDMEF documents to a feed -- are called with serialized
// consume() invocations by every engine in this repository; the sharded
// runtime emits only from its scan thread, straight into the user's sink.
// Concatenated feeds written from a sink therefore never
// interleave two documents, which is what makes parse_idmef_stream's
// "split on message boundaries" contract sound under the concurrent
// runtime. The parse functions themselves are pure and re-entrant.

#pragma once

#include <string_view>
#include <vector>

#include "alert/idmef.h"
#include "util/result.h"

namespace infilter::alert {

/// Parses one IDMEF-Message document back into an Alert. Fails on missing
/// mandatory elements (Alert id, CreateTime, Source/Target addresses,
/// detection stage), malformed values, or a Classification text other
/// than the one the stage implies (Alert::classification()).
[[nodiscard]] util::Result<Alert> parse_idmef(std::string_view xml);

/// Splits a feed of concatenated IDMEF-Message documents and parses each.
/// Fails on the first malformed message, identifying its index.
[[nodiscard]] util::Result<std::vector<Alert>> parse_idmef_stream(
    std::string_view xml);

}  // namespace infilter::alert
