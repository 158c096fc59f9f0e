// Minimal command-line option parsing for the tools/ binaries.
//
// Supports "--name value" and "--flag" styles plus positional arguments;
// a caller that declares its value options gets undeclared ones rejected,
// so typos and retired options fail loudly. Deliberately tiny: the tools
// need a dozen options, not a framework.

#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "util/result.h"

namespace infilter::util {

class Args {
 public:
  /// Parses argv. `flag_names` lists options that take no value; every
  /// other "--name" consumes the following token as its value. When
  /// `value_names` is non-empty, an option in neither list is an error.
  static Result<Args> parse(int argc, const char* const* argv,
                            const std::vector<std::string>& flag_names = {},
                            const std::vector<std::string>& value_names = {});

  [[nodiscard]] bool has(const std::string& name) const {
    return values_.contains(name) || flags_.contains(name);
  }
  [[nodiscard]] std::optional<std::string> value(const std::string& name) const {
    const auto it = values_.find(name);
    if (it == values_.end()) return std::nullopt;
    return it->second;
  }
  [[nodiscard]] std::string value_or(const std::string& name,
                                     std::string fallback) const {
    return value(name).value_or(std::move(fallback));
  }
  /// Lenient: a malformed value silently parses as whatever strtoll makes
  /// of it (usually 0). Prefer checked_int for anything that feeds a
  /// size, thread count, or other value with a validity range.
  [[nodiscard]] std::int64_t int_or(const std::string& name, std::int64_t fallback) const;
  /// int_or with validation: when --name was given, its value must be a
  /// whole base-10 number (no trailing junk, no overflow) within
  /// [min, max], else an Error naming the option and the accepted range.
  /// Absent option: the fallback, unvalidated.
  [[nodiscard]] Result<std::int64_t> checked_int(
      const std::string& name, std::int64_t fallback,
      std::int64_t min = std::numeric_limits<std::int64_t>::min(),
      std::int64_t max = std::numeric_limits<std::int64_t>::max()) const;
  /// checked_int for a comma-separated list ("9001,9002"): every token
  /// must be a whole base-10 number within [min, max] -- an empty token
  /// ("9001,,9002", a trailing comma) is an Error like any other malformed
  /// one. Absent option: an empty list.
  [[nodiscard]] Result<std::vector<std::int64_t>> checked_int_list(
      const std::string& name,
      std::int64_t min = std::numeric_limits<std::int64_t>::min(),
      std::int64_t max = std::numeric_limits<std::int64_t>::max()) const;
  [[nodiscard]] double double_or(const std::string& name, double fallback) const;
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  std::map<std::string, std::string> values_;
  std::set<std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace infilter::util
