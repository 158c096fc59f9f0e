#include "util/args.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>

namespace infilter::util {

Result<Args> Args::parse(int argc, const char* const* argv,
                         const std::vector<std::string>& flag_names,
                         const std::vector<std::string>& value_names) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string token = argv[i];
    if (token.rfind("--", 0) != 0) {
      args.positional_.push_back(token);
      continue;
    }
    const std::string name = token.substr(2);
    if (name.empty()) return Error{"bare '--' is not a valid option"};
    if (std::find(flag_names.begin(), flag_names.end(), name) != flag_names.end()) {
      args.flags_.insert(name);
      continue;
    }
    if (!value_names.empty() &&
        std::find(value_names.begin(), value_names.end(), name) == value_names.end()) {
      return Error{"unknown option --" + name};
    }
    if (i + 1 >= argc) return Error{"option --" + name + " needs a value"};
    args.values_[name] = argv[++i];
  }
  return args;
}

std::int64_t Args::int_or(const std::string& name, std::int64_t fallback) const {
  const auto text = value(name);
  if (!text.has_value()) return fallback;
  return std::strtoll(text->c_str(), nullptr, 10);
}

namespace {

/// One checked_int token: a whole base-10 number within [min, max].
Result<std::int64_t> parse_checked(const std::string& name, const std::string& text,
                                   std::int64_t min, std::int64_t max) {
  errno = 0;
  char* end = nullptr;
  const long long parsed = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno == ERANGE) {
    return Error{"option --" + name + ": '" + text + "' is not a whole number"};
  }
  if (parsed < min || parsed > max) {
    return Error{"option --" + name + ": " + text + " is out of range [" +
                 std::to_string(min) + ", " + std::to_string(max) + "]"};
  }
  return static_cast<std::int64_t>(parsed);
}

}  // namespace

Result<std::int64_t> Args::checked_int(const std::string& name,
                                       std::int64_t fallback, std::int64_t min,
                                       std::int64_t max) const {
  const auto text = value(name);
  if (!text.has_value()) return fallback;
  return parse_checked(name, *text, min, max);
}

Result<std::vector<std::int64_t>> Args::checked_int_list(const std::string& name,
                                                         std::int64_t min,
                                                         std::int64_t max) const {
  std::vector<std::int64_t> out;
  const auto text = value(name);
  if (!text.has_value()) return out;
  std::size_t at = 0;
  for (;;) {
    const auto comma = text->find(',', at);
    const auto parsed = parse_checked(name, text->substr(at, comma - at), min, max);
    if (!parsed) return parsed.error();
    out.push_back(*parsed);
    if (comma == std::string::npos) return out;
    at = comma + 1;
  }
}

double Args::double_or(const std::string& name, double fallback) const {
  const auto text = value(name);
  if (!text.has_value()) return fallback;
  return std::strtod(text->c_str(), nullptr);
}

}  // namespace infilter::util
