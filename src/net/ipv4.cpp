#include "net/ipv4.h"

#include <charconv>

namespace infilter::net {
namespace {

// Parses one decimal octet from the front of `text`, advancing it.
// Rejects values > 255 and empty digit runs.
std::optional<std::uint8_t> parse_octet(std::string_view& text) {
  unsigned value = 0;
  const char* begin = text.data();
  const char* end = text.data() + text.size();
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr == begin || value > 255) return std::nullopt;
  text.remove_prefix(static_cast<std::size_t>(ptr - begin));
  return static_cast<std::uint8_t>(value);
}

bool consume(std::string_view& text, char c) {
  if (text.empty() || text.front() != c) return false;
  text.remove_prefix(1);
  return true;
}

}  // namespace

std::optional<IPv4Address> IPv4Address::parse(std::string_view text) {
  std::uint32_t value = 0;
  for (int i = 0; i < 4; ++i) {
    if (i > 0 && !consume(text, '.')) return std::nullopt;
    auto octet = parse_octet(text);
    if (!octet) return std::nullopt;
    value = (value << 8) | *octet;
  }
  if (!text.empty()) return std::nullopt;
  return IPv4Address{value};
}

char* IPv4Address::write(char* out) const {
  for (int i = 0; i < 4; ++i) {
    if (i > 0) *out++ = '.';
    out = std::to_chars(out, out + 3, unsigned{octet(i)}).ptr;
  }
  return out;
}

std::string IPv4Address::to_string() const {
  char text[kMaxTextSize];
  return std::string(text, write(text));
}

std::optional<Prefix> Prefix::parse(std::string_view text) {
  const auto slash = text.find('/');
  if (slash == std::string_view::npos) {
    auto address = IPv4Address::parse(text);
    if (!address) return std::nullopt;
    return Prefix{*address, 32};
  }
  auto address = IPv4Address::parse(text.substr(0, slash));
  if (!address) return std::nullopt;
  auto rest = text.substr(slash + 1);
  int length = 0;
  auto [ptr, ec] = std::from_chars(rest.data(), rest.data() + rest.size(), length);
  if (ec != std::errc{} || ptr != rest.data() + rest.size() || length < 0 || length > 32) {
    return std::nullopt;
  }
  return Prefix{*address, length};
}

std::string Prefix::to_string() const {
  return address_.to_string() + "/" + std::to_string(length_);
}

}  // namespace infilter::net
