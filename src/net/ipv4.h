// IPv4 value types used throughout the InFilter reproduction.
//
// All types here are small, regular value types (C++ Core Guidelines C.10,
// C.61): cheap to copy, totally ordered, hashable, and formattable. Parsing
// returns std::optional rather than throwing -- malformed input is an
// expected condition at system boundaries (wire decoding, config files).

#pragma once

#include <compare>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>

namespace infilter::net {

/// An IPv4 address held in host byte order.
///
/// The numeric value is exposed so that range/interval algorithms (EIA sets,
/// sub-block allocation) can treat addresses as integers.
class IPv4Address {
 public:
  constexpr IPv4Address() = default;
  constexpr explicit IPv4Address(std::uint32_t host_order) : value_(host_order) {}
  constexpr IPv4Address(std::uint8_t a, std::uint8_t b, std::uint8_t c, std::uint8_t d)
      : value_((std::uint32_t{a} << 24) | (std::uint32_t{b} << 16) |
               (std::uint32_t{c} << 8) | std::uint32_t{d}) {}

  /// Parses dotted-quad notation ("192.0.2.1"). Returns nullopt on any
  /// syntax error (missing octets, out-of-range values, trailing junk).
  static std::optional<IPv4Address> parse(std::string_view text);

  [[nodiscard]] constexpr std::uint32_t value() const { return value_; }
  [[nodiscard]] constexpr std::uint8_t octet(int i) const {
    return static_cast<std::uint8_t>(value_ >> (8 * (3 - i)));
  }

  /// Longest dotted quad, "255.255.255.255".
  static constexpr std::size_t kMaxTextSize = 15;
  /// Writes the dotted quad to `out`, which must have room for
  /// kMaxTextSize chars, and returns the end of what it wrote. The one
  /// formatter behind to_string() and the IDMEF writer.
  char* write(char* out) const;
  /// Dotted-quad representation.
  [[nodiscard]] std::string to_string() const;

  friend constexpr auto operator<=>(IPv4Address, IPv4Address) = default;

 private:
  std::uint32_t value_ = 0;
};

/// A CIDR prefix: an address plus a mask length in [0, 32].
///
/// Invariant: the host bits of `address` below the mask are zero. The
/// constructor canonicalizes (truncates host bits) rather than rejecting,
/// matching the common router behaviour for configured prefixes.
class Prefix {
 public:
  constexpr Prefix() = default;
  constexpr Prefix(IPv4Address address, int length)
      : address_(IPv4Address{length == 0 ? 0u : (address.value() & mask_bits(length))}),
        length_(length) {}

  /// Parses "a.b.c.d/len". A bare address parses as a /32.
  static std::optional<Prefix> parse(std::string_view text);

  [[nodiscard]] constexpr IPv4Address address() const { return address_; }
  [[nodiscard]] constexpr int length() const { return length_; }

  /// First and last addresses covered by this prefix (inclusive).
  [[nodiscard]] constexpr IPv4Address first() const { return address_; }
  [[nodiscard]] constexpr IPv4Address last() const {
    return IPv4Address{address_.value() | ~mask_bits(length_)};
  }

  [[nodiscard]] constexpr bool contains(IPv4Address a) const {
    return length_ == 0 || (a.value() & mask_bits(length_)) == address_.value();
  }
  [[nodiscard]] constexpr bool contains(const Prefix& other) const {
    return length_ <= other.length_ && contains(other.address_);
  }

  /// Number of addresses covered (2^(32-length)), as 64-bit to hold /0.
  [[nodiscard]] constexpr std::uint64_t size() const {
    return std::uint64_t{1} << (32 - length_);
  }

  [[nodiscard]] std::string to_string() const;

  friend constexpr auto operator<=>(const Prefix&, const Prefix&) = default;

  /// Bit mask with `length` leading ones; length 0 maps to 0.
  static constexpr std::uint32_t mask_bits(int length) {
    return length == 0 ? 0u : ~std::uint32_t{0} << (32 - length);
  }

 private:
  IPv4Address address_;
  int length_ = 0;
};

/// Truncates an address to its /24 subnet. Section 3.1 of the paper relaxes
/// raw last-hop IP comparison to /24 comparison to absorb load-shared links.
[[nodiscard]] constexpr Prefix to_slash24(IPv4Address a) { return Prefix{a, 24}; }

}  // namespace infilter::net

template <>
struct std::hash<infilter::net::IPv4Address> {
  std::size_t operator()(infilter::net::IPv4Address a) const noexcept {
    return std::hash<std::uint32_t>{}(a.value());
  }
};

template <>
struct std::hash<infilter::net::Prefix> {
  std::size_t operator()(const infilter::net::Prefix& p) const noexcept {
    return std::hash<std::uint64_t>{}((std::uint64_t{p.address().value()} << 6) ^
                                      static_cast<std::uint64_t>(p.length()));
  }
};
