// util::Args: option parsing and numeric validation for the tools/ CLIs.

#include "util/args.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace infilter::util {
namespace {

Args parse(std::vector<const char*> argv,
           const std::vector<std::string>& flags = {}) {
  argv.insert(argv.begin(), "prog");
  const auto parsed = Args::parse(static_cast<int>(argv.size()), argv.data(), flags);
  EXPECT_TRUE(parsed.has_value()) << parsed.error().message;
  return *parsed;
}

TEST(Args, ParsesValuesFlagsAndPositionals) {
  const auto args = parse({"capture.bin", "--threads", "4", "--idmef"}, {"idmef"});
  EXPECT_EQ(args.positional(), std::vector<std::string>{"capture.bin"});
  EXPECT_EQ(args.value("threads"), "4");
  EXPECT_TRUE(args.has("idmef"));
  EXPECT_FALSE(args.has("queue-depth"));
}

TEST(Args, DeclaredValueNamesRejectUnknownOptions) {
  const std::vector<const char*> argv{"prog", "in.bin", "--threads", "2", "--thraeds", "4"};
  const auto parsed =
      Args::parse(static_cast<int>(argv.size()), argv.data(), {"idmef"}, {"threads"});
  ASSERT_FALSE(parsed.has_value());
  EXPECT_NE(parsed.error().message.find("unknown option --thraeds"), std::string::npos);
  // Declared values and flags still parse.
  const std::vector<const char*> ok{"prog", "--threads", "2", "--idmef"};
  const auto accepted =
      Args::parse(static_cast<int>(ok.size()), ok.data(), {"idmef"}, {"threads"});
  ASSERT_TRUE(accepted.has_value()) << accepted.error().message;
  EXPECT_EQ(accepted->value("threads"), "2");
  EXPECT_TRUE(accepted->has("idmef"));
}

TEST(Args, CheckedIntAcceptsInRangeValues) {
  const auto args = parse({"--threads", "8", "--offset", "-3"});
  const auto threads = args.checked_int("threads", 0, 0, 4096);
  ASSERT_TRUE(threads.has_value()) << threads.error().message;
  EXPECT_EQ(*threads, 8);
  const auto offset = args.checked_int("offset", 0, -10, 10);
  ASSERT_TRUE(offset.has_value()) << offset.error().message;
  EXPECT_EQ(*offset, -3);
  // Boundary values are in range.
  const auto zero = parse({"--threads", "0"}).checked_int("threads", 1, 0, 4096);
  ASSERT_TRUE(zero.has_value());
  EXPECT_EQ(*zero, 0);
}

TEST(Args, CheckedIntAbsentOptionYieldsFallbackUnvalidated) {
  const auto args = parse({});
  // The fallback is the caller's default and is not range-checked.
  const auto depth = args.checked_int("queue-depth", 4096, 1, 1 << 24);
  ASSERT_TRUE(depth.has_value());
  EXPECT_EQ(*depth, 4096);
}

TEST(Args, CheckedIntRejectsNonNumericValue) {
  const auto args = parse({"--threads", "four"});
  const auto threads = args.checked_int("threads", 0, 0, 4096);
  ASSERT_FALSE(threads.has_value());
  EXPECT_NE(threads.error().message.find("--threads"), std::string::npos);
  EXPECT_NE(threads.error().message.find("four"), std::string::npos);
  // int_or, by contrast, silently yields 0 -- the hazard checked_int closes.
  EXPECT_EQ(args.int_or("threads", 7), 0);
}

TEST(Args, CheckedIntRejectsTrailingJunk) {
  const auto args = parse({"--queue-depth", "512k"});
  const auto depth = args.checked_int("queue-depth", 4096, 1, 1 << 24);
  ASSERT_FALSE(depth.has_value());
  EXPECT_NE(depth.error().message.find("512k"), std::string::npos);
}

TEST(Args, CheckedIntRejectsEmptyValue) {
  const auto args = parse({"--threads", ""});
  EXPECT_FALSE(args.checked_int("threads", 0, 0, 4096).has_value());
}

TEST(Args, CheckedIntRejectsOutOfRangeNamingTheRange) {
  const auto args = parse({"--threads", "5000", "--queue-depth", "0"});
  const auto threads = args.checked_int("threads", 0, 0, 4096);
  ASSERT_FALSE(threads.has_value());
  EXPECT_NE(threads.error().message.find("[0, 4096]"), std::string::npos);
  const auto depth = args.checked_int("queue-depth", 4096, 1, 1 << 24);
  ASSERT_FALSE(depth.has_value());
  EXPECT_NE(depth.error().message.find("out of range"), std::string::npos);
}

TEST(Args, CheckedIntRejectsOverflow) {
  const auto args = parse({"--seed", "99999999999999999999999999"});
  EXPECT_FALSE(args.checked_int("seed", 1).has_value());
}

TEST(Args, CheckedIntListParsesEveryToken) {
  const auto args = parse({"--ports", "9001,0,65535"});
  const auto ports = args.checked_int_list("ports", 0, 65535);
  ASSERT_TRUE(ports.has_value()) << ports.error().message;
  EXPECT_EQ(*ports, (std::vector<std::int64_t>{9001, 0, 65535}));
  EXPECT_EQ(*parse({"--ports", "7"}).checked_int_list("ports", 0, 65535),
            std::vector<std::int64_t>{7});
}

TEST(Args, CheckedIntListAbsentOptionIsEmpty) {
  const auto ports = parse({}).checked_int_list("ports", 0, 65535);
  ASSERT_TRUE(ports.has_value());
  EXPECT_TRUE(ports->empty());
}

// infilter-monitor --ports: a non-numeric token must not become port 0
// (ephemeral), and 70000 must not wrap to 4464.
TEST(Args, CheckedIntListRejectsBadTokens) {
  for (const char* spec : {"abc", "9001,abc", "70000", "9001,70000", "-1", "",
                           "9001,", ",9001", "9001,,9002", "90x1"}) {
    SCOPED_TRACE(spec);
    const auto ports = parse({"--ports", spec}).checked_int_list("ports", 0, 65535);
    ASSERT_FALSE(ports.has_value());
    EXPECT_NE(ports.error().message.find("--ports"), std::string::npos);
  }
  const auto wrapped = parse({"--ports", "9001,70000"}).checked_int_list("ports", 0, 65535);
  ASSERT_FALSE(wrapped.has_value());
  EXPECT_NE(wrapped.error().message.find("[0, 65535]"), std::string::npos);
}

}  // namespace
}  // namespace infilter::util
