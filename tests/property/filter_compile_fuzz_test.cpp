// Hostile-input suite for capture filter expressions.
//
// patchwork_cli --filter hands user text straight to Filter::compile. Every
// input here — grammar-token soup, random bytes, numbers at and just past
// each field's limit, and parentheses or "not" nested up to 100,000 deep —
// must come back as a Filter or as a CompileError whose position lies
// within the token stream, and a Filter must evaluate without incident.
// Built with the asan preset, a crash or a UB report fails the case. Every
// draw comes from a seeded util::Rng, so a failure replays exactly.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>

#include "capture/filter.hpp"
#include "net/frame_builder.hpp"
#include "util/rng.hpp"

namespace patchwork::capture {
namespace {

/// Tokens as the compiler splits them: each parenthesis is a token of its
/// own, and space, tab and newline separate the rest.
std::size_t token_count(std::string_view text) {
  std::size_t count = 0;
  bool in_word = false;
  for (char c : text) {
    if (c == '(' || c == ')') {
      count += in_word ? 2 : 1;
      in_word = false;
    } else if (c == ' ' || c == '\t' || c == '\n') {
      count += in_word ? 1 : 0;
      in_word = false;
    } else {
      in_word = true;
    }
  }
  return count + (in_word ? 1 : 0);
}

/// A TCP frame and a UDP frame to evaluate every compiled filter against.
const std::array<net::ParsedFrame, 2>& probe_frames() {
  static const std::array<net::ParsedFrame, 2> frames = [] {
    const auto a = net::Ipv4Address::from_octets(10, 0, 0, 1);
    const auto b = net::Ipv4Address::from_octets(10, 0, 0, 2);
    net::FrameBuilder tcp;
    tcp.ethernet(net::MacAddress::from_id(1), net::MacAddress::from_id(2))
        .vlan(4095)
        .mpls(1048575)
        .ipv4(a, b)
        .tcp(65535, 443)
        .payload(4);
    net::FrameBuilder udp;
    udp.ethernet(net::MacAddress::from_id(1), net::MacAddress::from_id(2))
        .ipv4(a, b)
        .udp(1, 53)
        .payload(4);
    return std::array<net::ParsedFrame, 2>{net::parse_frame(tcp.build()),
                                           net::parse_frame(udp.build())};
  }();
  return frames;
}

/// Compiles `text` and checks the suite's invariants. Returns the filter,
/// or nullopt after a CompileError.
std::optional<Filter> compile_checked(std::string_view text) {
  auto result = Filter::compile(text);
  if (const auto* err = std::get_if<Filter::CompileError>(&result)) {
    EXPECT_LE(err->position, token_count(text)) << err->message;
    EXPECT_FALSE(err->message.empty());
    return std::nullopt;
  }
  const Filter& filter = std::get<Filter>(result);
  for (const net::ParsedFrame& frame : probe_frames()) {
    (void)filter.matches(frame);
  }
  return filter;
}

bool compiles(std::string_view text) {
  return compile_checked(text).has_value();
}

std::string repeat(std::string_view piece, std::size_t n) {
  std::string out;
  out.reserve(piece.size() * n);
  for (std::size_t i = 0; i < n; ++i) out += piece;
  return out;
}

class FilterCompileFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FilterCompileFuzz, GrammarTokenSoup) {
  static constexpr std::array<std::string_view, 34> kVocabulary = {
      "(", ")", "and", "or", "not", "src", "dst", "port", "host", "vlan",
      "mpls", "less", "greater", "jumbo", "ip", "ip6", "tcp", "udp", "arp",
      "icmp", "0", "1", "22", "4095", "4096", "65535", "65536", "1048575",
      "1048576", "4294967295", "4294967296", "10.0.0.1", "256.1.1.1",
      "99999999999999999999"};
  util::Rng rng(GetParam());
  std::size_t compiled = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    const std::size_t n = rng.uniform_u64(1, 40);
    std::string text;
    for (std::size_t i = 0; i < n; ++i) {
      if (!text.empty() && rng.chance(0.8)) text += ' ';
      text += kVocabulary[rng.uniform_u64(0, kVocabulary.size() - 1)];
    }
    if (compiles(text)) ++compiled;
    if (HasFailure()) FAIL() << "seed " << GetParam() << ": " << text;
  }
  // The soup does reach both outcomes.
  EXPECT_GT(compiled, 0u);
}

TEST_P(FilterCompileFuzz, RandomBytes) {
  util::Rng rng(GetParam());
  for (int trial = 0; trial < 4000; ++trial) {
    std::string text(rng.uniform_u64(0, 200), '\0');
    for (char& c : text) c = static_cast<char>(rng.uniform_u64(0, 255));
    compiles(text);
    if (HasFailure()) FAIL() << "seed " << GetParam() << " trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FilterCompileFuzz,
                         ::testing::Values(1ull, 42ull, 777ull, 31337ull));

struct NumberLimit {
  std::string_view keyword;
  std::uint64_t max;
};

constexpr std::array<NumberLimit, 7> kNumberLimits = {{
    {"port", 65535},
    {"src port", 65535},
    {"dst port", 65535},
    {"vlan", 4095},
    {"mpls", (1u << 20) - 1},
    {"less", 4294967295u},
    {"greater", 4294967295u},
}};

TEST(FilterCompileLimits, NumbersAtTheLimitCompile) {
  for (const NumberLimit& limit : kNumberLimits) {
    const std::string text =
        std::string(limit.keyword) + " " + std::to_string(limit.max);
    EXPECT_TRUE(compiles(text)) << text;
  }
  // The limits are the field widths, so at-limit values match real frames.
  const net::ParsedFrame& tcp = probe_frames()[0];
  for (std::string_view text : {"src port 65535", "vlan 4095", "mpls 1048575",
                                "less 4294967295"}) {
    const std::optional<Filter> filter = compile_checked(text);
    ASSERT_TRUE(filter.has_value()) << text;
    EXPECT_TRUE(filter->matches(tcp)) << text;
  }
}

TEST(FilterCompileLimits, NumbersPastTheLimitAreRejected) {
  for (const NumberLimit& limit : kNumberLimits) {
    for (const std::string& number :
         {std::to_string(limit.max + 1), std::string("4294967296"),
          std::string("4294967297"), std::string("99999999999999999999")}) {
      const std::string text = std::string(limit.keyword) + " " + number;
      const auto result = Filter::compile(text);
      const auto* err = std::get_if<Filter::CompileError>(&result);
      ASSERT_NE(err, nullptr) << text << " compiled";
      // The error points at the number, the expression's last token.
      EXPECT_EQ(err->position, token_count(text) - 1) << text;
    }
  }
}

TEST(FilterCompileLimits, NestingAtTheLimitCompiles) {
  // Parentheses and "not" both count one level each.
  const std::size_t depth = Filter::kMaxNesting;
  struct Case {
    std::string text;
    bool matches_tcp;
  };
  const Case cases[] = {
      {repeat("(", depth) + "tcp" + repeat(")", depth), true},
      {repeat("not ", depth) + "tcp", depth % 2 == 0},
      {repeat("( not ", depth / 2) + "tcp" + repeat(")", depth / 2),
       (depth / 2) % 2 == 0},
  };
  for (const Case& c : cases) {
    const std::optional<Filter> filter = compile_checked(c.text);
    ASSERT_TRUE(filter.has_value()) << c.text.substr(0, 40) << "...";
    EXPECT_EQ(filter->matches(probe_frames()[0]), c.matches_tcp);
  }
}

TEST(FilterCompileLimits, NestingPastTheLimitIsRejected) {
  for (std::size_t depth :
       {std::size_t{Filter::kMaxNesting + 1}, std::size_t{1000},
        std::size_t{28000}, std::size_t{100000}}) {
    for (const std::string& text :
         {repeat("(", depth) + "tcp" + repeat(")", depth),
          repeat("not ", depth) + "tcp", repeat("(", depth),
          repeat("( not ", depth) + "tcp" + repeat(")", depth)}) {
      EXPECT_FALSE(compiles(text)) << "depth " << depth;
    }
  }
}

TEST(FilterCompileLimits, LongChainsDoNotNest) {
  // A chain of operands adds no nesting: 100,000 terms still compile and
  // evaluate.
  const std::string ors = "udp" + repeat(" or port 7", 100000);
  const std::optional<Filter> any = compile_checked(ors);
  ASSERT_TRUE(any.has_value());
  EXPECT_FALSE(any->matches(probe_frames()[0]));
  EXPECT_TRUE(any->matches(probe_frames()[1]));

  const std::string ands = "tcp" + repeat(" and not udp", 100000);
  const std::optional<Filter> all = compile_checked(ands);
  ASSERT_TRUE(all.has_value());
  EXPECT_TRUE(all->matches(probe_frames()[0]));
  EXPECT_FALSE(all->matches(probe_frames()[1]));
}

}  // namespace
}  // namespace patchwork::capture
