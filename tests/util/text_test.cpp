#include "relmore/util/text.hpp"

#include <gtest/gtest.h>

#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace {

using relmore::util::first_token;
using relmore::util::split_whitespace;
using relmore::util::StringMap;

std::vector<std::string> stream_tokens(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream is(line);
  std::string tok;
  while (is >> tok) out.push_back(tok);
  return out;
}

TEST(SplitWhitespace, SplitsLikeStreamExtraction) {
  std::vector<std::string_view> toks;
  split_whitespace("  section a\t- R=1\r", toks);
  ASSERT_EQ(toks.size(), 4u);
  EXPECT_EQ(toks[0], "section");
  EXPECT_EQ(toks[3], "R=1");
  split_whitespace(" \t\v\f\r\n", toks);
  EXPECT_TRUE(toks.empty());

  // Random lines over separators, control bytes, NUL and high bytes must
  // split exactly as `operator>>` does in the C locale.
  const char alphabet[] = {' ', '\t', '\n', '\v', '\f', '\r', 'a', 'Z', '0', '=', '#',
                           ':', '\0', '\x01', '\x1f', '\x7f', '\x80', '\xa0', '\xff'};
  std::mt19937 rng(7);
  for (int i = 0; i < 20000; ++i) {
    std::string line(rng() % 24, ' ');
    for (char& c : line) c = alphabet[rng() % sizeof alphabet];
    split_whitespace(line, toks);
    const std::vector<std::string> want = stream_tokens(line);
    ASSERT_EQ(toks.size(), want.size()) << "line " << i;
    for (std::size_t t = 0; t < want.size(); ++t) ASSERT_EQ(toks[t], want[t]) << "line " << i;
    ASSERT_EQ(first_token(line), want.empty() ? std::string() : want[0]) << "line " << i;
  }
}

TEST(FirstToken, MatchesTheFirstSplitToken) {
  EXPECT_EQ(first_token("  end\r"), "end");
  EXPECT_EQ(first_token("\tend # done"), "end");
  EXPECT_EQ(first_token("endx"), "endx");
  EXPECT_EQ(first_token(" \t\r"), "");
  EXPECT_EQ(first_token(""), "");
}

TEST(StringMap, LooksUpByView) {
  StringMap<int> index;
  index.emplace("n0", 0);
  index.emplace("n1", 1);
  const std::string line = "inst u0 g1 n1 n0:s1";
  const std::string_view name = std::string_view(line).substr(11, 2);
  const auto it = index.find(name);
  ASSERT_NE(it, index.end());
  EXPECT_EQ(it->second, 1);
  EXPECT_EQ(index.find(std::string_view("n2")), index.end());
}

}  // namespace
