#pragma once

/// \file text.hpp
/// Line-oriented text helpers shared by the readers (circuit/netlist,
/// sta/design): one whitespace tokenizer yielding views into the caller's
/// line buffer, and a string-keyed hash map that looks names up by view.

#include <cstddef>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace relmore::util {

/// The separators `operator>>` skips in the C locale: space, \t, \n, \v,
/// \f and \r.
[[nodiscard]] constexpr bool is_space(char c) { return c == ' ' || (c >= '\t' && c <= '\r'); }

/// Splits `line` at whitespace into `out` (cleared first), the tokens
/// `while (is >> tok)` would read. The views point into `line`'s storage,
/// so they stay valid until that buffer is modified or destroyed.
inline void split_whitespace(std::string_view line, std::vector<std::string_view>& out) {
  out.clear();
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && is_space(line[i])) ++i;
    const std::size_t start = i;
    while (i < line.size() && !is_space(line[i])) ++i;
    if (i > start) out.push_back(line.substr(start, i - start));
  }
}

/// The first whitespace-separated token of `line` (empty if none), the
/// same as the first token split_whitespace would yield, without splitting
/// the rest of the line.
[[nodiscard]] constexpr std::string_view first_token(std::string_view line) {
  std::size_t i = 0;
  while (i < line.size() && is_space(line[i])) ++i;
  std::size_t end = i;
  while (end < line.size() && !is_space(line[end])) ++end;
  return line.substr(i, end - i);
}

/// Transparent string hash, so a StringMap is probed with a view and no
/// temporary std::string.
struct StringHash {
  using is_transparent = void;
  [[nodiscard]] std::size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

template <typename V>
using StringMap = std::unordered_map<std::string, V, StringHash, std::equal_to<>>;

}  // namespace relmore::util
