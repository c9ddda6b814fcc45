// Parity of parse_spice_value_checked with the strtod reading it replaced.
//
// The reference below is the parser as it stood before plain decimal
// literals moved to std::from_chars: strtod on the whole token, then a
// lower-cased suffix matched against the SI prefix and unit tables. The
// production parser must agree with it on every input: the same verdict,
// the same bits for an accepted value, the same code and message for a
// rejection.

#include <gtest/gtest.h>

#include <bit>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <random>
#include <string>
#include <vector>

#include "relmore/circuit/netlist.hpp"
#include "relmore/util/diagnostics.hpp"

#ifndef RELMORE_TESTDATA_DIR
#error "RELMORE_TESTDATA_DIR must be defined by the build"
#endif

namespace {

namespace util = relmore::util;
using util::ErrorCode;
using util::Result;
using util::Status;

std::string lower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return s;
}

Result<double> reference_parse(const std::string& text) {
  if (text.empty()) return Status(ErrorCode::kParseError, "parse_spice_value: empty value");
  errno = 0;
  const char* begin = text.c_str();
  char* end = nullptr;
  const double base = std::strtod(begin, &end);
  if (end == begin) {
    return Status(ErrorCode::kParseError, "parse_spice_value: malformed number '" + text + "'");
  }
  if (errno == ERANGE && (base == HUGE_VAL || base == -HUGE_VAL)) {
    return Status(ErrorCode::kValueOutOfRange,
                  "parse_spice_value: magnitude of '" + text + "' exceeds double range");
  }
  if (!std::isfinite(base)) {
    return Status(ErrorCode::kParseError, "parse_spice_value: non-finite value '" + text + "'");
  }
  const std::string suffix = lower(text.substr(static_cast<std::size_t>(end - begin)));
  static const std::map<std::string, double> kScale = {
      {"f", 1e-15}, {"p", 1e-12}, {"n", 1e-9}, {"u", 1e-6}, {"m", 1e-3},
      {"k", 1e3},   {"meg", 1e6}, {"g", 1e9},  {"t", 1e12},
  };
  const auto is_unit = [](const std::string& rest) {
    return rest.empty() || rest == "h" || rest == "f" || rest == "ohm" || rest == "s" ||
           rest == "v";
  };
  double scale = 1.0;
  bool matched = false;
  for (const char* prefix : {"meg", "f", "p", "n", "u", "m", "k", "g", "t"}) {
    const std::string p(prefix);
    if (suffix.rfind(p, 0) == 0 && is_unit(suffix.substr(p.size()))) {
      scale = kScale.at(p);
      matched = true;
      break;
    }
  }
  if (!matched && !is_unit(suffix)) {
    return Status(ErrorCode::kParseError,
                  "parse_spice_value: trailing garbage '" + suffix + "' in '" + text + "'");
  }
  const double value = base * scale;
  if (!std::isfinite(value)) {
    return Status(ErrorCode::kValueOutOfRange,
                  "parse_spice_value: scaled magnitude of '" + text + "' exceeds double range");
  }
  return value;
}

/// Empty when the two agree; otherwise what differs.
std::string mismatch(const std::string& text) {
  const Result<double> want = reference_parse(text);
  const Result<double> got = relmore::circuit::parse_spice_value_checked(text);
  if (want.is_ok() != got.is_ok()) {
    return "'" + text + "': verdict differs (reference " + (want.is_ok() ? "accepts" : "rejects") +
           ")";
  }
  if (want.is_ok()) {
    if (std::bit_cast<std::uint64_t>(want.value()) != std::bit_cast<std::uint64_t>(got.value())) {
      char buf[96];
      std::snprintf(buf, sizeof buf, "reference %a, got %a", want.value(), got.value());
      return "'" + text + "': " + buf;
    }
    return "";
  }
  if (want.status().code() != got.status().code() ||
      want.status().message() != got.status().message()) {
    return "'" + text + "': reference [" + want.status().to_string() + "] got [" +
           got.status().to_string() + "]";
  }
  return "";
}

TEST(SpiceValueParity, EdgeCases) {
  const std::vector<std::string> edges = {
      "+5",      "0x10",   "1e",     ".5",       "5.",       "-0",      "1e-310",  "1e-400",
      "1e400",   "inf",    "-nan",   "1MEG",     "2nH",      "3..5",    "-",       "+",
      ".",       "-.",     "e5",     ".e5",      "0X1p-3",   "-0x1.8p1", "0x",     "1e+",
      "1e-",     "1E5",    "1e+05",  "-1.5e-3",  "007",      "0.0",     "-0.0e0",  "INF",
      "Infinity", "nan(1)", "NaN",   "+inf",     "-inf",     "1meg",    "1Meg",    "2.5mohm",
      "3kohmx",  "4ff",    "5fh",    "6megv",    "7t",       "8gs",     "9uH",     "1e308k",
      "9e307k",  "1e-320f", "4.9406564584124654e-324", "2.4703282292062327e-324",
      "2.4703282292062328e-324", "1.7976931348623157e308", "1.7976931348623159e308",
      "179769313486231580793728971405303415079934132710037826936173778980444968292764750946649017977587207096330286416692887910946555547851940402630657488671505820681908902000708383676273854845817711531764475730270069855571366959622842914819860834936475292719074168444365510704342711559699508093042880177904174497792",
      "0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001",
      std::string("5\0x", 3), " 5", "5 ", "\t7", "1,5", "1_000", "١",
  };
  for (const std::string& text : edges) EXPECT_EQ(mismatch(text), "");
}

TEST(SpiceValueParity, SeededLiteralsOverManyDecades) {
  // 10^5+ literals: %.17g of random bit patterns (every decade, subnormals,
  // inf and nan included) and of decimal mantissas scaled across 10^-320
  // to 10^308, a quarter of them with an SI suffix or unit in mixed case.
  const char* const suffixes[] = {"f", "p", "n", "u", "m", "k", "meg", "g", "t", "MEG",
                                  "nH", "pF", "Ohm", "s", "V", "x", "e", "e+", "..5", "mohm"};
  std::mt19937_64 rng(20261017);
  std::uniform_real_distribution<double> mantissa(1.0, 10.0);
  std::uniform_int_distribution<int> decade(-320, 308);
  std::size_t checked = 0;
  std::size_t failures = 0;
  for (int i = 0; i < 120000; ++i) {
    double x = 0.0;
    if (i % 2 == 0) {
      x = std::bit_cast<double>(rng());
    } else {
      x = mantissa(rng) * std::pow(10.0, decade(rng));
      if (rng() & 1u) x = -x;
    }
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", x);
    std::string text(buf);
    if (rng() % 4 == 0) text += suffixes[rng() % std::size(suffixes)];
    const std::string diff = mismatch(text);
    ++checked;
    if (!diff.empty() && ++failures <= 10) ADD_FAILURE() << diff;
  }
  EXPECT_EQ(failures, 0u);
  EXPECT_GE(checked, 100000u);
}

TEST(SpiceValueParity, FuzzSeedsKeepTheirVerdict) {
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(RELMORE_TESTDATA_DIR) / ".." / "fuzz" / "corpus" / "parse_spice_value";
  std::size_t seeds = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    std::ifstream in(entry.path(), std::ios::binary);
    const std::string text{std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
    EXPECT_EQ(mismatch(text), "") << entry.path().filename();
    ++seeds;
  }
  EXPECT_GT(seeds, 0u);
}

}  // namespace
