// Pins every diagnostic the text readers produce on the checked-in fuzz
// seeds. The fuzz replay only checks invariants (never throws, a rejection
// explains itself), so a changed message, code, line number or net tag
// would pass it; this test replays the `design`, `tree_netlist` and
// `parse_spice_value` seeds and compares the rendered (code, message,
// line, node, net) of every Status and mirrored Diagnostic against
// tests/testdata/diagnostics_golden.txt.
//
// When a change is intended, the test writes what it saw to
// `diagnostics_golden.actual` in its working directory; review the diff
// and copy that file over the golden.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include "relmore/circuit/netlist.hpp"
#include "relmore/sta/design.hpp"
#include "relmore/util/diagnostics.hpp"

#ifndef RELMORE_TESTDATA_DIR
#error "RELMORE_TESTDATA_DIR must be defined by the build"
#endif

namespace {

namespace fs = std::filesystem;
namespace util = relmore::util;

/// Printable ASCII stays; everything else (newlines, control bytes,
/// non-ASCII) is written as \xNN so one finding is one golden line.
std::string escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (u >= 0x20 && u < 0x7f && c != '\\') {
      out += c;
    } else {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\x%02x", u);
      out += buf;
    }
  }
  return out;
}

std::string render(const std::string& seed, const char* kind, util::ErrorCode code,
                   const std::string& message, int line, int node, const std::string& net) {
  std::ostringstream os;
  os << seed << '\t' << kind << '\t' << util::error_code_name(code) << "\tline=" << line
     << "\tnode=" << node << "\tnet=" << escape(net) << '\t' << escape(message) << '\n';
  return os.str();
}

std::string render_status(const std::string& seed, const util::Status& s) {
  if (s.is_ok()) return seed + "\tstatus\tok\n";
  return render(seed, "status", s.code(), s.message(), s.line(), s.node(), s.net());
}

std::string render_report(const std::string& seed, const util::DiagnosticsReport& report) {
  std::string out;
  for (const util::Diagnostic& d : report.entries()) {
    out += render(seed, d.warning ? "warning" : "error", d.code, d.message, d.line, d.node, d.net);
  }
  return out;
}

std::string read_file(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::vector<fs::path> seeds(const std::string& target) {
  const fs::path dir = fs::path(RELMORE_TESTDATA_DIR) / ".." / "fuzz" / "corpus" / target;
  std::vector<fs::path> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string replay_all() {
  std::string out;
  for (const fs::path& path : seeds("design")) {
    const std::string seed = "design/" + path.filename().string();
    std::istringstream is(read_file(path));
    util::DiagnosticsReport report;
    const util::Result<relmore::sta::Design> r =
        relmore::sta::read_design_checked(is, relmore::sta::generic_library(), &report);
    out += render_status(seed, r.status());
    out += render_report(seed, report);
  }
  for (const fs::path& path : seeds("tree_netlist")) {
    const std::string seed = "tree_netlist/" + path.filename().string();
    std::istringstream is(read_file(path));
    util::DiagnosticsReport report;
    relmore::circuit::ReadContext ctx;
    ctx.report = &report;
    const util::Result<relmore::circuit::RlcTree> r =
        relmore::circuit::read_tree_netlist_checked(is, ctx);
    out += render_status(seed, r.status());
    out += render_report(seed, report);
  }
  for (const fs::path& path : seeds("parse_spice_value")) {
    const std::string seed = "parse_spice_value/" + path.filename().string();
    const util::Result<double> r = relmore::circuit::parse_spice_value_checked(read_file(path));
    if (r.is_ok()) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", r.value());
      out += seed + "\tvalue\t" + buf + '\n';
    } else {
      out += render_status(seed, r.status());
    }
  }
  return out;
}

TEST(DiagnosticsGolden, FuzzSeedFindingsMatchTheGoldenFile) {
  const std::string golden =
      read_file(fs::path(RELMORE_TESTDATA_DIR) / "diagnostics_golden.txt");
  const std::string actual = replay_all();
  if (actual == golden) return;
  std::ofstream("diagnostics_golden.actual", std::ios::binary) << actual;
  std::istringstream want(golden);
  std::istringstream got(actual);
  std::string w;
  std::string g;
  int line = 0;
  while (true) {
    ++line;
    const bool more_w = static_cast<bool>(std::getline(want, w));
    const bool more_g = static_cast<bool>(std::getline(got, g));
    if (!more_w && !more_g) break;
    if (!more_w || !more_g || w != g) {
      ADD_FAILURE() << "golden line " << line << " differs\n  golden: " << (more_w ? w : "<eof>")
                    << "\n  actual: " << (more_g ? g : "<eof>")
                    << "\nfull output written to "
                    << (fs::current_path() / "diagnostics_golden.actual").string();
      return;
    }
  }
}

}  // namespace
