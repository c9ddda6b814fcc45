// perfbench: the repo benchmark's command-line entry point.
//
//   perfbench --workload <signoff|reanalyze|whatif|monte_carlo> --seed <n>
//             --seconds <s> --trace <0|1> [--spans <file>] [--nets <n>]
//   perfbench --list-metrics
//
// Prints human-readable metric lines, then as its last line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. --trace 0 prints
// the end-to-end metrics, --trace 1 the per-layer ones. --nets shrinks
// the designs for smoke tests only.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "metrics.hpp"
#include "workloads.hpp"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> "
               "[--spans <file>] [--nets <n>]\n       perfbench --list-metrics\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  bool have_workload = false;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--list-metrics") {
        for (const auto& d : perfbench::end_to_end_metrics()) std::printf("end_to_end %s %s\n", d.name, d.unit);
        for (const auto& d : perfbench::per_layer_metrics()) std::printf("per_layer %s %s\n", d.name, d.unit);
        return 0;
      }
      if (i + 1 >= argc) return usage();
      const std::string value = argv[++i];
      if (arg == "--workload") {
        cfg.workload = value;
        have_workload = true;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        cfg.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") return usage();
        cfg.trace = value == "1";
      } else if (arg == "--spans") {
        cfg.spans_path = value;
      } else if (arg == "--nets") {
        cfg.nets = std::stoull(value);
      } else {
        return usage();
      }
    }
  } catch (const std::exception&) {
    return usage();
  }
  if (!have_workload || cfg.seconds <= 0.0) return usage();
  try {
    const perfbench::RunOutcome out = perfbench::run_workload(cfg);
    const auto& defs =
        cfg.trace ? perfbench::per_layer_metrics() : perfbench::end_to_end_metrics();
    const std::string json =
        out.metrics.result_json(defs, out.failed == 0, out.attempted, out.failed);
    for (const std::string& line : out.report) std::printf("%s\n", line.c_str());
    std::printf("%s\n", json.c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
