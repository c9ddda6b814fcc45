#pragma once

// The four workloads: each generates its inputs from the seed, runs a
// closed loop with one client for the measured time, checks every output
// outside op timing, and fills the run's metrics.

#include <cstdint>
#include <string>
#include <vector>

#include "metrics.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  ///< where a traced run writes its spans ("" = nowhere)
  std::size_t nets = 0;    ///< design size override (0 = the workload's own size)
};

struct RunOutcome {
  MetricSet metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  /// Human-readable lines: every metric the workload defines, with its
  /// unit and sample count, including those not in the JSON result.
  std::vector<std::string> report;
};

/// Runs one workload. Throws std::invalid_argument on an unknown name.
RunOutcome run_workload(const RunConfig& config);

}  // namespace perfbench
