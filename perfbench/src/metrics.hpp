#pragma once

// The metric names the benchmark prints. These tables are the single
// source of the JSON result line; BENCHMARK.json lists the same names and
// the self-test (run.py --self-test) fails when the two drift apart.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Printed by every untraced run (--trace 0).
const std::vector<MetricDef>& end_to_end_metrics();
/// Printed by every traced run (--trace 1).
const std::vector<MetricDef>& per_layer_metrics();

/// Collected metric values of one run.
class MetricSet {
 public:
  void set(const std::string& name, double value) { values_[name] = value; }
  [[nodiscard]] double get(const std::string& name) const;

  /// The result line: {"correct", "attempted", "failed", "metrics"} with
  /// exactly the metrics of `defs`. Throws std::logic_error when a
  /// defined metric was never set or a set one is not defined, so a run
  /// can never print a partial or misnamed result.
  [[nodiscard]] std::string result_json(const std::vector<MetricDef>& defs, bool correct,
                                        std::size_t attempted, std::size_t failed) const;

 private:
  std::map<std::string, double> values_;
};

}  // namespace perfbench
