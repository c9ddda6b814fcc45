#include "metrics.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

namespace perfbench {

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"latency_p50_ms", "ms"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = {
      {"sta.read_design.ns_per_net", "ns"},
      {"sta.read_design.share", "share"},
      {"sta.read_design.scaling", "ratio"},
      {"sta.design.bytes_per_section", "B"},
      {"sta.graph_build.ms", "ms"},
      {"sta.analyze.ms", "ms"},
      {"sta.propagate.self_ms", "ms"},
      {"sta.report.ms", "ms"},
      {"sta.corpus.ms", "ms"},
      {"sta.corpus.share", "share"},
      {"sta.corpus.batched_ratio", "ratio"},
      {"sta.corpus.faulted_nets", "count"},
      {"opt.time_stage.ns_per_call", "ns"},
      {"opt.time_stage.calls", "count"},
      {"opt.time_stage.share", "share"},
      {"engine.batch_analyzer.spawn_us", "us"},
      {"engine.batched.ns_per_section_sample", "ns"},
      {"engine.batched.share", "share"},
      {"engine.tuner.lane_width", "count"},
      {"engine.tuner.tile_rows", "count"},
      {"analysis.monte_carlo.sampling_share", "share"},
      {"timer.edit_record.us", "us"},
      {"timer.commit.us", "us"},
      {"timer.commit.scaling", "ratio"},
      {"timer.slack.us", "us"},
      {"timer.report_worst_paths.us", "us"},
      {"timer.incremental_ratio", "ratio"},
      {"sta.update.cone_nets", "count"},
      {"sta.update.cutoffs", "count"},
      {"sta.cache.hit_ratio", "ratio"},
      {"sim.oracle.ms", "ms"},
      {"sim.oracle.err_p50_pct", "%"},
      {"sim.oracle.err_p99_pct", "%"},
      {"trace.unattributed_share", "share"},
      {"trace.overhead", "ratio"},
  };
  return defs;
}

double MetricSet::get(const std::string& name) const {
  const auto it = values_.find(name);
  if (it == values_.end()) throw std::logic_error("metric not set: " + name);
  return it->second;
}

std::string MetricSet::result_json(const std::vector<MetricDef>& defs, bool correct,
                                   std::size_t attempted, std::size_t failed) const {
  if (values_.size() != defs.size()) {
    for (const auto& [name, value] : values_) {
      bool known = false;
      for (const MetricDef& d : defs) known = known || name == d.name;
      if (!known) throw std::logic_error("metric not in the printed set: " + name);
    }
  }
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < defs.size(); ++i) {
    const double v = get(defs[i].name);
    if (!std::isfinite(v)) throw std::logic_error(std::string("non-finite metric: ") + defs[i].name);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    out += (i ? ", \"" : "\"");
    out += defs[i].name;
    out += "\": {\"value\": ";
    out += buf;
    out += ", \"unit\": \"";
    out += defs[i].unit;
    out += "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
