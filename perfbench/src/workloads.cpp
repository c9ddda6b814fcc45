#include "workloads.hpp"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "generate.hpp"
#include "relmore/analysis/variation.hpp"
#include "relmore/circuit/flat_tree.hpp"
#include "relmore/eed/model.hpp"
#include "relmore/eed/second_order.hpp"
#include "relmore/engine/batch.hpp"
#include "relmore/engine/batched.hpp"
#include "relmore/engine/tuner.hpp"
#include "relmore/opt/path_timing.hpp"
#include "relmore/sim/flat_stepper.hpp"
#include "relmore/sim/source.hpp"
#include "relmore/sta/sta.hpp"
#include "relmore/timer.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

namespace sta = relmore::sta;
namespace util = relmore::util;
using relmore::Timer;

// Sizes. 16k nets is the largest design whose cold load (the superlinear
// layer) still lets 22 runs of every workload finish within an hour.
// signoff, which loads a fresh design per op, uses 8k: a 20 s run then
// holds ~30 loads instead of ~8, and over eight interleaved seed pairs on a
// shared VM its median latency spread by 9% against 13% at 16k. The
// what-if check interval keeps the from-scratch comparison under a fifth
// of the loop's wall time.
constexpr std::size_t kDesignNets = 16384;
constexpr std::size_t kSignoffNets = 8192;
constexpr std::size_t kProbeNets = 2048;     // monte_carlo's probe design
constexpr std::size_t kScalingDivisor = 8;   // scaling = cost at n / cost at n/8
constexpr std::size_t kReportPaths = 10;
constexpr std::uint64_t kWhatifCheckEvery = 200;
constexpr std::uint64_t kWhatifReportEvery = 50;
constexpr std::size_t kProbeTransactions = 200;
constexpr std::size_t kProbeRounds = 5;
constexpr std::size_t kMcSamples = 4096;
constexpr std::size_t kOracleTaps = 8000;

// Seed streams: every generated input derives from (seed, stream).
enum Stream : std::uint64_t {
  kSignoffDesign = 0,  // + op index
  kReanalyzeDesign = 1u << 20,
  kWhatifDesign,
  kWhatifEdits,
  kMcBigTree,
  kMcSmallTree,
  kMcSampling,
  kOracleSample,
  kProbeDesign,
};

double ms_since(std::int64_t t0) { return static_cast<double>(now_ns() - t0) * 1e-6; }

std::size_t heap_bytes() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

/// This process's peak resident set, from VmHWM in /proc/self/status.
/// getrusage's ru_maxrss is no substitute: it keeps the high-water mark of
/// the image exec replaced, so a benchmark started from a larger parent
/// (the Python driver) would report the parent's RSS.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Median wall time of `reps` calls, in ms.
double median_ms(std::size_t reps, const std::function<void()>& fn) {
  std::vector<double> t;
  for (std::size_t r = 0; r < reps; ++r) {
    const std::int64_t t0 = now_ns();
    fn();
    t.push_back(ms_since(t0));
  }
  return median(t);
}

template <typename T>
T must(util::Result<T> r, const char* what) {
  if (!r.is_ok()) throw std::runtime_error(std::string(what) + ": " + r.status().to_string());
  return std::move(r).value();
}

void must(const util::Status& s, const char* what) {
  if (!s.is_ok()) throw std::runtime_error(std::string(what) + ": " + s.to_string());
}

sta::Design load_design(const std::string& text) {
  std::istringstream in(text);
  return must(sta::read_design_checked(in), "read_design_checked");
}

// ---------------------------------------------------------------------------
// Accuracy oracle: reported delays against sim::simulate_first_crossings.

struct OracleResult {
  std::vector<double> err_pct;
  std::size_t failures = 0;     ///< probes the simulator never saw cross 50%
  std::size_t nonpositive = 0;  ///< probes whose simulated stage delay is <= 0
  double ms = 0.0;
};

/// Characteristic time of a node's response: its Elmore delay or one
/// radian of its ringing, whichever is longer.
double node_scale(const relmore::eed::NodeModel& m) {
  const double ring = std::isfinite(m.omega_n) && m.omega_n > 0.0 ? 1.0 / m.omega_n : 0.0;
  return std::max(m.sum_rc, ring);
}

/// 50% first crossings of `probes` under a ramp of `rise` (0 = step),
/// with a step small against the fastest probe and long enough for the
/// slowest.
std::vector<double> simulate_crossings(const circuit::FlatTree& tree,
                                       const std::vector<circuit::SectionId>& probes,
                                       double fastest, double slowest, double rise) {
  relmore::sim::TransientOptions opts;
  opts.t_stop = rise + 40.0 * slowest;
  opts.dt = fastest / 100.0;
  const double max_steps = 200000.0;
  if (opts.t_stop / opts.dt > max_steps) opts.dt = opts.t_stop / max_steps;
  const relmore::sim::Source source =
      rise > 0.0 ? relmore::sim::Source(relmore::sim::RampSource{1.0, rise})
                 : relmore::sim::Source(relmore::sim::StepSource{1.0});
  return relmore::sim::simulate_first_crossings(tree, source, opts, probes, 0.5);
}

/// Wire-stage delays of a seeded sample of >= kOracleTaps taps, each net
/// simulated under a ramp of its propagated driver slew.
OracleResult wire_oracle(const sta::Design& design, const sta::TimingResult& result,
                         std::uint64_t seed) {
  OracleResult out;
  const std::int64_t t0 = now_ns();
  const sta::CorpusModels models = must(sta::analyze_corpus_checked(design), "oracle corpus");
  std::vector<std::size_t> order(design.nets.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng rng(seed);
  for (std::size_t i = order.size(); i > 1; --i) std::swap(order[i - 1], order[rng.range(0, i - 1)]);
  for (std::size_t ni : order) {
    if (out.err_pct.size() + out.failures + out.nonpositive >= kOracleTaps) break;
    const sta::Net& net = design.nets[ni];
    const sta::NetTiming& nt = result.nets[ni];
    if (net.taps.empty() || !nt.driver.timed || nt.faulted) continue;
    std::vector<circuit::SectionId> probes;
    double fastest = INFINITY;
    double slowest = 0.0;
    for (std::size_t t = 0; t < net.taps.size(); ++t) {
      probes.push_back(net.taps[t].node);
      const double s = node_scale(models.nets[ni].taps[t]);
      fastest = std::min(fastest, s);
      slowest = std::max(slowest, s);
    }
    const double rise = nt.driver.slew;
    const std::vector<double> cross = simulate_crossings(net.flat, probes, fastest, slowest, rise);
    for (std::size_t t = 0; t < cross.size(); ++t) {
      const double sim_delay = cross[t] - 0.5 * rise;
      if (cross[t] < 0.0) {
        ++out.failures;
        continue;
      }
      // A ringing tap under a slow ramp can cross 50% before its input
      // does; a relative error against a delay <= 0 means nothing.
      if (sim_delay <= 0.0) {
        ++out.nonpositive;
        continue;
      }
      out.err_pct.push_back(100.0 * std::abs(nt.wire_delay[t] - sim_delay) / sim_delay);
    }
  }
  out.ms = ms_since(t0);
  return out;
}

/// The paper's step-input comparison: EED 50% delay of every node of a
/// tree against the simulated step response.
void tree_oracle(const circuit::RlcTree& tree, OracleResult& out) {
  const circuit::FlatTree flat(tree);
  const relmore::eed::TreeModel model = must(relmore::eed::analyze_checked(tree), "oracle analyze");
  std::vector<circuit::SectionId> probes;
  double fastest = INFINITY;
  double slowest = 0.0;
  for (std::size_t k = 0; k < tree.size(); ++k) {
    probes.push_back(static_cast<circuit::SectionId>(k));
    fastest = std::min(fastest, node_scale(model.nodes[k]));
    slowest = std::max(slowest, node_scale(model.nodes[k]));
  }
  const std::vector<double> cross = simulate_crossings(flat, probes, fastest, slowest, 0.0);
  for (std::size_t k = 0; k < cross.size(); ++k) {
    if (cross[k] <= 0.0) {
      ++out.failures;
      continue;
    }
    const double eed = relmore::eed::delay_50(model.nodes[k]);
    out.err_pct.push_back(100.0 * std::abs(eed - cross[k]) / cross[k]);
  }
}

/// Moves the op loop round-robin over every CPU the process may use, one
/// CPU per time slice. On a shared VM one vCPU's speed swings by ~40%
/// over seconds as its host neighbours come and go, and the scheduler
/// keeps a single-threaded loop on one vCPU for seconds at a time, so a
/// run's median followed whichever vCPU it landed on. Slices (rather than
/// every op) keep short ops' caches warm. Pinning to CPU k migrates the
/// thread there; restoring the full mask straight away (outside op
/// timing) leaves it running on k while the library's pool threads,
/// created inside ops, still inherit every CPU. Placement is best effort:
/// a failed call changes only where ops start.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof all_, &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
  }

  /// Called before each op; moves to the next CPU once per slice.
  void place() {
    const std::int64_t now = now_ns();
    if (cpus_.size() < 2 || now - last_ < kSliceNs) return;
    last_ = now;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    (void)sched_setaffinity(0, sizeof one, &one);
    (void)sched_setaffinity(0, sizeof all_, &all_);
  }

 private:
  static constexpr std::int64_t kSliceNs = 50'000'000;
  cpu_set_t all_;
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  std::int64_t last_ = 0;
};

// ---------------------------------------------------------------------------
// Workloads.

class Workload {
 public:
  virtual ~Workload() = default;
  /// (Re)builds the resident state from the seed. Throws on failure.
  virtual void setup() = 0;
  /// Untimed per-op input preparation.
  virtual void prepare(std::uint64_t /*op*/) {}
  /// The timed op. False when a library call returned a non-ok Status.
  virtual bool op(std::uint64_t i, Tracer& tracer) = 0;
  /// Untimed output check of op `i`.
  virtual bool check(std::uint64_t i) = 0;
  /// Work units of op `i` (nets, transactions, section-samples).
  [[nodiscard]] virtual double items(std::uint64_t i) const = 0;
  [[nodiscard]] virtual const char* item_metric() const = 0;
  /// Tail percentiles the human-readable report prints (when at least
  /// ten samples lie beyond them).
  [[nodiscard]] virtual std::vector<double> tails() const { return {}; }
  virtual OracleResult oracle() = 0;

  void fail(const std::string& why) {
    if (errors.size() < 8) errors.push_back(why);
  }
  std::vector<std::string> errors;
};

// signoff: cold text in -> report out, a fresh design per op.
class Signoff final : public Workload {
 public:
  /// `shape` is op 0's design; op i's reseeds it from (seed, i).
  Signoff(const DesignShape& shape, std::uint64_t seed) : shape_(shape), seed_(seed) {}

  void setup() override { text_ = generate(0); }

  void prepare(std::uint64_t i) override {
    if (i > 0) text_ = generate(i);
    in_.str(text_);
    in_.clear();
  }

  bool op(std::uint64_t i, Tracer& tr) override {
    out_ = {};
    return tr.enabled() ? op_split(i, tr) : op_timer(i);
  }

  bool check(std::uint64_t i) override {
    const bool ok = out_.ok && out_.faulted == 0 && out_.untimed == 0 && out_.report_bytes > 0 &&
                    std::isfinite(out_.wns) && std::isfinite(out_.tns) && out_.nets > 0;
    if (!ok) fail("signoff op " + std::to_string(i) + ": faulted/untimed/empty report");
    std::fprintf(stderr, "digest signoff design_seed=%016llx wns=%016llx tns=%016llx\n",
                 static_cast<unsigned long long>(design_seed(i)),
                 static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(out_.wns)),
                 static_cast<unsigned long long>(std::bit_cast<std::uint64_t>(out_.tns)));
    nets_per_op_ = static_cast<double>(out_.nets);
    return ok;
  }

  [[nodiscard]] double items(std::uint64_t) const override { return nets_per_op_; }
  [[nodiscard]] const char* item_metric() const override { return "nets_per_s"; }

  OracleResult oracle() override {
    return wire_oracle(*kept_->design(), *kept_->result(), mix_seed(shape_.seed, kOracleSample));
  }

 private:
  std::uint64_t design_seed(std::uint64_t i) const { return mix_seed(seed_, kSignoffDesign + i); }

  std::string generate(std::uint64_t i) const {
    DesignShape shape = shape_;
    shape.seed = design_seed(i);
    return generate_design(shape).text;
  }

  bool op_timer(std::uint64_t i) {
    Timer timer;
    if (const util::Status s = timer.load(in_); !s.is_ok()) return failed(s);
    const util::Result<sta::TimingSummary> sum = timer.analyze();
    if (!sum.is_ok()) return failed(sum.status());
    std::ostringstream report;
    if (const util::Status s = timer.report_timing(report, kReportPaths); !s.is_ok()) {
      return failed(s);
    }
    record(sum.value(), timer.design()->nets.size(), report.tellp());
    if (i == 0) kept_.emplace(std::move(timer));
    return true;
  }

  // The traced op runs the public sequence Timer wraps, so each layer
  // gets its own span.
  bool op_split(std::uint64_t i, Tracer& tr) {
    util::Result<sta::Design> design = [&] {
      Scope s(tr, "sta.read_design", i);
      return sta::read_design_checked(in_);
    }();
    if (!design.is_ok()) return failed(design.status());
    const util::Result<sta::TimingGraph> graph = [&] {
      Scope s(tr, "sta.graph_build", i);
      return sta::TimingGraph::build_checked(design.value());
    }();
    if (!graph.is_ok()) return failed(graph.status());
    const util::Result<sta::TimingResult> result = [&] {
      Scope s(tr, "sta.analyze", i);
      return graph.value().analyze_checked();
    }();
    if (!result.is_ok()) return failed(result.status());
    Scope s(tr, "sta.report", i);
    const auto paths = sta::worst_paths_checked(design.value(), result.value(), kReportPaths);
    if (!paths.is_ok()) return failed(paths.status());
    std::string report = sta::format_summary(result.value().summary);
    for (const sta::PathReport& p : paths.value()) report += sta::format_path(p);
    record(result.value().summary, design.value().nets.size(), static_cast<long>(report.size()));
    return true;
  }

  bool failed(const util::Status& s) {
    fail("signoff: " + s.to_string());
    return false;
  }

  void record(const sta::TimingSummary& s, std::size_t nets, long bytes) {
    out_ = {true, s.wns, s.tns, s.faulted_nets, s.untimed_endpoints,
            static_cast<std::size_t>(std::max(0L, bytes)), nets};
  }

  struct Out {
    bool ok = false;
    double wns = 0.0;
    double tns = 0.0;
    std::size_t faulted = 0;
    std::size_t untimed = 0;
    std::size_t report_bytes = 0;
    std::size_t nets = 0;
  };

  DesignShape shape_;
  std::uint64_t seed_;
  std::string text_;
  std::istringstream in_;
  Out out_;
  double nets_per_op_ = 0.0;
  std::optional<Timer> kept_;  // the warm-up op's timer: the oracle's input
};

// reanalyze: full timing of a resident design, no cache.
class Reanalyze final : public Workload {
 public:
  explicit Reanalyze(const DesignShape& shape) : shape_(shape) {}

  void setup() override {
    graph_.reset();
    design_.reset();
    design_ = std::make_unique<sta::Design>(load_design(generate_design(shape_).text));
    graph_.emplace(must(sta::TimingGraph::build_checked(*design_), "build_checked"));
  }

  bool op(std::uint64_t i, Tracer& tr) override {
    Scope s(tr, "sta.analyze", i);
    pending_.emplace(graph_->analyze_checked());
    return pending_->is_ok();
  }

  bool check(std::uint64_t i) override {
    bool ok = pending_->is_ok();
    if (!ok) {
      fail("reanalyze: " + pending_->status().to_string());
    } else {
      if (i == 0) reference_.emplace(std::move(*pending_).value());
      const sta::TimingSummary& ref = reference_->summary;
      const sta::TimingSummary& s = i == 0 ? ref : pending_->value().summary;
      ok = same_bits(s.wns, ref.wns) && same_bits(s.tns, ref.tns) && s.faulted_nets == 0 &&
           s.untimed_endpoints == 0 && ref.faulted_nets == 0;
      if (!ok) fail("reanalyze op " + std::to_string(i) + ": WNS/TNS differ from the reference");
    }
    pending_.reset();
    return ok;
  }

  [[nodiscard]] double items(std::uint64_t) const override {
    return static_cast<double>(design_->nets.size());
  }
  [[nodiscard]] const char* item_metric() const override { return "nets_per_s"; }
  [[nodiscard]] std::vector<double> tails() const override { return {0.9}; }

  OracleResult oracle() override {
    return wire_oracle(*design_, *reference_, mix_seed(shape_.seed, kOracleSample));
  }

 private:
  DesignShape shape_;
  std::unique_ptr<sta::Design> design_;
  std::optional<sta::TimingGraph> graph_;
  std::optional<util::Result<sta::TimingResult>> pending_;
  std::optional<sta::TimingResult> reference_;
};

// whatif: one edit transaction + commit + slack query per op on a
// resident Timer.
class Whatif final : public Workload {
 public:
  Whatif(const DesignShape& shape, std::uint64_t edit_seed)
      : shape_(shape), edit_seed_(edit_seed), rng_(edit_seed) {}

  void setup() override {
    timer_ = Timer();
    gen_ = generate_design(shape_);
    std::istringstream in(gen_.text);
    must(timer_.load(in), "Timer::load");
    must(timer_.analyze(), "Timer::analyze");
    gen_.text = std::string();
    rng_ = Rng(edit_seed_);
    clock_ = timer_.design()->clock_period;
    stats_ = {};
    cache_start_ = timer_.cache().counters();
  }

  void prepare(std::uint64_t) override {
    const double u = rng_.uniform();
    plan_ = {};
    if (u < 0.90) {
      const auto& net = gen_.nets[rng_.range(0, gen_.nets.size() - 1)];
      const std::size_t k = rng_.range(0, net.wire.size() - 1);
      plan_.kind = Kind::kWire;
      plan_.net = net.name;
      plan_.section = "s" + std::to_string(k);
      plan_.wire = net.wire[k];
      plan_.wire.resistance *= 0.8 + 0.4 * rng_.uniform();
      plan_.wire.inductance *= 0.8 + 0.4 * rng_.uniform();
      plan_.wire.capacitance *= 0.8 + 0.4 * rng_.uniform();
      plan_.endpoint = gen_.endpoints[net.endpoint];
    } else if (u < 0.95) {
      static const char* const kCells[] = {"buf_x1", "buf_x4", "inv_x1"};
      const auto& inst = gen_.swappable[rng_.range(0, gen_.swappable.size() - 1)];
      plan_.kind = Kind::kCell;
      plan_.name = inst.name;
      plan_.cell = kCells[rng_.range(0, 2)];
      plan_.endpoint = gen_.endpoints[inst.endpoint];
    } else {
      plan_.kind = Kind::kPort;
      plan_.endpoint = gen_.endpoints[rng_.range(0, gen_.endpoints.size() - 1)];
      plan_.required = clock_ * (0.8 + 0.4 * rng_.uniform());
    }
  }

  bool op(std::uint64_t i, Tracer& tr) override {
    util::Status recorded;
    Timer::Edit edit = [&] {
      Scope s(tr, "timer.edit_record", i);
      Timer::Edit e = timer_.edit();
      switch (plan_.kind) {
        case Kind::kWire:
          recorded = e.set_net_section_values(plan_.net, plan_.section, plan_.wire);
          break;
        case Kind::kCell:
          recorded = e.set_cell(plan_.name, plan_.cell);
          break;
        case Kind::kPort:
          recorded = e.set_port_required(plan_.endpoint, plan_.required);
          break;
      }
      return e;
    }();
    if (!recorded.is_ok()) return failed(recorded);
    const util::Result<Timer::EditOutcome> outcome = [&] {
      Scope s(tr, "timer.commit", i);
      return edit.commit();
    }();
    if (!outcome.is_ok()) return failed(outcome.status());
    const util::Result<double> slack = [&] {
      Scope s(tr, "timer.slack", i);
      return timer_.slack(plan_.endpoint);
    }();
    if (!slack.is_ok() || !std::isfinite(slack.value())) return failed(slack.status());
    if (i % kWhatifReportEvery == 0) {
      Scope s(tr, "timer.report_worst_paths", i);
      const auto paths = timer_.report_worst_paths(kReportPaths);
      if (!paths.is_ok() || paths.value().empty()) return failed(paths.status());
    }
    const sta::UpdateStats& u = outcome.value().stats;
    ++stats_.commits;
    stats_.incremental += outcome.value().incremental ? 1 : 0;
    stats_.cone_nets += u.forward_retimed + u.backward_retimed;
    stats_.forward_nets += u.forward_retimed;
    stats_.cutoffs += u.frontier_cutoffs;
    return true;
  }

  // Every kWhatifCheckEvery-th op: the incrementally maintained result
  // must equal a from-scratch analysis of the edited design, bit for bit.
  bool check(std::uint64_t i) override {
    if (i % kWhatifCheckEvery != 0) return true;
    const sta::TimingResult* kept = timer_.result();
    const auto fresh = sta::TimingGraph::build_checked(*timer_.design());
    bool ok = kept != nullptr && fresh.is_ok();
    if (ok) {
      const auto full = fresh.value().analyze_checked();
      ok = full.is_ok() && same_bits(full.value().summary.wns, kept->summary.wns) &&
           same_bits(full.value().summary.tns, kept->summary.tns);
    }
    if (!ok) fail("whatif op " + std::to_string(i) + ": incremental WNS/TNS != full analysis");
    return ok;
  }

  [[nodiscard]] double items(std::uint64_t) const override { return 1.0; }
  [[nodiscard]] const char* item_metric() const override { return "txn_per_s"; }
  [[nodiscard]] std::vector<double> tails() const override { return {0.9, 0.99}; }

  OracleResult oracle() override {
    must(timer_.analyze(), "Timer::analyze");
    return wire_oracle(*timer_.design(), *timer_.result(), mix_seed(shape_.seed, kOracleSample));
  }

  struct Stats {
    std::size_t commits = 0;
    std::size_t incremental = 0;
    std::size_t cone_nets = 0;
    std::size_t forward_nets = 0;
    std::size_t cutoffs = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] double cache_hit_ratio() const {
    const auto& c = timer_.cache().counters();
    const double hits = static_cast<double>(c.hits - cache_start_.hits);
    const double all = hits + static_cast<double>(c.misses - cache_start_.misses);
    return all > 0.0 ? hits / all : 0.0;
  }
  [[nodiscard]] double taps_per_net() const {
    const sta::Design& d = *timer_.design();
    std::size_t taps = 0;
    for (const sta::Net& n : d.nets) taps += n.taps.size();
    return static_cast<double>(taps) / static_cast<double>(d.nets.size());
  }

 private:
  enum class Kind { kWire, kCell, kPort };
  struct Plan {
    Kind kind = Kind::kWire;
    std::string net, section, name, endpoint;
    circuit::SectionValues wire;
    const char* cell = "";
    double required = 0.0;
  };

  bool failed(const util::Status& s) {
    fail("whatif: " + s.to_string());
    return false;
  }

  DesignShape shape_;
  std::uint64_t edit_seed_;
  Rng rng_;
  GeneratedDesign gen_;
  Timer timer_;
  Plan plan_;
  double clock_ = 0.0;
  Stats stats_;
  sta::CorpusCache::Counters cache_start_;
};

// monte_carlo: the paper's kernel in its main use, two 1023-section ops
// to one 63-section op. The median sits on the large tree: a 63-section op
// lasts ~10 ms, mostly pool start-up and join, and its median swung by
// 15% between runs on a shared VM.
class MonteCarlo final : public Workload {
 public:
  explicit MonteCarlo(std::uint64_t seed) : seed_(seed) {}

  static constexpr std::size_t kBigSections = 1023;
  static constexpr std::size_t kSmallSections = 63;

  void setup() override {
    trees_[0] = generate_balanced_tree(kBigSections, mix_seed(seed_, kMcBigTree));
    trees_[1] = generate_balanced_tree(kSmallSections, mix_seed(seed_, kMcSmallTree));
    for (std::size_t t = 0; t < 2; ++t) {
      options_[t].samples = kMcSamples;
      options_[t].seed = mix_seed(seed_, kMcSampling + t);
      reference_[t] = must(relmore::analysis::monte_carlo_delay_checked(trees_[t], sink(t), options_[t]),
                           "monte_carlo_delay_checked");
    }
  }

  bool op(std::uint64_t i, Tracer& tr) override {
    const std::size_t t = which(i);
    Scope s(tr, "analysis.monte_carlo", i);
    pending_.emplace(relmore::analysis::monte_carlo_delay_checked(trees_[t], sink(t), options_[t]));
    return pending_->is_ok();
  }

  bool check(std::uint64_t i) override {
    bool ok = pending_->is_ok();
    if (ok) {
      const auto& d = pending_->value();
      const auto& r = reference_[which(i)];
      ok = same_bits(d.nominal, r.nominal) && same_bits(d.mean, r.mean) &&
           same_bits(d.stddev, r.stddev) && same_bits(d.min, r.min) && same_bits(d.max, r.max) &&
           same_bits(d.q95, r.q95) && d.samples == r.samples;
    }
    if (!ok) fail("monte_carlo op " + std::to_string(i) + ": distribution != reference");
    pending_.reset();
    return ok;
  }

  [[nodiscard]] double items(std::uint64_t i) const override {
    return static_cast<double>(trees_[which(i)].size() * kMcSamples);
  }
  [[nodiscard]] const char* item_metric() const override { return "section_samples_per_s"; }
  [[nodiscard]] std::vector<double> tails() const override { return {0.9}; }

  OracleResult oracle() override {
    OracleResult r;
    const std::int64_t t0 = now_ns();
    for (const auto& tree : trees_) tree_oracle(tree, r);
    r.ms = ms_since(t0);
    return r;
  }

  static std::size_t which(std::uint64_t i) { return i % 3 == 2 ? 1 : 0; }
  [[nodiscard]] const circuit::RlcTree& tree(std::size_t t) const { return trees_[t]; }
  [[nodiscard]] circuit::SectionId sink(std::size_t t) const {
    return static_cast<circuit::SectionId>(trees_[t].size() - 1);
  }

 private:
  std::uint64_t seed_;
  circuit::RlcTree trees_[2];
  relmore::analysis::MonteCarloOptions options_[2];
  relmore::analysis::DelayDistribution reference_[2];
  std::optional<util::Result<relmore::analysis::DelayDistribution>> pending_;
};

// ---------------------------------------------------------------------------
// Layer probe (traced runs): per-call costs of every layer on this
// workload's design, by the same public calls the ops make.

/// Shares of one analyze_checked call taken by its corpus phase and by
/// its stage solves (a time_stage replay over every timed tap).
struct DesignProbe {
  double corpus_frac = 0.0;
  double stage_frac = 0.0;
};

DesignProbe probe_design(const GeneratedDesign& full, const GeneratedDesign& small, MetricSet& m) {
  DesignProbe p;
  const std::size_t heap0 = heap_bytes();
  std::int64_t t0 = now_ns();
  sta::Design design = load_design(full.text);
  const double load_ms = ms_since(t0);
  const double grown = static_cast<double>(heap_bytes()) - static_cast<double>(heap0);
  const double ns_full = load_ms * 1e6 / static_cast<double>(design.nets.size());
  const double ns_small = median_ms(3, [&] { (void)load_design(small.text); }) * 1e6 /
                          static_cast<double>(small.nets.size());
  m.set("sta.read_design.ns_per_net", ns_full);
  m.set("sta.read_design.scaling", ns_full / ns_small);
  m.set("sta.design.bytes_per_section", grown / static_cast<double>(full.sections));

  std::optional<sta::TimingGraph> graph;
  m.set("sta.graph_build.ms", median_ms(3, [&] {
          graph.emplace(must(sta::TimingGraph::build_checked(design), "build_checked"));
        }));
  // Analyze and its two children are timed in interleaved rounds and
  // split per round: a vCPU's speed drifts by tens of percent within
  // seconds, so a split of separately timed medians can exceed the whole.
  std::optional<sta::TimingResult> result;
  std::optional<sta::CorpusModels> corpus;
  std::size_t calls = 0;
  double sink = 0.0;
  std::vector<double> analyze_ms, corpus_ms, stage_ms, self_ms, corpus_frac, stage_frac;
  for (std::size_t round = 0; round < kProbeRounds; ++round) {
    const double a = median_ms(1, [&] {
      result.reset();
      result.emplace(must(graph->analyze_checked(), "analyze_checked"));
    });
    const double c = median_ms(1, [&] {
      corpus.reset();
      corpus.emplace(must(sta::analyze_corpus_checked(design), "analyze_corpus_checked"));
    });
    const double st = median_ms(1, [&] {
      calls = 0;
      for (std::size_t ni = 0; ni < design.nets.size(); ++ni) {
        const sta::NetTiming& nt = result->nets[ni];
        if (!nt.driver.timed || nt.faulted) continue;
        for (const auto& model : corpus->nets[ni].taps) {
          sink += relmore::opt::time_stage(model, nt.driver.slew).delay;
          ++calls;
        }
      }
    });
    analyze_ms.push_back(a);
    corpus_ms.push_back(c);
    stage_ms.push_back(st);
    self_ms.push_back(std::max(0.0, a - c - st));
    corpus_frac.push_back(c / a);
    stage_frac.push_back(st / a);
  }
  if (!std::isfinite(sink)) throw std::runtime_error("time_stage replay: non-finite delay");
  p.corpus_frac = median(corpus_frac);
  p.stage_frac = median(stage_frac);
  const double report_ms = median_ms(3, [&] {
    const auto paths = must(sta::worst_paths_checked(design, *result, kReportPaths), "worst_paths");
    std::string text = sta::format_summary(result->summary);
    for (const auto& path : paths) text += sta::format_path(path);
  });
  m.set("sta.analyze.ms", median(analyze_ms));
  m.set("sta.corpus.ms", median(corpus_ms));
  // Propagation's own time: analyze minus its two children, the corpus
  // phase and the stage solves.
  m.set("sta.propagate.self_ms", median(self_ms));
  m.set("sta.report.ms", report_ms);
  m.set("sta.corpus.batched_ratio",
        static_cast<double>(corpus->batched_nets) / static_cast<double>(design.nets.size()));
  m.set("sta.corpus.faulted_nets", static_cast<double>(corpus->faulted_nets));
  m.set("opt.time_stage.ns_per_call", median(stage_ms) * 1e6 / static_cast<double>(calls));
  m.set("opt.time_stage.calls", static_cast<double>(calls));
  return p;
}

/// Mean duration per span name, in us.
std::map<std::string, double> mean_us(const std::vector<Span>& spans) {
  std::map<std::string, double> out;
  for (const auto& [name, t] : layer_totals(spans)) {
    out[name] = static_cast<double>(t.total_ns) * 1e-3 / static_cast<double>(t.count);
  }
  return out;
}

/// Runs kProbeTransactions what-if ops on a fresh Timer, all traced; mean
/// duration per span name, in us.
std::map<std::string, double> probe_whatif(Whatif& w) {
  w.setup();
  Tracer tracer(true);
  for (std::uint64_t i = 0; i < kProbeTransactions; ++i) {
    w.prepare(i);
    if (!w.op(i, tracer)) throw std::runtime_error("what-if probe op failed");
  }
  return mean_us(tracer.spans());
}

struct EngineProbe {
  double kernel_ms[2] = {0.0, 0.0};  ///< bare-kernel replay of the MC ops, per tree
};

/// The bare batched kernel over the Monte Carlo trees (values filled by a
/// trivial deterministic perturbation, so sampling cost is excluded), the
/// pool's spawn cost, and the tuner's plan.
EngineProbe probe_engine(const MonteCarlo& mc, MetricSet& m) {
  EngineProbe p;
  for (std::size_t t = 0; t < 2; ++t) {
    const circuit::FlatTree flat(mc.tree(t));
    const std::size_t n = flat.size();
    relmore::engine::BatchedAnalyzer batch(flat);
    relmore::engine::BatchAnalyzer pool;
    p.kernel_ms[t] = median_ms(3, [&] {
      const auto models = batch.analyze_stream(
          kMcSamples,
          [&](std::size_t s, double* r, double* l, double* c) {
            const double f = 1.0 + 1e-3 * static_cast<double>(s % 17);
            for (std::size_t k = 0; k < n; ++k) {
              r[k] = flat.resistance()[k] * f;
              l[k] = flat.inductance()[k];
              c[k] = flat.capacitance()[k];
            }
          },
          {mc.sink(t)}, &pool);
      if (!models.stop_status().is_ok()) throw std::runtime_error("kernel replay stopped");
    });
  }
  m.set("engine.batched.ns_per_section_sample",
        p.kernel_ms[0] * 1e6 / static_cast<double>(MonteCarlo::kBigSections * kMcSamples));
  m.set("engine.batch_analyzer.spawn_us",
        1e3 * median_ms(21, [] { relmore::engine::BatchAnalyzer pool; }));
  const auto plan = relmore::engine::KernelTuner::instance().analysis_plan(MonteCarlo::kBigSections,
                                                                           kMcSamples);
  m.set("engine.tuner.lane_width", plan.lane_width);
  m.set("engine.tuner.tile_rows", static_cast<double>(plan.tile_rows));
  return p;
}

// ---------------------------------------------------------------------------
// The run.

/// The workload's design at `nets` nets (signoff: its first op's), which
/// its layer probe also times; monte_carlo, which has none, probes a
/// reanalyze-shaped one.
DesignShape design_shape(const RunConfig& cfg, std::size_t nets) {
  if (cfg.workload == "signoff") return signoff_shape(nets, mix_seed(cfg.seed, kSignoffDesign));
  if (cfg.workload == "whatif") return signoff_shape(nets, mix_seed(cfg.seed, kWhatifDesign));
  if (cfg.workload == "reanalyze") {
    return reanalyze_shape(nets, mix_seed(cfg.seed, kReanalyzeDesign));
  }
  return reanalyze_shape(nets, mix_seed(cfg.seed, kProbeDesign));
}

/// The workload's design size (monte_carlo: its probe design's).
std::size_t design_nets(const RunConfig& cfg) {
  if (cfg.workload == "monte_carlo") return kProbeNets;
  if (cfg.nets != 0) return cfg.nets;
  return cfg.workload == "signoff" ? kSignoffNets : kDesignNets;
}

std::unique_ptr<Workload> make(const RunConfig& cfg) {
  const DesignShape shape = design_shape(cfg, design_nets(cfg));
  if (cfg.workload == "signoff") return std::make_unique<Signoff>(shape, cfg.seed);
  if (cfg.workload == "reanalyze") return std::make_unique<Reanalyze>(shape);
  if (cfg.workload == "whatif") {
    return std::make_unique<Whatif>(shape, mix_seed(cfg.seed, kWhatifEdits));
  }
  if (cfg.workload == "monte_carlo") return std::make_unique<MonteCarlo>(cfg.seed);
  throw std::invalid_argument("unknown workload '" + cfg.workload + "'");
}

std::string sample_line(const std::string& name, double value, const char* unit, std::size_t n) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.6g", value);
  return name + " = " + buf + " " + unit + " (n=" + std::to_string(n) + ")";
}

struct Measured {
  std::vector<double> setup_s;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  std::vector<Span> spans;  ///< of the traced ops
  double items = 0.0;       ///< work units of the untraced ops
  double untraced_s = 0.0;
  double peak_rss_mb = 0.0;
  OracleResult oracle;
};

Measured measure(Workload& w, const RunConfig& cfg, RunOutcome& out) {
  Measured r;
  CpuRotation cpus;
  // Set-up, at least three times and for at least a second; the median
  // is the metric.
  double setup_total = 0.0;
  while (r.setup_s.size() < 3 || setup_total < 1.0) {
    cpus.place();
    const std::int64_t t0 = now_ns();
    w.setup();
    r.setup_s.push_back(ms_since(t0) * 1e-3);
    setup_total += r.setup_s.back();
  }

  // Warm-up op (checked, not timed), then the closed loop. A traced run
  // traces every other pair of ops (so periodic ops such as the what-if
  // report land on both sides); the untraced ones give trace.overhead.
  auto account = [&](bool ok) {
    ++out.attempted;
    if (!ok) ++out.failed;
  };
  {
    Tracer off(false);
    w.prepare(0);
    const bool ok = w.op(0, off);
    account(w.check(0) && ok);
  }
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(cfg.seconds * 1e9);
  for (std::uint64_t i = 1; now_ns() < deadline; ++i) {
    w.prepare(i);
    cpus.place();
    const bool traced = cfg.trace && (i / 2) % 2 == 1;
    Tracer tracer(traced);
    const std::int64_t t0 = now_ns();
    bool ok = false;
    {
      Scope s(tracer, "op", i);
      ok = w.op(i, tracer);
    }
    const double ms = ms_since(t0);
    if (traced) {
      r.traced_ms.push_back(ms);
      const int base = static_cast<int>(r.spans.size());
      for (Span s : tracer.spans()) {
        if (s.parent >= 0) s.parent += base;
        r.spans.push_back(std::move(s));
      }
    } else {
      r.untraced_ms.push_back(ms);
      r.items += w.items(i);
      r.untraced_s += ms * 1e-3;
    }
    account(w.check(i) && ok);
  }
  r.peak_rss_mb = peak_rss_mb();

  // The accuracy harness counts as one more checked operation.
  r.oracle = w.oracle();
  account(r.oracle.failures == 0);
  if (r.oracle.failures) {
    w.fail("oracle: " + std::to_string(r.oracle.failures) + " probes never crossed 50%");
  }
  return r;
}

std::vector<std::string> report_lines(const Workload& w, const RunConfig& cfg, const Measured& r,
                                      const RunOutcome& out) {
  std::vector<std::string> rep;
  rep.push_back("workload " + cfg.workload + " seed " + std::to_string(cfg.seed) +
                (cfg.trace ? " (traced)" : ""));
  const std::size_t n = r.untraced_ms.size();
  rep.push_back(sample_line("latency_p50_ms", median(r.untraced_ms), "ms", n));
  for (double q : w.tails()) {
    const std::string name = "latency_p" + std::to_string(static_cast<int>(q * 100)) + "_ms";
    if (const auto v = tail_percentile(r.untraced_ms, q)) {
      rep.push_back(sample_line(name, *v, "ms", n));
    } else {
      rep.push_back(name + " withheld: fewer than 10 samples beyond it (n=" + std::to_string(n) +
                    ")");
    }
  }
  rep.push_back(sample_line(w.item_metric(), r.items / r.untraced_s, "1/s", n));
  rep.push_back(sample_line("setup_s", median(r.setup_s), "s", r.setup_s.size()));
  rep.push_back(sample_line("peak_rss_mb", r.peak_rss_mb, "MB", 1));
  rep.push_back(sample_line("error_rate",
                            static_cast<double>(out.failed) / static_cast<double>(out.attempted),
                            "ratio", out.attempted));
  const std::string err = cfg.workload == "monte_carlo" ? "step_delay_err" : "wire_delay_err";
  const std::size_t taps = r.oracle.err_pct.size();
  rep.push_back(sample_line(err + "_p50_pct", median(r.oracle.err_pct), "%", taps) +
                ", excluded with simulated delay <= 0: " + std::to_string(r.oracle.nonpositive));
  if (const auto v = tail_percentile(r.oracle.err_pct, 0.99)) {
    rep.push_back(sample_line(err + "_p99_pct", *v, "%", taps));
  }
  if (cfg.trace) {
    rep.push_back(sample_line("traced latency_p50_ms", median(r.traced_ms), "ms",
                              r.traced_ms.size()));
  }
  return rep;
}

/// Per-layer metrics of a traced run: shares from the traced ops' spans,
/// per-call costs from the layer probe on this workload's inputs.
void layer_metrics(Workload& w, const RunConfig& cfg, const Measured& r, MetricSet& m) {
  const auto totals = layer_totals(r.spans);
  auto total_ms = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.total_ns) * 1e-6;
  };
  auto self_ms = [&](const char* name) {
    const auto it = totals.find(name);
    return it == totals.end() ? 0.0 : static_cast<double>(it->second.self_ns) * 1e-6;
  };
  const double op_ms = total_ms("op");
  const double per_op_share = op_ms > 0.0 ? 1.0 / op_ms : 0.0;
  m.set("trace.unattributed_share", self_ms("op") * per_op_share);
  m.set("trace.overhead", median(r.traced_ms) / median(r.untraced_ms));
  m.set("sim.oracle.ms", r.oracle.ms);
  m.set("sim.oracle.err_p50_pct", median(r.oracle.err_pct));
  m.set("sim.oracle.err_p99_pct", tail_percentile(r.oracle.err_pct, 0.99).value_or(0.0));

  const std::size_t probe_nets = design_nets(cfg);
  const std::size_t small_nets = probe_nets / kScalingDivisor;
  const DesignProbe dp = probe_design(generate_design(design_shape(cfg, probe_nets)),
                                      generate_design(design_shape(cfg, small_nets)), m);

  // Timer what-if costs: whatif's own ops, else probe transactions.
  const std::uint64_t edit_seed = mix_seed(cfg.seed, kWhatifEdits);
  auto* whatif = dynamic_cast<Whatif*>(&w);
  std::optional<Whatif> probe_full;
  std::map<std::string, double> timer_us;
  if (whatif != nullptr) {
    timer_us = mean_us(r.spans);
  } else {
    whatif = &probe_full.emplace(design_shape(cfg, probe_nets), edit_seed);
    timer_us = probe_whatif(*whatif);
  }
  Whatif probe_small(design_shape(cfg, small_nets), edit_seed);
  const std::map<std::string, double> small_us = probe_whatif(probe_small);
  m.set("timer.edit_record.us", timer_us["timer.edit_record"]);
  m.set("timer.commit.us", timer_us["timer.commit"]);
  m.set("timer.commit.scaling", timer_us["timer.commit"] / small_us.at("timer.commit"));
  m.set("timer.slack.us", timer_us["timer.slack"]);
  m.set("timer.report_worst_paths.us", timer_us["timer.report_worst_paths"]);
  const Whatif::Stats& ws = whatif->stats();
  const double commits = static_cast<double>(std::max<std::size_t>(ws.commits, 1));
  m.set("timer.incremental_ratio", static_cast<double>(ws.incremental) / commits);
  m.set("sta.update.cone_nets", static_cast<double>(ws.cone_nets) / commits);
  m.set("sta.update.cutoffs", static_cast<double>(ws.cutoffs) / commits);
  m.set("sta.cache.hit_ratio", whatif->cache_hit_ratio());

  auto* mc = dynamic_cast<MonteCarlo*>(&w);
  std::optional<MonteCarlo> mc_probe;
  if (mc == nullptr) {
    mc = &mc_probe.emplace(cfg.seed);
    mc->setup();
  }
  const EngineProbe ep = probe_engine(*mc, m);

  // Shares of the traced ops' time. The corpus phase and the stage solves
  // run inside TimingGraph::analyze_checked, so their shares are the
  // probe's split of analyze applied to the ops' analyze spans.
  const double analyze_share = total_ms("sta.analyze") * per_op_share;
  m.set("sta.read_design.share", total_ms("sta.read_design") * per_op_share);
  m.set("sta.corpus.share", analyze_share * dp.corpus_frac);
  double stage_share = analyze_share * dp.stage_frac;
  if (cfg.workload == "whatif") {
    // Estimate: stage solves per commit = re-timed nets x taps per net.
    stage_share = static_cast<double>(ws.forward_nets) / commits * whatif->taps_per_net() *
                  m.get("opt.time_stage.ns_per_call") * 1e-6 *
                  static_cast<double>(r.traced_ms.size()) * per_op_share;
  }
  m.set("opt.time_stage.share", stage_share);
  double kernel_ms = 0.0;  // kernel time of the traced ops, by their tree mix
  if (cfg.workload == "monte_carlo") {
    for (const Span& s : r.spans) {
      if (s.name == "op") kernel_ms += ep.kernel_ms[MonteCarlo::which(s.op)];
    }
  }
  m.set("engine.batched.share", kernel_ms * per_op_share);
  m.set("analysis.monte_carlo.sampling_share",
        cfg.workload == "monte_carlo" ? 1.0 - kernel_ms * per_op_share : 0.0);
}

}  // namespace

RunOutcome run_workload(const RunConfig& cfg) {
  const std::unique_ptr<Workload> w = make(cfg);
  RunOutcome out;
  const Measured r = measure(*w, cfg, out);
  for (const std::string& e : w->errors) std::fprintf(stderr, "error: %s\n", e.c_str());
  out.report = report_lines(*w, cfg, r, out);
  if (!cfg.trace) {
    out.metrics.set("latency_p50_ms", median(r.untraced_ms));
    out.metrics.set("setup_s", median(r.setup_s));
    out.metrics.set("peak_rss_mb", r.peak_rss_mb);
    return out;
  }
  if (!cfg.spans_path.empty()) {
    std::ofstream os(cfg.spans_path);
    write_spans(os, r.spans);
  }
  layer_metrics(*w, cfg, r, out.metrics);
  return out;
}

}  // namespace perfbench
