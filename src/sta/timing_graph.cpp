#include "relmore/sta/timing_graph.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <stdexcept>

#include "relmore/opt/path_timing.hpp"
#include "relmore/util/deadline.hpp"
#include "relmore/util/fault_injector.hpp"

namespace relmore::sta {

using util::ErrorCode;
using util::Result;
using util::Status;

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Endpoint required time: the port's own constraint, else the design
/// clock, else unconstrained.
void endpoint_required(const Design& design, const DesignPort& port, double* required,
                       bool* constrained) {
  if (port.has_required) {
    *required = port.required;
    *constrained = true;
  } else if (design.clock_period > 0.0) {
    *required = design.clock_period;
    *constrained = true;
  } else {
    *required = kInf;
    *constrained = false;
  }
}

/// Recomputes net `ni`'s forward half — driver point, tap arrivals/slews,
/// wire delays, fault flag — into `nt`, reading upstream tap timings from
/// `result`. Required/constrained fields are reset to unconstrained (the
/// backward sweep owns them). Shared verbatim between the full forward
/// sweep and the incremental dirty-cone scan so both produce identical
/// bits by construction. Returns the arrival-setting input pin of an
/// instance driver (-1 when none / not all pins timed).
int forward_time_net(const Design& design, int ni, const NetModels& models,
                     const TimingResult& result, NetTiming& nt) {
  const Net& net = design.nets[static_cast<std::size_t>(ni)];
  nt.driver = PointTiming{};
  nt.taps.assign(net.taps.size(), PointTiming{});
  nt.wire_delay.assign(net.taps.size(), 0.0);
  // A net the corpus never reached (deadline/cancel stop) is untimed
  // exactly like a faulted one: its cone degrades, everything else keeps
  // its uninterrupted-run bits.
  nt.faulted = models.faulted || !models.analyzed;
  nt.driver.required = kInf;
  for (PointTiming& tap : nt.taps) tap.required = kInf;

  // Driving point.
  int winning = -1;
  if (net.driver_kind == DriverKind::kPort) {
    const DesignPort& port = design.ports[static_cast<std::size_t>(net.driver_index)];
    nt.driver.timed = true;
    nt.driver.arrival = port.arrival;
    nt.driver.slew = port.slew;
  } else if (net.driver_kind == DriverKind::kInstance) {
    const Instance& inst = design.instances[static_cast<std::size_t>(net.driver_index)];
    const Cell& cell = design.library.cell(static_cast<std::size_t>(inst.cell));
    const double load = net.total_cap;
    bool all_timed = true;
    double best = -kInf;
    for (std::size_t pi = 0; pi < inst.inputs.size(); ++pi) {
      const Instance::Pin& pin = inst.inputs[pi];
      const PointTiming& at =
          result.nets[static_cast<std::size_t>(pin.net)].taps[static_cast<std::size_t>(pin.tap)];
      if (!at.timed) {
        all_timed = false;
        break;
      }
      const double arr = at.arrival + cell.arc_delay(at.slew, load);
      if (arr > best) {  // ties keep the earlier pin: deterministic
        best = arr;
        winning = static_cast<int>(pi);
      }
    }
    if (all_timed && winning >= 0) {
      const Instance::Pin& win = inst.inputs[static_cast<std::size_t>(winning)];
      const PointTiming& at =
          result.nets[static_cast<std::size_t>(win.net)].taps[static_cast<std::size_t>(win.tap)];
      nt.driver.timed = true;
      nt.driver.arrival = best;
      nt.driver.slew = cell.arc_slew(at.slew, load);
    } else {
      winning = -1;
    }
  }

  // Wire stages to every tap.
  if (!nt.driver.timed || nt.faulted) return winning;
  for (std::size_t t = 0; t < net.taps.size(); ++t) {
    try {
      if (util::fault_should_fire(util::FaultSite::kStageSolve)) {
        throw util::FaultError(util::FaultInjector::fire_status(util::FaultSite::kStageSolve));
      }
      const opt::StageTiming stage = opt::time_stage(models.taps[t], nt.driver.slew);
      nt.taps[t].timed = true;
      nt.taps[t].arrival = nt.driver.arrival + stage.delay;
      nt.taps[t].slew = stage.output_rise;
      nt.wire_delay[t] = stage.delay;
    } catch (const std::exception&) {
      // Ramp root-finding failed for this tap's model: degrade the tap
      // to untimed (same isolation as a corpus-phase fault). Both sweeps
      // count and name such a net; see stage_fault_diagnostic.
      nt.faulted = true;
    }
  }
  return winning;
}

/// The error naming a net whose corpus models were healthy but whose
/// stage solve failed (forward_time_net marked it faulted). Full analysis
/// and the incremental update both count such a net in
/// TimingSummary::faulted_nets and report it with this one diagnostic.
util::Diagnostic stage_fault_diagnostic(const Net& net) {
  util::Diagnostic d;
  d.code = ErrorCode::kInvalidArgument;
  d.net = net.name;
  d.message = "stage delay solve failed; the net's taps are untimed";
  return d;
}

/// Re-derives net `ni`'s required/constrained fields in place from its
/// fanout (whose driver requireds must already be final — the reverse
/// topological order guarantees it). Shared between the full backward
/// sweep and the incremental fanin-cone scan.
void backward_time_net(const Design& design, int ni, TimingResult& result) {
  const Net& net = design.nets[static_cast<std::size_t>(ni)];
  NetTiming& nt = result.nets[static_cast<std::size_t>(ni)];
  nt.driver.required = kInf;
  nt.driver.constrained = false;
  for (std::size_t t = 0; t < net.taps.size(); ++t) {
    const Net::Tap& tap = net.taps[t];
    PointTiming& tt = nt.taps[t];
    tt.required = kInf;
    tt.constrained = false;
    if (tap.is_port) {
      endpoint_required(design, design.ports[static_cast<std::size_t>(tap.index)],
                        &tt.required, &tt.constrained);
    } else {
      const Instance& inst = design.instances[static_cast<std::size_t>(tap.index)];
      const PointTiming& out_driver =
          result.nets[static_cast<std::size_t>(inst.out_net)].driver;
      if (out_driver.constrained && tt.timed) {
        const Cell& cell = design.library.cell(static_cast<std::size_t>(inst.cell));
        const double load = design.nets[static_cast<std::size_t>(inst.out_net)].total_cap;
        tt.required = out_driver.required - cell.arc_delay(tt.slew, load);
        tt.constrained = true;
      }
    }
    if (tt.constrained && tt.timed) {
      const double cand = tt.required - nt.wire_delay[t];
      if (cand < nt.driver.required) nt.driver.required = cand;
      nt.driver.constrained = true;
    }
  }
}

/// Bitwise comparison of the forward-owned fields (timed/arrival/slew);
/// std::bit_cast so -0.0 vs 0.0 and NaN payloads count as changes, the
/// same equality every determinism test uses.
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

bool same_forward_point(const PointTiming& a, const PointTiming& b) {
  return a.timed == b.timed && same_bits(a.arrival, b.arrival) && same_bits(a.slew, b.slew);
}

bool same_forward_net(const NetTiming& a, const NetTiming& b) {
  if (a.faulted != b.faulted || !same_forward_point(a.driver, b.driver)) return false;
  for (std::size_t t = 0; t < a.taps.size(); ++t) {
    if (!same_forward_point(a.taps[t], b.taps[t])) return false;
    if (!same_bits(a.wire_delay[t], b.wire_delay[t])) return false;
  }
  return true;
}

/// Output port `port`'s endpoint row, read off its tap's timing.
EndpointSlack endpoint_row(int port, const PointTiming& tt) {
  EndpointSlack row;
  row.port = port;
  row.timed = tt.timed;
  row.constrained = tt.constrained;
  if (tt.timed) {
    row.arrival = tt.arrival;
    row.required = tt.required;
    row.slack = tt.required - tt.arrival;
  }
  return row;
}

/// The slack a row adds to WNS and TNS: its own when the row is timed and
/// constrained, else +inf (no part in either).
double counted_slack(const EndpointSlack& row) {
  return row.timed && row.constrained ? row.slack : kInf;
}

/// The tournament's parent of `l` and `r`: the smaller, the left one on a
/// tie. The root is thus the first minimum in port order, bit for bit
/// what a sequential strict-less scan keeps (+0 and -0 included).
double first_min(double l, double r) { return r < l ? r : l; }

/// Writes WNS, and TNS when `resum_tns`, from the index. TNS adds the
/// violating rows' slacks in port order, the order of a full port-order
/// sum, so its bits never depend on the edit history.
void finish_summary(TimingResult& result, bool resum_tns) {
  TimingSummary& summary = result.summary;
  if (resum_tns) {
    summary.tns = 0.0;
    for (const std::uint32_t row : result.endpoint_index.violating) {
      summary.tns += result.endpoints[row].slack;
    }
  }
  summary.wns = summary.constrained_endpoints > 0 ? result.endpoint_index.min_tree[1] : 0.0;
}

/// Builds the endpoint counts, index, TNS and WNS from every row (a full
/// analysis). The fault and corpus-phase counters are left untouched: the
/// caller owns them.
void summarize_endpoints(TimingResult& result) {
  const std::vector<EndpointSlack>& rows = result.endpoints;
  TimingResult::EndpointIndex& index = result.endpoint_index;
  std::size_t leaves = 1;
  while (leaves < rows.size()) leaves *= 2;
  index.min_tree.assign(2 * leaves, kInf);
  index.violating.clear();
  TimingSummary& summary = result.summary;
  summary.endpoints = rows.size();
  summary.constrained_endpoints = 0;
  summary.untimed_endpoints = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const double slack = counted_slack(rows[i]);
    index.min_tree[leaves + i] = slack;
    if (slack < 0.0) index.violating.push_back(static_cast<std::uint32_t>(i));
    if (!rows[i].timed) ++summary.untimed_endpoints;
    if (rows[i].timed && rows[i].constrained) ++summary.constrained_endpoints;
  }
  for (std::size_t k = leaves - 1; k >= 1; --k) {
    index.min_tree[k] = first_min(index.min_tree[2 * k], index.min_tree[2 * k + 1]);
  }
  finish_summary(result, true);
}

/// Rewrites the endpoint rows of net `ni`'s port taps (rows are in port
/// order, so each is found by binary search) and keeps the counts and the
/// index in step: O(log P) per row, plus O(V) when a row enters or leaves
/// the violating set. Returns true when a violating row's slack moved, so
/// TNS must be re-summed.
bool refresh_endpoint_rows(const Design& design, int ni, TimingResult& result) {
  const Net& net = design.nets[static_cast<std::size_t>(ni)];
  const NetTiming& nt = result.nets[static_cast<std::size_t>(ni)];
  TimingSummary& summary = result.summary;
  TimingResult::EndpointIndex& index = result.endpoint_index;
  bool tns_moved = false;
  for (std::size_t t = 0; t < net.taps.size(); ++t) {
    if (!net.taps[t].is_port) continue;
    const int port = net.taps[t].index;
    const auto row = std::lower_bound(
        result.endpoints.begin(), result.endpoints.end(), port,
        [](const EndpointSlack& r, int p) { return r.port < p; });
    const EndpointSlack old = *row;
    *row = endpoint_row(port, nt.taps[t]);
    summary.untimed_endpoints -= old.timed ? 0 : 1;
    summary.untimed_endpoints += row->timed ? 0 : 1;
    summary.constrained_endpoints -= old.timed && old.constrained ? 1 : 0;
    summary.constrained_endpoints += row->timed && row->constrained ? 1 : 0;
    const double was = counted_slack(old);
    const double now = counted_slack(*row);
    if (same_bits(was, now)) continue;
    const auto i = static_cast<std::uint32_t>(row - result.endpoints.begin());
    std::size_t k = index.min_tree.size() / 2 + i;
    index.min_tree[k] = now;
    for (k /= 2; k >= 1; k /= 2) {
      index.min_tree[k] = first_min(index.min_tree[2 * k], index.min_tree[2 * k + 1]);
    }
    if (was < 0.0 || now < 0.0) tns_moved = true;
    if ((was < 0.0) != (now < 0.0)) {
      const auto at = std::lower_bound(index.violating.begin(), index.violating.end(), i);
      if (now < 0.0) {
        index.violating.insert(at, i);
      } else {
        index.violating.erase(at);
      }
    }
  }
  return tns_moved;
}

/// The slack order: timed and constrained rows first by ascending slack,
/// then timed unconstrained rows, then untimed rows; ties keep port order.
bool slack_order(const EndpointSlack& a, const EndpointSlack& b) {
  const int ra = a.timed && a.constrained ? 0 : a.timed ? 1 : 2;
  const int rb = b.timed && b.constrained ? 0 : b.timed ? 1 : 2;
  if (ra != rb) return ra < rb;
  if (a.slack != b.slack) return a.slack < b.slack;
  return a.port < b.port;
}

/// Dirty nets of one incremental sweep, keyed by topological position.
/// `Compare` = std::greater<> pops ascending positions (the forward
/// sweep), std::less<> descending ones (the backward sweep). A sweep only
/// pushes positions past the one it is visiting, so a net pushed twice
/// pops twice in a row and pop() drops the repeat. push() appends to a
/// vector, so it can allocate (amortized); hot-loop callers say so.
template <class Compare>
class DirtyHeap {
 public:
  void push(int pos) {
    heap_.push_back(pos);
    std::push_heap(heap_.begin(), heap_.end(), Compare{});
  }

  /// The next distinct position, or -1 once the heap is empty.
  int pop() {
    while (!heap_.empty()) {
      std::pop_heap(heap_.begin(), heap_.end(), Compare{});
      const int pos = heap_.back();
      heap_.pop_back();
      if (pos != last_) {
        last_ = pos;
        return pos;
      }
    }
    return -1;
  }

 private:
  std::vector<int> heap_;
  int last_ = -1;
};

/// Mixes `v` into the running shape digest `h`.
std::uint64_t mix_shape(std::uint64_t h, std::size_t v) {
  h = (h ^ static_cast<std::uint64_t>(v)) * 0x9E3779B97F4A7C15ULL;
  return h ^ (h >> 29);
}

}  // namespace

Result<TimingGraph> TimingGraph::build_checked(const Design& design) {
  if (design.nets.empty()) {
    return Status(ErrorCode::kEmptyTree, "TimingGraph: design has no nets");
  }
  const Status unfinalized(ErrorCode::kCycle,
                           "TimingGraph: design is not finalized (topological order incomplete)");
  if (design.topo_nets.size() != design.nets.size()) return unfinalized;
  TimingGraph graph(&design);
  graph.topo_pos_.assign(design.nets.size(), -1);
  for (std::size_t k = 0; k < design.topo_nets.size(); ++k) {
    const int ni = design.topo_nets[k];
    if (ni < 0 || static_cast<std::size_t>(ni) >= design.nets.size() ||
        graph.topo_pos_[static_cast<std::size_t>(ni)] >= 0) {
      return unfinalized;
    }
    graph.topo_pos_[static_cast<std::size_t>(ni)] = static_cast<int>(k);
  }
  std::uint64_t shape = mix_shape(0, design.nets.size());
  for (const Net& net : design.nets) {
    shape = mix_shape(shape, net.taps.size());
    for (const Net::Tap& tap : net.taps) {
      if (tap.node < 0 || static_cast<std::size_t>(tap.node) >= net.flat.size()) {
        return Status(ErrorCode::kInvalidArgument,
                      "TimingGraph: tap node " + std::to_string(tap.node) +
                          " is not a section of the net")
            .with_net(net.name);
      }
    }
  }
  shape = mix_shape(shape, design.instances.size());
  graph.shape_ = mix_shape(shape, design.ports.size());
  return graph;
}

Result<TimingResult> TimingGraph::analyze_checked(const AnalyzeOptions& options) const {
  const Design& design = *design_;
  Result<CorpusModels> corpus_r = analyze_corpus_checked(design, options);
  if (!corpus_r.is_ok()) return corpus_r.status();
  const CorpusModels corpus = std::move(corpus_r).value();

  TimingResult result;
  result.nets.resize(design.nets.size());
  result.winning_input.assign(design.instances.size(), -1);
  result.shape = shape_;

  // --- forward sweep: arrivals and slews, in net topological order --------
  for (const int ni : design.topo_nets) {
    const Net& net = design.nets[static_cast<std::size_t>(ni)];
    const int winning = forward_time_net(design, ni, corpus.nets[static_cast<std::size_t>(ni)],
                                         result, result.nets[static_cast<std::size_t>(ni)]);
    if (net.driver_kind == DriverKind::kInstance) {
      result.winning_input[static_cast<std::size_t>(net.driver_index)] = winning;
    }
  }

  // --- backward sweep: required times, reverse topological order ----------
  for (auto it = design.topo_nets.rbegin(); it != design.topo_nets.rend(); ++it) {
    backward_time_net(design, *it, result);
  }

  // --- endpoint summary ----------------------------------------------------
  result.summary.faulted_nets = corpus.faulted_nets;
  result.summary.incomplete_nets = corpus.incomplete_nets;
  result.summary.cache_hits = corpus.cache_hits;
  result.summary.cache_misses = corpus.cache_misses;
  result.stop_status = corpus.stop_status;
  result.diagnostics = corpus.diagnostics;
  for (std::size_t ni = 0; ni < design.nets.size(); ++ni) {
    const NetModels& models = corpus.nets[ni];
    if (result.nets[ni].faulted && models.analyzed && !models.faulted) {
      ++result.summary.faulted_nets;
      result.diagnostics.add(stage_fault_diagnostic(design.nets[ni]));
    }
  }
  for (std::size_t pi = 0; pi < design.ports.size(); ++pi) {
    const DesignPort& port = design.ports[pi];
    if (port.is_input) continue;
    result.endpoints.push_back(endpoint_row(
        static_cast<int>(pi),
        result.nets[static_cast<std::size_t>(port.net)].taps[static_cast<std::size_t>(port.tap)]));
  }
  summarize_endpoints(result);
  return result;
}

Result<UpdateStats> TimingGraph::update_checked(TimingResult& result, CorpusCache& cache,
                                                const UpdateSeeds& seeds,
                                                const AnalyzeOptions& options) const {
  const Design& design = *design_;
  const std::size_t n_nets = design.nets.size();
  if (result.nets.size() != n_nets ||
      result.winning_input.size() != design.instances.size()) {
    return Status(ErrorCode::kInvalidArgument, "update: result does not belong to this design");
  }
  if (!result.stop_status.is_ok()) {
    return Status(ErrorCode::kInvalidArgument,
                  "update: cannot update a stop-interrupted result (re-analyze)");
  }
  if (result.shape != shape_) {
    return Status(ErrorCode::kInvalidArgument, "update: result shape is stale (re-analyze)");
  }
  const auto in_range = [n_nets](int ni) {
    return ni >= 0 && static_cast<std::size_t>(ni) < n_nets;
  };
  for (const int ni : seeds.forward_nets) {
    if (!in_range(ni)) {
      return Status(ErrorCode::kInvalidArgument, "update: forward seed net out of range");
    }
  }
  for (const int ni : seeds.backward_nets) {
    if (!in_range(ni)) {
      return Status(ErrorCode::kInvalidArgument, "update: backward seed net out of range");
    }
  }

  const std::uint64_t fingerprint = options_fingerprint(options);
  const util::RunControl rc{options.deadline, options.cancel};
  UpdateStats stats;
  const auto pos = [this](int ni) { return topo_pos_[static_cast<std::size_t>(ni)]; };

  // --- seed the dirty heaps ------------------------------------------------
  DirtyHeap<std::greater<>> fwd;
  DirtyHeap<std::less<>> bwd;
  for (const int ni : seeds.forward_nets) {
    fwd.push(pos(ni));
    // A wire edit moves this net's total load, which every arc *into* its
    // driving instance reads — in the forward max loop (covered: this net
    // is forward-dirty) and in the backward required of each input pin.
    // The latter can change even when this net's own driver required is
    // bitwise-unmoved, so the fanin nets are seeded backward explicitly.
    const Net& net = design.nets[static_cast<std::size_t>(ni)];
    if (net.driver_kind == DriverKind::kInstance) {
      const Instance& inst = design.instances[static_cast<std::size_t>(net.driver_index)];
      for (const Instance::Pin& pin : inst.inputs) bwd.push(pos(pin.net));
    }
  }
  for (const int ni : seeds.backward_nets) bwd.push(pos(ni));
  if (seeds.clock_changed) {
    // The clock is the fallback constraint of every endpoint without its
    // own required=, so each net carrying such an endpoint re-derives.
    for (const DesignPort& port : design.ports) {
      if (!port.is_input && !port.has_required) bwd.push(pos(port.net));
    }
  }

  // Re-timed nets whose faulted flag flipped, for the bookkeeping below.
  std::vector<int> fault_moved;

  // --- forward cone sweep: dirty nets only, frontier cutoff on equality ---
  // Dirty nets pop in ascending topological position, the full sweep's
  // order. A dirty net is recomputed into a reused scratch with exactly
  // the full sweep's code, committed only when some forward bit moved,
  // and its changed taps push their consumer instances' output nets,
  // which sit later in the order. RunControl is polled before the first
  // pop and every kPollStride pops after it, the corpus-ladder contract.
  // The region is not allocation-free: the heaps, `fault_moved` and the
  // scratch's tap arrays grow amortized with the cone, whose size is not
  // known up front. Each line that can grow one carries an R3 allow.
  NetTiming scratch;
  constexpr std::size_t kPollStride = 64;
  // relmore-lint: begin-hot-loop(retime-forward-frontier)
  for (std::size_t pops = 0;; ++pops) {
    if (pops % kPollStride == 0 && rc.armed() && rc.stop_code() != ErrorCode::kOk) {
      stats.stop_status = rc.stop_status();
      return stats;
    }
    const int k = fwd.pop();
    if (k < 0) break;
    const int ni = design.topo_nets[static_cast<std::size_t>(k)];
    const Net& net = design.nets[static_cast<std::size_t>(ni)];
    const NetModels* models = cache.find(static_cast<std::size_t>(ni), net.epoch, fingerprint);
    if (models == nullptr) {
      return Status(ErrorCode::kInvalidArgument, "update: corpus cache does not cover net")
          .with_net(net.name);
    }
    const int winning =
        forward_time_net(design, ni, *models, result, scratch);  // relmore-lint: allow(R3) scratch taps grow to the widest net seen
    NetTiming& nt = result.nets[static_cast<std::size_t>(ni)];
    if (net.driver_kind == DriverKind::kInstance) {
      // Committed even on a cutoff: a tie can move the winning pin while
      // the output timing stays bitwise-identical, and a from-scratch
      // analyze would report the new winner.
      result.winning_input[static_cast<std::size_t>(net.driver_index)] = winning;
    }
    if (same_forward_net(nt, scratch)) {
      ++stats.frontier_cutoffs;
      continue;
    }
    if (nt.faulted != scratch.faulted) fault_moved.push_back(ni);  // relmore-lint: allow(R3) one entry per net whose fault flag flipped
    nt.faulted = scratch.faulted;
    nt.driver.timed = scratch.driver.timed;
    nt.driver.arrival = scratch.driver.arrival;
    nt.driver.slew = scratch.driver.slew;
    for (std::size_t t = 0; t < nt.taps.size(); ++t) {
      PointTiming& dst = nt.taps[t];
      const PointTiming& src = scratch.taps[t];
      const bool tap_changed = !same_forward_point(dst, src);
      dst.timed = src.timed;
      dst.arrival = src.arrival;
      dst.slew = src.slew;
      nt.wire_delay[t] = scratch.wire_delay[t];
      if (tap_changed && !net.taps[t].is_port) {
        const Instance& inst = design.instances[static_cast<std::size_t>(net.taps[t].index)];
        fwd.push(pos(inst.out_net));  // relmore-lint: allow(R3) dirty heap grows with the cone
      }
    }
    bwd.push(k);  // relmore-lint: allow(R3) dirty heap grows with the cone
    ++stats.forward_retimed;
  }
  // relmore-lint: end-hot-loop

  // --- fault bookkeeping: keep the count and the naming errors in step ----
  // A cached net is healthy, so a re-timed net turns faulted only through
  // its stage solve; one that heals retracts whatever error named it. Net
  // order, as a full analysis names them.
  std::sort(fault_moved.begin(), fault_moved.end());
  for (const int ni : fault_moved) {
    const Net& net = design.nets[static_cast<std::size_t>(ni)];
    if (result.nets[static_cast<std::size_t>(ni)].faulted) {
      ++result.summary.faulted_nets;
      result.diagnostics.add(stage_fault_diagnostic(net));
    } else {
      --result.summary.faulted_nets;
      result.diagnostics.remove_net_errors(net.name);
    }
  }

  // --- backward cone sweep: descending positions, fanin pushed on change --
  // Every net whose forward half moved is in this sweep too, so refreshing
  // the endpoint rows of each net it visits keeps every row current.
  bool tns_moved = false;
  // relmore-lint: begin-hot-loop(retime-backward-frontier)
  for (std::size_t pops = 0;; ++pops) {
    if (pops % kPollStride == 0 && rc.armed() && rc.stop_code() != ErrorCode::kOk) {
      stats.stop_status = rc.stop_status();
      return stats;
    }
    const int k = bwd.pop();
    if (k < 0) break;
    const int ni = design.topo_nets[static_cast<std::size_t>(k)];
    NetTiming& nt = result.nets[static_cast<std::size_t>(ni)];
    const double old_required = nt.driver.required;
    const bool old_constrained = nt.driver.constrained;
    backward_time_net(design, ni, result);
    tns_moved |= refresh_endpoint_rows(design, ni, result);  // relmore-lint: allow(R3) a row entering the violating list can grow it
    ++stats.backward_retimed;
    const bool driver_moved =
        !same_bits(old_required, nt.driver.required) || old_constrained != nt.driver.constrained;
    const Net& net = design.nets[static_cast<std::size_t>(ni)];
    if (driver_moved && net.driver_kind == DriverKind::kInstance) {
      const Instance& inst = design.instances[static_cast<std::size_t>(net.driver_index)];
      for (const Instance::Pin& pin : inst.inputs) {
        bwd.push(pos(pin.net));  // relmore-lint: allow(R3) dirty heap grows with the cone
      }
    } else if (!driver_moved) {
      ++stats.frontier_cutoffs;
    }
  }
  // relmore-lint: end-hot-loop

  finish_summary(result, tns_moved);
  return stats;
}

Result<double> endpoint_slack_checked(const Design& design, const TimingResult& result,
                                      const std::string& port) {
  const int pi = design.find_port(port);
  if (pi < 0) {
    return Status(ErrorCode::kInvalidArgument, "unknown port '" + port + "'");
  }
  return endpoint_slack_checked(design, result, pi);
}

Result<double> endpoint_slack_checked(const Design& design, const TimingResult& result,
                                      int port_index) {
  const DesignPort& p = design.ports.at(static_cast<std::size_t>(port_index));
  if (p.is_input) {
    return Status(ErrorCode::kInvalidArgument, "port '" + p.name + "' is not an endpoint");
  }
  const PointTiming& tt =
      result.nets[static_cast<std::size_t>(p.net)].taps[static_cast<std::size_t>(p.tap)];
  if (!tt.timed) {
    return Status(ErrorCode::kNonFiniteMoment,
                  "endpoint '" + p.name + "' is untimed (faulted fanout cone)")
        .with_net(design.nets[static_cast<std::size_t>(p.net)].name);
  }
  return tt.required - tt.arrival;
}

std::vector<EndpointSlack> endpoints_by_slack(const TimingResult& result) {
  std::vector<EndpointSlack> rows = result.endpoints;
  std::sort(rows.begin(), rows.end(), slack_order);
  return rows;
}

Result<std::vector<PathReport>> worst_paths_checked(const Design& design,
                                                    const TimingResult& result, std::size_t k) {
  if (result.nets.size() != design.nets.size()) {
    return Status(ErrorCode::kInvalidArgument,
                  "worst_paths: result does not belong to this design");
  }
  // Only the k rows reported are ordered: a partial sort of the timed
  // rows, whose order matches the full sort's (slack_order is total).
  std::vector<const EndpointSlack*> timed;
  for (const EndpointSlack& row : result.endpoints) {
    if (row.timed) timed.push_back(&row);
  }
  const std::size_t n = std::min(k, timed.size());
  std::partial_sort(timed.begin(), timed.begin() + static_cast<std::ptrdiff_t>(n), timed.end(),
                    [](const EndpointSlack* a, const EndpointSlack* b) {
                      return slack_order(*a, *b);
                    });
  std::vector<PathReport> out;
  out.reserve(n);
  for (std::size_t r = 0; r < n; ++r) {
    const EndpointSlack& row = *timed[r];
    const DesignPort& port = design.ports[static_cast<std::size_t>(row.port)];
    PathReport path;
    path.endpoint = port.name;
    path.arrival = row.arrival;
    path.required = row.required;
    path.slack = row.slack;
    path.constrained = row.constrained;

    // Backtrack endpoint -> launch, then reverse.
    std::vector<PathPoint> rev;
    int ni = port.net;
    int tap = port.tap;
    bool done = false;
    while (!done) {
      const Net& net = design.nets[static_cast<std::size_t>(ni)];
      const NetTiming& nt = result.nets[static_cast<std::size_t>(ni)];
      const Net::Tap& t = net.taps[static_cast<std::size_t>(tap)];
      const PointTiming& tt = nt.taps[static_cast<std::size_t>(tap)];
      PathPoint wire;
      wire.point =
          "net " + net.name + " @ " + net.flat.names().at(static_cast<std::size_t>(t.node));
      wire.incr = nt.wire_delay[static_cast<std::size_t>(tap)];
      wire.arrival = tt.arrival;
      wire.slew = tt.slew;
      rev.push_back(std::move(wire));

      if (net.driver_kind == DriverKind::kPort) {
        const DesignPort& in = design.ports[static_cast<std::size_t>(net.driver_index)];
        PathPoint launch;
        launch.point = "port " + in.name;
        launch.incr = 0.0;
        launch.arrival = nt.driver.arrival;
        launch.slew = nt.driver.slew;
        rev.push_back(std::move(launch));
        done = true;
      } else {
        const Instance& inst = design.instances[static_cast<std::size_t>(net.driver_index)];
        const Cell& cell = design.library.cell(static_cast<std::size_t>(inst.cell));
        const int wi = result.winning_input[static_cast<std::size_t>(net.driver_index)];
        if (wi < 0) {
          return Status(ErrorCode::kInvalidArgument,
                        "worst_paths: untimed instance on path (inconsistent result)")
              .with_net(net.name);
        }
        const Instance::Pin& pin = inst.inputs[static_cast<std::size_t>(wi)];
        const PointTiming& pin_t =
            result.nets[static_cast<std::size_t>(pin.net)].taps[static_cast<std::size_t>(pin.tap)];
        PathPoint gate;
        gate.point = inst.name + " (" + cell.name + ")";
        gate.incr = nt.driver.arrival - pin_t.arrival;
        gate.arrival = nt.driver.arrival;
        gate.slew = nt.driver.slew;
        rev.push_back(std::move(gate));
        ni = pin.net;
        tap = pin.tap;
      }
    }
    std::reverse(rev.begin(), rev.end());
    path.points = std::move(rev);
    out.push_back(std::move(path));
  }
  return out;
}

namespace {

// Appends `seconds` as picoseconds with 3 decimals ("%.3f" is byte-equal
// to the former fixed/precision(3) ostream rendering) straight into the
// caller's buffer — the formatters build one reserved string instead of
// an ostringstream + per-value temporaries per row.
void append_ps(std::string& out, double seconds) {
  if (std::isinf(seconds)) {
    out += seconds > 0 ? "inf" : "-inf";
    return;
  }
  char buf[48];
  const int n = std::snprintf(buf, sizeof(buf), "%.3f", seconds * 1e12);
  if (n > 0) out.append(buf, static_cast<std::size_t>(n));
}

void append_padded(std::string& out, const char* s, std::size_t len, std::size_t w) {
  out.append(s, len);
  if (len < w) out.append(w - len, ' ');
}

void append_padded(std::string& out, const std::string& s, std::size_t w) {
  append_padded(out, s.data(), s.size(), w);
}

// Pads a ps-formatted value by rendering into a scratch slice of `out`
// itself: remember where the value starts, append, then pad to width.
void append_ps_padded(std::string& out, double seconds, std::size_t w) {
  const std::size_t start = out.size();
  append_ps(out, seconds);
  const std::size_t len = out.size() - start;
  if (len < w) out.append(w - len, ' ');
}

}  // namespace

std::string format_path(const PathReport& path) {
  std::size_t width = 24;
  for (const PathPoint& p : path.points) width = std::max(width, p.point.size() + 2);
  std::string out;
  out.reserve(96 + (path.points.size() + 4) * (width + 44));
  out += "Path to endpoint '";
  out += path.endpoint;
  out += '\'';
  if (!path.constrained) out += " (unconstrained)";
  out += '\n';
  append_padded(out, "point", 5, width);
  append_padded(out, "incr [ps]", 9, 14);
  append_padded(out, "arrival [ps]", 12, 14);
  out += "slew [ps]\n";
  for (const PathPoint& p : path.points) {
    append_padded(out, p.point, width);
    append_ps_padded(out, p.incr, 14);
    append_ps_padded(out, p.arrival, 14);
    append_ps(out, p.slew);
    out += '\n';
  }
  append_padded(out, "required", 8, width);
  append_ps(out, path.required);
  out += " ps\n";
  append_padded(out, "arrival", 7, width);
  append_ps(out, path.arrival);
  out += " ps\n";
  append_padded(out, "slack", 5, width);
  append_ps(out, path.slack);
  out += " ps";
  if (path.slack < 0.0) out += "  (VIOLATED)";
  out += '\n';
  return out;
}

std::string format_summary(const TimingSummary& summary) {
  std::string out;
  out.reserve(224);
  out += "endpoints: ";
  out += std::to_string(summary.endpoints);
  out += " (";
  out += std::to_string(summary.constrained_endpoints);
  out += " constrained, ";
  out += std::to_string(summary.untimed_endpoints);
  out += " untimed)\nWNS: ";
  append_ps(out, summary.wns);
  out += " ps   TNS: ";
  append_ps(out, summary.tns);
  out += " ps\nnets faulted: ";
  out += std::to_string(summary.faulted_nets);
  if (summary.incomplete_nets > 0) {
    out += "   nets incomplete: ";
    out += std::to_string(summary.incomplete_nets);
  }
  out += '\n';
  return out;
}

}  // namespace relmore::sta
