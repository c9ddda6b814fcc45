#include "relmore/sta/timing_graph.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
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

/// Rebuilds the endpoint summary (rows, WNS/TNS, endpoint counts) from
/// the per-point timings. The fault and corpus-phase counters
/// (faulted/incomplete/cache) are left untouched — the caller owns them.
void rebuild_endpoint_summary(const Design& design, TimingResult& result) {
  TimingSummary& summary = result.summary;
  summary.endpoints = 0;
  summary.constrained_endpoints = 0;
  summary.untimed_endpoints = 0;
  summary.tns = 0.0;
  summary.endpoints_by_slack.clear();
  for (std::size_t pi = 0; pi < design.ports.size(); ++pi) {
    const DesignPort& port = design.ports[pi];
    if (port.is_input) continue;
    ++summary.endpoints;
    EndpointSlack row;
    row.port = static_cast<int>(pi);
    row.name = port.name;
    const PointTiming& tt =
        result.nets[static_cast<std::size_t>(port.net)].taps[static_cast<std::size_t>(port.tap)];
    row.timed = tt.timed;
    row.constrained = tt.constrained;
    if (!tt.timed) {
      ++summary.untimed_endpoints;
    } else {
      row.arrival = tt.arrival;
      row.required = tt.required;
      row.slack = tt.required - tt.arrival;
      if (tt.constrained) {
        ++summary.constrained_endpoints;
        if (row.slack < 0.0) summary.tns += row.slack;
      }
    }
    summary.endpoints_by_slack.push_back(std::move(row));
  }
  std::sort(summary.endpoints_by_slack.begin(), summary.endpoints_by_slack.end(),
            [](const EndpointSlack& a, const EndpointSlack& b) {
              // timed+constrained rows first, ascending slack; stable
              // tie-break on port index keeps the order deterministic.
              const int ra = a.timed && a.constrained ? 0 : a.timed ? 1 : 2;
              const int rb = b.timed && b.constrained ? 0 : b.timed ? 1 : 2;
              if (ra != rb) return ra < rb;
              if (a.slack != b.slack) return a.slack < b.slack;
              return a.port < b.port;
            });
  summary.wns = 0.0;
  bool first = true;
  for (const EndpointSlack& row : summary.endpoints_by_slack) {
    if (!row.timed || !row.constrained) continue;
    if (first || row.slack < summary.wns) summary.wns = row.slack;
    first = false;
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

}  // namespace

Result<TimingGraph> TimingGraph::build_checked(const Design& design) {
  if (design.nets.empty()) {
    return Status(ErrorCode::kEmptyTree, "TimingGraph: design has no nets");
  }
  if (design.topo_nets.size() != design.nets.size()) {
    return Status(ErrorCode::kCycle,
                  "TimingGraph: design is not finalized (topological order incomplete)");
  }
  for (const Net& net : design.nets) {
    for (const Net::Tap& tap : net.taps) {
      if (tap.node < 0 || static_cast<std::size_t>(tap.node) >= net.flat.size()) {
        return Status(ErrorCode::kInvalidArgument,
                      "TimingGraph: tap node " + std::to_string(tap.node) +
                          " is not a section of the net")
            .with_net(net.name);
      }
    }
  }
  return TimingGraph(&design);
}

Result<TimingResult> TimingGraph::analyze_checked(const AnalyzeOptions& options) const {
  const Design& design = *design_;
  Result<CorpusModels> corpus_r = analyze_corpus_checked(design, options);
  if (!corpus_r.is_ok()) return corpus_r.status();
  const CorpusModels corpus = std::move(corpus_r).value();

  TimingResult result;
  result.nets.resize(design.nets.size());
  result.winning_input.assign(design.instances.size(), -1);

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
  rebuild_endpoint_summary(design, result);
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
  for (std::size_t ni = 0; ni < n_nets; ++ni) {
    if (result.nets[ni].taps.size() != design.nets[ni].taps.size()) {
      return Status(ErrorCode::kInvalidArgument, "update: result shape is stale (re-analyze)")
          .with_net(design.nets[ni].name);
    }
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

  // --- seed the dirty sets -------------------------------------------------
  std::vector<char> fwd(n_nets, 0);
  std::vector<char> bwd(n_nets, 0);
  std::vector<char> fault_moved(n_nets, 0);  // re-timed nets whose faulted flag flipped
  std::size_t fault_moves = 0;
  for (const int ni : seeds.forward_nets) {
    fwd[static_cast<std::size_t>(ni)] = 1;
    // A wire edit moves this net's total load, which every arc *into* its
    // driving instance reads — in the forward max loop (covered: this net
    // is forward-dirty) and in the backward required of each input pin.
    // The latter can change even when this net's own driver required is
    // bitwise-unmoved, so the fanin nets are seeded backward explicitly.
    const Net& net = design.nets[static_cast<std::size_t>(ni)];
    if (net.driver_kind == DriverKind::kInstance) {
      const Instance& inst = design.instances[static_cast<std::size_t>(net.driver_index)];
      for (const Instance::Pin& pin : inst.inputs) {
        bwd[static_cast<std::size_t>(pin.net)] = 1;
      }
    }
  }
  for (const int ni : seeds.backward_nets) bwd[static_cast<std::size_t>(ni)] = 1;
  if (seeds.clock_changed) {
    // The clock is the fallback constraint of every endpoint without its
    // own required=, so each net carrying such an endpoint re-derives.
    for (std::size_t ni = 0; ni < n_nets; ++ni) {
      for (const Net::Tap& tap : design.nets[ni].taps) {
        if (tap.is_port && !design.ports[static_cast<std::size_t>(tap.index)].has_required) {
          bwd[ni] = 1;
          break;
        }
      }
    }
  }

  // --- forward cone sweep: dirty nets only, frontier cutoff on equality ---
  // One scan over the levelized order; a dirty net is recomputed into a
  // reused scratch with exactly the full sweep's code, committed only when
  // some forward bit moved, and its changed taps mark their consumer
  // instances' output nets dirty. RunControl is polled at cone-frontier
  // boundaries (every kPollStride positions), the corpus-ladder contract.
  NetTiming scratch;
  constexpr std::size_t kPollStride = 64;
  // relmore-lint: begin-hot-loop(retime-forward-frontier)
  for (std::size_t k = 0; k < design.topo_nets.size(); ++k) {
    if (k % kPollStride == 0 && rc.armed() && rc.stop_code() != ErrorCode::kOk) {
      stats.stop_status = rc.stop_status();
      return stats;
    }
    const int ni = design.topo_nets[k];
    if (fwd[static_cast<std::size_t>(ni)] == 0) continue;
    const Net& net = design.nets[static_cast<std::size_t>(ni)];
    const NetModels* models = cache.find(static_cast<std::size_t>(ni), net.epoch, fingerprint);
    if (models == nullptr) {
      return Status(ErrorCode::kInvalidArgument, "update: corpus cache does not cover net")
          .with_net(net.name);
    }
    const int winning = forward_time_net(design, ni, *models, result, scratch);
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
    if (nt.faulted != scratch.faulted) {
      fault_moved[static_cast<std::size_t>(ni)] = 1;
      ++fault_moves;
    }
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
        fwd[static_cast<std::size_t>(inst.out_net)] = 1;
      }
    }
    bwd[static_cast<std::size_t>(ni)] = 1;
    ++stats.forward_retimed;
  }
  // relmore-lint: end-hot-loop

  // --- fault bookkeeping: keep the count and the naming errors in step ----
  // A cached net is healthy, so a re-timed net turns faulted only through
  // its stage solve; one that heals retracts whatever error named it.
  for (std::size_t ni = 0; fault_moves > 0 && ni < n_nets; ++ni) {
    if (fault_moved[ni] == 0) continue;
    --fault_moves;
    if (result.nets[ni].faulted) {
      ++result.summary.faulted_nets;
      result.diagnostics.add(stage_fault_diagnostic(design.nets[ni]));
    } else {
      --result.summary.faulted_nets;
      result.diagnostics.remove_net_errors(design.nets[ni].name);
    }
  }

  // --- backward cone sweep: reverse order, fanin marking on change --------
  // relmore-lint: begin-hot-loop(retime-backward-frontier)
  for (std::size_t k = 0; k < design.topo_nets.size(); ++k) {
    if (k % kPollStride == 0 && rc.armed() && rc.stop_code() != ErrorCode::kOk) {
      stats.stop_status = rc.stop_status();
      return stats;
    }
    const int ni = design.topo_nets[design.topo_nets.size() - 1 - k];
    if (bwd[static_cast<std::size_t>(ni)] == 0) continue;
    NetTiming& nt = result.nets[static_cast<std::size_t>(ni)];
    const double old_required = nt.driver.required;
    const bool old_constrained = nt.driver.constrained;
    backward_time_net(design, ni, result);
    ++stats.backward_retimed;
    const bool driver_moved =
        !same_bits(old_required, nt.driver.required) || old_constrained != nt.driver.constrained;
    const Net& net = design.nets[static_cast<std::size_t>(ni)];
    if (driver_moved && net.driver_kind == DriverKind::kInstance) {
      const Instance& inst = design.instances[static_cast<std::size_t>(net.driver_index)];
      for (const Instance::Pin& pin : inst.inputs) {
        bwd[static_cast<std::size_t>(pin.net)] = 1;
      }
    } else if (!driver_moved) {
      ++stats.frontier_cutoffs;
    }
  }
  // relmore-lint: end-hot-loop

  rebuild_endpoint_summary(design, result);
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

Result<std::vector<PathReport>> worst_paths_checked(const Design& design,
                                                    const TimingResult& result, std::size_t k) {
  if (result.nets.size() != design.nets.size()) {
    return Status(ErrorCode::kInvalidArgument,
                  "worst_paths: result does not belong to this design");
  }
  std::vector<PathReport> out;
  for (const EndpointSlack& row : result.summary.endpoints_by_slack) {
    if (out.size() >= k) break;
    if (!row.timed) continue;
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
