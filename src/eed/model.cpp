#include "relmore/eed/model.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace relmore::eed {

using circuit::RlcTree;
using circuit::SectionId;
using util::ErrorCode;
using util::FaultPolicy;

namespace {

/// Fault classification of one node's computed moments. Uses the single
/// composite predicate `valid_element_value` so NaN (all comparisons
/// false) registers as non-finite.
std::uint8_t classify(const NodeModel& nm, double ctot) {
  std::uint8_t flags = kFaultNone;
  for (const double v : {nm.sum_rc, nm.sum_lc, ctot}) {
    if (util::valid_element_value(v)) continue;
    flags |= std::isnan(v) || std::isinf(v) ? kFaultNonFiniteMoment : kFaultNegativeMoment;
  }
  return flags;
}

/// Applies the fault policy given the detection verdict the analysis loops
/// accumulated in-flight: `lowest` is the running min over every SR/SL/Ctot
/// (catches negatives), `poison` is Σ SR·0 + SL·0 (0.0 on an all-finite
/// model, NaN otherwise — a min alone would let NaN slide through, since
/// every comparison against NaN is false; and a non-finite Ctot always
/// poisons that node's SR, so the two moment terms suffice). Accumulating
/// inside the existing downward pass costs nothing measurable — the
/// detection ops are independent of the per-node sqrt/divide latency chain
/// — and never touches the model arithmetic, keeping healthy results
/// bitwise-unchanged.
void apply_guards(TreeModel& model, FaultPolicy policy, const char* entry, double lowest,
                  double poison) {
  if (lowest >= 0.0 && !std::isnan(poison)) return;
  const std::size_t n = model.nodes.size();

  // Slow path: something is degenerate — classify per node.
  model.fault_flags.assign(n, kFaultNone);
  for (std::size_t i = 0; i < n; ++i) {
    NodeModel& nm = model.nodes[i];
    const std::uint8_t flags = classify(nm, model.load_capacitance[i]);
    if (flags == kFaultNone) continue;
    if (policy == FaultPolicy::kThrow) {
      throw util::FaultError(util::Status(
          (flags & kFaultNonFiniteMoment) != 0 ? ErrorCode::kNonFiniteMoment
                                               : ErrorCode::kNegativeMoment,
          std::string(entry) + ": degenerate moments at node " + std::to_string(i) +
              " (SR=" + std::to_string(nm.sum_rc) + ", SL=" + std::to_string(nm.sum_lc) +
              ", Ctot=" + std::to_string(model.load_capacitance[i]) + ")",
          static_cast<int>(i)));
    }
    model.fault_flags[i] = flags;
    ++model.fault_count;
    if (policy == FaultPolicy::kClampAndFlag) {
      // Nearest valid limit: a degenerate moment collapses to the
      // RC/Elmore degenerate case (SL = 0 -> zeta, omega_n -> inf).
      if (!util::valid_element_value(nm.sum_rc)) nm.sum_rc = 0.0;
      if (!util::valid_element_value(nm.sum_lc)) nm.sum_lc = 0.0;
      if (!util::valid_element_value(model.load_capacitance[i])) {
        model.load_capacitance[i] = 0.0;
      }
      if (nm.sum_lc > 0.0) {
        const double root = std::sqrt(nm.sum_lc);
        nm.omega_n = 1.0 / root;
        nm.zeta = nm.sum_rc / (2.0 * root);
      } else {
        nm.omega_n = std::numeric_limits<double>::infinity();
        nm.zeta = std::numeric_limits<double>::infinity();
      }
    }
    // kSkipAndFlag: leave the poisoned values; the flag is the signal.
  }
}

/// The two moment passes (paper Appendix, Figs. 17–18) over SoA value
/// arrays, writing into a reused `model`. The one scalar kernel: every
/// analyze entry (RlcTree, FlatTree, analyze_values, analyze_counting)
/// runs it, so they are bitwise-equal by construction. `mul_count`, when
/// given, receives the multiplications the passes performed.
void analyze_arrays(std::size_t n, const SectionId* parent, const double* r, const double* l,
                    const double* c, TreeModel& model, FaultPolicy policy, const char* entry,
                    std::uint64_t* mul_count = nullptr) {
  model.nodes.resize(n);
  model.load_capacitance.assign(c, c + n);
  model.fault_flags.clear();
  model.fault_count = 0;
  std::uint64_t muls = 0;

  // Upward pass (Fig. 17): total load capacitance per section. Children
  // have larger ids than parents, so one reverse scan suffices.
  for (std::size_t i = n; i-- > 0;) {
    if (parent[i] != circuit::kInput) {
      model.load_capacitance[static_cast<std::size_t>(parent[i])] += model.load_capacitance[i];
    }
  }

  // Downward pass (Fig. 18): SR_i = SR_parent + R_i * Ctot_i and
  // SL_i = SL_parent + L_i * Ctot_i. `lowest`/`poison` piggy-back the guard
  // detection (see apply_guards); they read the fresh values and write
  // nothing back.
  double lowest = 0.0;
  double poison = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const SectionId p = parent[i];
    const double sr_up = p == circuit::kInput ? 0.0 : model.nodes[static_cast<std::size_t>(p)].sum_rc;
    const double sl_up = p == circuit::kInput ? 0.0 : model.nodes[static_cast<std::size_t>(p)].sum_lc;
    NodeModel& nm = model.nodes[i];
    nm.sum_rc = sr_up + r[i] * model.load_capacitance[i];
    nm.sum_lc = sl_up + l[i] * model.load_capacitance[i];
    muls += 2;
    lowest = std::min(lowest, std::min(nm.sum_rc, std::min(nm.sum_lc, model.load_capacitance[i])));
    poison += nm.sum_rc * 0.0 + nm.sum_lc * 0.0;
    if (nm.sum_lc > 0.0) {
      const double root = std::sqrt(nm.sum_lc);
      nm.omega_n = 1.0 / root;
      nm.zeta = nm.sum_rc / (2.0 * root);
    } else {
      // Pure-RC node: the second-order model degenerates to the Elmore
      // (Wyatt) single-pole model, i.e. the zeta -> inf limit.
      nm.omega_n = std::numeric_limits<double>::infinity();
      nm.zeta = std::numeric_limits<double>::infinity();
    }
  }
  if (mul_count != nullptr) *mul_count = muls;
  apply_guards(model, policy, entry, lowest, poison);
}

/// analyze_arrays over an RlcTree's sections, gathered into SoA arrays.
TreeModel analyze_tree(const RlcTree& tree, FaultPolicy policy, const char* entry,
                       std::uint64_t* mul_count = nullptr) {
  if (tree.empty()) throw std::invalid_argument("eed::analyze: empty tree");
  const std::size_t n = tree.size();
  std::vector<SectionId> parent(n);
  std::vector<double> r(n);
  std::vector<double> l(n);
  std::vector<double> c(n);
  for (std::size_t i = 0; i < n; ++i) {
    const circuit::Section& s = tree.sections()[i];
    parent[i] = s.parent;
    r[i] = s.v.resistance;
    l[i] = s.v.inductance;
    c[i] = s.v.capacitance;
  }
  TreeModel model;
  analyze_arrays(n, parent.data(), r.data(), l.data(), c.data(), model, policy, entry, mul_count);
  return model;
}

}  // namespace

TreeModel analyze(const RlcTree& tree, const AnalyzeOptions& options) {
  return analyze_tree(tree, options.fault_policy, "eed::analyze");
}

TreeModel analyze(const RlcTree& tree) { return analyze(tree, AnalyzeOptions{}); }

TreeModel analyze(const circuit::FlatTree& tree, const AnalyzeOptions& options) {
  if (tree.empty()) throw std::invalid_argument("eed::analyze: empty tree");
  TreeModel model;
  analyze_arrays(tree.size(), tree.parent().data(), tree.resistance().data(),
                 tree.inductance().data(), tree.capacitance().data(), model,
                 options.fault_policy, "eed::analyze(FlatTree)");
  return model;
}

TreeModel analyze(const circuit::FlatTree& tree) { return analyze(tree, AnalyzeOptions{}); }

void analyze_values(const circuit::FlatTree& topology, const double* resistance,
                    const double* inductance, const double* capacitance, TreeModel& model,
                    const AnalyzeOptions& options) {
  if (topology.empty()) throw std::invalid_argument("eed::analyze_values: empty tree");
  analyze_arrays(topology.size(), topology.parent().data(), resistance, inductance, capacitance,
                 model, options.fault_policy, "eed::analyze_values");
}

namespace {

/// Shared catch logic for the _checked entries: FaultError already carries
/// a structured Status; the legacy empty-tree invalid_argument maps to
/// kInvalidArgument (the tree never reached the moment passes).
template <typename Tree>
util::Result<TreeModel> analyze_checked_impl(const Tree& tree, const AnalyzeOptions& options) {
  if (tree.empty()) {
    return util::Status(ErrorCode::kEmptyTree, "eed::analyze_checked: empty tree");
  }
  try {
    return analyze(tree, options);
  } catch (const util::FaultError& e) {
    return e.status();
  } catch (const std::invalid_argument& e) {
    return util::Status(ErrorCode::kInvalidArgument, e.what());
  }
}

}  // namespace

util::Result<TreeModel> analyze_checked(const RlcTree& tree, const AnalyzeOptions& options) {
  return analyze_checked_impl(tree, options);
}

util::Result<TreeModel> analyze_checked(const circuit::FlatTree& tree,
                                        const AnalyzeOptions& options) {
  return analyze_checked_impl(tree, options);
}

CountedAnalysis analyze_counting(const RlcTree& tree, const AnalyzeOptions& options) {
  CountedAnalysis out;
  out.model = analyze_tree(tree, options.fault_policy, "eed::analyze_counting",
                           &out.stats.multiplications);
  out.stats.nodes = tree.size();
  out.stats.faulted_nodes = out.model.fault_count;
  return out;
}

}  // namespace relmore::eed
