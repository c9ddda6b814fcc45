#pragma once

/// \file model.hpp
/// The Equivalent Elmore Delay model for RLC trees (the paper's core
/// contribution, Section III + Appendix).
///
/// Each node i of an RLC tree is characterized by two path/subtree sums
///
///   SR_i = sum_k C_k R_ki   (the classic Elmore time constant), and
///   SL_i = sum_k C_k L_ki   (its inductive analogue),
///
/// where R_ki (L_ki) is the resistance (inductance) common to the paths
/// from the input to nodes k and i. From these, the second-order
/// approximation at node i (paper eqs. 29–30) is
///
///   omega_n,i = 1/sqrt(SL_i),   zeta_i = SR_i / (2 sqrt(SL_i)).
///
/// Both sums for *all* nodes are computed with two O(n) traversals and
/// exactly two multiplications per section (paper Appendix, Figs. 17–18).

#include <cstdint>
#include <vector>

#include "relmore/circuit/flat_tree.hpp"
#include "relmore/circuit/rlc_tree.hpp"
#include "relmore/util/diagnostics.hpp"

namespace relmore::eed {

/// Per-node / per-sample fault flag bits surfaced by the numerical
/// guardrails (TreeModel::fault_flags, engine::BatchedModels sample
/// flags). A flag marks a node whose *own* moments are degenerate; with a
/// poisoned value mid-tree the whole affected root path and subtree carry
/// flags, because the moment prefix sums propagate the poison.
enum AnalysisFault : std::uint8_t {
  kFaultNone = 0,
  kFaultBadInput = 1,          ///< input R/L/C was NaN, Inf, or negative
  kFaultNonFiniteMoment = 2,   ///< SR/SL/Ctot became NaN or Inf
  kFaultNegativeMoment = 4,    ///< SR/SL/Ctot went negative
  kFaultNotRun = 8,            ///< sample skipped: deadline/cancel stop
};

/// Guardrail configuration for analyze(): what to do when a node's moment
/// sums come out non-finite or negative (a NaN/Inf/negative element value
/// slipped into the tree, or the sums overflowed). See
/// util::FaultPolicy: kThrow raises util::FaultError at the first faulted
/// node; kClampAndFlag clamps the degenerate moments to 0 (the RC/Elmore
/// limit) and records flags; kSkipAndFlag records flags and leaves the
/// poisoned values for the caller to inspect.
struct AnalyzeOptions {
  util::FaultPolicy fault_policy = util::FaultPolicy::kThrow;
};

/// Second-order characterization of one tree node.
struct NodeModel {
  double sum_rc = 0.0;   ///< SR_i = sum C_k R_ki [s] — the Elmore delay T_D,i
  double sum_lc = 0.0;   ///< SL_i = sum C_k L_ki [s^2]
  double zeta = 0.0;     ///< damping factor (eq. 29); +inf for pure-RC nodes
  double omega_n = 0.0;  ///< natural frequency [rad/s] (eq. 30); +inf for SL=0

  /// True when the node's response is underdamped (non-monotone).
  [[nodiscard]] bool underdamped() const { return zeta < 1.0; }
};

/// Per-tree analysis result.
struct TreeModel {
  std::vector<NodeModel> nodes;  ///< indexed by SectionId
  /// Downstream (subtree) capacitance seen by each section — the upward
  /// pass of the Appendix algorithm, exposed because wire sizing and buffer
  /// insertion reuse it.
  std::vector<double> load_capacitance;
  /// AnalysisFault bits per node. Empty (the common case) when the whole
  /// tree analyzed fault-free; sized like `nodes` otherwise.
  std::vector<std::uint8_t> fault_flags;
  std::size_t fault_count = 0;  ///< nodes with any fault bit set

  [[nodiscard]] const NodeModel& at(circuit::SectionId i) const {
    return nodes.at(static_cast<std::size_t>(i));
  }
  [[nodiscard]] bool fault_free() const { return fault_count == 0; }
  [[nodiscard]] bool faulted(circuit::SectionId i) const {
    return !fault_flags.empty() && fault_flags.at(static_cast<std::size_t>(i)) != kFaultNone;
  }
};

/// Analyzes every node of the tree in O(n) (two traversals). The passes
/// run unguarded (results on a healthy tree are bitwise-unchanged); one
/// trailing guard sweep detects non-finite or negative moments and applies
/// `options.fault_policy` (default: throw util::FaultError with node
/// context — no silent NaN propagation).
TreeModel analyze(const circuit::RlcTree& tree, const AnalyzeOptions& options);
TreeModel analyze(const circuit::RlcTree& tree);

/// Same analysis over a FlatTree snapshot — the same SoA kernel (the
/// RlcTree overload gathers its sections into parent/R/L/C arrays first),
/// so results are bitwise-equal; this form skips the gather. It is the
/// scalar path the batched kernels (engine::BatchedAnalyzer) generalize to
/// many samples.
TreeModel analyze(const circuit::FlatTree& tree, const AnalyzeOptions& options);
TreeModel analyze(const circuit::FlatTree& tree);

/// Re-analyzes one set of element values over a fixed FlatTree topology,
/// writing into a caller-owned `model` (resized as needed, allocation-free
/// once warm). `resistance`/`inductance`/`capacitance` are arrays of
/// length `topology.size()`; the topology's own stored values are
/// ignored. This is the sweep-loop form of analyze(FlatTree): when the
/// same tree is re-analyzed with many value sets (parameter sweeps, the
/// scalar baseline of bench/batched_throughput), it skips the per-call
/// FlatTree rebuild and result allocation while staying bitwise-equal to
/// analyze(FlatTree) on a tree holding those values.
void analyze_values(const circuit::FlatTree& topology, const double* resistance,
                    const double* inductance, const double* capacitance, TreeModel& model,
                    const AnalyzeOptions& options = {});

/// Result-returning forms of analyze() — same arithmetic, same fault
/// policies, but an empty tree or a kThrow-policy fault comes back as a
/// structured Status instead of an exception. These are the entry points
/// the corpus layer (sta::analyze_corpus_checked) and other callers that
/// must not unwind across worker threads use; the throwing overloads above
/// remain the exception-compatible shims.
[[nodiscard]] util::Result<TreeModel> analyze_checked(const circuit::RlcTree& tree,
                                                      const AnalyzeOptions& options = {});
[[nodiscard]] util::Result<TreeModel> analyze_checked(const circuit::FlatTree& tree,
                                                      const AnalyzeOptions& options = {});

/// Cost accounting of one whole-tree analysis.
struct AnalyzeStats {
  std::uint64_t multiplications = 0;  ///< FP multiplies in the two passes
  std::size_t nodes = 0;              ///< sections analyzed
  std::size_t faulted_nodes = 0;      ///< nodes the guard sweep flagged
};

/// Model plus its cost accounting, for the instrumented entry point.
struct CountedAnalysis {
  TreeModel model;
  AnalyzeStats stats;
};

/// Instrumented variant returning the multiplication count alongside the
/// model, to verify the Appendix claim that the count is exactly
/// 2·(sections).
CountedAnalysis analyze_counting(const circuit::RlcTree& tree,
                                 const AnalyzeOptions& options = {});

}  // namespace relmore::eed
