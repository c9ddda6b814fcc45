#pragma once

/// \file path_timing.hpp
/// Static-timing-style path walking on top of the closed forms: stages are
/// chained driver+tree hops, and each stage's *output edge rate* becomes
/// the next stage's *input ramp* — the non-step-input capability the
/// paper's Section IV procedure exists for ("the Laplace transform of the
/// input is multiplied by the second-order transfer function"). Stage
/// delay is measured 50%-of-input to 50%-of-output, the STA convention.

#include <vector>

#include "relmore/circuit/rlc_tree.hpp"
#include "relmore/eed/model.hpp"

namespace relmore::opt {

/// One hop of a path: a tree driven at its input, observed at `sink`.
struct PathStage {
  circuit::RlcTree tree;
  circuit::SectionId sink = circuit::kInput;
  double intrinsic_delay = 0.0;  ///< gate delay added before the wire
};

/// Timing of one stage after slew propagation.
struct StageTiming {
  double zeta = 0.0;
  double input_rise = 0.0;   ///< ramp rise time applied at the stage input
  double delay = 0.0;        ///< 50%(input) -> 50%(output), + intrinsic
  double output_rise = 0.0;  ///< 10-90% of the stage output
};

/// Whole-path result.
struct PathTiming {
  double total_delay = 0.0;
  std::vector<StageTiming> stages;
};

/// Stage delay and output rise for a linear-ramp input with the given rise
/// time (0 = ideal step: the fitted closed forms eed::delay_50 and
/// eed::rise_time). A ramp is solved for the first 10/50/90% crossings of
/// the closed-form ramp response in normalized time τ = ωₙ·t (τ = t/ΣRC
/// for RC-limit nodes), where the response depends on ζ and ρ = ωₙ·rise
/// alone, so the result's relative precision does not depend on the net's
/// time scale. Each crossing is a safeguarded Newton solve inside a
/// bracket proven to hold the *first* crossing:
///
///  - With g the unit step response, y(τ) = (1/ρ)∫_{τ−ρ}^{τ} g and
///    y'(τ) = (g(τ) − g(τ−ρ))/ρ. g ≥ 0 and g is non-decreasing on
///    [0, π/ω_d] (everywhere when ζ ≥ 1), so y' ≥ 0 on
///    [0, max(ρ, π/ω_d)]: for τ ≤ ρ, y' = g(τ)/ρ; past ρ the window lies
///    inside [0, π/ω_d].
///  - Past ρ, y' is one damped sinusoid, so y keeps rising from there to
///    its next maximum τ_p (explicit from the sinusoid's phase), and every
///    maximum of y past ρ lies above 1.
///  - So y is non-decreasing on [0, τ_p] (τ_p = ∞ when ζ ≥ 1) and reaches
///    every level below 1 there: a bracket inside it with
///    y(lo) < L ≤ y(hi) holds exactly one crossing, the first.
///  - A second argument: |y'| ≤ M = e^{−ζ·atan2(ω_d, ζ)/ω_d} ≤ 1, the peak
///    of |g'|, so a walk τ += (L − y)/M cannot skip a crossing. The solver
///    needs no walk because τ_p bounds a monotone bracket (docs/sta.md).
///
/// Throws std::invalid_argument for a negative or non-finite rise, and
/// std::runtime_error for a node model without a defined response
/// (negative or non-finite ζ or ΣRC, non-positive ωₙ).
[[nodiscard]] StageTiming time_stage(const eed::NodeModel& node, double input_rise_seconds);

/// Walks the path: stage k is driven by a ramp whose rise time equals
/// stage k-1's output rise (stage 0 sees `first_input_rise`, default step).
[[nodiscard]] PathTiming time_path(const std::vector<PathStage>& stages, double first_input_rise = 0.0);

}  // namespace relmore::opt
