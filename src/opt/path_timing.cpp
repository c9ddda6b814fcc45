#include "relmore/opt/path_timing.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "relmore/eed/eed.hpp"
#include "relmore/engine/timing_engine.hpp"

namespace relmore::opt {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kPi = 3.141592653589793;
/// Normalized rise (in units of the system's own time scale) below which
/// the window mean (G(τ) − G(τ−ρ))/ρ loses more digits to cancellation
/// than the midpoint rule g(τ − ρ/2) does to truncation (ρ²/24·max|g''|,
/// under 5e-12 here).
constexpr double kShortRise = 1e-5;
/// A Newton step shorter than this fraction of τ ends the solve; the
/// iterate it lands on is then accurate to rounding (quadratic phase).
constexpr double kStepTol = 1e-10;
constexpr int kMaxSteps = 100;

/// A node's response to a unit linear ramp in normalized time
/// τ = ωₙ·t (τ = t/ΣRC for RC-limit nodes), where it depends on ζ and the
/// normalized rise ρ alone (paper eqs. 31–32). With g the unit step
/// response and G its integral,
///
///   y(τ) = (G(τ) − G(τ−ρ))/ρ,   y'(τ) = (g(τ) − g(τ−ρ))/ρ,
///
/// G, g = 0 for negative arguments. Everything that does not depend on τ
/// is computed once here; an evaluation costs one exp and one sin/cos
/// pair when underdamped, and real exponentials otherwise (one for an
/// RC-limit node, up to four when overdamped).
class RampResponse {
 public:
  struct Point {
    double y = 0.0;
    double dy = 0.0;
  };

  RampResponse(const eed::NodeModel& node, double rise_seconds) {
    if (!std::isfinite(node.omega_n)) {
      mode_ = Mode::kRc;
      scale_ = 1.0 / node.sum_rc;
    } else {
      zeta_ = node.zeta;
      scale_ = node.omega_n;
      if (zeta_ < 1.0) {
        mode_ = Mode::kUnderdamped;
        wd_ = std::sqrt((1.0 - zeta_) * (1.0 + zeta_));
        j_ = zeta_ / wd_;
        k_ = (2.0 * zeta_ * zeta_ - 1.0) / wd_;
      } else {
        mode_ = Mode::kOverdamped;
        d_ = std::sqrt((zeta_ - 1.0) * (zeta_ + 1.0));
        p1_ = -1.0 / (zeta_ + d_);  // slow pole, cancellation-free
      }
    }
    rho_ = rise_seconds * scale_;
    const double time_scale = mode_ == Mode::kOverdamped ? 2.0 * zeta_ : 1.0;
    short_rise_ = rho_ < kShortRise * time_scale;
    if (mode_ == Mode::kRc) {
      rc_tail_ = -std::expm1(-rho_) / rho_;
    } else if (mode_ == Mode::kUnderdamped && !short_rise_) {
      // Past τ = ρ both window ends are live, and with E = e^{−ζ(τ−ρ)},
      // c = cos(wd·τ), s = sin(wd·τ) the angle-difference identities fold
      // G(τ) − G(τ−ρ) and g(τ) − g(τ−ρ) into one damped sinusoid each:
      //   y = 1 + E·(a1·c + b1·s),   y' = E·(a2·c + b2·s).
      const double er = std::exp(-zeta_ * rho_);
      const double cr = std::cos(wd_ * rho_);
      const double sr = std::sin(wd_ * rho_);
      a1_ = (2.0 * zeta_ * (er - cr) + k_ * sr) / rho_;
      b1_ = (k_ * (er - cr) - 2.0 * zeta_ * sr) / rho_;
      a2_ = (cr - j_ * sr - er) / rho_;
      b2_ = (sr + j_ * (cr - er)) / rho_;
    }
    if (mode_ == Mode::kUnderdamped) {
      // y is non-decreasing on [0, max(ρ, π/wd)], and past ρ y' is one
      // damped sinusoid; y keeps rising to its next maximum, which lies
      // above 1 (see path_timing.hpp). Short rise: y(τ) = g(τ − ρ/2),
      // whose first maximum is at ρ/2 + π/wd.
      const double half = kPi / wd_;
      if (short_rise_) {
        rise_end_ = 0.5 * rho_ + half;
      } else {
        // y' = E·R·sin(wd·τ + φ): maxima of y where wd·τ + φ ≡ π mod 2π.
        const double first = (kPi - std::atan2(a2_, b2_)) / wd_;
        const double end = std::max(rho_, half);
        rise_end_ = first + 2.0 * half * std::ceil((end - first) / (2.0 * half));
      }
    }
  }

  [[nodiscard]] double scale() const { return scale_; }
  [[nodiscard]] double rho() const { return rho_; }
  /// y is non-decreasing on [0, rise_end()] and y(rise_end()) > 1 (∞:
  /// non-decreasing everywhere, ζ ≥ 1 or the RC limit).
  [[nodiscard]] double rise_end() const { return rise_end_; }

  [[nodiscard]] Point operator()(double tau) const {
    if (short_rise_) return step_point(tau - 0.5 * rho_);
    if (tau <= 0.0) return {};
    switch (mode_) {
      case Mode::kRc:
        if (tau >= rho_) {
          const double e = std::exp(rho_ - tau) * rc_tail_;
          return {1.0 - e, e};
        } else {
          const double em = std::expm1(-tau);
          return {(tau + em) / rho_, -em / rho_};
        }
      case Mode::kUnderdamped:
        if (tau >= rho_) {
          const double e = std::exp(-zeta_ * (tau - rho_));
          const double c = std::cos(wd_ * tau);
          const double s = std::sin(wd_ * tau);
          return {1.0 + e * (a1_ * c + b1_ * s), e * (a2_ * c + b2_ * s)};
        }
        break;
      case Mode::kOverdamped:
        if (tau >= rho_) {
          const Terms now = terms(tau);
          const Terms then = terms(tau - rho_);
          return {1.0 + (now.q - then.q) / rho_, (then.decay - now.decay) / rho_};
        }
        break;
    }
    // 0 < τ < ρ: only the rising end of the window is live.
    const Terms now = terms(tau);
    return {(tau - 2.0 * zeta_ + now.q) / rho_, (1.0 - now.decay) / rho_};
  }

 private:
  enum class Mode { kRc, kUnderdamped, kOverdamped };

  /// At one τ > 0: g(τ) = 1 − decay, G(τ) = τ − 2ζ + q, g'(τ) = slope.
  struct Terms {
    double decay = 0.0;
    double q = 0.0;
    double slope = 0.0;
  };

  [[nodiscard]] Terms terms(double tau) const {
    double ec = 0.0;  // e^{−ζτ}·cos(wd·τ)       | e^{−ζτ}·cosh(d·τ)
    double es = 0.0;  // e^{−ζτ}·sin(wd·τ)/wd    | e^{−ζτ}·sinh(d·τ)/d
    if (mode_ == Mode::kUnderdamped) {
      const double e = std::exp(-zeta_ * tau);
      ec = e * std::cos(wd_ * tau);
      es = e * std::sin(wd_ * tau) / wd_;
    } else {
      // e^{−ζτ}cosh, e^{−ζτ}sinh/d from the slow pole and expm1 of the
      // pole gap: exact through ζ → 1 and free of overflow for large ζ.
      const double e1 = std::exp(p1_ * tau);
      const double m = std::expm1(-2.0 * d_ * tau);
      ec = e1 * (1.0 + 0.5 * m);
      es = d_ > 0.0 ? -e1 * m / (2.0 * d_) : e1 * tau;
    }
    return {ec + zeta_ * es, 2.0 * zeta_ * ec + (2.0 * zeta_ * zeta_ - 1.0) * es, es};
  }

  /// Short rise: the ramp response is the step response at τ − ρ/2.
  [[nodiscard]] Point step_point(double u) const {
    if (u <= 0.0) return {};
    if (mode_ == Mode::kRc) return {-std::expm1(-u), std::exp(-u)};
    const Terms t = terms(u);
    return {1.0 - t.decay, t.slope};
  }

  Mode mode_ = Mode::kRc;
  double scale_ = 1.0;  ///< normalized time per second
  double rho_ = 0.0;
  bool short_rise_ = false;
  double zeta_ = 0.0;
  double wd_ = 0.0, j_ = 0.0, k_ = 0.0;  ///< underdamped: wd, ζ/wd, (2ζ²−1)/wd
  double d_ = 0.0, p1_ = 0.0;           ///< overdamped: sqrt(ζ²−1), slow pole
  double rise_end_ = kInf;
  double a1_ = 0.0, b1_ = 0.0, a2_ = 0.0, b2_ = 0.0;
  double rc_tail_ = 0.0;  ///< RC: (1 − e^{−ρ})/ρ
};

/// A solved crossing and the slope y' there.
struct Crossing {
  double tau = 0.0;
  double slope = 0.0;
};

/// Safeguarded Newton for y(τ) = level inside [lo, hi], on which y is
/// non-decreasing, with y < level on [0, lo] and y(hi) ≥ level (hi = ∞:
/// y is non-decreasing on all of [lo, ∞)). The root it returns is
/// therefore the first crossing. Steps that leave the bracket bisect it
/// (or double τ while hi is still unbounded).
Crossing newton_in_bracket(const RampResponse& r, double level, double lo, double hi, double x) {
  if (!(x > lo && x < hi)) x = hi < kInf ? 0.5 * (lo + hi) : 2.0 * lo + 1.0;
  RampResponse::Point p;
  for (int i = 0; i < kMaxSteps; ++i) {
    p = r(x);
    if (p.y == level) break;
    (p.y < level ? lo : hi) = x;
    const double step = p.dy > 0.0 ? (level - p.y) / p.dy : kInf;
    // Converged: the root is within rounding of x + step, even when that
    // lands on the far side of a bracket end it rounds onto.
    if (std::abs(step) <= kStepTol * x) return {x + step, p.dy};
    const double next = x + step;
    x = next > lo && next < hi ? next : hi < kInf ? 0.5 * (lo + hi) : 2.0 * x;
  }
  return {x, p.dy};
}

}  // namespace

StageTiming time_stage(const eed::NodeModel& node, double input_rise_seconds) {
  if (!std::isfinite(input_rise_seconds) || input_rise_seconds < 0.0) {
    throw std::invalid_argument("time_stage: input rise must be finite and non-negative");
  }
  StageTiming out;
  out.zeta = node.zeta;
  out.input_rise = input_rise_seconds;
  if (input_rise_seconds == 0.0) {
    out.delay = eed::delay_50(node);
    out.output_rise = eed::rise_time(node);
    return out;
  }
  const bool rc_limit = !std::isfinite(node.omega_n);
  if (rc_limit ? !(node.sum_rc >= 0.0 && std::isfinite(node.sum_rc))
               : !(node.zeta >= 0.0 && std::isfinite(node.zeta) && node.omega_n > 0.0)) {
    throw std::runtime_error("time_stage: degenerate node model");
  }
  if (rc_limit && node.sum_rc == 0.0) {  // a wire without resistance passes the ramp
    out.output_rise = 0.8 * input_rise_seconds;
    return out;
  }

  // Ordered first crossings in normalized time: 50% seeded from the
  // fitted closed-form delay shifted by half the ramp; 10% below it,
  // seeded by a Newton step down from the 50% slope; 90% above it, seeded
  // with the fitted rise widened by the ramp's own 10-90% span. See
  // path_timing.hpp for why each is the first crossing.
  const RampResponse r(node, input_rise_seconds);
  const double rho = r.rho();
  const double delay_seed = eed::delay_50(node) * r.scale() + 0.5 * rho;
  const double rise_seed = std::hypot(eed::rise_time(node) * r.scale(), 0.8 * rho);
  const double end = r.rise_end();
  const Crossing c50 = newton_in_bracket(r, 0.5, 0.0, end, delay_seed);
  const double t50 = c50.tau;
  const double t10 = newton_in_bracket(r, 0.1, 0.0, t50, t50 - 0.4 / c50.slope).tau;
  const double t90 = newton_in_bracket(r, 0.9, t50, end, t10 + rise_seed).tau;
  out.delay = (t50 - 0.5 * rho) / r.scale();
  out.output_rise = (t90 - t10) / r.scale();
  return out;
}

PathTiming time_path(const std::vector<PathStage>& stages, double first_input_rise) {
  if (stages.empty()) throw std::invalid_argument("time_path: empty path");
  PathTiming out;
  double rise = first_input_rise;
  for (const PathStage& st : stages) {
    if (st.tree.empty()) throw std::invalid_argument("time_path: stage with empty tree");
    // Engine session per stage: only the stage's sink node is needed, so
    // the downward pass is a single O(depth) prefix walk.
    const engine::TimingEngine eng(st.tree);
    StageTiming timing = time_stage(eng.node(st.sink), rise);
    timing.delay += st.intrinsic_delay;
    out.total_delay += timing.delay;
    rise = timing.output_rise;
    out.stages.push_back(timing);
  }
  return out;
}

}  // namespace relmore::opt
