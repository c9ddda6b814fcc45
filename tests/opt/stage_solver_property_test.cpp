// Property tests of opt::time_stage against an independent oracle: dense
// sampling of the closed-form ramp response eed::ramp_input_response. The
// solver must return the *first* 10/50/90% crossings to within the
// sampling resolution over a (zeta, omega_n * rise) grid, on RC-limit
// nodes, next to critical damping, and on deep-underdamped taps driven by
// ramps near whole damped periods (where the response rings back below a
// level after crossing it). A second property pins scale-freedom: scaling
// a net's time constants and its input rise by k scales delay and slew by
// k to rounding.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include "relmore/eed/eed.hpp"
#include "relmore/opt/path_timing.hpp"

namespace relmore::opt {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kPi = 3.141592653589793;
constexpr double kOmega = 1e10;  // 100 ps natural period scale

eed::NodeModel rlc_node(double zeta, double omega_n) {
  eed::NodeModel m;
  m.zeta = zeta;
  m.omega_n = omega_n;
  m.sum_lc = 1.0 / (omega_n * omega_n);
  m.sum_rc = 2.0 * zeta / omega_n;
  return m;
}

eed::NodeModel rc_node(double sum_rc) {
  eed::NodeModel m;
  m.sum_rc = sum_rc;
  m.zeta = kInf;
  m.omega_n = kInf;
  return m;
}

/// First-sample crossing times of 10/50/90% on a uniform grid of `n`
/// samples over (0, t_max]: the oracle's answer, exact to one step.
struct DenseCrossings {
  double t10 = -1.0, t50 = -1.0, t90 = -1.0;
  double step = 0.0;
};

DenseCrossings dense_crossings(const eed::NodeModel& node, double rise, double t_max, int n) {
  DenseCrossings out;
  out.step = t_max / n;
  for (int i = 1; i <= n && out.t90 < 0.0; ++i) {
    const double t = t_max * i / n;
    const double v = eed::ramp_input_response(node, t, 1.0, rise);
    if (out.t10 < 0.0 && v >= 0.1) out.t10 = t;
    if (out.t50 < 0.0 && v >= 0.5) out.t50 = t;
    if (out.t90 < 0.0 && v >= 0.9) out.t90 = t;
  }
  return out;
}

/// Checks time_stage against the dense oracle: the 50% crossing lies in
/// the oracle's sample interval (t50 - step, t50], and the 10-90% span
/// is within one step of the oracle's.
void expect_matches_oracle(const eed::NodeModel& node, double rise, double t_max,
                           const std::string& what) {
  const int n = 20000;
  const DenseCrossings o = dense_crossings(node, rise, t_max, n);
  ASSERT_GT(o.t90, 0.0) << what << ": oracle window too short";
  const StageTiming s = time_stage(node, rise);
  const double t50 = s.delay + 0.5 * rise;
  const double slack = 1e-9 * o.step + 1e-12 * t50;
  EXPECT_LE(t50, o.t50 + slack) << what;
  EXPECT_GT(t50, o.t50 - o.step - slack) << what;
  EXPECT_NEAR(s.output_rise, o.t90 - o.t10, o.step + slack) << what;
}

TEST(StageSolverProperty, MatchesDenseOracleOverZetaRhoGrid) {
  const double rhos[] = {1e-6, 1e-4, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0};
  for (int i = 0; i < 12; ++i) {
    const double zeta = 0.05 * std::pow(100.0, i / 11.0);  // log-spaced in [0.05, 5]
    const eed::NodeModel node = rlc_node(zeta, kOmega);
    for (const double rho : rhos) {
      const double t_max = (rho + 12.0 * std::max(1.0, 2.0 * zeta) + 10.0) / kOmega;
      expect_matches_oracle(node, rho / kOmega, t_max,
                            "zeta=" + std::to_string(zeta) + " rho=" + std::to_string(rho));
    }
  }
}

TEST(StageSolverProperty, StepInputReturnsTheFittedClosedForms) {
  // rho = 0 is the paper's step response: the fitted eqs. (35)-(36),
  // within their fit error of the dense oracle (the rise refit is worst,
  // ~10%, as zeta -> 0).
  for (const double zeta : {0.05, 0.3, 1.0, 2.0, 5.0}) {
    const eed::NodeModel node = rlc_node(zeta, kOmega);
    const StageTiming s = time_stage(node, 0.0);
    EXPECT_EQ(s.delay, eed::delay_50(node));
    EXPECT_EQ(s.output_rise, eed::rise_time(node));
    const DenseCrossings o =
        dense_crossings(node, 0.0, (12.0 * std::max(1.0, 2.0 * zeta) + 10.0) / kOmega, 20000);
    EXPECT_NEAR(s.delay, o.t50, 0.05 * o.t50) << "zeta=" << zeta;
    EXPECT_NEAR(s.output_rise, o.t90 - o.t10, 0.12 * (o.t90 - o.t10)) << "zeta=" << zeta;
  }
}

TEST(StageSolverProperty, MatchesDenseOracleOnRcLimitNodes) {
  const double sum_rc = 30e-12;
  for (const double rho : {1e-6, 1e-4, 1e-2, 0.3, 1.0, 5.0, 100.0}) {
    const double rise = rho * sum_rc;
    expect_matches_oracle(rc_node(sum_rc), rise, rise + 12.0 * sum_rc,
                          "rc rho=" + std::to_string(rho));
  }
}

TEST(StageSolverProperty, MatchesDenseOracleNextToCriticalDamping) {
  for (const double zeta : {1.0 - 5e-8, 1.0 - 1e-12, 1.0, 1.0 + 1e-12, 1.0 + 5e-8}) {
    for (const double rho : {1e-3, 1.0, 20.0}) {
      expect_matches_oracle(rlc_node(zeta, kOmega), rho / kOmega, (rho + 30.0) / kOmega,
                            "zeta=1" + std::to_string(zeta - 1.0) + " rho=" + std::to_string(rho));
    }
  }
}

TEST(StageSolverProperty, FirstCrossingOnDeepUnderdampedRampsNearWholePeriods) {
  // A ramp lasting about a whole number of damped periods flattens the
  // ringing into plateaus and dips near the 90% level: a solver that
  // steps past a first crossing lands on a later one, many steps away.
  for (const double zeta : {0.02, 0.05, 0.1}) {
    const double period = 2.0 * kPi / std::sqrt(1.0 - zeta * zeta);
    for (int k = 1; k <= 3; ++k) {
      for (const double skew : {-1e-2, -1e-3, 0.0, 1e-3, 1e-2, 0.25, 0.5}) {
        const double rho = (k + skew) * period;
        expect_matches_oracle(rlc_node(zeta, kOmega), rho / kOmega, (rho + 40.0) / kOmega,
                              "zeta=" + std::to_string(zeta) + " periods=" +
                                  std::to_string(k + skew));
      }
    }
  }
  // Near-lossless taps whose ramp leaves the response ringing across the
  // 90% level: a geometric bracket walk skipped the first crossing here
  // and reported a slew 1.8-4x too long.
  for (const double zeta : {0.0, 0.0028}) {
    for (const double rho : {10.6151, 11.2755, 14.8327}) {
      expect_matches_oracle(rlc_node(zeta, kOmega), rho / kOmega, (rho + 40.0) / kOmega,
                            "zeta=" + std::to_string(zeta) + " rho=" + std::to_string(rho));
    }
  }
}

TEST(StageSolverProperty, DelayAndSlewScaleWithTheNet) {
  // Scaling sum RC by k, sum LC by k^2 and the rise by k scales every
  // time by k: the solve is in normalized time, so its precision does not
  // depend on the net's time scale. r = 1e-8 is a near-step ramp, where
  // the window difference G(τ) − G(τ−ρ) would cancel to ~1e-8.
  const auto node_at = [](double zeta, double base, double k) {
    eed::NodeModel m;
    m.sum_rc = 2.0 * zeta * base * k;
    m.sum_lc = base * base * k * k;
    const double root = std::sqrt(m.sum_lc);
    m.omega_n = 1.0 / root;
    m.zeta = m.sum_rc / (2.0 * root);
    return m;
  };
  for (const double base : {1e-12, 1e-9}) {
    for (const double zeta : {0.1, 0.5, 0.999, 1.0, 1.3, 4.0, kInf}) {
      for (const double r : {1e-8, 0.01, 1.0, 30.0}) {
        const auto node = [&](double k) {
          return std::isfinite(zeta) ? node_at(zeta, base, k) : rc_node(base * k);
        };
        const StageTiming ref = time_stage(node(1.0), r * base);
        for (const double k : {1e-3, 1e-2, 0.1, 10.0, 100.0, 1e3}) {
          const StageTiming s = time_stage(node(k), r * base * k);
          EXPECT_NEAR(s.delay / k, ref.delay, 1e-12 * ref.delay)
              << "base=" << base << " zeta=" << zeta << " r=" << r << " k=" << k;
          EXPECT_NEAR(s.output_rise / k, ref.output_rise, 1e-12 * ref.output_rise)
              << "base=" << base << " zeta=" << zeta << " r=" << r << " k=" << k;
        }
      }
    }
  }
}

TEST(StageSolverProperty, ResistanceFreeWirePassesTheRamp) {
  const StageTiming s = time_stage(rc_node(0.0), 40e-12);
  EXPECT_EQ(s.delay, 0.0);
  EXPECT_EQ(s.output_rise, 0.8 * 40e-12);
}

TEST(StageSolverProperty, RejectsNodesWithoutAResponse) {
  EXPECT_THROW((void)time_stage(rlc_node(-0.5, kOmega), 1e-12), std::runtime_error);
  EXPECT_THROW((void)time_stage(rlc_node(std::nan(""), kOmega), 1e-12), std::runtime_error);
  EXPECT_THROW((void)time_stage(rc_node(-1e-12), 1e-12), std::runtime_error);
}

}  // namespace
}  // namespace relmore::opt
