#include "relmore/analysis/variation.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "relmore/circuit/builders.hpp"
#include "relmore/eed/eed.hpp"
#include "relmore/util/fault_injector.hpp"

namespace relmore::analysis {
namespace {

using circuit::RlcTree;
using circuit::SectionId;

RlcTree test_tree(SectionId* out) { return circuit::make_fig8_tree(out); }

TEST(Variation, DeterministicForSeed) {
  SectionId out = circuit::kInput;
  const RlcTree t = test_tree(&out);
  const VariationSpec spec;
  const MonteCarloOptions opts{spec, 200, 7, {}};
  const auto a = monte_carlo_delay(t, out, opts);
  const auto b = monte_carlo_delay(t, out, opts);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_DOUBLE_EQ(a.stddev, b.stddev);
  EXPECT_DOUBLE_EQ(a.q95, b.q95);
}

TEST(Variation, ZeroSigmaCollapsesToNominal) {
  SectionId out = circuit::kInput;
  const RlcTree t = test_tree(&out);
  VariationSpec spec;
  spec.sigma_resistance = 0.0;
  spec.sigma_inductance = 0.0;
  spec.sigma_capacitance = 0.0;
  const auto d = monte_carlo_delay(t, out, MonteCarloOptions{spec, 50, 1, {}});
  EXPECT_NEAR(d.stddev, 0.0, 1e-12 * d.nominal);
  EXPECT_NEAR(d.mean, d.nominal, 1e-12 * d.nominal);
  EXPECT_DOUBLE_EQ(d.min, d.max);
}

TEST(Variation, StatisticsAreOrdered) {
  SectionId out = circuit::kInput;
  const RlcTree t = test_tree(&out);
  const auto d = monte_carlo_delay(t, out, MonteCarloOptions{VariationSpec{}, 500, 3, {}});
  EXPECT_LE(d.min, d.mean);
  EXPECT_LE(d.mean, d.max);
  EXPECT_GE(d.q95, d.mean - d.stddev);
  EXPECT_LE(d.q95, d.max);
  EXPECT_GT(d.stddev, 0.0);
  // Mean near nominal for moderate sigmas.
  EXPECT_NEAR(d.mean, d.nominal, 0.1 * d.nominal);
}

TEST(Variation, SpreadGrowsWithSigma) {
  SectionId out = circuit::kInput;
  const RlcTree t = test_tree(&out);
  VariationSpec small;
  small.sigma_resistance = small.sigma_capacitance = 0.02;
  small.sigma_inductance = 0.01;
  VariationSpec large;
  large.sigma_resistance = large.sigma_capacitance = 0.15;
  large.sigma_inductance = 0.08;
  const auto ds = monte_carlo_delay(t, out, MonteCarloOptions{small, 400, 5, {}});
  const auto dl = monte_carlo_delay(t, out, MonteCarloOptions{large, 400, 5, {}});
  EXPECT_GT(dl.stddev, 3.0 * ds.stddev);
}

TEST(Variation, LinearEstimateTracksMonteCarloForSmallSigma) {
  SectionId out = circuit::kInput;
  const RlcTree t = test_tree(&out);
  VariationSpec spec;
  spec.sigma_resistance = 0.03;
  spec.sigma_inductance = 0.02;
  spec.sigma_capacitance = 0.03;
  const double linear = delay_stddev_linear(t, out, spec);
  const auto mc = monte_carlo_delay(t, out, MonteCarloOptions{spec, 4000, 17, {}});
  EXPECT_NEAR(linear, mc.stddev, 0.2 * mc.stddev);
}

TEST(Variation, BitwiseIdenticalAcrossThreadsAndLaneWidths) {
  // The contract the batched rewire must keep: per-sample RNG seeding plus
  // lane-faithful kernels make the statistics a pure function of (tree,
  // spec, samples, seed) — not of the execution plan. 97 samples is not
  // divisible by any lane width, so ragged tail groups are exercised.
  SectionId out = circuit::kInput;
  const RlcTree t = test_tree(&out);
  VariationSpec spec;
  spec.sigma_resistance = 0.08;
  spec.sigma_inductance = 0.05;
  spec.sigma_capacitance = 0.08;
  const auto base = monte_carlo_delay(t, out, MonteCarloOptions{spec, 97, 11, {1, 1}});
  for (const unsigned threads : {1u, 4u}) {
    for (const std::size_t lanes : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
      const auto got = monte_carlo_delay(t, out, MonteCarloOptions{spec, 97, 11, {threads, lanes}});
      EXPECT_EQ(got.mean, base.mean) << "threads " << threads << " lanes " << lanes;
      EXPECT_EQ(got.stddev, base.stddev) << "threads " << threads << " lanes " << lanes;
      EXPECT_EQ(got.q95, base.q95) << "threads " << threads << " lanes " << lanes;
      EXPECT_EQ(got.min, base.min) << "threads " << threads << " lanes " << lanes;
      EXPECT_EQ(got.max, base.max) << "threads " << threads << " lanes " << lanes;
    }
  }
}

TEST(Variation, ArenaAllocFailureReturnsResourceExhausted) {
  // The checked entry point returns a Status instead of throwing: a
  // workspace allocation failure (the arena-alloc injection site) comes
  // back as kResourceExhausted, and leaves nothing behind that changes a
  // later run's bits.
  using util::FaultInjector;
  const RlcTree t = circuit::make_balanced_tree(6, 2, circuit::SectionValues{25.0, 2e-9, 20e-15});
  ASSERT_EQ(t.size(), 63u);
  const auto leaf = static_cast<SectionId>(t.size() - 1);
  const MonteCarloOptions opts{VariationSpec{}, 256, 5, {}};
  const util::Result<DelayDistribution> reference = monte_carlo_delay_checked(t, leaf, opts);
  ASSERT_TRUE(reference.is_ok()) << reference.status().to_string();

  FaultInjector& injector = FaultInjector::instance();
  injector.disarm_all();
  ASSERT_TRUE(injector.arm_spec("arena-alloc:every=1:limit=1").is_ok());
  const util::Result<DelayDistribution> armed = monte_carlo_delay_checked(t, leaf, opts);
  const std::uint64_t fires = injector.fire_count(util::FaultSite::kArenaAlloc);
  injector.disarm_all();
  EXPECT_EQ(fires, 1u);
  ASSERT_FALSE(armed.is_ok());
  EXPECT_EQ(armed.status().code(), util::ErrorCode::kResourceExhausted);

  const util::Result<DelayDistribution> rerun = monte_carlo_delay_checked(t, leaf, opts);
  ASSERT_TRUE(rerun.is_ok()) << rerun.status().to_string();
  const DelayDistribution& want = reference.value();
  const DelayDistribution& got = rerun.value();
  for (const auto member : {&DelayDistribution::nominal, &DelayDistribution::mean,
                            &DelayDistribution::stddev, &DelayDistribution::q95,
                            &DelayDistribution::min, &DelayDistribution::max}) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.*member),
              std::bit_cast<std::uint64_t>(want.*member));
  }
  EXPECT_EQ(got.samples, want.samples);
}

TEST(Variation, RejectsTooFewSamples) {
  SectionId out = circuit::kInput;
  const RlcTree t = test_tree(&out);
  EXPECT_THROW(monte_carlo_delay(t, out, MonteCarloOptions{VariationSpec{}, 1, 0, {}}),
               std::invalid_argument);
}

TEST(Variation, LinearEstimateZeroForZeroSigma) {
  SectionId out = circuit::kInput;
  const RlcTree t = test_tree(&out);
  VariationSpec spec;
  spec.sigma_resistance = 0.0;
  spec.sigma_inductance = 0.0;
  spec.sigma_capacitance = 0.0;
  EXPECT_DOUBLE_EQ(delay_stddev_linear(t, out, spec), 0.0);
}

}  // namespace
}  // namespace relmore::analysis
