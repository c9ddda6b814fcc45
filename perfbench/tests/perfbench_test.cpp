// Unit tests of the benchmark's own machinery: the percentile rule, span
// self-time, and the design generator's properties.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

#include "generate.hpp"
#include "relmore/sta/sta.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(n - i);  // unsorted
  return v;
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  EXPECT_FALSE(tail_percentile(ramp(99), 0.90).has_value());
  ASSERT_TRUE(tail_percentile(ramp(100), 0.90).has_value());
  EXPECT_EQ(*tail_percentile(ramp(100), 0.90), 90.0);
  EXPECT_FALSE(tail_percentile(ramp(999), 0.99).has_value());
  ASSERT_TRUE(tail_percentile(ramp(1000), 0.99).has_value());
  EXPECT_EQ(*tail_percentile(ramp(1000), 0.99), 990.0);
  EXPECT_FALSE(tail_percentile({}, 0.5).has_value());
}

TEST(Percentile, MedianAveragesTheMiddlePair) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 2.0, 3.0}), 2.5);
  EXPECT_EQ(median({}), 0.0);
}

TEST(Trace, SelfTimeSubtractsCoveredChildIntervals) {
  // op [0,100): children a [10,40) and b [30,60) overlap, c [90,120)
  // sticks out of the parent; a has a grandchild [15,25).
  std::vector<Span> spans = {
      {"op", 1, -1, 0, 100},  {"a", 1, 0, 10, 40},   {"b", 1, 0, 30, 60},
      {"c", 1, 0, 90, 120},   {"a.x", 1, 1, 15, 25},
  };
  const std::vector<std::int64_t> self = self_times(spans);
  EXPECT_EQ(self[0], 100 - (50 + 10));  // [10,60) and [90,100) covered
  EXPECT_EQ(self[1], 30 - 10);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 30);
  EXPECT_EQ(self[4], 10);
  const auto totals = layer_totals(spans);
  EXPECT_EQ(totals.at("op").self_ns, 40);
  EXPECT_EQ(totals.at("a").total_ns, 30);
}

TEST(Trace, RecorderNestsAndDisabledRecordsNothing) {
  Tracer on(true);
  {
    Scope outer(on, "op", 7);
    Scope inner(on, "layer", 7);
  }
  ASSERT_EQ(on.spans().size(), 2u);
  EXPECT_EQ(on.spans()[1].parent, 0);
  EXPECT_LE(on.spans()[0].start, on.spans()[1].start);
  EXPECT_GE(on.spans()[0].end, on.spans()[1].end);
  Tracer off(false);
  { Scope s(off, "op", 1); }
  EXPECT_TRUE(off.spans().empty());
}

struct Parsed {
  relmore::sta::Design design;
  relmore::sta::CorpusModels models;
};

Parsed parse(const GeneratedDesign& g) {
  std::istringstream in(g.text);
  auto d = relmore::sta::read_design_checked(in);
  EXPECT_TRUE(d.is_ok()) << d.status().to_string();
  Parsed p{std::move(d).value(), {}};
  auto m = relmore::sta::analyze_corpus_checked(p.design);
  EXPECT_TRUE(m.is_ok());
  p.models = std::move(m).value();
  return p;
}

std::size_t distinct_topologies(const relmore::sta::Design& d) {
  std::set<std::vector<int>> seen;
  for (const auto& n : d.nets) seen.insert(n.flat.parent());
  return seen.size();
}

TEST(Generator, SignoffShapeIsOverdampedSharedAndSparse) {
  const GeneratedDesign g = generate_design(signoff_shape(2048, 11));
  const Parsed p = parse(g);
  ASSERT_EQ(p.design.nets.size(), 2048u);
  EXPECT_EQ(distinct_topologies(p.design), 8u);
  const double taps_per_net = static_cast<double>(g.taps) / 2048.0;
  EXPECT_GT(taps_per_net, 1.05);
  EXPECT_LT(taps_per_net, 1.2);
  for (const auto& net : p.models.nets) {
    for (const auto& m : net.taps) EXPECT_GE(m.zeta, 1.0);
  }
  EXPECT_EQ(p.models.faulted_nets, 0u);
}

TEST(Generator, ReanalyzeShapeHasUniqueNetsTapsAndUnderdampedTaps) {
  const GeneratedDesign g = generate_design(reanalyze_shape(2048, 12));
  const Parsed p = parse(g);
  std::size_t shared = 0;
  for (const auto& n : g.nets) shared += n.shared_topology ? 1 : 0;
  EXPECT_EQ(shared, 1024u);
  EXPECT_EQ(distinct_topologies(p.design), 8 + (2048 - shared));
  std::size_t taps_hist[5] = {0, 0, 0, 0, 0};
  std::size_t underdamped = 0;
  std::size_t all_taps = 0;
  for (std::size_t i = 0; i < p.design.nets.size(); ++i) {
    const auto& net = p.design.nets[i];
    ASSERT_GE(net.taps.size(), 1u);
    ASSERT_LE(net.taps.size(), 4u);
    ++taps_hist[net.taps.size()];
    // Each net's least-damped tap was targeted into [0.2, 3].
    double least = INFINITY;
    for (const auto& m : p.models.nets[i].taps) {
      ++all_taps;
      underdamped += m.zeta < 1.0 ? 1 : 0;
      least = std::min(least, m.zeta);
    }
    EXPECT_GE(least, 0.2 * (1 - 1e-9));
    EXPECT_LE(least, 3.0 * (1 + 1e-9));
  }
  for (std::size_t k = 1; k <= 4; ++k) EXPECT_GT(taps_hist[k], 2048u / 8) << k << " taps";
  EXPECT_GT(underdamped, all_taps / 4);
  EXPECT_EQ(p.models.faulted_nets, 0u);
}

TEST(Generator, DesignSizeDoesNotDependOnTheSeed) {
  for (auto shape : {signoff_shape, reanalyze_shape}) {
    const GeneratedDesign a = generate_design(shape(2048, 21));
    const GeneratedDesign b = generate_design(shape(2048, 22));
    EXPECT_NE(a.text, b.text);
    EXPECT_EQ(a.sections, b.sections);
    EXPECT_EQ(a.taps, b.taps);
  }
}

TEST(Generator, SameSeedSameTextOtherSeedOtherText) {
  const DesignShape s = reanalyze_shape(256, 5);
  EXPECT_EQ(generate_design(s).text, generate_design(s).text);
  EXPECT_NE(generate_design(s).text, generate_design(reanalyze_shape(256, 6)).text);
  const auto a = generate_balanced_tree(63, 3);
  EXPECT_EQ(a.size(), 63u);
}

}  // namespace
}  // namespace perfbench
