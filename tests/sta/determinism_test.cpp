#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdlib>
#include <utility>
#include <vector>

#include "relmore/eed/model.hpp"
#include "relmore/sta/corpus.hpp"
#include "relmore/sta/synthetic.hpp"
#include "relmore/sta/timing_graph.hpp"

namespace relmore::sta {
namespace {

/// The corpus contract under test: execution knobs (threads, env
/// overrides) never change a single output bit.
/// Doubles are compared through their bit patterns, not ==, so a -0.0/+0.0
/// or ULP drift would fail loudly.

Design synthetic_design() {
  SyntheticSpec spec;
  spec.nets = 64;
  spec.seed = 5;
  spec.topo_classes = 6;  // ~11 nets per shared topology
  spec.chain_depth = 4;
  util::Result<Design> r = make_synthetic_design_checked(spec);
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  return std::move(r).value();
}

void push(std::vector<std::uint64_t>& out, double v) {
  out.push_back(std::bit_cast<std::uint64_t>(v));
}

void push(std::vector<std::uint64_t>& out, const eed::NodeModel& m) {
  push(out, m.sum_rc);
  push(out, m.sum_lc);
  push(out, m.zeta);
  push(out, m.omega_n);
}

std::vector<std::uint64_t> bits_of(const CorpusModels& corpus) {
  std::vector<std::uint64_t> out;
  for (const NetModels& net : corpus.nets) {
    out.push_back(net.faulted ? 1 : 0);
    for (const eed::NodeModel& m : net.taps) push(out, m);
  }
  return out;
}

std::vector<std::uint64_t> bits_of(const TimingResult& r) {
  std::vector<std::uint64_t> out;
  for (const NetTiming& nt : r.nets) {
    out.push_back(nt.faulted ? 1 : 0);
    push(out, nt.driver.arrival);
    push(out, nt.driver.slew);
    push(out, nt.driver.required);
    for (const PointTiming& t : nt.taps) {
      push(out, t.arrival);
      push(out, t.slew);
      push(out, t.required);
    }
    for (const double w : nt.wire_delay) push(out, w);
  }
  push(out, r.summary.wns);
  push(out, r.summary.tns);
  for (const EndpointSlack& e : endpoints_by_slack(r)) push(out, e.slack);
  return out;
}

CorpusModels run_corpus(const Design& d, const AnalyzeOptions& options) {
  util::Result<CorpusModels> r = analyze_corpus_checked(d, options);
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  return std::move(r).value();
}

TimingResult run_timing(const Design& d, const AnalyzeOptions& options) {
  util::Result<TimingResult> r =
      TimingGraph::build_checked(d).value().analyze_checked(options);
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  return std::move(r).value();
}

TEST(Determinism, CorpusBitwiseAcrossThreads) {
  const Design d = synthetic_design();
  AnalyzeOptions base;
  base.threads = 1;
  const std::vector<std::uint64_t> reference = bits_of(run_corpus(d, base));
  ASSERT_FALSE(reference.empty());
  AnalyzeOptions o;
  o.threads = 4;
  EXPECT_EQ(bits_of(run_corpus(d, o)), reference);
}

TEST(Determinism, CorpusTapModelsEqualScalarAnalyze) {
  const Design d = synthetic_design();
  for (const unsigned threads : {1u, 4u}) {
    AnalyzeOptions o;
    o.threads = threads;
    const CorpusModels corpus = run_corpus(d, o);
    ASSERT_EQ(corpus.nets.size(), d.nets.size());
    EXPECT_EQ(corpus.batched_nets, 0u);
    for (std::size_t ni = 0; ni < d.nets.size(); ++ni) {
      const Net& net = d.nets[ni];
      const NetModels& got = corpus.nets[ni];
      ASSERT_TRUE(got.analyzed && !got.faulted) << net.name;
      const eed::TreeModel want = eed::analyze(net.flat);
      ASSERT_EQ(got.taps.size(), net.taps.size()) << net.name;
      for (std::size_t t = 0; t < net.taps.size(); ++t) {
        std::vector<std::uint64_t> got_bits;
        std::vector<std::uint64_t> want_bits;
        push(got_bits, got.taps[t]);
        push(want_bits, want.at(net.taps[t].node));
        EXPECT_EQ(got_bits, want_bits) << "threads=" << threads << " net " << net.name
                                       << " tap " << t;
      }
    }
  }
}

TEST(Determinism, TimingResultBitwiseAcrossExecutionKnobs) {
  const Design d = synthetic_design();
  AnalyzeOptions base;
  base.threads = 1;
  const TimingResult ref = run_timing(d, base);
  const std::vector<std::uint64_t> reference = bits_of(ref);
  EXPECT_EQ(ref.summary.untimed_endpoints, 0u);
  EXPECT_EQ(ref.summary.faulted_nets, 0u);
  for (const unsigned threads : {1u, 4u}) {
    AnalyzeOptions o;
    o.threads = threads;
    EXPECT_EQ(bits_of(run_timing(d, o)), reference) << "threads=" << threads;
  }
}

TEST(Determinism, EnvThreadOverrideDoesNotChangeResults) {
  const Design d = synthetic_design();
  AnalyzeOptions base;
  base.threads = 2;
  const std::vector<std::uint64_t> reference = bits_of(run_timing(d, base));

  ASSERT_EQ(setenv("RELMORE_THREADS", "4", 1), 0);
  AnalyzeOptions from_env;  // threads = 0: engine reads RELMORE_THREADS
  const std::vector<std::uint64_t> via_env = bits_of(run_timing(d, from_env));
  unsetenv("RELMORE_THREADS");
  EXPECT_EQ(via_env, reference);
}

}  // namespace
}  // namespace relmore::sta
