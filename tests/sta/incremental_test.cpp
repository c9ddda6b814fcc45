// Incremental re-timing: Timer::edit() transactions, the per-net corpus
// cache, and TimingGraph::update_checked — the dirty-cone machinery must
// be bitwise-invisible (same result bits as a from-scratch analyze of the
// edited design) and the cache counters must surface its work.

#include <gtest/gtest.h>
#include <malloc.h>

#include <bit>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "relmore/timer.hpp"

namespace relmore {
namespace {

using util::ErrorCode;

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

sta::Design synthetic(std::size_t nets, std::uint64_t seed) {
  sta::SyntheticSpec spec;
  spec.nets = nets;
  spec.seed = seed;
  spec.topo_classes = 4;
  spec.chain_depth = 4;
  util::Result<sta::Design> design = sta::make_synthetic_design_checked(spec);
  EXPECT_TRUE(design.is_ok()) << design.status().to_string();
  return std::move(design).value();
}

// Fresh full analysis of `design`, no cache: the oracle every edit
// sequence must match bitwise.
sta::TimingResult oracle(const sta::Design& design) {
  util::Result<sta::TimingGraph> graph = sta::TimingGraph::build_checked(design);
  EXPECT_TRUE(graph.is_ok());
  util::Result<sta::TimingResult> result = graph.value().analyze_checked();
  EXPECT_TRUE(result.is_ok()) << result.status().to_string();
  return std::move(result).value();
}

void expect_bitwise_equal(const sta::TimingResult& got, const sta::TimingResult& want) {
  EXPECT_EQ(bits(got.summary.wns), bits(want.summary.wns));
  EXPECT_EQ(bits(got.summary.tns), bits(want.summary.tns));
  ASSERT_EQ(got.nets.size(), want.nets.size());
  for (std::size_t ni = 0; ni < want.nets.size(); ++ni) {
    const sta::NetTiming& g = got.nets[ni];
    const sta::NetTiming& w = want.nets[ni];
    EXPECT_EQ(g.faulted, w.faulted) << "net " << ni;
    ASSERT_EQ(g.taps.size(), w.taps.size()) << "net " << ni;
    const auto same_point = [&](const sta::PointTiming& a, const sta::PointTiming& b) {
      return a.timed == b.timed && a.constrained == b.constrained &&
             bits(a.arrival) == bits(b.arrival) && bits(a.slew) == bits(b.slew) &&
             bits(a.required) == bits(b.required);
    };
    EXPECT_TRUE(same_point(g.driver, w.driver)) << "net " << ni << " driver";
    for (std::size_t t = 0; t < w.taps.size(); ++t) {
      EXPECT_TRUE(same_point(g.taps[t], w.taps[t])) << "net " << ni << " tap " << t;
      EXPECT_EQ(bits(g.wire_delay[t]), bits(w.wire_delay[t])) << "net " << ni << " tap " << t;
    }
  }
  EXPECT_EQ(got.winning_input, want.winning_input);
  const std::vector<sta::EndpointSlack> got_rows = sta::endpoints_by_slack(got);
  const std::vector<sta::EndpointSlack> want_rows = sta::endpoints_by_slack(want);
  ASSERT_EQ(got_rows.size(), want_rows.size());
  for (std::size_t i = 0; i < want_rows.size(); ++i) {
    const sta::EndpointSlack& g = got_rows[i];
    const sta::EndpointSlack& w = want_rows[i];
    EXPECT_EQ(g.port, w.port);
    EXPECT_EQ(bits(g.slack), bits(w.slack));
    EXPECT_EQ(g.timed, w.timed);
    EXPECT_EQ(g.constrained, w.constrained);
  }
}

TEST(CorpusCache, SecondAnalyzeIsAllHitsAndBitwiseEqual) {
  Timer timer;
  ASSERT_TRUE(timer.load(synthetic(40, 3)).is_ok());

  util::Result<sta::TimingSummary> first = timer.analyze();
  ASSERT_TRUE(first.is_ok());
  EXPECT_EQ(first.value().cache_hits, 0u);
  EXPECT_EQ(first.value().cache_misses, 40u);

  util::Result<sta::TimingSummary> second = timer.analyze();
  ASSERT_TRUE(second.is_ok());
  EXPECT_EQ(second.value().cache_hits, 40u);
  EXPECT_EQ(second.value().cache_misses, 0u);
  // A cache-served run is the same run, bit for bit.
  EXPECT_EQ(bits(first.value().wns), bits(second.value().wns));
  EXPECT_EQ(bits(first.value().tns), bits(second.value().tns));
  EXPECT_EQ(timer.cache().counters().hits, 40u);
  EXPECT_EQ(timer.cache().counters().stores, 40u);

  // The counters also surface through the run's diagnostics.
  bool saw_cache_line = false;
  for (const util::Diagnostic& d : timer.result()->diagnostics.entries()) {
    if (d.message.find("corpus cache:") != std::string::npos) saw_cache_line = true;
  }
  EXPECT_TRUE(saw_cache_line);
}

TEST(TimerEdit, WireEditRetimesInPlaceBitwiseEqual) {
  Timer timer;
  ASSERT_TRUE(timer.load(synthetic(32, 7)).is_ok());
  ASSERT_TRUE(timer.analyze().is_ok());

  Timer::Edit edit = timer.edit();
  ASSERT_TRUE(edit.set_net_section_values("n0_1", "s2", {55.0, 0.0, 30e-15}).is_ok());
  ASSERT_TRUE(edit.set_net_section_values("n1_2", "s0", {80.0, 0.5e-12, 12e-15}).is_ok());
  EXPECT_EQ(edit.pending(), 2u);

  util::Result<Timer::EditOutcome> outcome = edit.commit();
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  EXPECT_TRUE(outcome.value().incremental);
  EXPECT_GT(outcome.value().stats.forward_retimed, 0u);
  ASSERT_NE(timer.result(), nullptr);
  expect_bitwise_equal(*timer.result(), oracle(*timer.design()));
}

TEST(TimerEdit, CellSwapPortRequiredAndClockRetimeBitwiseEqual) {
  Timer timer;
  ASSERT_TRUE(timer.load(synthetic(32, 11)).is_ok());
  ASSERT_TRUE(timer.analyze().is_ok());

  Timer::Edit edit = timer.edit();
  ASSERT_TRUE(edit.set_cell("u0_1", "buf_x4").is_ok());
  ASSERT_TRUE(edit.set_port_required("out0", 1.1e-9).is_ok());
  ASSERT_TRUE(edit.set_clock_period(1.7e-9).is_ok());
  util::Result<Timer::EditOutcome> outcome = edit.commit();
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  EXPECT_TRUE(outcome.value().incremental);
  ASSERT_NE(timer.result(), nullptr);
  expect_bitwise_equal(*timer.result(), oracle(*timer.design()));

  const sta::Design& design = *timer.design();
  EXPECT_EQ(design.clock_period, 1.7e-9);
  const int pi = design.find_port("out0");
  ASSERT_GE(pi, 0);
  EXPECT_TRUE(design.ports[static_cast<std::size_t>(pi)].has_required);
}

TEST(TimerEdit, IdenticalValuesCutOffAtTheFrontier) {
  Timer timer;
  ASSERT_TRUE(timer.load(synthetic(24, 5)).is_ok());
  ASSERT_TRUE(timer.analyze().is_ok());

  // Re-write a section with its existing raw wire values: the recomputed
  // forward half is bitwise-identical, so propagation stops at the net.
  const sta::Design& design = *timer.design();
  const int ni = design.find_net("n0_0");
  ASSERT_GE(ni, 0);
  const sta::Net& net = design.nets[static_cast<std::size_t>(ni)];
  const circuit::SectionId sid = net.flat.find_by_name("s1");
  ASSERT_GE(sid, 0);
  const auto i = static_cast<std::size_t>(sid);
  circuit::SectionValues wire{net.flat.resistance()[i], net.flat.inductance()[i],
                              net.flat.capacitance()[i]};
  // The snapshot holds the FOLDED capacitance; undo the pin-cap fold so
  // the edit's re-fold lands on the same bits.
  for (const sta::Net::Tap& tap : net.taps) {
    if (tap.node == sid && !tap.is_port) {
      const sta::Instance& inst = design.instances[static_cast<std::size_t>(tap.index)];
      wire.capacitance -= design.library.cell(static_cast<std::size_t>(inst.cell)).input_cap;
    }
  }

  Timer::Edit edit = timer.edit();
  ASSERT_TRUE(edit.set_net_section_values("n0_0", "s1", wire).is_ok());
  util::Result<Timer::EditOutcome> outcome = edit.commit();
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
  EXPECT_TRUE(outcome.value().incremental);
  EXPECT_EQ(outcome.value().stats.forward_retimed, 0u);
  EXPECT_GE(outcome.value().stats.frontier_cutoffs, 1u);
  expect_bitwise_equal(*timer.result(), oracle(*timer.design()));
}

TEST(TimerEdit, CommitWithoutPriorAnalysisIsNotIncremental) {
  Timer timer;
  ASSERT_TRUE(timer.load(synthetic(16, 2)).is_ok());
  Timer::Edit edit = timer.edit();
  ASSERT_TRUE(edit.set_net_section_values("n0_0", "s0", {42.0, 0.0, 10e-15}).is_ok());
  util::Result<Timer::EditOutcome> outcome = edit.commit();
  ASSERT_TRUE(outcome.is_ok());
  EXPECT_FALSE(outcome.value().incremental);
  EXPECT_EQ(timer.result(), nullptr);
  // The commit restamped the edited net, so the follow-up full analyze
  // serves it (and everything else untouched-but-never-analyzed misses).
  util::Result<sta::TimingSummary> summary = timer.analyze();
  ASSERT_TRUE(summary.is_ok());
  EXPECT_EQ(summary.value().cache_hits, 1u);
}

TEST(TimerEdit, OpsValidateAtRecordTime) {
  Timer timer;
  ASSERT_TRUE(timer.load(synthetic(16, 2)).is_ok());
  Timer::Edit edit = timer.edit();
  EXPECT_EQ(edit.set_net_section_values("nope", "s0", {}).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(edit.set_net_section_values("n0_0", "nope", {}).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(edit.set_net_section_values("n0_0", "s0", {-1.0, 0.0, 0.0}).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(edit.set_cell("nope", "buf_x1").code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(edit.set_cell("u0_0", "nope").code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(edit.set_port_required("nope", 1e-9).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(edit.set_port_required("in0", 1e-9).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(edit.set_clock_period(-1.0).code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(edit.pending(), 0u);  // nothing recorded by rejected ops

  // A rejected op sequence commits cleanly as a no-op transaction.
  util::Result<Timer::EditOutcome> outcome = edit.commit();
  ASSERT_TRUE(outcome.is_ok());

  // The handle is consumed: further ops and commits fail.
  EXPECT_EQ(edit.set_clock_period(1e-9).code(), ErrorCode::kTransactionState);
  EXPECT_EQ(edit.commit().status().code(), ErrorCode::kTransactionState);
}

TEST(TimerEdit, StaleHandleFailsAfterReload) {
  Timer timer;
  ASSERT_TRUE(timer.load(synthetic(16, 2)).is_ok());
  Timer::Edit edit = timer.edit();
  ASSERT_TRUE(edit.set_clock_period(1e-9).is_ok());
  ASSERT_TRUE(timer.load(synthetic(16, 3)).is_ok());  // swaps the design
  EXPECT_EQ(edit.commit().status().code(), ErrorCode::kInvalidArgument);
}

TEST(TimerEdit, AbandonedHandleAppliesNothing) {
  Timer timer;
  ASSERT_TRUE(timer.load(synthetic(16, 4)).is_ok());
  ASSERT_TRUE(timer.analyze().is_ok());
  const sta::TimingResult before = *timer.result();
  const std::uint64_t epoch = timer.design()->epoch;
  {
    Timer::Edit edit = timer.edit();
    ASSERT_TRUE(edit.set_net_section_values("n0_0", "s0", {99.0, 0.0, 40e-15}).is_ok());
    // no commit
  }
  EXPECT_EQ(timer.design()->epoch, epoch);
  expect_bitwise_equal(*timer.result(), before);
}

/// Heap bytes the allocator reports in use (0 when it reports nothing,
/// as under the sanitizers' allocators).
std::size_t heap_in_use() {
  const struct mallinfo2 mi = mallinfo2();
  return mi.uordblks + mi.hblkhd;
}

TEST(TimerEdit, HeapDoesNotGrowWithDistinctEditedNets) {
  {
    const std::size_t before = heap_in_use();
    const std::vector<char> probe(1u << 20, 1);
    if (heap_in_use() < before + probe.size()) {
      GTEST_SKIP() << "allocator reports no heap growth";
    }
  }
  Timer timer;
  ASSERT_TRUE(timer.load(synthetic(2000, 1)).is_ok());
  ASSERT_TRUE(timer.analyze().is_ok());
  const sta::Design& design = *timer.design();

  // One wire edit per net, each committed alone: a commit's working state
  // dies with it, so no per-net state accumulates. Keeping one
  // engine::TimingEngine per edited net grew this loop by ~4 MB.
  std::size_t after_first = 0;
  for (std::size_t ni = 0; ni < design.nets.size(); ++ni) {
    Timer::Edit edit = timer.edit();
    const circuit::SectionValues wire{40.0 + static_cast<double>(ni % 7), 0.0, 12e-15};
    ASSERT_TRUE(edit.set_net_section_values(design.nets[ni].name, "s0", wire).is_ok());
    const util::Result<Timer::EditOutcome> outcome = edit.commit();
    ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string();
    ASSERT_TRUE(outcome.value().incremental) << "net " << ni;
    if (ni == 0) after_first = heap_in_use();
  }
  const std::size_t after_last = heap_in_use();
  EXPECT_LE(after_last, after_first + (64u << 10))
      << "heap grew by " << (after_last - after_first) << " B over " << design.nets.size()
      << " distinct edited nets";
}

TEST(UpdateChecked, CacheMissFailsWithInvalidArgument) {
  sta::Design design = synthetic(16, 6);
  util::Result<sta::TimingGraph> graph = sta::TimingGraph::build_checked(design);
  ASSERT_TRUE(graph.is_ok());
  util::Result<sta::TimingResult> result = graph.value().analyze_checked();
  ASSERT_TRUE(result.is_ok());

  sta::CorpusCache empty;  // covers nothing
  sta::UpdateSeeds seeds;
  seeds.forward_nets.push_back(0);
  sta::TimingResult updated = result.value();
  util::Result<sta::UpdateStats> stats = graph.value().update_checked(updated, empty, seeds);
  EXPECT_EQ(stats.status().code(), ErrorCode::kInvalidArgument);
}

TEST(UpdateChecked, SeedOutOfRangeIsRejected) {
  sta::Design design = synthetic(16, 6);
  util::Result<sta::TimingGraph> graph = sta::TimingGraph::build_checked(design);
  ASSERT_TRUE(graph.is_ok());
  sta::AnalyzeOptions options;
  sta::CorpusCache cache;
  options.cache = &cache;
  util::Result<sta::TimingResult> result = graph.value().analyze_checked(options);
  ASSERT_TRUE(result.is_ok());

  sta::TimingResult updated = result.value();
  sta::UpdateSeeds seeds;
  seeds.forward_nets.push_back(999);
  EXPECT_EQ(graph.value().update_checked(updated, cache, seeds).status().code(),
            ErrorCode::kInvalidArgument);
  seeds.forward_nets.assign(1, 0);
  seeds.backward_nets.push_back(-3);
  EXPECT_EQ(graph.value().update_checked(updated, cache, seeds).status().code(),
            ErrorCode::kInvalidArgument);
}

/// Three nets and two buffers: a chain (one tap per net), or a fanout
/// in which n0 feeds both buffers (taps 2, 1, 1).
sta::Design three_nets(bool fanout) {
  std::string text =
      "net n0\nsection s0 - R=100 L=0 C=10f\nend\n"
      "net n1\nsection s0 - R=120 L=0 C=12f\nend\n"
      "net n2\nsection s0 - R=140 L=0 C=14f\nend\n"
      "input a n0 at=0 slew=0\n"
      "inst u0 buf_x1 n1 n0:s0\n";
  text += fanout ? "inst u1 buf_x1 n2 n0:s0\noutput o1 n1:s0 required=1n\n"
                 : "inst u1 buf_x1 n2 n1:s0\n";
  text += "output o n2:s0 required=1n\n";
  std::istringstream is(text);
  util::Result<sta::Design> design = sta::read_design_checked(is);
  EXPECT_TRUE(design.is_ok()) << design.status().to_string();
  return std::move(design).value();
}

TEST(UpdateChecked, StaleShapeIsRejected) {
  // A result of another design with the same net and instance counts.
  {
    const sta::Design chain = three_nets(false);
    const sta::Design fanout = three_nets(true);
    ASSERT_EQ(chain.nets.size(), fanout.nets.size());
    ASSERT_EQ(chain.instances.size(), fanout.instances.size());
    util::Result<sta::TimingGraph> chain_graph = sta::TimingGraph::build_checked(chain);
    util::Result<sta::TimingGraph> fanout_graph = sta::TimingGraph::build_checked(fanout);
    ASSERT_TRUE(chain_graph.is_ok() && fanout_graph.is_ok());
    sta::AnalyzeOptions options;
    sta::CorpusCache cache;
    options.cache = &cache;
    ASSERT_TRUE(fanout_graph.value().analyze_checked(options).is_ok());  // cache covers fanout
    util::Result<sta::TimingResult> result = chain_graph.value().analyze_checked();
    ASSERT_TRUE(result.is_ok());
    sta::TimingResult stale = result.value();
    sta::UpdateSeeds seeds;
    seeds.forward_nets.push_back(0);
    util::Result<sta::UpdateStats> stats =
        fanout_graph.value().update_checked(stale, cache, seeds, options);
    EXPECT_EQ(stats.status().code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(stats.status().message().find("stale"), std::string::npos);
    expect_bitwise_equal(stale, result.value());
  }
  // A result of this design before one net's taps were resized.
  {
    sta::Design design = synthetic(16, 6);
    sta::AnalyzeOptions options;
    sta::CorpusCache cache;
    options.cache = &cache;
    util::Result<sta::TimingResult> result =
        sta::TimingGraph::build_checked(design).value().analyze_checked(options);
    ASSERT_TRUE(result.is_ok());
    sta::Net& net = design.nets[5];
    net.taps.push_back(net.taps.front());
    util::Result<sta::TimingGraph> graph = sta::TimingGraph::build_checked(design);
    ASSERT_TRUE(graph.is_ok());
    sta::TimingResult stale = result.value();
    sta::UpdateSeeds seeds;
    seeds.forward_nets.push_back(5);
    util::Result<sta::UpdateStats> stats =
        graph.value().update_checked(stale, cache, seeds, options);
    EXPECT_EQ(stats.status().code(), ErrorCode::kInvalidArgument);
    EXPECT_NE(stats.status().message().find("stale"), std::string::npos);
    expect_bitwise_equal(stale, result.value());
  }
}

TEST(UpdateChecked, EmptySeedsAreANoOp) {
  sta::Design design = synthetic(16, 9);
  util::Result<sta::TimingGraph> graph = sta::TimingGraph::build_checked(design);
  ASSERT_TRUE(graph.is_ok());
  sta::AnalyzeOptions options;
  sta::CorpusCache cache;
  options.cache = &cache;
  util::Result<sta::TimingResult> result = graph.value().analyze_checked(options);
  ASSERT_TRUE(result.is_ok());

  sta::TimingResult updated = result.value();
  util::Result<sta::UpdateStats> stats = graph.value().update_checked(updated, cache, {});
  ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
  EXPECT_TRUE(stats.value().stop_status.is_ok());
  EXPECT_EQ(stats.value().forward_retimed, 0u);
  EXPECT_EQ(stats.value().backward_retimed, 0u);
  expect_bitwise_equal(updated, result.value());
}

}  // namespace
}  // namespace relmore
