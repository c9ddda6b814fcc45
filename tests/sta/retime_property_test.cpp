// Property: for ANY (design, edit-sequence) draw, the incrementally
// re-timed result is bitwise-equal to a from-scratch analysis of the
// edited design — WNS/TNS, every PointTiming, every wire delay, every
// endpoint row — and stays so across thread counts.
// 100+ random draws, several commits each, all four edit-op kinds.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "relmore/timer.hpp"

namespace relmore {
namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// SplitMix64: deterministic across platforms, no banned Date/random.
struct Rng {
  std::uint64_t state;
  std::uint64_t next() {
    state += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  std::size_t below(std::size_t n) { return static_cast<std::size_t>(next() % n); }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

void expect_bitwise_equal(const sta::TimingResult& got, const sta::TimingResult& want,
                          std::uint64_t draw) {
  ASSERT_EQ(got.nets.size(), want.nets.size());
  EXPECT_EQ(bits(got.summary.wns), bits(want.summary.wns)) << "draw " << draw;
  EXPECT_EQ(bits(got.summary.tns), bits(want.summary.tns)) << "draw " << draw;
  EXPECT_EQ(got.summary.faulted_nets, want.summary.faulted_nets) << "draw " << draw;
  const auto same_point = [](const sta::PointTiming& a, const sta::PointTiming& b) {
    return a.timed == b.timed && a.constrained == b.constrained &&
           bits(a.arrival) == bits(b.arrival) && bits(a.slew) == bits(b.slew) &&
           bits(a.required) == bits(b.required);
  };
  for (std::size_t ni = 0; ni < want.nets.size(); ++ni) {
    const sta::NetTiming& g = got.nets[ni];
    const sta::NetTiming& w = want.nets[ni];
    ASSERT_EQ(g.taps.size(), w.taps.size());
    ASSERT_TRUE(same_point(g.driver, w.driver)) << "draw " << draw << " net " << ni;
    ASSERT_EQ(g.faulted, w.faulted) << "draw " << draw << " net " << ni;
    for (std::size_t t = 0; t < w.taps.size(); ++t) {
      ASSERT_TRUE(same_point(g.taps[t], w.taps[t]))
          << "draw " << draw << " net " << ni << " tap " << t;
      ASSERT_EQ(bits(g.wire_delay[t]), bits(w.wire_delay[t]))
          << "draw " << draw << " net " << ni << " tap " << t;
    }
  }
  ASSERT_EQ(got.winning_input, want.winning_input) << "draw " << draw;
  const std::vector<sta::EndpointSlack> got_rows = sta::endpoints_by_slack(got);
  const std::vector<sta::EndpointSlack> want_rows = sta::endpoints_by_slack(want);
  ASSERT_EQ(got_rows.size(), want_rows.size());
  for (std::size_t i = 0; i < want_rows.size(); ++i) {
    ASSERT_EQ(got_rows[i].port, want_rows[i].port) << "draw " << draw;
    ASSERT_EQ(bits(got_rows[i].slack), bits(want_rows[i].slack)) << "draw " << draw;
  }
}

/// One random edit recorded on `edit`; every op kind reachable.
void record_random_op(Rng& rng, const sta::Design& design, Timer::Edit& edit) {
  switch (rng.below(6)) {
    case 0:
    case 1:
    case 2: {  // wire value edit (the common what-if), weighted up
      const sta::Net& net = design.nets[rng.below(design.nets.size())];
      const std::string& section = net.flat.names()[rng.below(net.flat.size())];
      circuit::SectionValues wire;
      wire.resistance = 10.0 + 120.0 * rng.unit();
      wire.inductance = rng.below(2) == 0 ? 0.0 : 1e-12 * rng.unit();
      wire.capacitance = 4e-15 + 50e-15 * rng.unit();
      ASSERT_TRUE(edit.set_net_section_values(net.name, section, wire).is_ok());
      break;
    }
    case 3: {  // cell swap
      if (design.instances.empty()) return;
      const sta::Instance& inst = design.instances[rng.below(design.instances.size())];
      // Swap between the two buffer strengths; nand2 instances keep a
      // 2-input-compatible arc either way (the subset shares one arc).
      const char* cell = rng.below(2) == 0 ? "buf_x1" : "buf_x4";
      ASSERT_TRUE(edit.set_cell(inst.name, cell).is_ok());
      break;
    }
    case 4: {  // endpoint constraint
      std::vector<int> outputs;
      for (std::size_t p = 0; p < design.ports.size(); ++p) {
        if (!design.ports[p].is_input) outputs.push_back(static_cast<int>(p));
      }
      if (outputs.empty()) return;
      const sta::DesignPort& port =
          design.ports[static_cast<std::size_t>(outputs[rng.below(outputs.size())])];
      ASSERT_TRUE(edit.set_port_required(port.name, (0.5 + 2.0 * rng.unit()) * 1e-9).is_ok());
      break;
    }
    default:  // clock retarget
      ASSERT_TRUE(edit.set_clock_period((1.0 + 2.0 * rng.unit()) * 1e-9).is_ok());
      break;
  }
}

TEST(RetimeProperty, RandomEditSequencesMatchFullAnalysisBitwise) {
  constexpr std::uint64_t kDraws = 100;
  constexpr std::size_t kCommitsPerDraw = 3;
  for (std::uint64_t draw = 0; draw < kDraws; ++draw) {
    Rng rng{0xC0FFEE ^ (draw * 0x9E3779B97F4A7C15ULL)};
    sta::SyntheticSpec spec;
    spec.nets = 16 + 4 * rng.below(12);
    spec.seed = draw + 1;
    spec.topo_classes = 2 + rng.below(4);
    spec.chain_depth = 2 + rng.below(4);
    util::Result<sta::Design> design = sta::make_synthetic_design_checked(spec);
    ASSERT_TRUE(design.is_ok()) << design.status().to_string();

    Timer timer;
    ASSERT_TRUE(timer.load(std::move(design).value()).is_ok());
    // The thread count rotates per draw; it may not move a bit.
    sta::AnalyzeOptions options;
    options.threads = 1u + static_cast<unsigned>(rng.below(4));
    ASSERT_TRUE(timer.analyze(options).is_ok());

    for (std::size_t commit = 0; commit < kCommitsPerDraw; ++commit) {
      Timer::Edit edit = timer.edit();
      const std::size_t ops = 1 + rng.below(5);
      for (std::size_t op = 0; op < ops; ++op) record_random_op(rng, *timer.design(), edit);
      util::Result<Timer::EditOutcome> outcome = edit.commit();
      ASSERT_TRUE(outcome.is_ok()) << outcome.status().to_string() << " draw " << draw;
      ASSERT_TRUE(outcome.value().incremental) << "draw " << draw << " commit " << commit;
      ASSERT_NE(timer.result(), nullptr);

      // Oracle: an uncached from-scratch analysis of the edited design.
      util::Result<sta::TimingGraph> graph = sta::TimingGraph::build_checked(*timer.design());
      ASSERT_TRUE(graph.is_ok());
      util::Result<sta::TimingResult> fresh = graph.value().analyze_checked();
      ASSERT_TRUE(fresh.is_ok()) << fresh.status().to_string();
      expect_bitwise_equal(*timer.result(), fresh.value(), draw);

      // Spot-check knob independence: a differently-threaded fresh run
      // lands on the same bits (every 8th draw to keep the soak quick).
      if (draw % 8 == 0) {
        sta::AnalyzeOptions wide;
        wide.threads = 4;
        util::Result<sta::TimingResult> alt = graph.value().analyze_checked(wide);
        ASSERT_TRUE(alt.is_ok());
        expect_bitwise_equal(alt.value(), fresh.value(), draw);
      }
    }
  }
}

}  // namespace
}  // namespace relmore
