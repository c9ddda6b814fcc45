#include "relmore/sta/timing_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "relmore/sta/design.hpp"
#include "relmore/timer.hpp"
#include "relmore/util/diagnostics.hpp"

namespace relmore::sta {
namespace {

using util::ErrorCode;

/// Every cell has slewgain=0 slewfactor=0, so each wire is driven by an
/// ideal step and both halves of every stage are closed forms we can
/// hand-compute:
///   wire (pure RC, step): delay = ln2 * SR(tap), slew out = ln9 * SR(tap)
///   gate (bilinear table): delay = intrinsic + drive_r * load (exact)
///
/// SR at the taps (pin caps folded): n0@s1: 1k*(10f+20f) + 1k*20f = 50 ps;
/// n1@s0: 500*(20f+10f) = 15 ps; n2@s0: 400*25f = 10 ps.
/// Gate delays: u0 = 1p + 1k*30f = 31 ps; u1 = 5p + 2k*25f = 55 ps.
/// Endpoint arrival = 86 ps + ln2 * 75 ps ~= 137.99 ps; required 200 ps.
constexpr const char* kGolden = R"(design golden
cell g1 r=1k cap=10f intrinsic=1p slewgain=0 slewfactor=0
cell g2 r=2k cap=10f intrinsic=5p slewgain=0 slewfactor=0
net n0
section s0 - R=1k L=0 C=10f
section s1 s0 R=1k L=0 C=10f
end
net n1
section s0 - R=500 L=0 C=20f
end
net n2
section s0 - R=400 L=0 C=25f
end
input clk n0 at=0 slew=0
output out n2:s0 required=200p
inst u0 g1 n1 n0:s1
inst u1 g2 n2 n1:s0
clock 1n
)";

constexpr double kTol = 1e-18;  // attosecond; everything above is closed-form

Design parse(const std::string& text) {
  std::istringstream is(text);
  return std::move(read_design_checked(is)).value();
}

TimingResult analyze(const Design& d, const AnalyzeOptions& options = {}) {
  util::Result<TimingGraph> g = TimingGraph::build_checked(d);
  EXPECT_TRUE(g.is_ok()) << g.status().to_string();
  util::Result<TimingResult> r = g.value().analyze_checked(options);
  EXPECT_TRUE(r.is_ok()) << r.status().to_string();
  return std::move(r).value();
}

TEST(TimingGraph, GoldenThreeStageArrivalsAndSlews) {
  const Design d = parse(kGolden);
  const TimingResult res = analyze(d);
  const double ln2 = std::log(2.0);
  const double ln9 = std::log(9.0);
  const auto n0 = static_cast<std::size_t>(d.find_net("n0"));
  const auto n1 = static_cast<std::size_t>(d.find_net("n1"));
  const auto n2 = static_cast<std::size_t>(d.find_net("n2"));

  // Stage 1: step launch at clk, wire to u0's pin.
  EXPECT_TRUE(res.nets[n0].driver.timed);
  EXPECT_NEAR(res.nets[n0].driver.arrival, 0.0, kTol);
  EXPECT_NEAR(res.nets[n0].wire_delay[0], ln2 * 50e-12, kTol);
  EXPECT_NEAR(res.nets[n0].taps[0].arrival, ln2 * 50e-12, kTol);
  EXPECT_NEAR(res.nets[n0].taps[0].slew, ln9 * 50e-12, kTol);

  // Stage 2: u0 (31 ps, output slew 0), wire n1.
  EXPECT_NEAR(res.nets[n1].driver.arrival, ln2 * 50e-12 + 31e-12, kTol);
  EXPECT_NEAR(res.nets[n1].driver.slew, 0.0, kTol);
  EXPECT_NEAR(res.nets[n1].wire_delay[0], ln2 * 15e-12, kTol);

  // Stage 3: u1 (55 ps), wire n2 to the endpoint.
  EXPECT_NEAR(res.nets[n2].driver.arrival, 86e-12 + ln2 * 65e-12, kTol);
  EXPECT_NEAR(res.nets[n2].wire_delay[0], ln2 * 10e-12, kTol);
  const double endpoint_arrival = 86e-12 + ln2 * 75e-12;
  EXPECT_NEAR(res.nets[n2].taps[0].arrival, endpoint_arrival, kTol);

  // Required times back-propagate through the same stage delays.
  EXPECT_NEAR(res.nets[n2].taps[0].required, 200e-12, kTol);
  EXPECT_NEAR(res.nets[n2].driver.required, 200e-12 - ln2 * 10e-12, kTol);
  EXPECT_NEAR(res.nets[n1].taps[0].required, 200e-12 - ln2 * 10e-12 - 55e-12, kTol);
  EXPECT_TRUE(res.nets[n0].driver.constrained);

  // Summary.
  const TimingSummary& s = res.summary;
  EXPECT_EQ(s.endpoints, 1u);
  EXPECT_EQ(s.constrained_endpoints, 1u);
  EXPECT_EQ(s.untimed_endpoints, 0u);
  EXPECT_EQ(s.faulted_nets, 0u);
  ASSERT_EQ(res.endpoints.size(), 1u);
  const EndpointSlack& row = res.endpoints[0];
  EXPECT_EQ(d.ports[static_cast<std::size_t>(row.port)].name, "out");
  EXPECT_TRUE(row.timed);
  EXPECT_TRUE(row.constrained);
  EXPECT_NEAR(row.arrival, endpoint_arrival, kTol);
  EXPECT_NEAR(row.slack, 200e-12 - endpoint_arrival, kTol);
  EXPECT_NEAR(s.wns, row.slack, kTol);  // met design: WNS = min (positive) slack
  EXPECT_NEAR(s.tns, 0.0, kTol);
}

TEST(TimingGraph, EndpointSlackQueries) {
  const Design d = parse(kGolden);
  const TimingResult res = analyze(d);
  util::Result<double> s = endpoint_slack_checked(d, res, "out");
  ASSERT_TRUE(s.is_ok());
  EXPECT_NEAR(s.value(), 200e-12 - (86e-12 + std::log(2.0) * 75e-12), kTol);
  EXPECT_EQ(endpoint_slack_checked(d, res, "clk").status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(endpoint_slack_checked(d, res, "zz").status().code(), ErrorCode::kInvalidArgument);
}

TEST(TimingGraph, WorstPathBacktracksLaunchToEndpoint) {
  const Design d = parse(kGolden);
  const TimingResult res = analyze(d);
  util::Result<std::vector<PathReport>> r = worst_paths_checked(d, res, 3);
  ASSERT_TRUE(r.is_ok());
  ASSERT_EQ(r.value().size(), 1u);  // only one endpoint exists
  const PathReport& path = r.value()[0];
  EXPECT_EQ(path.endpoint, "out");
  EXPECT_TRUE(path.constrained);
  ASSERT_EQ(path.points.size(), 6u);  // port, wire, gate, wire, gate, wire
  EXPECT_EQ(path.points.front().point, "port clk");
  EXPECT_EQ(path.points[1].point, "net n0 @ s1");
  EXPECT_EQ(path.points[2].point, "u0 (g1)");
  EXPECT_EQ(path.points[4].point, "u1 (g2)");
  EXPECT_EQ(path.points.back().point, "net n2 @ s0");
  // Increments along the path sum to the endpoint arrival (launch at 0).
  double sum = 0.0;
  for (const PathPoint& p : path.points) sum += p.incr;
  EXPECT_NEAR(sum, path.arrival, kTol);
  EXPECT_NEAR(path.points.back().arrival, path.arrival, kTol);

  const std::string text = format_path(path);
  EXPECT_NE(text.find("Path to endpoint 'out'"), std::string::npos);
  EXPECT_NE(text.find("slack"), std::string::npos);
  EXPECT_EQ(text.find("(VIOLATED)"), std::string::npos);  // slack is positive
  EXPECT_FALSE(format_summary(res.summary).empty());
}

TEST(TimingGraph, UnconstrainedEndpointsAreExcludedFromWnsTns) {
  // Same design, no required= and no clock: the endpoint still times but
  // does not constrain anything.
  std::string text = kGolden;
  text.replace(text.find(" required=200p"), 14, "");
  text.replace(text.find("clock 1n\n"), 9, "");
  const Design d = parse(text);
  const TimingResult res = analyze(d);
  EXPECT_EQ(res.summary.endpoints, 1u);
  EXPECT_EQ(res.summary.constrained_endpoints, 0u);
  EXPECT_EQ(res.summary.untimed_endpoints, 0u);
  EXPECT_NEAR(res.summary.wns, 0.0, kTol);
  EXPECT_NEAR(res.summary.tns, 0.0, kTol);
  ASSERT_EQ(res.endpoints.size(), 1u);
  EXPECT_TRUE(res.endpoints[0].timed);
  EXPECT_FALSE(res.endpoints[0].constrained);
  // The slack query still answers: required is +inf.
  util::Result<double> s = endpoint_slack_checked(d, res, "out");
  ASSERT_TRUE(s.is_ok());
  EXPECT_TRUE(std::isinf(s.value()));
}

TEST(TimingGraph, ViolatedEndpointShowsNegativeSlack) {
  std::string text = kGolden;
  text.replace(text.find("required=200p"), 13, "required=100p");
  const Design d = parse(text);
  const TimingResult res = analyze(d);
  const double endpoint_arrival = 86e-12 + std::log(2.0) * 75e-12;  // ~138 ps
  EXPECT_NEAR(res.summary.wns, 100e-12 - endpoint_arrival, kTol);
  EXPECT_NEAR(res.summary.tns, 100e-12 - endpoint_arrival, kTol);
  util::Result<std::vector<PathReport>> r = worst_paths_checked(d, res, 1);
  ASSERT_TRUE(r.is_ok());
  ASSERT_EQ(r.value().size(), 1u);
  EXPECT_NE(format_path(r.value()[0]).find("(VIOLATED)"), std::string::npos);
}

TEST(TimingGraph, FaultedNetPoisonsOnlyItsOwnCone) {
  // Two independent port->net->port paths; nb's moments overflow to inf
  // (R*C ~ 1e330), so ob must come back untimed while oa stays timed.
  const char* text =
      "net na\nsection s0 - R=100 L=0 C=10f\nend\n"
      "net nb\nsection s0 - R=1e300 L=0 C=1e30\nend\n"
      "input a na at=0 slew=0\n"
      "input b nb at=0 slew=0\n"
      "output oa na:s0 required=1n\n"
      "output ob nb:s0 required=1n\n";
  const Design d = parse(text);
  const TimingResult res = analyze(d);  // default kSkipAndFlag
  EXPECT_EQ(res.summary.endpoints, 2u);
  EXPECT_EQ(res.summary.untimed_endpoints, 1u);
  EXPECT_EQ(res.summary.faulted_nets, 1u);
  EXPECT_TRUE(res.nets[static_cast<std::size_t>(d.find_net("nb"))].faulted);
  EXPECT_FALSE(res.nets[static_cast<std::size_t>(d.find_net("na"))].faulted);

  util::Result<double> ok = endpoint_slack_checked(d, res, "oa");
  ASSERT_TRUE(ok.is_ok());
  EXPECT_NEAR(ok.value(), 1e-9 - std::log(2.0) * 1e-12, kTol);  // SR = 100 * 10f = 1 ps
  util::Result<double> bad = endpoint_slack_checked(d, res, "ob");
  ASSERT_FALSE(bad.is_ok());
  EXPECT_EQ(bad.status().code(), ErrorCode::kNonFiniteMoment);
  EXPECT_EQ(bad.status().net(), "nb");

  // Under kThrow the corpus join surfaces the faulted net as a Status
  // (never an exception across workers).
  AnalyzeOptions strict;
  strict.fault_policy = util::FaultPolicy::kThrow;
  util::Result<TimingGraph> g = TimingGraph::build_checked(d);
  ASSERT_TRUE(g.is_ok());
  util::Result<TimingResult> thrown = g.value().analyze_checked(strict);
  ASSERT_FALSE(thrown.is_ok());
  EXPECT_EQ(thrown.status().net(), "nb");
}

/// Error diagnostics naming `net`.
std::size_t errors_naming(const TimingResult& r, const std::string& net) {
  std::size_t n = 0;
  for (const util::Diagnostic& d : r.diagnostics.entries()) {
    if (!d.warning && d.net == net) ++n;
  }
  return n;
}

TEST(TimingGraph, StageSolveFaultIsCountedAndNamed) {
  // The reader rejects a negative slew, but the Design struct is public:
  // a stage solve that throws on it must not vanish silently.
  Design d = parse(kGolden);
  d.ports[static_cast<std::size_t>(d.find_port("clk"))].slew = -5e-12;
  relmore::Timer timer;
  ASSERT_TRUE(timer.load(std::move(d)).is_ok());
  const util::Result<TimingSummary> summary = timer.analyze();
  ASSERT_TRUE(summary.is_ok()) << summary.status().to_string();
  EXPECT_EQ(summary.value().faulted_nets, 1u);
  EXPECT_EQ(summary.value().untimed_endpoints, 1u);
  ASSERT_NE(timer.result(), nullptr);
  EXPECT_EQ(errors_naming(*timer.result(), "n0"), 1u);
}

TEST(TimingGraph, IncrementalUpdateTracksStageSolveFaults) {
  Design d = parse(kGolden);
  const int clk = d.find_port("clk");
  const int n0 = d.find_net("n0");
  CorpusCache cache;
  AnalyzeOptions options;
  options.cache = &cache;
  const util::Result<TimingGraph> g = TimingGraph::build_checked(d);
  ASSERT_TRUE(g.is_ok());
  util::Result<TimingResult> full = g.value().analyze_checked(options);
  ASSERT_TRUE(full.is_ok());
  TimingResult incremental = std::move(full).value();
  UpdateSeeds seeds;
  seeds.forward_nets = {n0};

  // Fault appears, then heals; each update must agree with a full run.
  for (const double slew : {-5e-12, 0.0}) {
    d.ports[static_cast<std::size_t>(clk)].slew = slew;
    const util::Result<UpdateStats> stats =
        g.value().update_checked(incremental, cache, seeds, options);
    ASSERT_TRUE(stats.is_ok()) << stats.status().to_string();
    const TimingResult fresh = analyze(d);
    const std::size_t want = slew < 0.0 ? 1 : 0;
    EXPECT_EQ(fresh.summary.faulted_nets, want) << "slew " << slew;
    EXPECT_EQ(incremental.summary.faulted_nets, want) << "slew " << slew;
    EXPECT_EQ(errors_naming(fresh, "n0"), want) << "slew " << slew;
    EXPECT_EQ(errors_naming(incremental, "n0"), want) << "slew " << slew;
    EXPECT_EQ(incremental.diagnostics.error_count(), fresh.diagnostics.error_count());
    EXPECT_EQ(incremental.summary.untimed_endpoints, fresh.summary.untimed_endpoints);
  }
}

/// SplitMix64, for the seeded random designs below.
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
};

/// `chains` port -> buffer -> ... -> port chains of 1-3 nets. Each net
/// takes one of two value sets, so equal chains tie exactly on slack.
/// About a third of the outputs carry their own required= (one of two
/// values); the rest fall back to the clock, which some draws omit.
std::string random_chains(Rng& rng, std::size_t chains) {
  std::string text = "design topk\n";
  if (rng.below(3) != 0) text += "clock 400p\n";
  std::string tail;
  for (std::size_t c = 0; c < chains; ++c) {
    const std::size_t depth = 1 + rng.below(3);
    const std::string id = std::to_string(c);
    const auto net = [&id](std::size_t s) { return "c" + id + "_" + std::to_string(s); };
    for (std::size_t s = 0; s < depth; ++s) {
      const bool heavy = rng.below(2) == 0;
      text += "net ";
      text += net(s);
      text += heavy ? "\nsection s0 - R=200 L=0 C=20f\nsection s1 s0 R=100 L=1p C=10f\nend\n"
                    : "\nsection s0 - R=50 L=0 C=5f\nsection s1 s0 R=80 L=0 C=8f\nend\n";
      if (s + 1 < depth) {
        tail += "inst u";
        tail += net(s);
        tail += " buf_x1 ";
        tail += net(s + 1);
        tail += ' ';
        tail += net(s);
        tail += ":s1\n";
      }
    }
    tail += "input in";
    tail += id;
    tail += ' ';
    tail += net(0);
    tail += " at=0 slew=20p\noutput out";
    tail += id;
    tail += ' ';
    tail += net(depth - 1);
    tail += ":s1";
    if (rng.below(3) == 0) tail += rng.below(2) == 0 ? " required=150p" : " required=300p";
    tail += '\n';
  }
  return text + tail;
}

/// 0: timed and constrained, 1: timed only, 2: untimed.
int rank(const EndpointSlack& row) { return row.timed && row.constrained ? 0 : row.timed ? 1 : 2; }

TEST(WorstPaths, TopKIsThePrefixOfTheSlackOrder) {
  std::size_t ties = 0;
  std::size_t unconstrained = 0;
  std::size_t untimed = 0;
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    Rng rng{seed};
    const std::size_t chains = 6 + rng.below(20);
    Design d = parse(random_chains(rng, chains));
    // A negative launch slew fails the first stage solve, so that chain's
    // cone is untimed.
    for (DesignPort& port : d.ports) {
      if (port.is_input && rng.below(6) == 0) port.slew = -5e-12;
    }
    const TimingResult res = analyze(d);
    const std::vector<EndpointSlack> rows = endpoints_by_slack(res);
    ASSERT_EQ(rows.size(), chains);

    // The full order: by rank, then ascending slack, then port index.
    std::size_t timed = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      timed += rows[i].timed ? 1 : 0;
      unconstrained += rows[i].timed && !rows[i].constrained ? 1 : 0;
      untimed += rows[i].timed ? 0 : 1;
      if (i == 0) continue;
      const EndpointSlack& a = rows[i - 1];
      const EndpointSlack& b = rows[i];
      ASSERT_LE(rank(a), rank(b)) << "seed " << seed << " row " << i;
      if (rank(a) != rank(b) || rank(b) == 2) continue;
      ASSERT_LE(a.slack, b.slack) << "seed " << seed << " row " << i;
      if (a.slack == b.slack) {
        ASSERT_LT(a.port, b.port) << "seed " << seed << " row " << i;
        ++ties;
      }
    }

    for (const std::size_t k : {std::size_t{0}, std::size_t{1}, std::size_t{10}, timed + 3}) {
      const util::Result<std::vector<PathReport>> paths = worst_paths_checked(d, res, k);
      ASSERT_TRUE(paths.is_ok()) << paths.status().to_string();
      ASSERT_EQ(paths.value().size(), std::min(k, timed)) << "seed " << seed << " k " << k;
      for (std::size_t i = 0; i < paths.value().size(); ++i) {
        const PathReport& path = paths.value()[i];
        EXPECT_EQ(path.endpoint, d.ports[static_cast<std::size_t>(rows[i].port)].name)
            << "seed " << seed << " k " << k << " row " << i;
        EXPECT_EQ(std::bit_cast<std::uint64_t>(path.slack),
                  std::bit_cast<std::uint64_t>(rows[i].slack));
        EXPECT_EQ(path.constrained, rows[i].constrained);
      }
    }
  }
  // Every row class the order distinguishes was exercised.
  EXPECT_GT(ties, 0u);
  EXPECT_GT(unconstrained, 0u);
  EXPECT_GT(untimed, 0u);
}

TEST(TimingGraph, BuildRejectsUnfinalizedDesigns) {
  Design empty;
  EXPECT_EQ(TimingGraph::build_checked(empty).status().code(), ErrorCode::kEmptyTree);

  // A hand-edited net whose tree no longer holds its tap node (s1) is
  // rejected by name, not read out of bounds.
  Design d = parse(kGolden);
  circuit::RlcTree shrunk;
  shrunk.add_section(circuit::kInput, 1.0, 0.0, 1e-15, "s0");
  d.nets[0].flat = circuit::FlatTree(shrunk);
  util::Result<TimingGraph> g = TimingGraph::build_checked(d);
  ASSERT_FALSE(g.is_ok());
  EXPECT_EQ(g.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(g.status().net(), "n0");
}

}  // namespace
}  // namespace relmore::sta
