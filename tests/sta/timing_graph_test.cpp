#include "relmore/sta/timing_graph.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <utility>

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
  ASSERT_EQ(s.endpoints_by_slack.size(), 1u);
  const EndpointSlack& row = s.endpoints_by_slack[0];
  EXPECT_EQ(row.name, "out");
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
  ASSERT_EQ(res.summary.endpoints_by_slack.size(), 1u);
  EXPECT_TRUE(res.summary.endpoints_by_slack[0].timed);
  EXPECT_FALSE(res.summary.endpoints_by_slack[0].constrained);
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

TEST(TimingGraph, BuildRejectsUnfinalizedDesigns) {
  Design empty;
  EXPECT_EQ(TimingGraph::build_checked(empty).status().code(), ErrorCode::kEmptyTree);

  Design d = parse(kGolden);
  d.nets[0].tree.add_section(circuit::kInput, 1.0, 0.0, 1e-15, "stale");
  util::Result<TimingGraph> g = TimingGraph::build_checked(d);
  ASSERT_FALSE(g.is_ok());  // flat snapshot no longer matches the tree
  EXPECT_EQ(g.status().net(), "n0");
}

}  // namespace
}  // namespace relmore::sta
