#include "relmore/sta/design.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <utility>

#include "relmore/sta/synthetic.hpp"
#include "relmore/util/diagnostics.hpp"

namespace relmore::sta {
namespace {

using util::DiagnosticsReport;
using util::ErrorCode;
using util::FaultError;

/// The golden 3-stage corpus the timing tests hand-compute against:
/// clk -> n0 -> u0(g1) -> n1 -> u1(g2) -> n2 -> out.
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

util::Result<Design> parse(const std::string& text, DiagnosticsReport* report = nullptr) {
  std::istringstream is(text);
  return read_design_checked(is, generic_library(), report);
}

TEST(ReadDesign, GoldenParseResolvesEverything) {
  DiagnosticsReport report;
  util::Result<Design> r = parse(kGolden, &report);
  ASSERT_TRUE(r.is_ok()) << report.to_string();
  EXPECT_EQ(report.error_count(), 0u);
  const Design d = std::move(r).value();

  EXPECT_EQ(d.name, "golden");
  ASSERT_EQ(d.nets.size(), 3u);
  ASSERT_EQ(d.instances.size(), 2u);
  ASSERT_EQ(d.ports.size(), 2u);
  EXPECT_EQ(d.endpoint_count(), 1u);
  EXPECT_NEAR(d.clock_period, 1e-9, 1e-21);
  EXPECT_GE(d.library.find("g1"), 0);
  EXPECT_GE(d.library.find("buf_x1"), 0);  // base library still present

  const int n0 = d.find_net("n0");
  const int n1 = d.find_net("n1");
  const int n2 = d.find_net("n2");
  ASSERT_GE(n0, 0);
  ASSERT_GE(n1, 0);
  ASSERT_GE(n2, 0);
  EXPECT_LT(d.find_net("nope"), 0);

  // Drivers: n0 by the clk port, n1/n2 by the instances.
  EXPECT_EQ(d.nets[n0].driver_kind, DriverKind::kPort);
  EXPECT_EQ(d.nets[n0].driver_index, d.find_port("clk"));
  EXPECT_EQ(d.nets[n1].driver_kind, DriverKind::kInstance);
  EXPECT_EQ(d.nets[n2].driver_kind, DriverKind::kInstance);

  // Taps: u0's input pin on n0, u1's on n1, the out port on n2.
  ASSERT_EQ(d.nets[n0].taps.size(), 1u);
  EXPECT_FALSE(d.nets[n0].taps[0].is_port);
  EXPECT_EQ(d.instances[d.nets[n0].taps[0].index].name, "u0");
  ASSERT_EQ(d.nets[n2].taps.size(), 1u);
  EXPECT_TRUE(d.nets[n2].taps[0].is_port);
  EXPECT_EQ(d.ports[d.nets[n2].taps[0].index].name, "out");

  const int out = d.find_port("out");
  ASSERT_GE(out, 0);
  EXPECT_FALSE(d.ports[out].is_input);
  EXPECT_TRUE(d.ports[out].has_required);
  EXPECT_NEAR(d.ports[out].required, 200e-12, 1e-24);
}

TEST(ReadDesign, PinCapsFoldedBeforeSnapshot) {
  const Design d = std::move(parse(kGolden)).value();
  const Net& net0 = d.nets[static_cast<std::size_t>(d.find_net("n0"))];
  const circuit::SectionId s1 = net0.tree.find_by_name("s1");
  ASSERT_NE(s1, circuit::kInput);
  // 10 fF wire C + 10 fF g1 pin cap at the tap node.
  EXPECT_NEAR(net0.tree.section(s1).v.capacitance, 20e-15, 1e-27);
  EXPECT_NEAR(net0.total_cap, 30e-15, 1e-27);
  EXPECT_NEAR(d.nets[static_cast<std::size_t>(d.find_net("n1"))].total_cap, 30e-15, 1e-27);
  EXPECT_NEAR(d.nets[static_cast<std::size_t>(d.find_net("n2"))].total_cap, 25e-15, 1e-27);

  // Snapshots were taken after folding and stamped with the design epoch.
  EXPECT_EQ(d.epoch, 1u);
  for (const Net& net : d.nets) {
    EXPECT_EQ(net.epoch, d.epoch);
    ASSERT_EQ(net.flat.size(), net.tree.size());
    for (std::size_t i = 0; i < net.tree.size(); ++i) {
      EXPECT_DOUBLE_EQ(net.flat.capacitance()[i],
                       net.tree.section(static_cast<circuit::SectionId>(i)).v.capacitance);
    }
  }
}

TEST(ReadDesign, LevelizationOrdersNets) {
  Design d = std::move(parse(kGolden)).value();
  const int n0 = d.find_net("n0");
  const int n1 = d.find_net("n1");
  const int n2 = d.find_net("n2");
  EXPECT_EQ(d.nets[n0].level, 0);
  EXPECT_EQ(d.nets[n1].level, 1);
  EXPECT_EQ(d.nets[n2].level, 2);
  ASSERT_EQ(d.topo_nets.size(), 3u);
  EXPECT_EQ(d.topo_nets[0], n0);
  EXPECT_EQ(d.topo_nets[1], n1);
  EXPECT_EQ(d.topo_nets[2], n2);
}

TEST(ReadDesign, UnknownCellIsTaggedWithInstanceName) {
  DiagnosticsReport report;
  util::Result<Design> r = parse(
      "net a\nsection s0 - R=1 L=0 C=1f\nend\n"
      "input i a\noutput o a:s0\n"
      "inst u9 no_such_cell a a:s0\n",
      &report);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(r.status().net(), "u9");
  EXPECT_NE(r.status().message().find("unknown cell"), std::string::npos);
  bool tagged = false;
  for (const util::Diagnostic& diag : report.entries()) tagged = tagged || diag.net == "u9";
  EXPECT_TRUE(tagged);
}

TEST(ReadDesign, MalformedNetBlockIsTaggedWithNetNameAndAbsoluteLine) {
  DiagnosticsReport report;
  util::Result<Design> r = parse(
      "net bad\n"
      "section s0 - R=bogus L=0 C=1f\n"
      "end\n"
      "input i bad\noutput o bad:s0\n",
      &report);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().net(), "bad");
  ASSERT_FALSE(report.entries().empty());
  const util::Diagnostic& first = report.entries().front();
  EXPECT_EQ(first.net, "bad");
  EXPECT_EQ(first.line, 2);  // offset into the *design* file, not the block
}

TEST(ReadDesign, DuplicateNetRejected) {
  util::Result<Design> r = parse(
      "net a\nsection s0 - R=1 L=0 C=1f\nend\n"
      "net a\nsection s0 - R=1 L=0 C=1f\nend\n"
      "input i a\noutput o a:s0\n");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kDuplicateName);
  EXPECT_EQ(r.status().net(), "a");
}

TEST(ReadDesign, DuplicateInstanceRejected) {
  // Two instances named u0: previously accepted silently, with every
  // by-name lookup answering for whichever parsed first.
  util::Result<Design> r = parse(
      "net a\nsection s0 - R=1 L=0 C=1f\nend\n"
      "net b\nsection s0 - R=1 L=0 C=1f\nend\n"
      "net c\nsection s0 - R=1 L=0 C=1f\nend\n"
      "inst u0 buf_x1 b a:s0\n"
      "inst u0 buf_x1 c a:s0\n"
      "input i a\noutput o b:s0\noutput p c:s0\n");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kDuplicateName);
  EXPECT_EQ(r.status().net(), "u0");
  EXPECT_NE(r.status().message().find("duplicate instance"), std::string::npos);
}

TEST(ReadDesign, DuplicatePortRejected) {
  util::Result<Design> r = parse(
      "net a\nsection s0 - R=1 L=0 C=1f\nend\n"
      "net b\nsection s0 - R=1 L=0 C=1f\nend\n"
      "inst u0 buf_x1 b a:s0\n"
      "input i a\noutput o b:s0\noutput o a:s0\n");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kDuplicateName);
  EXPECT_EQ(r.status().net(), "o");
  EXPECT_NE(r.status().message().find("duplicate port"), std::string::npos);
}

TEST(ReadDesign, NegativeOrNonFiniteInputSlewRejected) {
  // A negative slew used to load and then time as WNS 0 with the only
  // endpoint untimed and nothing reported.
  DiagnosticsReport report;
  util::Result<Design> r = parse(
      "net n0\nsection s0 - R=100 L=1n C=10f\nend\n"
      "input i0 n0 slew=-5p\noutput o0 n0:s0 required=1n\n",
      &report);
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kNegativeValue);
  EXPECT_EQ(r.status().net(), "i0");
  EXPECT_EQ(r.status().line(), 4);
  EXPECT_NE(r.status().message().find("slew"), std::string::npos);

  util::Result<Design> inf = parse(
      "net n0\nsection s0 - R=100 L=1n C=10f\nend\n"
      "input i0 n0 slew=1e999\noutput o0 n0:s0 required=1n\n");
  EXPECT_FALSE(inf.is_ok());

  util::Result<Design> zero = parse(
      "net n0\nsection s0 - R=100 L=1n C=10f\nend\n"
      "input i0 n0 slew=0\noutput o0 n0:s0 required=1n\n");
  EXPECT_TRUE(zero.is_ok()) << zero.status().to_string();
}

TEST(ReadDesign, DoubleDrivenNetRejected) {
  util::Result<Design> r = parse(
      "net a\nsection s0 - R=1 L=0 C=1f\nend\n"
      "net b\nsection s0 - R=1 L=0 C=1f\nend\n"
      "inst u0 buf_x1 b a:s0\n"
      "input i a\ninput j b\noutput o b:s0\n");
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.status().message().find("driven more than once"), std::string::npos);
}

TEST(ReadDesign, UndrivenNetRejected) {
  util::Result<Design> r = parse(
      "net a\nsection s0 - R=1 L=0 C=1f\nend\n"
      "net b\nsection s0 - R=1 L=0 C=1f\nend\n"
      "input i a\noutput o a:s0\n");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().net(), "b");
  EXPECT_NE(r.status().message().find("undriven"), std::string::npos);
}

TEST(ReadDesign, CombinationalCycleRejected) {
  util::Result<Design> r = parse(
      "net n0\nsection s0 - R=1 L=0 C=1f\nend\n"
      "net n1\nsection s0 - R=1 L=0 C=1f\nend\n"
      "net n2\nsection s0 - R=1 L=0 C=1f\nend\n"
      "input i n0\noutput o n1:s0\n"
      "inst u0 buf_x1 n1 n2:s0\n"
      "inst u1 buf_x1 n2 n1:s0\n");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kCycle);
  EXPECT_EQ(r.status().net(), "n1");
}

TEST(ReadDesign, MissingEndRejected) {
  util::Result<Design> r = parse("net a\nsection s0 - R=1 L=0 C=1f\n");
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kParseError);
  EXPECT_NE(r.status().message().find("missing 'end'"), std::string::npos);
}

TEST(ReadDesign, MissingPortsRejected) {
  util::Result<Design> r = parse("net a\nsection s0 - R=1 L=0 C=1f\nend\ninput i a\n");
  ASSERT_FALSE(r.is_ok());
  EXPECT_NE(r.status().message().find("no output port"), std::string::npos);
}

TEST(ReadDesign, ReportCollectsEveryFinding) {
  DiagnosticsReport report;
  util::Result<Design> r = parse(
      "net a\nsection s0 - R=1 L=0 C=1f\nend\n"
      "net b\nsection s0 - R=1 L=0 C=1f\nend\n"
      "input i a\noutput o b:s0\n"
      "inst u0 ghost1 b a:s0\n"
      "inst u1 ghost2 b a:s0\n",
      &report);
  ASSERT_FALSE(r.is_ok());
  // Both unknown cells are reported, not only the first.
  EXPECT_GE(report.error_count(), 2u);
}

TEST(ReadDesign, ShimThrowsFaultError) {
  std::istringstream is("garbage directive\n");
  EXPECT_THROW((void)read_design(is), FaultError);
}

TEST(SyntheticDesign, LoadsAndFinalizes) {
  SyntheticSpec spec;
  spec.nets = 24;
  spec.seed = 3;
  spec.topo_classes = 4;
  spec.chain_depth = 4;
  util::Result<Design> r = make_synthetic_design_checked(spec);
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  const Design d = std::move(r).value();
  EXPECT_EQ(d.nets.size(), 24u);
  EXPECT_EQ(d.topo_nets.size(), d.nets.size());
  EXPECT_EQ(d.endpoint_count(), 6u);  // one output per 4-net chain
  EXPECT_NEAR(d.clock_period, 2e-9, 1e-21);

  SyntheticSpec bad;
  bad.nets = 1;
  EXPECT_FALSE(make_synthetic_design_checked(bad).is_ok());
}

}  // namespace
}  // namespace relmore::sta
