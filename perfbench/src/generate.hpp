#pragma once

// Seeded input generators for the benchmark workloads. They live here,
// not in the library, so the benchmark controls the input properties the
// timer's cost depends on (topology sharing, taps per net, damping) and
// hands the library nothing but generated corpus text or trees.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "relmore/circuit/rlc_tree.hpp"

namespace perfbench {

namespace circuit = relmore::circuit;

/// splitmix64: the one PRNG every generator draws from, so a seed fixes
/// every input bit.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform integer in [lo, hi].
  std::size_t range(std::size_t lo, std::size_t hi);
  /// Log-uniform in [lo, hi], lo > 0.
  double log_uniform(double lo, double hi);

 private:
  std::uint64_t state_;
};

/// Derives an independent seed from (seed, stream): per-op design seeds,
/// per-workload sub-streams.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

/// Properties of a generated corpus design (see relmore/sta/design.hpp
/// for the text format). Nets form `chain_depth`-long buffered chains:
/// net (c, s) drives instance u<c>_<s>, which drives net (c, s+1); the
/// last net of a chain drives an output port.
struct DesignShape {
  std::size_t nets = 16384;
  std::size_t chain_depth = 4;
  /// Distinct parent vectors shared by `shared_fraction` of the nets (the
  /// corpus layer's batching key); every other net gets a topology of its
  /// own. Every fraction below is met exactly (rounded to whole nets), at
  /// seeded places, so the design's size does not depend on the seed.
  std::size_t shared_topologies = 8;
  double shared_fraction = 1.0;
  /// Taps per net: `taps_min`, plus on an `extra_tap_prob` share of the
  /// nets 1..(taps_max - taps_min) more, each count on equally many nets.
  std::size_t taps_min = 1;
  std::size_t taps_max = 1;
  double extra_tap_prob = 0.0;
  /// Probability that an extra tap becomes the side input of a nand2 in
  /// the next chain (same stage, so no cycle); otherwise it is an output
  /// port.
  double side_input_prob = 1.0;
  /// Share of nets with no inductance (pure RC, zeta = +inf).
  double rc_fraction = 0.0;
  /// Damping of each RLC net's least-damped tap, drawn log-uniform; the
  /// net's inductances are scaled to hit it exactly.
  double zeta_min = 1.0;
  double zeta_max = 1.0;
  double clock_period = 0.0;
  std::uint64_t seed = 1;
};

/// The `signoff`/`whatif` shape: 8 shared topologies, logic depth 4,
/// ~1.1 taps per net, overdamped wires (half RC, half zeta in [1.5, 4]).
DesignShape signoff_shape(std::size_t nets, std::uint64_t seed);

/// The `reanalyze` shape: half the nets on 8 shared topologies and half
/// unique, 1-4 taps per net, least-damped tap of each net at zeta in
/// [0.2, 3].
DesignShape reanalyze_shape(std::size_t nets, std::uint64_t seed);

/// A generated design: its text plus what the what-if workload needs to
/// name edits without parsing the text back.
struct GeneratedDesign {
  std::string text;
  struct NetInfo {
    std::string name;
    std::vector<circuit::SectionValues> wire;  ///< raw values, pin caps not folded
    std::size_t endpoint = 0;                  ///< index into `endpoints`: its chain's output
    bool shared_topology = false;
  };
  std::vector<NetInfo> nets;
  std::vector<std::string> endpoints;        ///< every output port
  struct Swappable {
    std::string name;       ///< a single-input instance (buffer/inverter)
    std::size_t endpoint;   ///< index into `endpoints`: its chain's output
  };
  std::vector<Swappable> swappable;
  std::size_t sections = 0;
  std::size_t taps = 0;
};

GeneratedDesign generate_design(const DesignShape& shape);

/// Balanced binary RLC tree with `sections` sections (2^k - 1 for a full
/// tree): the paper's balanced-tree case, each value within +-25% of one
/// nominal section so the tree's damping does not swing with the seed.
circuit::RlcTree generate_balanced_tree(std::size_t sections, std::uint64_t seed);

}  // namespace perfbench
