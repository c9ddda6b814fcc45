#include "generate.hpp"

#include <charconv>
#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "relmore/sta/liberty.hpp"

namespace perfbench {

namespace sta = relmore::sta;

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Rng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

std::size_t Rng::range(std::size_t lo, std::size_t hi) {
  return lo + static_cast<std::size_t>(next() % (hi - lo + 1));
}

double Rng::log_uniform(double lo, double hi) {
  return lo == hi ? lo : lo * std::exp(uniform() * std::log(hi / lo));
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  Rng rng(seed ^ (0xD1B54A32D192ED03ULL * (stream + 1)));
  return rng.next();
}

DesignShape signoff_shape(std::size_t nets, std::uint64_t seed) {
  DesignShape s;
  s.nets = nets;
  s.chain_depth = 4;
  s.shared_topologies = 8;
  s.shared_fraction = 1.0;
  s.taps_min = 1;
  s.taps_max = 2;
  s.extra_tap_prob = 0.11;
  s.side_input_prob = 1.0;
  s.rc_fraction = 0.5;
  s.zeta_min = 1.5;
  s.zeta_max = 4.0;
  s.clock_period = 240e-12;
  s.seed = seed;
  return s;
}

DesignShape reanalyze_shape(std::size_t nets, std::uint64_t seed) {
  DesignShape s;
  s.nets = nets;
  s.chain_depth = 4;
  s.shared_topologies = 8;
  s.shared_fraction = 0.5;
  s.taps_min = 1;
  s.taps_max = 4;
  s.extra_tap_prob = 0.75;
  s.side_input_prob = 0.5;
  s.rc_fraction = 0.0;
  s.zeta_min = 0.2;
  s.zeta_max = 3.0;
  s.clock_period = 240e-12;
  s.seed = seed;
  return s;
}

namespace {

using Parents = std::vector<int>;

/// Random tree shape: section i hangs off one of the three sections
/// before it, so depth and branching stay mild (net-like).
Parents random_parents(Rng& rng, std::size_t n) {
  Parents p(n);
  p[0] = -1;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t lo = i >= 3 ? i - 3 : 0;
    p[i] = static_cast<int>(rng.range(lo, i - 1));
  }
  return p;
}

void append_double(std::string& out, double v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

void append_uint(std::string& out, std::size_t v) {
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

/// Appends every part to `out` (plain appends: GCC 12 warns falsely on
/// chained std::string operator+ under -O2).
template <typename... Parts>
void put(std::string& out, const Parts&... parts) {
  (out.append(parts), ...);
}

std::string indexed(const char* prefix, std::size_t a, std::size_t b) {
  std::string s = prefix;
  put(s, std::to_string(a), "_", std::to_string(b));
  return s;
}

std::string net_name(std::size_t chain, std::size_t stage) { return indexed("n", chain, stage); }

std::string node_name(std::size_t node) {
  std::string s = "s";
  s += std::to_string(node);
  return s;
}

/// `count` of `n` flags set, at seeded places (a shuffled prefix).
std::vector<char> pick(Rng& rng, std::size_t n, std::size_t count) {
  std::vector<char> flags(n, 0);
  std::fill(flags.begin(), flags.begin() + static_cast<std::ptrdiff_t>(std::min(count, n)), 1);
  for (std::size_t i = n; i > 1; --i) std::swap(flags[i - 1], flags[rng.range(0, i - 1)]);
  return flags;
}

std::size_t share_of(std::size_t n, double fraction) {
  return static_cast<std::size_t>(std::llround(fraction * static_cast<double>(n)));
}

struct TapPlan {
  std::size_t node = 0;
  double pin_cap = 0.0;
};

}  // namespace

GeneratedDesign generate_design(const DesignShape& shape) {
  if (shape.nets < 2 || shape.chain_depth < 2 || shape.taps_min < 1 ||
      shape.taps_max < shape.taps_min || shape.taps_max > 4) {
    throw std::invalid_argument("generate_design: bad shape");
  }
  const std::size_t depth = shape.chain_depth;
  const std::size_t chains = (shape.nets + depth - 1) / depth;
  const std::size_t nets = chains * depth;
  Rng rng(shape.seed);

  // Topologies: the shared pool first, then one fresh parent vector per
  // unshared net (re-drawn until distinct from every vector so far). Pool
  // shape k has 6 + k % 7 sections, the u-th unshared net 10 + u % 5 (at
  // 10 sections and up there are >= 4374 distinct shapes per size, enough
  // for 16k unshared nets), and the shared nets take the pool shapes in
  // turn: the seed places nets and draws shapes, but the design's section
  // count (and with it load time, analysis cost and memory) stays the same
  // for every seed.
  std::set<Parents> seen;
  std::vector<Parents> pool;
  while (pool.size() < shape.shared_topologies) {
    Parents p = random_parents(rng, 6 + pool.size() % 7);
    if (seen.insert(p).second) pool.push_back(std::move(p));
  }
  const std::vector<char> shared =
      pick(rng, nets, pool.empty() ? 0 : share_of(nets, shape.shared_fraction));
  std::vector<Parents> topo(nets);
  GeneratedDesign out;
  out.nets.resize(nets);
  std::size_t shared_seen = 0;
  std::size_t unique_seen = 0;
  for (std::size_t i = 0; i < nets; ++i) {
    out.nets[i].shared_topology = shared[i] != 0;
    if (shared[i]) {
      topo[i] = pool[shared_seen++ % pool.size()];
    } else {
      Parents p;
      do {
        p = random_parents(rng, 10 + unique_seen % 5);
      } while (!seen.insert(p).second);
      ++unique_seen;
      topo[i] = std::move(p);
    }
  }

  // Wire values (inductance still unscaled) and extra-tap budgets, again
  // in fixed numbers at seeded places.
  const std::vector<char> rc = pick(rng, nets, share_of(nets, shape.rc_fraction));
  const std::size_t spread = shape.taps_max - shape.taps_min;
  const std::vector<char> tapped =
      pick(rng, nets, spread > 0 ? share_of(nets, shape.extra_tap_prob) : 0);
  std::vector<std::size_t> extra(nets, 0);
  std::size_t tapped_seen = 0;
  for (std::size_t i = 0; i < nets; ++i) {
    auto& wire = out.nets[i].wire;
    wire.resize(topo[i].size());
    for (auto& v : wire) {
      v.resistance = 10.0 + 90.0 * rng.uniform();
      v.capacitance = 5e-15 + 45e-15 * rng.uniform();
      v.inductance = rc[i] ? 0.0 : 0.2e-12 + 1.8e-12 * rng.uniform();
    }
    extra[i] = shape.taps_min - 1;
    if (tapped[i]) extra[i] += 1 + tapped_seen++ % spread;
  }

  // Instances: u<c>_<s> buffers net (c, s) into net (c, s+1); it becomes a
  // nand2 when net (c-1, s) spends an extra tap on it as a side input.
  const sta::CellLibrary lib = sta::generic_library();
  auto pin_cap = [&](const char* cell) {
    return lib.cell(static_cast<std::size_t>(lib.find(cell))).input_cap;
  };
  const char* kSingle[] = {"buf_x1", "buf_x4", "inv_x1"};
  std::vector<std::vector<TapPlan>> taps(nets);
  struct InstPlan {
    const char* cell = "buf_x1";
    std::size_t side_node = 0;  // node of net (c-1, s) when cell is nand2
  };
  std::vector<InstPlan> inst(chains * (depth - 1));
  auto net_index = [depth](std::size_t c, std::size_t s) { return c * depth + s; };
  for (std::size_t c = 0; c < chains; ++c) {
    for (std::size_t s = 0; s + 1 < depth; ++s) {
      InstPlan& ip = inst[c * (depth - 1) + s];
      const std::size_t side = c > 0 ? net_index(c - 1, s) : 0;
      if (c > 0 && extra[side] > 0 && rng.uniform() < shape.side_input_prob) {
        --extra[side];
        ip.cell = "nand2_x1";
        ip.side_node = rng.range(1, topo[side].size() - 2);
        taps[side].push_back({ip.side_node, pin_cap("nand2_x1")});
      } else {
        ip.cell = kSingle[rng.range(0, 2)];
      }
    }
  }
  // Main taps (chain-continuing pin or the chain's output port) and the
  // remaining extra taps as output ports.
  std::vector<std::vector<std::size_t>> extra_ports(nets);
  for (std::size_t c = 0; c < chains; ++c) {
    for (std::size_t s = 0; s < depth; ++s) {
      const std::size_t i = net_index(c, s);
      const std::size_t last = topo[i].size() - 1;
      const double cap = s + 1 < depth ? pin_cap(inst[c * (depth - 1) + s].cell) : 0.0;
      taps[i].insert(taps[i].begin(), TapPlan{last, cap});
      for (std::size_t k = 0; k < extra[i]; ++k) {
        const std::size_t node = rng.range(1, last - 1);
        extra_ports[i].push_back(node);
        taps[i].push_back({node, 0.0});
      }
    }
  }

  // Damping: scale each RLC net's inductances so its least-damped tap
  // lands on the drawn zeta = SR / (2 sqrt(SL)) (paper eqs. 29-30, pin
  // caps folded). Scaling every L by s scales every tap's zeta by 1/sqrt(s).
  for (std::size_t i = 0; i < nets; ++i) {
    if (rc[i]) continue;
    auto& wire = out.nets[i].wire;
    const Parents& p = topo[i];
    const std::size_t n = p.size();
    std::vector<double> down(n);
    for (std::size_t k = 0; k < n; ++k) down[k] = wire[k].capacitance;
    for (const TapPlan& t : taps[i]) down[t.node] += t.pin_cap;
    for (std::size_t k = n; k-- > 1;) down[static_cast<std::size_t>(p[k])] += down[k];
    double least = INFINITY;
    for (const TapPlan& t : taps[i]) {
      double sr = 0.0;
      double sl = 0.0;
      for (int k = static_cast<int>(t.node); k >= 0; k = p[static_cast<std::size_t>(k)]) {
        sr += wire[static_cast<std::size_t>(k)].resistance * down[static_cast<std::size_t>(k)];
        sl += wire[static_cast<std::size_t>(k)].inductance * down[static_cast<std::size_t>(k)];
      }
      least = std::min(least, sr / (2.0 * std::sqrt(sl)));
    }
    const double target = rng.log_uniform(shape.zeta_min, shape.zeta_max);
    const double scale = (least / target) * (least / target);
    for (auto& v : wire) v.inductance *= scale;
  }

  // Text.
  std::string& t = out.text;
  t.reserve(nets * 1024);  // ~700 B/net for the signoff shape, ~950 for reanalyze
  t += "design perfbench\nclock ";
  append_double(t, shape.clock_period);
  t += "\n";
  for (std::size_t c = 0; c < chains; ++c) {
    for (std::size_t s = 0; s < depth; ++s) {
      const std::size_t i = net_index(c, s);
      GeneratedDesign::NetInfo& info = out.nets[i];
      info.name = net_name(c, s);
      t += "net ";
      t += info.name;
      t += "\n";
      for (std::size_t k = 0; k < topo[i].size(); ++k) {
        t += "  section s";
        append_uint(t, k);
        if (topo[i][k] < 0) {
          t += " - R=";
        } else {
          t += " s";
          append_uint(t, static_cast<std::size_t>(topo[i][k]));
          t += " R=";
        }
        append_double(t, info.wire[k].resistance);
        t += " L=";
        append_double(t, info.wire[k].inductance);
        t += " C=";
        append_double(t, info.wire[k].capacitance);
        t += "\n";
      }
      t += "end\n";
      out.sections += topo[i].size();
      out.taps += taps[i].size();
    }
  }
  std::vector<std::string> swappable_chain;
  for (std::size_t c = 0; c < chains; ++c) {
    put(t, "input in", std::to_string(c), " ", net_name(c, 0), " at=0 slew=");
    append_double(t, 10e-12 + 30e-12 * rng.uniform());
    t += "\n";
    for (std::size_t s = 0; s + 1 < depth; ++s) {
      const InstPlan& ip = inst[c * (depth - 1) + s];
      std::string name = indexed("u", c, s);
      put(t, "inst ", name, " ", ip.cell, " ", net_name(c, s + 1), " ", net_name(c, s), ":",
          node_name(topo[net_index(c, s)].size() - 1));
      if (ip.side_node != 0) {
        put(t, " ", net_name(c - 1, s), ":", node_name(ip.side_node));
      } else {
        swappable_chain.push_back(std::move(name));
      }
      t += "\n";
    }
    const std::size_t last = net_index(c, depth - 1);
    const std::size_t chain_endpoint = out.endpoints.size();
    for (std::string& name : swappable_chain) out.swappable.push_back({std::move(name), chain_endpoint});
    swappable_chain.clear();
    std::string port = "out";
    port += std::to_string(c);
    put(t, "output ", port, " ", net_name(c, depth - 1), ":", node_name(topo[last].size() - 1), "\n");
    out.endpoints.push_back(std::move(port));
    for (std::size_t s = 0; s < depth; ++s) {
      const std::size_t i = net_index(c, s);
      out.nets[i].endpoint = chain_endpoint;
      for (std::size_t k = 0; k < extra_ports[i].size(); ++k) {
        std::string extra_port = indexed("x", c, s);
        put(extra_port, "_", std::to_string(k));
        put(t, "output ", extra_port, " ", net_name(c, s), ":", node_name(extra_ports[i][k]), "\n");
        out.endpoints.push_back(std::move(extra_port));
      }
    }
  }
  return out;
}

circuit::RlcTree generate_balanced_tree(std::size_t sections, std::uint64_t seed) {
  Rng rng(seed);
  circuit::RlcTree tree;
  for (std::size_t i = 0; i < sections; ++i) {
    const circuit::SectionId parent =
        i == 0 ? circuit::kInput : static_cast<circuit::SectionId>((i - 1) / 2);
    (void)tree.add_section(parent, circuit::SectionValues{15.0 + 10.0 * rng.uniform(),
                                                          1.5e-9 + 1.0e-9 * rng.uniform(),
                                                          15e-15 + 10e-15 * rng.uniform()});
  }
  return tree;
}

}  // namespace perfbench
