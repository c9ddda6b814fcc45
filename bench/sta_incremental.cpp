/// \file sta_incremental.cpp
/// Full-vs-incremental re-timing latency on the chip-scale corpus: the
/// what-if loop the edit API exists for. For each corpus size the bench
/// measures
///
///   retime full        — one cold TimingGraph::analyze_checked pass (no
///                        corpus cache): what a non-incremental client
///                        pays per what-if query
///   retime edit f=F%   — one Timer::edit() transaction editing F% of the
///                        nets (wire value edits, the common what-if) and
///                        committing: snapshot edit + cache restamp
///                        + dirty-cone update_checked, in place
///   retime commit 1 net — one single-net wire edit recorded and committed,
///                        at 2,000 and 16,000 nets (also under --quick), on
///                        nets drawn from a fixed pool of 64
///   retime commit 1 random net — the same on any net of the design
///
/// Rows reuse the shared BenchRow schema with n = nets in the corpus,
/// samples = edits per commit, ns_per_section = ns per net per pass, and
/// speedup = full-pass ns / incremental-commit ns — the number the
/// committed BENCH_sta_incremental.json baseline gates in CI. The
/// `retime commit` rows differ: their ns_per_section is ns per single-net
/// commit (not per net of the corpus) and their speedup is 1. CI gates the
/// 16,000-over-2,000 ratio of `retime commit 1 net` with
/// `tools/bench_regress.py --scaling`: a commit that costs O(cone) reads
/// ~1, one that costs O(design) reads ~8. Its pool keeps the touched
/// working set the same size at both sizes; the ungated random-net rows
/// add the cold-cache cost of a design 8x larger. The edit
/// sequences are SplitMix64-deterministic, and every cell ends with a
/// bitwise WNS/TNS check of the in-place result against a from-scratch
/// analysis of the edited design (the exhaustive per-point check lives in
/// tests/sta/retime_property_test.cpp).
/// `--json <path>` writes the rows; `--quick` shrinks the grid for CI.

#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "relmore/relmore.hpp"
#include "relmore/timer.hpp"

#include "json_out.hpp"

namespace {

using namespace relmore;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Measured {
  double ns_per_net = 0.0;
  double checksum = 0.0;
};

/// Repeats `body` (one full pass / one commit over an `nets`-net corpus)
/// until `min_seconds` elapsed, warm-up pass excluded.
template <typename Body>
Measured time_pass(std::size_t nets, double min_seconds, const Body& body) {
  Measured m;
  m.checksum += body();  // warm-up
  std::size_t reps = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    m.checksum += body();
    ++reps;
    elapsed = seconds_since(t0);
  } while (elapsed < min_seconds);
  m.ns_per_net = elapsed * 1e9 / static_cast<double>(reps * nets);
  return m;
}

/// SplitMix64: deterministic edit sequences across platforms and runs.
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

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// Records `edits` deterministic wire value edits on a fresh transaction,
/// each on the net `pick(rng)` indexes, and commits it. Returns the
/// in-place WNS, or NaN when the commit was rejected or fell back to a full
/// re-analysis (both are bench failures).
template <typename Pick>
double commit_edits(Timer& timer, Rng& rng, std::size_t edits, const Pick& pick) {
  const sta::Design& design = *timer.design();
  Timer::Edit edit = timer.edit();
  for (std::size_t e = 0; e < edits; ++e) {
    const sta::Net& net = design.nets[pick(rng)];
    circuit::SectionValues wire;
    wire.resistance = 10.0 + 120.0 * rng.unit();
    wire.inductance = rng.below(2) == 0 ? 0.0 : 1e-12 * rng.unit();
    wire.capacitance = 4e-15 + 50e-15 * rng.unit();
    if (!edit.set_net_section_values(net.name, "s0", wire).is_ok()) {
      return std::numeric_limits<double>::quiet_NaN();
    }
  }
  const util::Result<Timer::EditOutcome> out = edit.commit();
  if (!out.is_ok() || !out.value().incremental) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return timer.result()->summary.wns;
}

/// commit_edits on nets drawn uniformly from the whole design.
double commit_random_edits(Timer& timer, Rng& rng, std::size_t edits) {
  const std::size_t nets = timer.design()->nets.size();
  return commit_edits(timer, rng, edits, [nets](Rng& r) { return r.below(nets); });
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") quick = true;
  }
  const std::string json_path = benchio::json_path_from_args(argc, argv);
  const double min_seconds = quick ? 0.02 : 0.3;

  // Full grid ⊇ quick grid, so a --quick CI run's keys all exist in the
  // committed baseline (bench_regress compares the intersection).
  std::vector<std::size_t> sizes = {200};
  if (!quick) sizes.push_back(2000);  // the acceptance corpus
  const double fractions[] = {0.001, 0.01, 0.05};

  std::vector<benchio::BenchRow> rows;
  util::Table table({"config", "nets", "edits", "us/pass", "ns/net", "speedup"});
  double checksum = 0.0;
  bool checks_ok = true;

  for (const std::size_t nets : sizes) {
    sta::SyntheticSpec spec;
    spec.nets = nets;
    spec.seed = 1;
    spec.topo_classes = 8;
    spec.chain_depth = 4;
    util::Result<sta::Design> made = sta::make_synthetic_design_checked(spec);
    if (!made.is_ok()) {
      std::cerr << "sta_incremental: " << made.status().to_string() << "\n";
      return 1;
    }

    Timer timer;
    if (util::Status s = timer.load(std::move(made).value()); !s.is_ok()) {
      std::cerr << "sta_incremental: " << s.to_string() << "\n";
      return 1;
    }
    if (const util::Result<sta::TimingSummary> warm = timer.analyze(); !warm.is_ok()) {
      std::cerr << "sta_incremental: " << warm.status().to_string() << "\n";
      return 1;
    }

    // The graph is structure-only; value edits never invalidate it, and the
    // Timer keeps its Design at a stable address. Default options with no
    // corpus cache = the cold full pass a non-incremental client runs.
    const util::Result<sta::TimingGraph> graph = sta::TimingGraph::build_checked(*timer.design());
    if (!graph.is_ok()) {
      std::cerr << "sta_incremental: " << graph.status().to_string() << "\n";
      return 1;
    }
    const sta::AnalyzeOptions cold{};

    const auto add_row = [&](const std::string& name, std::size_t edits, const Measured& m,
                             double full_ns) {
      checksum += m.checksum;
      const double speedup = full_ns / m.ns_per_net;
      table.add_row({name, std::to_string(nets), std::to_string(edits),
                     util::Table::fmt(m.ns_per_net * static_cast<double>(nets) * 1e-3, 2),
                     util::Table::fmt(m.ns_per_net, 3), util::Table::fmt(speedup, 2)});
      rows.push_back({name, nets, edits == 0 ? 1 : edits, m.ns_per_net, speedup});
    };

    const Measured full = time_pass(nets, min_seconds, [&] {
      const util::Result<sta::TimingResult> r = graph.value().analyze_checked(cold);
      return r.is_ok() ? r.value().summary.wns : std::numeric_limits<double>::quiet_NaN();
    });
    add_row("retime full", 0, full, full.ns_per_net);

    Rng rng{0x1C0DE5EEDULL ^ nets};
    for (const double fraction : fractions) {
      const std::size_t edits = std::max<std::size_t>(
          1, static_cast<std::size_t>(std::llround(fraction * static_cast<double>(nets))));
      const Measured inc = time_pass(nets, min_seconds,
                                     [&] { return commit_random_edits(timer, rng, edits); });
      std::string label = "retime edit f=" + util::Table::fmt(fraction * 100.0, 1) + "%";
      add_row(label, edits, inc, full.ns_per_net);

      // Bitwise self-check: the in-place result after one more committed
      // edit must match a from-scratch analysis of the edited design.
      const double in_place = commit_random_edits(timer, rng, edits);
      const util::Result<sta::TimingResult> scratch = graph.value().analyze_checked(cold);
      if (std::isnan(in_place) || !scratch.is_ok() ||
          bits(in_place) != bits(scratch.value().summary.wns) ||
          bits(timer.result()->summary.tns) != bits(scratch.value().summary.tns)) {
        std::cerr << "sta_incremental: in-place result drifted from full analysis at n=" << nets
                  << " " << label << "\n";
        checks_ok = false;
      }
    }
  }

  // Commit scaling: single-net commits at two corpus sizes 8x apart. The
  // gated row draws its nets from a fixed pool of kPool nets per size, so
  // both sizes touch the same amount of data and the 16,000-over-2,000
  // ratio isolates work that grows with the design. The random-net row
  // also pays the cache misses of a design 8x larger (~1.2-1.6x on a
  // shared x86 host, EXPERIMENTS.md) and is not gated. The rows take turns
  // pass by pass, so all of them meet the same host conditions; a pass
  // times kPerPass commits, and each row keeps its fastest of >= kPasses
  // passes: on a shared runner one slow pass would otherwise decide the
  // ratio.
  constexpr std::size_t kPool = 64;
  constexpr std::size_t kPerPass = 256;
  constexpr std::size_t kPasses = 8;
  struct CommitRow {
    std::string name;
    std::size_t nets;
    Timer* timer;
    std::vector<std::size_t> pool;  // empty: any net
    Rng rng;
    double best_ns = 0.0;
  };
  std::vector<Timer> timers;
  timers.reserve(2);
  std::vector<CommitRow> commit_rows;
  for (const std::size_t nets : {std::size_t{2000}, std::size_t{16000}}) {
    sta::SyntheticSpec spec;
    spec.nets = nets;
    spec.seed = 1;
    spec.topo_classes = 8;
    spec.chain_depth = 4;
    util::Result<sta::Design> made = sta::make_synthetic_design_checked(spec);
    Timer& timer = timers.emplace_back();
    const util::Status loaded =
        made.is_ok() ? timer.load(std::move(made).value()) : made.status();
    if (!loaded.is_ok() || !timer.analyze().is_ok()) {
      std::cerr << "sta_incremental: cannot time the " << nets << "-net corpus\n";
      return 1;
    }
    Rng rng{0xC0FF1CEULL ^ nets};
    std::vector<std::size_t> pool(kPool);
    for (std::size_t& ni : pool) ni = rng.below(nets);
    commit_rows.push_back({"retime commit 1 net", nets, &timer, std::move(pool), rng});
    commit_rows.push_back({"retime commit 1 random net", nets, &timer, {}, rng});
  }
  const auto commit_pass = [&](CommitRow& row) {
    const auto pick = [&row](Rng& r) {
      return row.pool.empty() ? r.below(row.nets) : row.pool[r.below(row.pool.size())];
    };
    const auto t0 = Clock::now();
    for (std::size_t c = 0; c < kPerPass; ++c) {
      checksum += commit_edits(*row.timer, row.rng, 1, pick);
    }
    return seconds_since(t0) * 1e9 / static_cast<double>(kPerPass);
  };
  for (CommitRow& row : commit_rows) (void)commit_pass(row);  // warm-up
  const auto commits_t0 = Clock::now();
  for (std::size_t pass = 0; pass < kPasses || seconds_since(commits_t0) < min_seconds; ++pass) {
    for (CommitRow& row : commit_rows) {
      const double ns = commit_pass(row);
      if (pass == 0 || ns < row.best_ns) row.best_ns = ns;
    }
  }
  for (const CommitRow& row : commit_rows) {
    table.add_row({row.name, std::to_string(row.nets), "1", util::Table::fmt(row.best_ns * 1e-3, 2),
                   "-", "-"});
    rows.push_back({row.name, row.nets, 1, row.best_ns, 1.0});
  }

  table.print(std::cout, "incremental re-timing vs full analysis");
  std::cout << "\nchecksum " << checksum << "\n";
  if (!checks_ok || std::isnan(checksum)) {
    std::cerr << "sta_incremental: bitwise/commit self-check failed\n";
    return 1;
  }

  if (!json_path.empty()) {
    if (!benchio::write_bench_json(json_path, rows)) {
      std::cerr << "sta_incremental: cannot write " << json_path << "\n";
      return 1;
    }
    std::cout << "wrote " << json_path << "\n";
  }
  return 0;
}
