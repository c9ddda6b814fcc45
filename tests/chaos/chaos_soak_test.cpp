// Chaos soak (PR 9): corpus analysis under seeded randomized schedules of
// concurrent cancellation, tight deadlines, and deterministic fault
// injection, across thread counts, plus a seeded data fault (one net whose
// moments overflow). Each schedule is a pure function of its seed, so a
// failure reproduces from the seed alone.
//
// Invariants asserted on every schedule:
//   * no crash and no hang (a watchdog thread aborts with a message if a
//     schedule stops making progress);
//   * every injected throwing fault is surfaced exactly once in
//     CorpusModels::diagnostics (fire counts are exact: throwing sites
//     are armed with limit=1 and never together, so pool first-error
//     coalescing cannot eat one);
//   * every net that completed healthy is bitwise-identical to the
//     fault-free baseline — retries, deadlines, cancellation and thread
//     counts never change a finished net's bits;
//   * partial-result bookkeeping is consistent: incomplete nets imply a
//     non-ok stop_status and are each named in diagnostics; no stop
//     implies every net reached a verdict.
//
// Runtime knobs (CI): RELMORE_CHAOS_SEEDS overrides the schedule count,
// RELMORE_CHAOS_SECONDS caps wall time (the soak stops early, never
// fails, when the budget runs out).

#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "relmore/sta/corpus.hpp"
#include "relmore/sta/design.hpp"
#include "relmore/sta/synthetic.hpp"
#include "relmore/sta/timing_graph.hpp"
#include "relmore/timer.hpp"
#include "relmore/util/deadline.hpp"
#include "relmore/util/diagnostics.hpp"
#include "relmore/util/fault_injector.hpp"

namespace sta = relmore::sta;
namespace ru = relmore::util;

using ru::ErrorCode;
using ru::FaultInjector;
using ru::FaultSite;

namespace {

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* text = std::getenv(name);
  if (text == nullptr || *text == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == text || *end != '\0') return fallback;
  return static_cast<std::size_t>(v);
}

/// Aborts the process with a message when the soak stops making progress
/// — a hang must fail the CI job loudly, not time out silently.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds stall_limit)
      : stall_limit_(stall_limit), thread_([this] { run(); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  void pet() { progress_.fetch_add(1, std::memory_order_relaxed); }

 private:
  void run() {
    std::uint64_t last = progress_.load(std::memory_order_relaxed);
    auto last_change = std::chrono::steady_clock::now();
    std::unique_lock<std::mutex> lock(mutex_);
    while (!cv_.wait_for(lock, std::chrono::seconds(1), [this] { return done_; })) {
      const std::uint64_t cur = progress_.load(std::memory_order_relaxed);
      if (cur != last) {
        last = cur;
        last_change = std::chrono::steady_clock::now();
        continue;
      }
      if (std::chrono::steady_clock::now() - last_change > stall_limit_) {
        std::fprintf(stderr, "chaos watchdog: no progress after schedule %llu — aborting\n",
                     static_cast<unsigned long long>(last));
        std::abort();
      }
    }
  }

  std::chrono::seconds stall_limit_;
  std::atomic<std::uint64_t> progress_{0};
  std::mutex mutex_;
  bool done_ = false;
  std::condition_variable cv_;
  std::thread thread_;
};

struct InjectorGuard {
  InjectorGuard() { FaultInjector::instance().disarm_all(); }
  ~InjectorGuard() { FaultInjector::instance().disarm_all(); }
};

/// One seeded schedule: execution shape, run control, armed faults and the
/// poisoned net — all derived from the seed.
struct Schedule {
  unsigned threads;
  bool with_delay;          ///< pool-delay armed (non-throwing)
  bool with_bad_net;        ///< one net's moments overflow (data fault)
  std::uint64_t bad_net;    ///< which net, modulo the net count
  bool with_abort;          ///< pool-abort armed, limit=1 (throwing)
  std::uint64_t every;      ///< phase period of pool-abort
  int cancel_after_us;      ///< <0: no cancel thread
  int deadline_kind;        ///< 0 none, 1 generous, 2 tiny
  int deadline_us;          ///< tiny-deadline budget

  static Schedule from_seed(std::uint64_t seed) {
    const std::uint64_t a = splitmix64(seed);
    const std::uint64_t b = splitmix64(a);
    const std::uint64_t c = splitmix64(b);
    Schedule s;
    const unsigned thread_choices[] = {1, 2, 4, 8};
    s.threads = thread_choices[a % 4];
    s.with_delay = ((a >> 16) & 3) == 0;  // 1 in 4: each fire sleeps 2 ms
    s.with_bad_net = ((a >> 24) & 1) != 0;
    s.bad_net = a >> 32;
    s.with_abort = ((b >> 4) & 1) != 0;
    s.every = 1 + ((b >> 16) % 4);
    s.cancel_after_us = ((b >> 32) & 1) != 0 ? static_cast<int>(c % 2000) : -1;
    s.deadline_kind = static_cast<int>((c >> 16) % 3);
    s.deadline_us = static_cast<int>((c >> 24) % 500);
    return s;
  }

  [[nodiscard]] std::string arm_string() const {
    std::ostringstream os;
    const char* sep = "";
    if (with_delay) {
      os << "pool-delay:every=16";
      sep = ",";
    }
    if (with_abort) os << sep << "pool-abort:every=" << every << ":limit=1";
    return os.str();
  }
};

/// Overflows net `ni`'s moments (R*C ~ 1e330): a data fault the corpus
/// must flag and never retry.
void poison_net(sta::Design& design, std::size_t ni) {
  sta::Net& net = design.nets[ni];
  relmore::circuit::RlcTree tree = net.flat.to_tree();
  relmore::circuit::SectionValues& v = tree.values(0);
  v.resistance = 1e300;
  v.capacitance = 1e30;
  net.flat = relmore::circuit::FlatTree(tree);
}

sta::Design chaos_design() {
  sta::SyntheticSpec spec;
  spec.nets = 24;
  spec.topo_classes = 4;
  spec.chain_depth = 3;
  spec.seed = 7;
  auto design = sta::make_synthetic_design_checked(spec);
  EXPECT_TRUE(design.is_ok()) << design.status().message();
  return std::move(design).value();
}

std::size_t count_if_diag(const ru::DiagnosticsReport& report,
                          const std::function<bool(const ru::Diagnostic&)>& pred) {
  std::size_t n = 0;
  for (const ru::Diagnostic& d : report.entries()) {
    if (pred(d)) ++n;
  }
  return n;
}

TEST(ChaosSoak, SeededSchedulesNeverCrashHangOrCorrupt) {
  InjectorGuard guard;
  const sta::Design design = chaos_design();

  // Fault-free baseline: the bits every healthy net must reproduce.
  sta::AnalyzeOptions base_options;
  base_options.threads = 2;
  const auto baseline_r = sta::analyze_corpus_checked(design, base_options);
  ASSERT_TRUE(baseline_r.is_ok()) << baseline_r.status().message();
  const sta::CorpusModels& baseline = baseline_r.value();
  ASSERT_EQ(baseline.faulted_nets, 0u);

  const std::size_t seeds = env_size("RELMORE_CHAOS_SEEDS", 200);
  const std::size_t budget_s = env_size("RELMORE_CHAOS_SECONDS", 0);
  const auto t0 = std::chrono::steady_clock::now();
  Watchdog watchdog(std::chrono::seconds(60));

  std::size_t ran = 0;
  for (std::size_t i = 0; i < seeds; ++i) {
    if (budget_s != 0 &&
        std::chrono::steady_clock::now() - t0 > std::chrono::seconds(budget_s)) {
      break;  // soft time budget (CI soak): stop early, never fail
    }
    const std::uint64_t seed = 0xc4a05'0000ULL + i;
    const Schedule sched = Schedule::from_seed(seed);
    SCOPED_TRACE("schedule seed " + std::to_string(seed));

    FaultInjector::instance().disarm_all();
    const std::string arm = sched.arm_string();
    if (!arm.empty()) {
      ASSERT_TRUE(FaultInjector::instance().arm_spec(arm).is_ok()) << arm;
    }

    sta::Design scheduled = design;
    if (sched.with_bad_net) poison_net(scheduled, sched.bad_net % design.nets.size());

    sta::AnalyzeOptions options;
    options.threads = sched.threads;
    options.max_attempts = 3;
    ru::CancelToken token;
    if (sched.cancel_after_us >= 0) options.cancel = &token;
    if (sched.deadline_kind == 1) {
      options.deadline = ru::Deadline::after(std::chrono::hours(1));
    } else if (sched.deadline_kind == 2) {
      options.deadline = ru::Deadline::after(std::chrono::microseconds(sched.deadline_us));
    }

    std::thread canceller;
    if (sched.cancel_after_us >= 0) {
      canceller = std::thread([&token, delay = sched.cancel_after_us] {
        std::this_thread::sleep_for(std::chrono::microseconds(delay));
        token.cancel();
      });
    }

    const auto result = sta::analyze_corpus_checked(scheduled, options);
    if (canceller.joinable()) canceller.join();
    watchdog.pet();
    ++ran;

    ASSERT_TRUE(result.is_ok()) << result.status().message();
    const sta::CorpusModels& models = result.value();
    const std::uint64_t abort_fires = FaultInjector::instance().fire_count(FaultSite::kPoolAbort);

    // Healthy nets: bitwise-identical to the fault-free baseline.
    ASSERT_EQ(models.nets.size(), baseline.nets.size());
    for (std::size_t ni = 0; ni < models.nets.size(); ++ni) {
      const sta::NetModels& got = models.nets[ni];
      if (!got.analyzed || got.faulted) continue;
      const sta::NetModels& want = baseline.nets[ni];
      ASSERT_EQ(got.taps.size(), want.taps.size());
      for (std::size_t t = 0; t < got.taps.size(); ++t) {
        ASSERT_EQ(bits(got.taps[t].sum_rc), bits(want.taps[t].sum_rc))
            << design.nets[ni].name << " tap " << t;
        ASSERT_EQ(bits(got.taps[t].sum_lc), bits(want.taps[t].sum_lc))
            << design.nets[ni].name << " tap " << t;
        ASSERT_EQ(bits(got.taps[t].zeta), bits(want.taps[t].zeta))
            << design.nets[ni].name << " tap " << t;
      }
    }

    // Partial-result bookkeeping.
    std::size_t incomplete = 0;
    for (const sta::NetModels& slot : models.nets) {
      if (!slot.analyzed && !slot.faulted) ++incomplete;
    }
    EXPECT_EQ(incomplete, models.incomplete_nets);
    if (models.incomplete_nets > 0) {
      EXPECT_FALSE(models.stop_status.is_ok());
      const ErrorCode code = models.stop_status.code();
      EXPECT_TRUE(code == ErrorCode::kCancelled || code == ErrorCode::kDeadlineExceeded);
      const std::size_t named = count_if_diag(models.diagnostics, [&](const ru::Diagnostic& d) {
        return d.warning && d.code == code && !d.net.empty();
      });
      EXPECT_EQ(named, models.incomplete_nets);
    } else if (models.stop_status.is_ok()) {
      // No stop: every net reached a verdict, and only the poisoned net
      // failed — the pool abort is limit=1 and always retried away within
      // the attempt budget, and a data fault is never retried.
      EXPECT_EQ(models.faulted_nets, sched.with_bad_net ? 1u : 0u);
      EXPECT_EQ(models.quarantined_nets, 0u);
    }

    // Exactly-once surfacing of injected throwing faults.
    const std::size_t abort_diags = count_if_diag(models.diagnostics, [](const ru::Diagnostic& d) {
      return d.code == ErrorCode::kInjectedFault;
    });
    EXPECT_EQ(abort_diags, abort_fires) << "pool-abort fires vs diagnostics";
    // A poisoned net that reached a verdict is an error diagnostic naming
    // it (a stop may instead leave that net incomplete).
    if (models.stop_status.is_ok() && sched.with_bad_net) {
      const std::size_t poisoned = count_if_diag(models.diagnostics, [](const ru::Diagnostic& d) {
        return !d.warning && !d.net.empty();
      });
      EXPECT_EQ(poisoned, models.faulted_nets);
    }
  }
  FaultInjector::instance().disarm_all();
  std::fprintf(stderr, "chaos soak: %zu schedule(s) ran\n", ran);
  EXPECT_GT(ran, 0u);
}

TEST(ChaosSoak, StoppedIncrementalUpdateDiscardsPartialResultCleanly) {
  InjectorGuard guard;
  relmore::Timer timer;
  ASSERT_TRUE(timer.load(chaos_design()).is_ok());

  // Deterministic stops first: an already-expired deadline and a
  // pre-cancelled token each halt update_checked at its first
  // cone-frontier poll. The partial-result contract: the *design* edit
  // commits, the in-place re-time is abandoned, and the cached analysis
  // is discarded rather than left half-updated.
  struct Stop {
    const char* net;
    ErrorCode want;
  };
  ru::CancelToken cancelled;
  cancelled.cancel();
  for (const Stop stop : {Stop{"n0_0", ErrorCode::kDeadlineExceeded},
                          Stop{"n1_1", ErrorCode::kCancelled}}) {
    ASSERT_TRUE(timer.analyze().is_ok());
    const std::uint64_t epoch = timer.design()->epoch;
    relmore::Timer::Edit edit = timer.edit();
    ASSERT_TRUE(edit.set_net_section_values(stop.net, "s0", {60.0, 0.0, 20e-15}).is_ok());
    sta::AnalyzeOptions options;
    if (stop.want == ErrorCode::kDeadlineExceeded) {
      options.deadline = ru::Deadline::after(std::chrono::seconds(0));
    } else {
      options.cancel = &cancelled;
    }
    const auto outcome = edit.commit(options);
    ASSERT_TRUE(outcome.is_ok()) << outcome.status().message();
    EXPECT_FALSE(outcome.value().incremental);
    EXPECT_EQ(outcome.value().stats.stop_status.code(), stop.want);
    EXPECT_EQ(timer.result(), nullptr);         // partial result discarded
    EXPECT_EQ(timer.design()->epoch, epoch + 1);  // the edit itself committed

    // The committed design re-times to the exact from-scratch bits.
    const auto graph = sta::TimingGraph::build_checked(*timer.design());
    ASSERT_TRUE(graph.is_ok());
    const auto fresh = graph.value().analyze_checked();
    ASSERT_TRUE(fresh.is_ok());
    const auto summary = timer.analyze();
    ASSERT_TRUE(summary.is_ok());
    EXPECT_EQ(bits(summary.value().wns), bits(fresh.value().summary.wns));
    EXPECT_EQ(bits(summary.value().tns), bits(fresh.value().summary.tns));
  }

  // Racing canceller: either verdict is legitimate, but the invariant
  // holds on both sides — an in-place re-time is bitwise-exact, an
  // abandoned one leaves no cached result behind.
  for (std::uint64_t i = 0; i < 8; ++i) {
    const std::uint64_t seed = splitmix64(0xcafe + i);
    SCOPED_TRACE("cancel race seed " + std::to_string(seed));
    ASSERT_TRUE(timer.analyze().is_ok());
    relmore::Timer::Edit edit = timer.edit();
    ASSERT_TRUE(edit
                    .set_net_section_values(i % 2 == 0 ? "n0_1" : "n2_0", "s1",
                                            {40.0 + static_cast<double>(seed % 50), 0.0,
                                             15e-15})
                    .is_ok());
    ru::CancelToken token;
    std::thread canceller([&token, delay = seed % 200] {
      std::this_thread::sleep_for(std::chrono::microseconds(delay));
      token.cancel();
    });
    sta::AnalyzeOptions options;
    options.cancel = &token;
    const auto outcome = edit.commit(options);
    canceller.join();
    ASSERT_TRUE(outcome.is_ok()) << outcome.status().message();
    const auto graph = sta::TimingGraph::build_checked(*timer.design());
    ASSERT_TRUE(graph.is_ok());
    const auto fresh = graph.value().analyze_checked();
    ASSERT_TRUE(fresh.is_ok());
    if (outcome.value().incremental) {
      ASSERT_NE(timer.result(), nullptr);
      EXPECT_EQ(bits(timer.result()->summary.wns), bits(fresh.value().summary.wns));
      EXPECT_EQ(bits(timer.result()->summary.tns), bits(fresh.value().summary.tns));
    } else {
      EXPECT_EQ(outcome.value().stats.stop_status.code(), ErrorCode::kCancelled);
      EXPECT_EQ(timer.result(), nullptr);
    }
  }
}

TEST(ChaosSoak, ParseTruncationSurfacesAsNamedDiagnostic) {
  InjectorGuard guard;
  sta::SyntheticSpec spec;
  spec.nets = 8;
  spec.topo_classes = 2;
  spec.chain_depth = 2;
  const std::string text = sta::make_synthetic_design_text(spec);

  // Fires on the 3rd reader line: the deck ends mid-design.
  ASSERT_TRUE(FaultInjector::instance().arm_spec("parse-truncate:every=3:seed=0:limit=1").is_ok());
  std::istringstream is(text);
  ru::DiagnosticsReport report;
  const auto r = sta::read_design_checked(is, sta::generic_library(), &report);
  EXPECT_EQ(FaultInjector::instance().fire_count(FaultSite::kParseTruncate), 1u);
  ASSERT_FALSE(r.is_ok());
  bool surfaced = false;
  for (const ru::Diagnostic& d : report.entries()) {
    if (d.code == ErrorCode::kParseError &&
        d.message.find("input truncated (injected fault)") != std::string::npos) {
      surfaced = true;
    }
  }
  EXPECT_TRUE(surfaced) << report.to_string();

  // Disarmed, the same deck parses clean.
  FaultInjector::instance().disarm_all();
  std::istringstream again(text);
  const auto clean = sta::read_design_checked(again, sta::generic_library());
  EXPECT_TRUE(clean.is_ok()) << clean.status().message();
}

TEST(ChaosSoak, WnsBitwiseStableAcrossRecoveredFaults) {
  InjectorGuard guard;
  const sta::Design design = chaos_design();
  const auto graph = sta::TimingGraph::build_checked(design);
  ASSERT_TRUE(graph.is_ok());

  sta::AnalyzeOptions options;
  options.threads = 2;
  const auto clean = graph.value().analyze_checked(options);
  ASSERT_TRUE(clean.is_ok());
  const sta::TimingSummary& want = clean.value().summary;
  ASSERT_EQ(want.faulted_nets, 0u);

  // A retried pool abort and a slow worker must not move a single bit of
  // WNS/TNS or any endpoint slack.
  for (unsigned threads : {1u, 4u}) {
    ASSERT_TRUE(
        FaultInjector::instance().arm_spec("pool-abort:every=2:limit=1,pool-delay:every=32")
            .is_ok());
    sta::AnalyzeOptions faulty;
    faulty.threads = threads;
    const auto got_r = graph.value().analyze_checked(faulty);
    FaultInjector::instance().disarm_all();
    ASSERT_TRUE(got_r.is_ok());
    const sta::TimingSummary& got = got_r.value().summary;
    EXPECT_EQ(got.faulted_nets, 0u);
    EXPECT_EQ(got.incomplete_nets, 0u);
    EXPECT_EQ(bits(got.wns), bits(want.wns));
    EXPECT_EQ(bits(got.tns), bits(want.tns));
    const std::vector<sta::EndpointSlack> got_rows = sta::endpoints_by_slack(got_r.value());
    const std::vector<sta::EndpointSlack> want_rows = sta::endpoints_by_slack(clean.value());
    ASSERT_EQ(got_rows.size(), want_rows.size());
    for (std::size_t e = 0; e < got_rows.size(); ++e) {
      EXPECT_EQ(got_rows[e].port, want_rows[e].port);
      EXPECT_EQ(bits(got_rows[e].slack), bits(want_rows[e].slack));
    }
  }
}

// --- stage-solve: a wire-stage solve that throws --------------------------

/// Nets in forward-sweep order with their stage-solve hit counts: every
/// timed, healthy net hits the site once per tap.
std::vector<std::pair<int, std::size_t>> stage_hits(const sta::Design& design,
                                                    const sta::TimingResult& clean) {
  std::vector<std::pair<int, std::size_t>> out;
  for (const int ni : design.topo_nets) {
    const sta::NetTiming& nt = clean.nets[static_cast<std::size_t>(ni)];
    if (nt.driver.timed && !nt.faulted) out.emplace_back(ni, nt.taps.size());
  }
  return out;
}

/// The net whose solve takes hit `h` of a fault-free sweep.
int net_at_hit(const std::vector<std::pair<int, std::size_t>>& hits, std::uint64_t h) {
  for (const auto& [ni, taps] : hits) {
    if (h < taps) return ni;
    h -= taps;
  }
  return -1;
}

/// A seed arming `stage-solve:every=N` to fire first on hit `h` (< N).
std::uint64_t seed_for_hit(std::uint64_t h, std::uint64_t every) {
  const auto site = static_cast<std::uint64_t>(FaultSite::kStageSolve);
  for (std::uint64_t seed = 0;; ++seed) {
    if (splitmix64(seed ^ site) % every == h) return seed;
  }
}

std::size_t stage_diagnostics(const ru::DiagnosticsReport& report, const std::string& net) {
  return count_if_diag(report, [&](const ru::Diagnostic& d) {
    return !d.warning && d.net == net &&
           d.message.find("stage delay solve failed") != std::string::npos;
  });
}

void expect_same_timing(const sta::TimingResult& got, const sta::TimingResult& want) {
  ASSERT_EQ(got.nets.size(), want.nets.size());
  for (std::size_t ni = 0; ni < got.nets.size(); ++ni) {
    const sta::NetTiming& a = got.nets[ni];
    const sta::NetTiming& b = want.nets[ni];
    EXPECT_EQ(a.faulted, b.faulted) << "net " << ni;
    ASSERT_EQ(a.taps.size(), b.taps.size());
    for (std::size_t t = 0; t < a.taps.size(); ++t) {
      EXPECT_EQ(a.taps[t].timed, b.taps[t].timed) << "net " << ni << " tap " << t;
      EXPECT_EQ(bits(a.taps[t].arrival), bits(b.taps[t].arrival)) << "net " << ni;
      EXPECT_EQ(bits(a.taps[t].slew), bits(b.taps[t].slew)) << "net " << ni;
      EXPECT_EQ(bits(a.taps[t].required), bits(b.taps[t].required)) << "net " << ni;
    }
  }
  EXPECT_EQ(got.summary.faulted_nets, want.summary.faulted_nets);
  EXPECT_EQ(bits(got.summary.wns), bits(want.summary.wns));
  EXPECT_EQ(bits(got.summary.tns), bits(want.summary.tns));
  EXPECT_EQ(got.summary.untimed_endpoints, want.summary.untimed_endpoints);
}

TEST(ChaosSoak, StageSolveFaultIsCountedAndNamedOnItsNet) {
  InjectorGuard guard;
  const sta::Design design = chaos_design();
  const auto graph = sta::TimingGraph::build_checked(design);
  ASSERT_TRUE(graph.is_ok());
  const auto clean = graph.value().analyze_checked();
  ASSERT_TRUE(clean.is_ok());
  ASSERT_EQ(clean.value().summary.faulted_nets, 0u);
  const auto hits = stage_hits(design, clean.value());
  std::size_t total_hits = 0;
  for (const auto& [ni, taps] : hits) total_hits += taps;
  ASSERT_GT(total_hits, 4u);

  // Sweep (every, seed): each single fire lands on the net owning that
  // hit, faults it alone, and is counted and named exactly once.
  for (std::uint64_t every = 1; every <= total_hits; every += 3) {
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
      const std::string spec = "stage-solve:every=" + std::to_string(every) +
                               ":seed=" + std::to_string(seed) + ":limit=1";
      ASSERT_TRUE(FaultInjector::instance().arm_spec(spec).is_ok());
      const auto faulty = graph.value().analyze_checked();
      const std::uint64_t fires = FaultInjector::instance().fire_count(FaultSite::kStageSolve);
      FaultInjector::instance().disarm_all();
      ASSERT_TRUE(faulty.is_ok()) << spec;
      ASSERT_EQ(fires, 1u) << spec;

      const std::uint64_t phase =
          splitmix64(seed ^ static_cast<std::uint64_t>(FaultSite::kStageSolve)) % every;
      const int target = net_at_hit(hits, phase);
      ASSERT_GE(target, 0) << spec;
      const sta::TimingResult& r = faulty.value();
      for (std::size_t ni = 0; ni < design.nets.size(); ++ni) {
        EXPECT_EQ(r.nets[ni].faulted, static_cast<int>(ni) == target) << spec << " net " << ni;
      }
      EXPECT_EQ(r.summary.faulted_nets, 1u) << spec;
      EXPECT_EQ(stage_diagnostics(r.diagnostics, design.nets[static_cast<std::size_t>(target)].name),
                1u)
          << spec;
      EXPECT_EQ(count_if_diag(r.diagnostics, [](const ru::Diagnostic& d) { return !d.warning; }),
                1u)
          << spec;
    }
  }
}

TEST(ChaosSoak, StageSolveFaultIncrementalMatchesFullAnalysis) {
  InjectorGuard guard;
  relmore::Timer timer;
  ASSERT_TRUE(timer.load(chaos_design()).is_ok());
  ASSERT_TRUE(timer.analyze().is_ok());
  const sta::Design& design = *timer.design();

  // Edit one mid-design net, then fault the first stage solve of the
  // incremental re-time: that is the edited net's first tap.
  const int target = design.topo_nets[design.topo_nets.size() / 2];
  const sta::Net& net = design.nets[static_cast<std::size_t>(target)];
  const std::string section = net.flat.names().back();
  relmore::Timer::Edit edit = timer.edit();
  ASSERT_TRUE(edit.set_net_section_values(net.name, section, {57.0, 0.4e-9, 21e-15}).is_ok());
  ASSERT_TRUE(FaultInjector::instance().arm_spec("stage-solve:every=1:limit=1").is_ok());
  const auto outcome = edit.commit();
  const std::uint64_t fires = FaultInjector::instance().fire_count(FaultSite::kStageSolve);
  FaultInjector::instance().disarm_all();
  ASSERT_TRUE(outcome.is_ok()) << outcome.status().message();
  ASSERT_TRUE(outcome.value().incremental);
  ASSERT_EQ(fires, 1u);
  const sta::TimingResult& updated = *timer.result();
  EXPECT_TRUE(updated.nets[static_cast<std::size_t>(target)].faulted);
  EXPECT_EQ(updated.summary.faulted_nets, 1u);
  EXPECT_EQ(stage_diagnostics(updated.diagnostics, net.name), 1u);

  // Full analysis of the edited design with the fault on the same solve.
  const auto graph = sta::TimingGraph::build_checked(design);
  ASSERT_TRUE(graph.is_ok());
  const auto clean = graph.value().analyze_checked();
  ASSERT_TRUE(clean.is_ok());
  const auto hits = stage_hits(design, clean.value());
  std::uint64_t hit = 0;
  std::size_t total_hits = 0;
  for (const auto& [ni, taps] : hits) {
    if (ni == target) hit = total_hits;
    total_hits += taps;
  }
  const std::uint64_t every = total_hits + 1;
  const std::string spec = "stage-solve:every=" + std::to_string(every) +
                           ":seed=" + std::to_string(seed_for_hit(hit, every)) + ":limit=1";
  ASSERT_TRUE(FaultInjector::instance().arm_spec(spec).is_ok());
  const auto full = graph.value().analyze_checked();
  EXPECT_EQ(FaultInjector::instance().fire_count(FaultSite::kStageSolve), 1u);
  FaultInjector::instance().disarm_all();
  ASSERT_TRUE(full.is_ok());
  EXPECT_EQ(stage_diagnostics(full.value().diagnostics, net.name), 1u);
  expect_same_timing(updated, full.value());
}

}  // namespace
