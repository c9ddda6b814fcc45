#include "relmore/util/fault_injector.hpp"

#include <cstdio>
#include <cstdlib>
#include <mutex>

namespace relmore::util {

namespace {

/// splitmix64 finalizer — turns (seed ^ site) into a well-mixed phase so
/// two sites armed with the same seed do not fire in lockstep.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

bool site_from_name(const std::string& name, FaultSite* out) {
  for (std::size_t i = 0; i < kFaultSiteCount; ++i) {
    const auto site = static_cast<FaultSite>(i);
    if (name == fault_site_name(site)) {
      *out = site;
      return true;
    }
  }
  return false;
}

/// Parses a non-negative integer field value; rejects trailing garbage.
bool parse_u64(const std::string& text, std::uint64_t* out) {
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const unsigned long long parsed = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0' || errno != 0) return false;
  *out = parsed;
  return true;
}

}  // namespace

const char* fault_site_name(FaultSite site) {
  switch (site) {
    case FaultSite::kArenaAlloc: return "arena-alloc";
    case FaultSite::kSnapshotNan: return "snapshot-nan";
    case FaultSite::kPoolDelay: return "pool-delay";
    case FaultSite::kPoolAbort: return "pool-abort";
    case FaultSite::kParseTruncate: return "parse-truncate";
    case FaultSite::kStageSolve: return "stage-solve";
  }
  return "unknown";
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  static std::once_flag once;
  std::call_once(once, [] { injector.parse_env_once(); });
  return injector;
}

void FaultInjector::parse_env_once() {
  const char* env = std::getenv("RELMORE_FAULTS");
  if (env == nullptr || *env == '\0') return;
  const Status parsed = arm_spec(env);
  if (!parsed.is_ok()) {
    std::fprintf(stderr,
                 "relmore: rejecting RELMORE_FAULTS clause: %s (grammar: "
                 "<site>:every=N[:seed=S][:limit=K], comma-separated)\n",
                 parsed.message().c_str());
  }
}

Status FaultInjector::arm_spec(const std::string& spec) {
  // Parse into staging first; publish per clause so valid clauses stick.
  std::size_t pos = 0;
  Status first_error = Status::ok();
  while (pos <= spec.size()) {
    const std::size_t comma = spec.find(',', pos);
    const std::string clause =
        spec.substr(pos, comma == std::string::npos ? std::string::npos : comma - pos);
    pos = comma == std::string::npos ? spec.size() + 1 : comma + 1;
    if (clause.empty()) continue;

    std::size_t colon = clause.find(':');
    const std::string name = clause.substr(0, colon);
    FaultSite site{};
    if (!site_from_name(name, &site)) {
      if (first_error.is_ok()) {
        first_error = Status(ErrorCode::kInvalidArgument,
                             "unknown fault site \"" + name + "\"");
      }
      continue;
    }
    std::uint64_t every = 0;  // mandatory: a bare site name is malformed
    std::uint64_t seed = 0;
    std::uint64_t limit = 0;
    bool clause_ok = true;
    while (colon != std::string::npos) {
      const std::size_t next = clause.find(':', colon + 1);
      const std::string field = clause.substr(
          colon + 1, next == std::string::npos ? std::string::npos : next - colon - 1);
      colon = next;
      const std::size_t eq = field.find('=');
      const std::string key = field.substr(0, eq);
      const std::string val = eq == std::string::npos ? "" : field.substr(eq + 1);
      std::uint64_t parsed = 0;
      if (!parse_u64(val, &parsed) || (key == "every" && parsed == 0)) {
        clause_ok = false;
      } else if (key == "every") {
        every = parsed;
      } else if (key == "seed") {
        seed = parsed;
      } else if (key == "limit") {
        limit = parsed;
      } else {
        clause_ok = false;
      }
      if (!clause_ok) {
        if (first_error.is_ok()) {
          first_error = Status(ErrorCode::kInvalidArgument,
                               "bad field \"" + field + "\" for site \"" + name + "\"");
        }
        break;
      }
    }
    if (!clause_ok) continue;
    if (every == 0) {
      if (first_error.is_ok()) {
        first_error = Status(ErrorCode::kInvalidArgument,
                             "site \"" + name + "\" is missing every=N");
      }
      continue;
    }

    SiteState& s = sites_[static_cast<std::size_t>(site)];
    // Quiesce readers of the config fields, then publish with release so
    // a should_fire that observes armed==true sees the matching config.
    s.armed.store(false, std::memory_order_relaxed);
    s.every = every;
    s.phase = splitmix64(seed ^ static_cast<std::uint64_t>(site)) % every;
    s.limit = limit;
    s.hits.store(0, std::memory_order_relaxed);
    s.fires.store(0, std::memory_order_relaxed);
    s.armed.store(true, std::memory_order_release);
    any_armed_.store(true, std::memory_order_release);
  }
  return first_error;
}

void FaultInjector::disarm_all() {
  any_armed_.store(false, std::memory_order_relaxed);
  for (SiteState& s : sites_) {
    s.armed.store(false, std::memory_order_relaxed);
    s.hits.store(0, std::memory_order_relaxed);
    s.fires.store(0, std::memory_order_relaxed);
  }
}

std::uint64_t FaultInjector::fire_count(FaultSite site) const {
  return sites_[static_cast<std::size_t>(site)].fires.load(std::memory_order_relaxed);
}

Status FaultInjector::fire_status(FaultSite site) {
  return Status(ErrorCode::kInjectedFault,
                std::string("injected fault at site ") + fault_site_name(site));
}

bool FaultInjector::should_fire_slow(FaultSite site) {
  SiteState& s = sites_[static_cast<std::size_t>(site)];
  if (!s.armed.load(std::memory_order_acquire)) return false;
  const std::uint64_t hit = s.hits.fetch_add(1, std::memory_order_relaxed);
  if (hit % s.every != s.phase) return false;
  if (s.limit == 0) {
    s.fires.fetch_add(1, std::memory_order_relaxed);
    return true;
  }
  // CAS so fires never exceeds limit: fire_count() is exact, which the
  // chaos harness' "surfaced exactly once" assertion depends on.
  std::uint64_t f = s.fires.load(std::memory_order_relaxed);
  while (f < s.limit) {
    if (s.fires.compare_exchange_weak(f, f + 1, std::memory_order_relaxed)) {
      return true;
    }
  }
  return false;
}

}  // namespace relmore::util
