#pragma once

// In-memory spans recorded by the benchmark around its calls into the
// library's public functions. Spans are kept in a vector while the run
// measures and written out only when it ends.

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic nanoseconds (std::chrono::steady_clock).
std::int64_t now_ns();

struct Span {
  std::string name;
  std::uint64_t op = 0;     ///< the op (request) the span belongs to
  int parent = -1;          ///< index of the enclosing span, -1 for a root
  std::int64_t start = 0;   ///< ns
  std::int64_t end = 0;     ///< ns
};

/// Records nested spans. A disabled tracer records nothing and costs one
/// branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its index (-1
  /// when disabled).
  int open(const char* name, std::uint64_t op);
  void close(int index);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span.
class Scope {
 public:
  Scope(Tracer& tracer, const char* name, std::uint64_t op)
      : tracer_(tracer), index_(tracer.open(name, op)) {}
  ~Scope() { tracer_.close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

/// One JSON object per line: name, op, parent, start_ns, end_ns.
void write_spans(std::ostream& os, const std::vector<Span>& spans);

/// Self time of every span: its duration minus the part of its interval
/// that its children cover (overlapping children counted once, children
/// clipped to the parent).
std::vector<std::int64_t> self_times(const std::vector<Span>& spans);

/// Per-name totals over all spans with that name.
struct LayerTotals {
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
  std::size_t count = 0;
};
std::map<std::string, LayerTotals> layer_totals(const std::vector<Span>& spans);

}  // namespace perfbench
