#include "trace.hpp"

#include <algorithm>
#include <chrono>
#include <ostream>

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

int Tracer::open(const char* name, std::uint64_t op) {
  if (!enabled_) return -1;
  const int parent = open_.empty() ? -1 : open_.back();
  spans_.push_back(Span{name, op, parent, now_ns(), 0});
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end = now_ns();
  open_.pop_back();
}

void write_spans(std::ostream& os, const std::vector<Span>& spans) {
  for (const Span& s : spans) {
    os << "{\"name\":\"" << s.name << "\",\"op\":" << s.op << ",\"parent\":" << s.parent
       << ",\"start_ns\":" << s.start << ",\"end_ns\":" << s.end << "}\n";
  }
}

std::vector<std::int64_t> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) children[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t cursor = s.start;
    for (auto [b, e] : kids) {
      b = std::max(b, cursor);
      e = std::min(e, s.end);
      if (e > b) {
        covered += e - b;
        cursor = e;
      }
    }
    self[i] = (s.end - s.start) - covered;
  }
  return self;
}

std::map<std::string, LayerTotals> layer_totals(const std::vector<Span>& spans) {
  const std::vector<std::int64_t> self = self_times(spans);
  std::map<std::string, LayerTotals> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    LayerTotals& t = out[spans[i].name];
    t.total_ns += spans[i].end - spans[i].start;
    t.self_ns += self[i];
    ++t.count;
  }
  return out;
}

}  // namespace perfbench
