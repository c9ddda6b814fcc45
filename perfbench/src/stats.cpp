#include "stats.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

namespace {

std::size_t nearest_rank(std::size_t n, double q) {
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  return values[nearest_rank(values.size(), q) - 1];
}

std::optional<double> tail_percentile(const std::vector<double>& values, double q) {
  const std::size_t n = values.size();
  if (n == 0 || n - nearest_rank(n, q) < 10) return std::nullopt;
  return percentile(values, q);
}

}  // namespace perfbench
