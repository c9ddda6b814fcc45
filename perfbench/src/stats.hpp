#pragma once

// Order statistics for latency and accuracy samples.

#include <optional>
#include <vector>

namespace perfbench {

/// Median (mean of the two middle values for an even count). 0 when empty.
double median(std::vector<double> values);

/// Nearest-rank percentile `q` in (0, 1): the value at rank ceil(q * n).
double percentile(std::vector<double> values, double q);

/// Tail percentile `q`, reported only when at least ten samples lie
/// beyond it (n - ceil(q * n) >= 10); a tail read off fewer samples is a
/// guess, so it is withheld rather than printed.
std::optional<double> tail_percentile(const std::vector<double>& values, double q);

}  // namespace perfbench
