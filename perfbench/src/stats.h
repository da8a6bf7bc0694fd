// The benchmark's own arithmetic and output format, kept apart from the
// measurement code so the self-test can pin every rule.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

// Nearest-rank percentile: the smallest sample with at least q of the
// samples at or below it, i.e. sorted[ceil(q * n) - 1] (q = 0 gives the
// minimum). Always returns an observed sample, so a deterministic input
// gives a bit-identical result. Requires a non-empty sample and q in [0, 1].
double percentile(std::vector<double> samples, double q);

// `total` spread over `requests`; requests must be positive.
double per_request(double total, std::uint64_t requests);

// Metric names: 1 to 64 characters from [A-Za-z0-9_.-], starting with a
// letter or a digit.
bool valid_metric_name(std::string_view name);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Shortest decimal text that reads back as exactly `value` (all digits).
std::string format_number(double value);

// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics);

}  // namespace perfbench
