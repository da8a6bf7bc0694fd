#include "stats.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double percentile(std::vector<double> samples, double q) {
  if (samples.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(q >= 0.0 && q <= 1.0)) throw std::invalid_argument("q outside [0, 1]");
  const auto n = samples.size();
  auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  const std::size_t index = rank == 0 ? 0 : std::min(rank, n) - 1;
  std::nth_element(samples.begin(), samples.begin() + index, samples.end());
  return samples[index];
}

double per_request(double total, std::uint64_t requests) {
  if (requests == 0) throw std::invalid_argument("no requests to divide by");
  return total / static_cast<double>(requests);
}

bool valid_metric_name(std::string_view name) {
  if (name.empty() || name.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(name.front())) return false;
  return std::all_of(name.begin(), name.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

std::string format_number(double value) {
  if (!std::isfinite(value)) throw std::invalid_argument("non-finite metric");
  char buf[64];
  auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), value);
  if (ec != std::errc()) throw std::runtime_error("number formatting failed");
  return std::string(buf, end);
}

std::string result_json(bool correct, std::uint64_t attempted,
                        std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    if (!valid_metric_name(m.name)) {
      throw std::invalid_argument("invalid metric name: " + m.name);
    }
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + format_number(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
  }
  out += "}}";
  return out;
}

}  // namespace perfbench
