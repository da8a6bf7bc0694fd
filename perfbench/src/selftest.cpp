// Self-test of the benchmark's own arithmetic and output format. Exits 0
// when every check holds; prints each failure.
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "stats.h"

namespace {

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++g_failures;
    std::printf("FAIL: %s\n", what.c_str());
  }
}

template <typename Fn>
bool throws(Fn&& fn) {
  try {
    fn();
  } catch (const std::invalid_argument&) {
    return true;
  }
  return false;
}

void percentile_rule() {
  using perfbench::percentile;
  const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  expect(percentile(ten, 0.5) == 5, "p50 of 1..10 is the 5th sample");
  expect(percentile(ten, 0.9) == 9, "p90 of 1..10 is the 9th sample");
  expect(percentile(ten, 0.99) == 10, "p99 of 1..10 is the maximum");
  expect(percentile(ten, 0.0) == 1, "p0 is the minimum");
  expect(percentile(ten, 1.0) == 10, "p100 is the maximum");
  expect(percentile({42}, 0.5) == 42, "single sample");
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  expect(percentile(hundred, 0.99) == 99, "p99 of 1..100 is the 99th sample");
  expect(percentile(hundred, 0.995) == 100, "rank rounds up");
  // Nearest rank never interpolates: the result is an observed sample.
  expect(percentile({1, 2}, 0.5) == 1, "p50 of two samples is the lower one");
  expect(throws([] { (void)percentile({}, 0.5); }), "empty sample rejected");
  expect(throws([] { (void)percentile({1}, 1.5); }), "q > 1 rejected");
}

void normalisation() {
  using perfbench::per_request;
  expect(per_request(1000.0, 4) == 250.0, "total divided by requests");
  expect(per_request(0.0, 7) == 0.0, "zero total");
  expect(throws([] { (void)per_request(1.0, 0); }), "zero requests rejected");
}

void metric_names() {
  using perfbench::valid_metric_name;
  for (const char* ok : {"setup_s", "sim.busy_pct.A", "vt.op_write_ms",
                         "host_wall_us_p90", "9lives", "a-b"}) {
    expect(valid_metric_name(ok), std::string("accepts ") + ok);
  }
  for (const char* bad : {"", "_lead", ".lead", "-lead", "has space",
                          "semi;colon", "quote\"", "slash/"}) {
    expect(!valid_metric_name(bad), std::string("rejects '") + bad + "'");
  }
  expect(valid_metric_name(std::string(64, 'a')), "64 characters accepted");
  expect(!valid_metric_name(std::string(65, 'a')), "65 characters rejected");
}

void output_format() {
  using perfbench::format_number;
  expect(format_number(1.5) == "1.5", "short decimal");
  expect(std::stod(format_number(0.1 + 0.2)) == 0.1 + 0.2,
         "all digits survive a round trip");
  expect(throws([] { (void)format_number(1.0 / 0.0); }),
         "non-finite rejected");
  const std::string json = perfbench::result_json(
      true, 10, 0, {{"latency_ms", 1.25, "ms"}, {"setup_s", 0.5, "s"}});
  expect(json ==
             "{\"correct\": true, \"attempted\": 10, \"failed\": 0, "
             "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
             "\"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}",
         "result line layout");
  expect(throws([] {
           (void)perfbench::result_json(true, 1, 0, {{"bad name", 1, "s"}});
         }),
         "invalid metric name rejected in output");
}

}  // namespace

int main() {
  percentile_rule();
  normalisation();
  metric_names();
  output_format();
  if (g_failures == 0) std::printf("perfbench self-test: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
