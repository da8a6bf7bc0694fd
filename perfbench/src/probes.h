// Host-side probes read from outside the program: process and thread CPU
// time, peak RSS, wall time and heap allocations (the global allocation
// functions are replaced in this binary only, see probes.cpp).
#pragma once

#include <chrono>
#include <cstdint>

namespace perfbench {

struct AllocCounts {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};
AllocCounts alloc_counts();

// User + system CPU time in microseconds: all threads of the process, or
// only the calling thread (RUSAGE_THREAD).
double process_cpu_us();
double thread_cpu_us();

// Peak resident set size of the process, MiB.
double peak_rss_mib();

inline double wall_us_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace perfbench
