// perfbench: the repository benchmark (see ../README.md).
//
//   perfbench --workload ctl-small|bulk-grpc|share-mm --seed N --seconds S
//             --trace 0|1 [--smoke] [--commit ID]
//
// --trace 0 measures the end-to-end metrics; --trace 1 measures the
// per-layer metrics: an untraced phase (counters, call timings) and a traced
// phase (critical-path split) of the same requests, whose modeled latencies
// must agree to within the cost of the trace ids on the wire. The last
// stdout line is the result JSON. Exit status 0 only when every request
// succeeded and every check held.
#include <sys/utsname.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/bytes.h"
#include "probes.h"
#include "rigs.h"
#include "shm/namespace.h"
#include "stats.h"
#include "testbed/testbed.h"
#include "trace/chrome_trace.h"
#include "trace/span.h"

namespace perfbench {
namespace {

namespace vt = bf::vt;
namespace trace = bf::trace;
using Clock = std::chrono::steady_clock;

// ---- workload sizes ----------------------------------------------------------
//
// A run does a fixed amount of work, sized from --seconds so that it takes
// about that long on a 4-core host; every phase has at least 10k modeled
// latency samples so the p99 has 100 samples beyond it.

constexpr std::size_t kCtlN = 16;             // MM 16x16: ~3 KiB per request
constexpr std::size_t kSobelSide = 512;       // 1 MiB each way
constexpr std::size_t kShareN = 448;          // Table III MM
constexpr double kShareRates[] = {84, 70, 49, 42};  // Table I high load
constexpr std::size_t kShareTenants = std::size(kShareRates);

constexpr std::uint64_t kMinSamples = 10'000;
constexpr std::uint64_t kCtlRequestsPerSecond = 16'000;
constexpr std::uint64_t kBulkRequestsPerSecond = 2'000;
constexpr std::int64_t kShareModeledSecondsPerSecond = 20;
constexpr std::int64_t kShareMinWindowS = 45;  // >= 10k samples at ~245 rq/s
constexpr int kWarmupRequests = 32;
constexpr int kSetups = 21;
constexpr auto kWatchdog = std::chrono::seconds(170);

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::int64_t seconds = 10;
  bool trace = false;
  bool smoke = false;
  std::string commit = "unknown";
};

// ---- bookkeeping -------------------------------------------------------------

struct Count {
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t failed = 0;
  void add(const Count& other) {
    sent += other.sent;
    ok += other.ok;
    failed += other.failed;
  }
};

class Report {
 public:
  void phase(const std::string& name, const Count& count) {
    std::printf("phase %-16s sent=%llu ok=%llu failed=%llu\n", name.c_str(),
                static_cast<unsigned long long>(count.sent),
                static_cast<unsigned long long>(count.ok),
                static_cast<unsigned long long>(count.failed));
    total_.add(count);
    if (count.failed > 0) fail(name + ": " + std::to_string(count.failed) +
                               " failed requests");
  }
  void fail(const std::string& why) {
    std::printf("CHECK FAILED: %s\n", why.c_str());
    correct_ = false;
  }
  void check(bool ok, const std::string& why) {
    if (!ok) fail(why);
  }
  [[nodiscard]] bool correct() const { return correct_; }
  [[nodiscard]] const Count& total() const { return total_; }

 private:
  Count total_;
  bool correct_ = true;
};

void note_failure(const bf::Status& status, Count& count) {
  if (count.failed++ == 0) {
    std::printf("first failure: %s\n", status.to_string().c_str());
  }
}

// Counters the program exposes, read before and after a timed phase.
struct Layers {
  std::vector<bf::devmgr::DeviceManager*> managers;
  std::vector<std::shared_ptr<bf::shm::Segment>> segments;
};

struct Snapshot {
  AllocCounts alloc;
  std::uint64_t deep_copies = 0;
  std::uint64_t heap_allocs = 0;
  std::uint64_t tasks = 0;
  std::uint64_t ops = 0;
  std::uint64_t shm_copies = 0;
  std::uint64_t shm_bytes = 0;
  double cpu_us = 0.0;
  Clock::time_point wall;
};

Snapshot snapshot(const Layers& layers) {
  Snapshot s;
  for (const bf::devmgr::DeviceManager* manager : layers.managers) {
    s.tasks += manager->tasks_executed();
    s.ops += manager->ops_executed();
  }
  for (const auto& segment : layers.segments) {
    s.shm_copies += segment->copy_count();
    s.shm_bytes += segment->total_bytes_copied();
  }
  s.deep_copies = bf::Bytes::deep_copy_count();
  s.heap_allocs = bf::Bytes::heap_alloc_count();
  s.alloc = alloc_counts();
  s.cpu_us = process_cpu_us();
  s.wall = Clock::now();
  return s;
}

// One timed phase.
struct Timed {
  Count count;
  Snapshot before;
  Snapshot after;
  double caller_cpu_us = 0.0;
  std::vector<double> wall_us;           // every completed request
  // Modeled latency of every successful request in the measured window.
  std::vector<std::int64_t> vt_ns;
  std::vector<std::uint64_t> trace_ids;  // parallel to vt_ns
  double vt_window_s = 0.0;
  std::map<std::string, double> busy_pct;  // node -> % of the window
  CallTimes calls;

  [[nodiscard]] double wall_s() const {
    return std::chrono::duration<double>(after.wall - before.wall).count();
  }
  [[nodiscard]] double cpu_us() const { return after.cpu_us - before.cpu_us; }
};

void merge(CallTimes& into, const CallTimes& from) {
  auto append = [](std::vector<double>& a, const std::vector<double>& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  append(into.write_us, from.write_us);
  append(into.read_us, from.read_us);
  append(into.kernel_us, from.kernel_us);
  append(into.finish_us, from.finish_us);
  into.calls += from.calls;
}

// Milliseconds of wall time spent in `fn`.
double wall_ms(const std::function<void()>& fn) {
  const auto start = Clock::now();
  fn();
  return wall_us_since(start) / 1e3;
}

void require(const bf::Status& status, const std::string& what) {
  if (!status.ok()) {
    throw std::runtime_error(what + ": " + status.to_string());
  }
}

// ---- single-tenant gRPC rigs (ctl-small, bulk-grpc) --------------------------

struct RigOptions {
  bool functional = false;
  RequestOptions request;
  // Built once per phase from `request`; set-ups then measure the program.
  std::shared_ptr<const RequestShape> shape;
};

// Rig, session, context and workload of one tenant. Not movable: the context
// holds the session's address.
class RigTenant {
 public:
  RigTenant(const RigOptions& options, Count& warmup)
      : rig_(std::make_unique<GrpcRig>(options.functional)),
        session_("perfbench") {
    auto devices = rig_->runtime().devices();
    require(devices.status(), "devices");
    auto context =
        rig_->runtime().create_context(devices.value()[0].id, session_);
    require(context.status(), "create_context");
    context_ = std::move(context.value());
    workload_ = std::make_unique<SeededRequest>(options.shape, options.request);
    require(workload_->setup(*context_), "workload setup");
    for (int i = 0; i < kWarmupRequests; ++i) {
      ++warmup.sent;
      bf::Status s = workload_->handle_request(*context_);
      if (s.ok()) {
        ++warmup.ok;
      } else {
        note_failure(s, warmup);
      }
    }
  }
  ~RigTenant() {
    workload_->teardown();
    context_.reset();
    rig_.reset();
  }
  RigTenant(const RigTenant&) = delete;
  RigTenant& operator=(const RigTenant&) = delete;

  // Sends `n` requests back to back. With a trace sink installed, mints a
  // root span per request and records it around the call.
  Timed run(std::uint64_t n) {
    Timed t;
    Layers layers{{&rig_->manager()}, {}};
    const bool traced = trace::enabled();
    const vt::Time vt_start = session_.now();
    t.before = snapshot(layers);
    const double caller_before = thread_cpu_us();
    for (std::uint64_t i = 0; i < n; ++i) {
      const vt::Time start = session_.now();
      trace::SpanContext root;
      if (traced) {
        root = trace::mint_trace("perfbench", i + 1, start);
        session_.set_trace_context(root);
      }
      const auto wall_start = Clock::now();
      bf::Status s = workload_->handle_request(*context_);
      const double wall = wall_us_since(wall_start);
      const vt::Time end = session_.now();
      if (traced) {
        session_.set_trace_context({});
        trace::record(trace::Span{"perfbench", "request", start, end,
                                  root.trace_id, root.span_id, 0});
      }
      ++t.count.sent;
      if (!s.ok()) {
        note_failure(s, t.count);
        continue;
      }
      ++t.count.ok;
      t.wall_us.push_back(wall);
      t.vt_ns.push_back((end - start).ns());
      t.trace_ids.push_back(root.trace_id);
    }
    t.caller_cpu_us = thread_cpu_us() - caller_before;
    t.after = snapshot(layers);
    const vt::Time vt_end = session_.now();
    t.vt_window_s = (vt_end - vt_start).sec();
    t.busy_pct["B"] = 100.0 * rig_->manager().utilization(vt_start, vt_end);
    return t;
  }

 private:
  std::unique_ptr<GrpcRig> rig_;
  bf::ocl::Session session_;
  std::unique_ptr<bf::ocl::Context> context_;
  std::unique_ptr<SeededRequest> workload_;
};

// ---- shared testbed (share-mm) ------------------------------------------------

std::string tenant_name(std::size_t i) { return "mm-" + std::to_string(i + 1); }

struct ShareOptions {
  bool functional = false;
  std::uint64_t seed = 1;
  Checks* checks = nullptr;
  bool time_calls = false;
  trace::TraceBuilder* trace = nullptr;
  std::vector<std::shared_ptr<const RequestShape>> shapes;  // per tenant
};

RequestOptions tenant_request(const ShareOptions& options, std::size_t i) {
  RequestOptions request;
  request.seed = options.seed;
  request.stream = i;
  request.inputs = options.checks != nullptr ? 2 : 1;
  request.checks = options.checks;
  return request;
}

// Seeded inputs of every tenant, built once so set-ups measure the program.
void make_share_shapes(ShareOptions& options) {
  options.shapes.clear();
  for (std::size_t i = 0; i < kShareTenants; ++i) {
    options.shapes.push_back(std::make_shared<const RequestShape>(
        mm_shape(kShareN, tenant_request(options, i))));
  }
}

// The 3-node testbed with four MM tenants deployed through the Registry and
// cold-started sequentially in deployment order.
class ShareBed {
 public:
  explicit ShareBed(const ShareOptions& options) : times_(kShareTenants) {
    bf::testbed::TestbedOptions testbed;
    testbed.functional_boards = options.functional;
    testbed.trace = options.trace;
    bed_ = std::make_unique<bf::testbed::Testbed>(testbed);
    for (std::size_t i = 0; i < kShareTenants; ++i) {
      RequestOptions request = tenant_request(options, i);
      request.times = options.time_calls ? &times_[i] : nullptr;
      bf::workloads::WorkloadFactory factory = [request,
                                                shape = options.shapes[i]] {
        return std::make_unique<SeededRequest>(shape, request);
      };
      deploy_ms_ += wall_ms([&] {
        require(bed_->deploy_blastfunction(tenant_name(i), factory),
                "deploy " + tenant_name(i));
      });
    }
    for (std::size_t i = 0; i < kShareTenants; ++i) {
      warm_ms_ += wall_ms([&] {
        require(bed_->gateway().warm(tenant_name(i)), "warm " + tenant_name(i));
      });
    }
    deploy_ms_ /= kShareTenants;
    warm_ms_ /= kShareTenants;
  }

  [[nodiscard]] double deploy_ms() const { return deploy_ms_; }
  [[nodiscard]] double warm_ms() const { return warm_ms_; }

  // Drives every tenant closed loop at its rate (one thread each, as hey
  // does) the way bf::loadgen::drive does: each tenant starts at its own
  // clock, and the requests it sends inside [start + warmup,
  // start + warmup + window) are its latency samples and its goodput.
  Timed drive(vt::Duration warmup, vt::Duration window) {
    Layers layers = this->layers();
    struct Tenant {
      Count count;
      std::vector<double> wall_us;
      std::vector<std::int64_t> vt_ns;
      std::vector<std::uint64_t> trace_ids;
      double cpu_us = 0.0;
    };
    std::vector<Tenant> tenants(kShareTenants);
    std::vector<std::shared_ptr<bf::faas::FunctionInstance>> instances;
    // The span of every tenant's window, for board utilization.
    vt::Time first = vt::Time::infinite();
    vt::Time last = vt::Time::zero();
    for (std::size_t i = 0; i < kShareTenants; ++i) {
      instances.push_back(bed_->gateway().instance(tenant_name(i)));
      if (instances.back() == nullptr) {
        throw std::runtime_error("no instance for " + tenant_name(i));
      }
      const vt::Time from = instances.back()->now() + warmup;
      if (from < first) first = from;
      last = vt::max(last, from + window);
    }
    Timed t;
    t.before = snapshot(layers);
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < kShareTenants; ++i) {
      threads.emplace_back([&, i] {
        Tenant& out = tenants[i];
        bf::faas::FunctionInstance& instance = *instances[i];
        const double cpu_before = thread_cpu_us();
        const vt::Duration period =
            vt::Duration::from_seconds_f(1.0 / kShareRates[i]);
        const vt::Time from = instance.now() + warmup;
        const vt::Time to = from + window;
        for (vt::Time next = instance.now(); next < to;
             next = vt::max(instance.now(), next + period)) {
          instance.advance_clock_to(next);
          const auto wall_start = Clock::now();
          auto invoked = instance.invoke();
          const double wall = wall_us_since(wall_start);
          ++out.count.sent;
          if (!invoked.ok()) {
            note_failure(invoked.status(), out.count);
            continue;
          }
          ++out.count.ok;
          out.wall_us.push_back(wall);
          const bf::faas::InvokeResult& result = invoked.value();
          if (next >= from) {
            out.vt_ns.push_back(result.e2e_latency.ns());
            out.trace_ids.push_back(result.trace_id);
          }
        }
        // Release the gate so co-tenants' later work can proceed.
        instance.shutdown();
        out.cpu_us = thread_cpu_us() - cpu_before;
      });
    }
    for (std::thread& thread : threads) thread.join();
    t.after = snapshot(layers);

    for (const Tenant& tenant : tenants) {
      t.count.add(tenant.count);
      t.caller_cpu_us += tenant.cpu_us;
      t.wall_us.insert(t.wall_us.end(), tenant.wall_us.begin(),
                       tenant.wall_us.end());
      t.vt_ns.insert(t.vt_ns.end(), tenant.vt_ns.begin(), tenant.vt_ns.end());
      t.trace_ids.insert(t.trace_ids.end(), tenant.trace_ids.begin(),
                         tenant.trace_ids.end());
    }
    for (const CallTimes& calls : times_) merge(t.calls, calls);
    t.vt_window_s = window.sec();
    for (const char* node : bf::testbed::Testbed::kNodeNames) {
      t.busy_pct[node] = 100.0 * bed_->manager(node).utilization(first, last);
    }
    return t;
  }

 private:
  // Every manager, and every shared-memory segment open on the testbed's
  // nodes (one per warm tenant session).
  Layers layers() {
    Layers layers;
    for (const char* node : bf::testbed::Testbed::kNodeNames) {
      bf::devmgr::DeviceManager& manager = bed_->manager(node);
      layers.managers.push_back(&manager);
      for (std::uint64_t id = 1; id <= 64; ++id) {
        auto segment = bed_->node_shm(node).open(manager.segment_name(id));
        if (segment.ok()) layers.segments.push_back(segment.value());
      }
    }
    return layers;
  }

  std::vector<CallTimes> times_;  // per tenant; sized once, addresses stable
  std::unique_ptr<bf::testbed::Testbed> bed_;
  double deploy_ms_ = 0.0;
  double warm_ms_ = 0.0;
};

// ---- critical-path split -----------------------------------------------------

const char* hop_group(const std::string& name) {
  auto starts = [&](const char* prefix) { return name.rfind(prefix, 0) == 0; };
  if (name == "gateway" || name == "handler" || name == "fork") return "faas";
  if (starts("rpc:")) return "rpc";
  if (starts("handle:")) return "devmgr_handle";
  if (name == "queue-wait") return "queue_wait";
  if (name == "op:write") return "op_write";
  if (name == "op:read") return "op_read";
  if (name == "op:kernel" || starts("kernel:")) return "kernel";
  return "client";
}

constexpr const char* kHopGroups[] = {"faas",     "rpc",     "devmgr_handle",
                                      "queue_wait", "op_write", "op_read",
                                      "kernel",   "client"};

// Mean per-request critical-path self time per hop group, in ms. Checks the
// critical_path() contract for every request: the root spans exactly the
// measured modeled latency and the hops' self times sum to it.
std::map<std::string, double> hop_split(const trace::TraceBuilder& builder,
                                        const Timed& t, Report& report) {
  std::unordered_map<std::uint64_t, std::vector<trace::Span>> by_trace;
  for (trace::Span& span : builder.spans()) {
    if (span.trace_id != 0) by_trace[span.trace_id].push_back(std::move(span));
  }
  std::map<std::string, double> sum_ms;
  for (const char* group : kHopGroups) sum_ms[group] = 0.0;
  std::uint64_t bad = 0;
  for (std::size_t i = 0; i < t.trace_ids.size(); ++i) {
    trace::TraceBuilder one;
    for (const trace::Span& span : by_trace[t.trace_ids[i]]) one.add(span);
    auto path = one.critical_path(t.trace_ids[i]);
    if (!path.ok()) {
      ++bad;
      continue;
    }
    std::int64_t hops_ns = 0;
    for (const auto& hop : path.value().hops) {
      hops_ns += hop.self.ns();
      sum_ms[hop_group(hop.name)] += hop.self.ms();
    }
    if (path.value().total.ns() != t.vt_ns[i] || hops_ns != t.vt_ns[i]) ++bad;
  }
  report.check(!t.trace_ids.empty(), "traced phase completed no requests");
  report.check(bad == 0, std::to_string(bad) +
                             " traced requests whose critical path does not "
                             "sum to their modeled latency");
  for (auto& [group, ms] : sum_ms) {
    ms /= static_cast<double>(std::max<std::size_t>(1, t.trace_ids.size()));
  }
  return sum_ms;
}

// ---- metrics -----------------------------------------------------------------

double ms_p(const std::vector<std::int64_t>& ns, double q) {
  std::vector<double> ms;
  ms.reserve(ns.size());
  for (std::int64_t v : ns) ms.push_back(static_cast<double>(v) / 1e6);
  return percentile(std::move(ms), q);
}

double p50_or_zero(const std::vector<double>& samples) {
  return samples.empty() ? 0.0 : percentile(samples, 0.5);
}

// The end-to-end metrics the benchmark gates on: set-up time and the host
// cost of the timed phase, taken over the whole phase.
std::vector<Metric> end_to_end(const Timed& t, double setup_s) {
  return {
      {"setup_s", setup_s, "s"},
      {"sim_req_per_s", static_cast<double>(t.count.ok) / t.wall_s(),
       "req/s"},
      {"host_cpu_us_per_req", per_request(t.cpu_us(), t.count.ok), "us"},
      {"host_wall_us_p50", percentile(t.wall_us, 0.5), "us"},
      {"host_wall_us_p90", percentile(t.wall_us, 0.9), "us"},
      {"peak_rss_mb", peak_rss_mib(), "MiB"},
  };
}

// The modeled (VT) end-to-end metrics. They depend on neither the seed nor
// the host, so they repeat exactly from run to run; the result JSON carries
// them among the per-layer metrics, and every run prints them.
std::vector<Metric> modeled(const Timed& t) {
  return {
      {"vt.latency_p50_ms", ms_p(t.vt_ns, 0.5), "ms"},
      {"vt.latency_p99_ms", ms_p(t.vt_ns, 0.99), "ms"},
      {"vt.goodput_rps", static_cast<double>(t.vt_ns.size()) / t.vt_window_s,
       "req/s"},
  };
}

void print_modeled(const Timed& t) {
  const double failed_frac = static_cast<double>(t.count.failed) /
                             static_cast<double>(std::max<std::uint64_t>(
                                 1, t.count.sent));
  std::printf("samples: %zu host wall, %zu modeled latency\n",
              t.wall_us.size(), t.vt_ns.size());
  std::printf("modeled %-34s %s ratio (%llu of %llu)\n", "failed_frac",
              format_number(failed_frac).c_str(),
              static_cast<unsigned long long>(t.count.failed),
              static_cast<unsigned long long>(t.count.sent));
  for (const Metric& m : modeled(t)) {
    std::printf("modeled %-34s %s %s\n", m.name.c_str(),
                format_number(m.value).c_str(), m.unit.c_str());
  }
}

std::vector<Metric> per_layer(const Timed& t, const Timed& traced,
                              const std::map<std::string, double>& hops,
                              double shift_ns, double deploy_ms,
                              double warm_ms) {
  const std::uint64_t n = t.count.ok;
  const Snapshot& a = t.before;
  const Snapshot& b = t.after;
  auto per = [&](double total) { return per_request(total, n); };
  auto busy = [&](const char* node) {
    auto it = t.busy_pct.find(node);
    return it == t.busy_pct.end() ? 0.0 : it->second;
  };
  const double cpu = per(t.cpu_us());
  const double traced_cpu = per_request(traced.cpu_us(), traced.count.ok);
  std::vector<Metric> m = {
      {"remote.write_us_p50", p50_or_zero(t.calls.write_us), "us"},
      {"remote.read_us_p50", p50_or_zero(t.calls.read_us), "us"},
      {"remote.kernel_us_p50", p50_or_zero(t.calls.kernel_us), "us"},
      {"remote.finish_us_p50", p50_or_zero(t.calls.finish_us), "us"},
      {"remote.calls_per_req", per(static_cast<double>(t.calls.calls)),
       "count"},
      {"host.caller_cpu_us_per_req", per(t.caller_cpu_us), "us"},
      {"host.other_cpu_us_per_req", per(t.cpu_us() - t.caller_cpu_us), "us"},
      {"common.allocs_per_req",
       per(static_cast<double>(b.alloc.count - a.alloc.count)), "count"},
      {"common.alloc_kib_per_req",
       per(static_cast<double>(b.alloc.bytes - a.alloc.bytes) / 1024.0),
       "KiB"},
      {"common.bytes_deep_copies_per_req",
       per(static_cast<double>(b.deep_copies - a.deep_copies)), "count"},
      {"common.bytes_heap_allocs_per_req",
       per(static_cast<double>(b.heap_allocs - a.heap_allocs)), "count"},
      {"shm.copies_per_req",
       per(static_cast<double>(b.shm_copies - a.shm_copies)), "count"},
      {"shm.kib_copied_per_req",
       per(static_cast<double>(b.shm_bytes - a.shm_bytes) / 1024.0), "KiB"},
      {"devmgr.tasks_per_req", per(static_cast<double>(b.tasks - a.tasks)),
       "count"},
      {"devmgr.ops_per_req", per(static_cast<double>(b.ops - a.ops)),
       "count"},
      {"sim.busy_pct.A", busy("A"), "%"},
      {"sim.busy_pct.B", busy("B"), "%"},
      {"sim.busy_pct.C", busy("C"), "%"},
      {"registry.deploy_ms", deploy_ms, "ms"},
      {"faas.warm_ms", warm_ms, "ms"},
  };
  for (const Metric& metric : modeled(t)) m.push_back(metric);
  for (const char* group : kHopGroups) {
    m.push_back({std::string("vt.") + group + "_ms", hops.at(group), "ms"});
  }
  m.push_back({"trace.host_overhead_pct", 100.0 * (traced_cpu / cpu - 1.0),
               "%"});
  m.push_back({"trace.vt_shift_ns_per_req", shift_ns, "ns"});
  return m;
}

// ---- workloads ---------------------------------------------------------------

std::uint64_t rig_requests(const Args& args, std::uint64_t per_second) {
  if (args.smoke) return 300;
  if (args.trace) return kMinSamples;
  return std::max<std::uint64_t>(kMinSamples,
                                 static_cast<std::uint64_t>(args.seconds) *
                                     per_second);
}

// Tracing puts the trace and span ids on the wire (proto fields 9/10), and
// the transport cost model charges those bytes, so a traced request's
// modeled latency may exceed its untraced twin by a few nanoseconds. Any
// larger difference means the two phases did not run the same requests.
constexpr std::int64_t kMaxTraceShiftNs = 1'000;

// Mean modeled-latency shift per request, traced minus untraced, in ns.
double check_vt_match(const Timed& untraced, const Timed& traced,
                      Report& report) {
  if (untraced.vt_ns.size() != traced.vt_ns.size() ||
      untraced.vt_ns.empty()) {
    report.fail("untraced and traced phases have different sample counts");
    return 0.0;
  }
  double shift = 0.0;
  std::uint64_t outside = 0;
  for (std::size_t i = 0; i < traced.vt_ns.size(); ++i) {
    const std::int64_t d = traced.vt_ns[i] - untraced.vt_ns[i];
    shift += static_cast<double>(d);
    if (d < -kMaxTraceShiftNs || d > kMaxTraceShiftNs) ++outside;
  }
  report.check(outside == 0,
               std::to_string(outside) +
                   " traced requests whose modeled latency differs from the "
                   "untraced run by more than 1 us");
  return shift / static_cast<double>(traced.vt_ns.size());
}

using ShapeMaker = std::function<RequestShape(const RequestOptions&)>;

// ctl-small and bulk-grpc: one tenant on the single-board gRPC rig.
std::vector<Metric> run_rig(const Args& args, Report& report,
                            RigOptions options, const ShapeMaker& make_shape,
                            std::uint64_t per_second, bool functional_pass) {
  Checks checks;
  if (functional_pass) {
    // Short pass on a functional board against the CPU reference; the timed
    // phases then run timing-only.
    RigOptions functional = options;
    functional.functional = true;
    functional.request.inputs = 2;
    functional.request.checks = &checks;
    functional.shape =
        std::make_shared<const RequestShape>(make_shape(functional.request));
    Count warmup;
    RigTenant tenant(functional, warmup);
    Timed t = tenant.run(8);
    t.count.add(warmup);
    report.phase("functional", t.count);
    report.check(checks.compared.load() == t.count.ok && t.count.ok > 0,
                 "functional pass compared no outputs");
  }
  if (options.functional) options.request.checks = &checks;
  options.shape =
      std::make_shared<const RequestShape>(make_shape(options.request));

  CallTimes untraced_calls;
  if (args.trace) options.request.times = &untraced_calls;
  const int setups = args.smoke ? 2 : kSetups;
  std::vector<double> setup_s;
  std::unique_ptr<RigTenant> tenant;
  Count warmup;
  for (int i = 0; i < setups; ++i) {
    tenant.reset();
    setup_s.push_back(wall_ms([&] {
      tenant = std::make_unique<RigTenant>(options, warmup);
    }) / 1e3);
  }
  report.phase("setup", warmup);

  const std::uint64_t n = rig_requests(args, per_second);
  untraced_calls = {};  // drop the set-up calls
  Timed t = tenant->run(n);
  tenant.reset();
  report.phase("timed", t.count);
  print_modeled(t);
  if (!args.trace) {
    if (options.functional) {
      report.check(checks.mismatched.load() == 0, "output mismatches");
    }
    return end_to_end(t, percentile(setup_s, 0.5));
  }
  t.calls = untraced_calls;

  // A fresh tenant replays the same requests with a trace sink installed.
  trace::TraceBuilder builder(args.seed);
  CallTimes traced_calls;
  options.request.times = &traced_calls;
  Timed traced;
  trace::install(&builder);
  {
    Count traced_warmup;
    RigTenant traced_tenant(options, traced_warmup);
    report.phase("traced-setup", traced_warmup);
    traced = traced_tenant.run(n);
  }
  trace::install(nullptr);
  report.phase("traced", traced.count);
  const double shift_ns = check_vt_match(t, traced, report);
  const auto hops = hop_split(builder, traced, report);
  if (options.functional) {
    report.check(checks.mismatched.load() == 0, "output mismatches");
  }
  return per_layer(t, traced, hops, shift_ns, 0.0, 0.0);
}

std::vector<Metric> run_share(const Args& args, Report& report) {
  const vt::Duration warmup =
      args.smoke ? vt::Duration::millis(500) : vt::Duration::seconds(2);
  vt::Duration window = vt::Duration::seconds(
      std::max(kShareMinWindowS, args.seconds * kShareModeledSecondsPerSecond));
  if (args.trace) window = vt::Duration::seconds(kShareMinWindowS);
  if (args.smoke) window = vt::Duration::seconds(2);

  {
    Checks checks;
    ShareOptions functional;
    functional.functional = true;
    functional.seed = args.seed;
    functional.checks = &checks;
    make_share_shapes(functional);
    ShareBed bed(functional);
    Timed t = bed.drive(vt::Duration::nanos(0), vt::Duration::millis(100));
    report.phase("functional", t.count);
    report.check(checks.compared.load() == t.count.ok && t.count.ok > 0,
                 "functional pass compared no outputs");
    report.check(checks.mismatched.load() == 0, "output mismatches");
  }

  ShareOptions options;
  options.seed = args.seed;
  options.time_calls = args.trace;
  make_share_shapes(options);
  const int setups = args.smoke ? 2 : kSetups;
  std::vector<double> setup_s, deploy_ms, warm_ms;
  std::unique_ptr<ShareBed> bed;
  for (int i = 0; i < setups; ++i) {
    bed.reset();
    setup_s.push_back(
        wall_ms([&] { bed = std::make_unique<ShareBed>(options); }) / 1e3);
    deploy_ms.push_back(bed->deploy_ms());
    warm_ms.push_back(bed->warm_ms());
  }
  Timed t = bed->drive(warmup, window);
  bed.reset();
  report.phase("timed", t.count);
  print_modeled(t);
  if (!args.trace) return end_to_end(t, percentile(setup_s, 0.5));

  trace::TraceBuilder builder(args.seed);
  Timed traced;
  {
    options.trace = &builder;
    ShareBed traced_bed(options);
    traced = traced_bed.drive(warmup, window);
  }
  report.phase("traced", traced.count);
  const double shift_ns = check_vt_match(t, traced, report);
  const auto hops = hop_split(builder, traced, report);
  return per_layer(t, traced, hops, shift_ns, percentile(deploy_ms, 0.5),
                   percentile(warm_ms, 0.5));
}

// ---- main --------------------------------------------------------------------

// Kills the process if no result is printed in time: a hung request (for
// example a lost completion) must fail the run, not stall it.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds limit)
      : thread_([this, limit] {
          std::unique_lock lock(mutex_);
          if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::fprintf(stderr,
                         "perfbench: no result after %lld s; a request is "
                         "hung\n",
                         static_cast<long long>(limit.count()));
            std::fflush(nullptr);
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard lock(mutex_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  utsname name{};
  return uname(&name) == 0 ? name.machine : "unknown";
}

std::string json_string(const std::string& s) {
  return "\"" + trace::json_escape(s) + "\"";
}

Args parse(int argc, char** argv) {
  Args args;
  auto value = [&](int& i) -> std::string {
    if (i + 1 >= argc) throw std::invalid_argument(std::string(argv[i]) +
                                                   " needs a value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--workload") {
      args.workload = value(i);
    } else if (flag == "--seed") {
      args.seed = std::stoull(value(i));
    } else if (flag == "--seconds") {
      args.seconds = std::stoll(value(i));
    } else if (flag == "--trace") {
      args.trace = value(i) != "0";
    } else if (flag == "--smoke") {
      args.smoke = true;
    } else if (flag == "--commit") {
      args.commit = value(i);
    } else {
      throw std::invalid_argument("unknown flag " + flag);
    }
  }
  if (args.workload != "ctl-small" && args.workload != "bulk-grpc" &&
      args.workload != "share-mm") {
    throw std::invalid_argument("--workload must be ctl-small, bulk-grpc or "
                                "share-mm");
  }
  if (args.seconds < 1) throw std::invalid_argument("--seconds must be >= 1");
  return args;
}

int run(const Args& args) {
  std::printf(
      "meta {\"workload\": %s, \"seed\": %llu, \"seconds\": %lld, "
      "\"trace\": %d, \"smoke\": %s, \"commit\": %s, \"nproc\": %u, "
      "\"cpu_model\": %s, \"build_type\": %s}\n",
      json_string(args.workload).c_str(),
      static_cast<unsigned long long>(args.seed),
      static_cast<long long>(args.seconds), args.trace ? 1 : 0,
      args.smoke ? "true" : "false", json_string(args.commit).c_str(),
      std::thread::hardware_concurrency(), json_string(cpu_model()).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str());

  Report report;
  std::vector<Metric> metrics;
  if (args.workload == "share-mm") {
    metrics = run_share(args, report);
  } else {
    RigOptions options;
    options.request.seed = args.seed;
    if (args.workload == "ctl-small") {
      // Functional board: every result is checked, so no separate pass.
      options.functional = true;
      options.request.inputs = 16;
      metrics = run_rig(
          args, report, options,
          [](const RequestOptions& r) { return mm_shape(kCtlN, r); },
          kCtlRequestsPerSecond, false);
    } else {
      metrics = run_rig(
          args, report, options,
          [](const RequestOptions& r) {
            return sobel_shape(kSobelSide, kSobelSide, r);
          },
          kBulkRequestsPerSecond, true);
    }
  }
  for (const Metric& m : metrics) {
    std::printf("metric %-34s %s %s\n", m.name.c_str(),
                format_number(m.value).c_str(), m.unit.c_str());
  }
  const Count& total = report.total();
  std::printf("%s\n", result_json(report.correct(), total.sent, total.failed,
                                  metrics)
                          .c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    const perfbench::Args args = perfbench::parse(argc, argv);
    perfbench::Watchdog watchdog(perfbench::kWatchdog);
    return perfbench::run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
