// What the benchmark hands to the program: seeded request workloads written
// against the public bf::ocl API, a timing decorator around the command
// queue they use, and the single-board gRPC rig of the paper's overhead
// experiments (§IV-A).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "devmgr/device_manager.h"
#include "ocl/runtime.h"
#include "sim/board.h"
#include "workloads/workload.h"

namespace perfbench {

// Host wall time of each CommandQueue call, in microseconds. Filled by one
// thread (the queue's owner); merged by the caller afterwards.
struct CallTimes {
  std::vector<double> write_us;
  std::vector<double> read_us;
  std::vector<double> kernel_us;
  std::vector<double> finish_us;
  std::uint64_t calls = 0;
};

// Decorator timing every call into the wrapped queue.
std::unique_ptr<bf::ocl::CommandQueue> timed_queue(
    std::unique_ptr<bf::ocl::CommandQueue> inner, CallTimes* times);

// Output checks, shared by every workload instance of one phase.
struct Checks {
  std::atomic<std::uint64_t> compared{0};
  std::atomic<std::uint64_t> mismatched{0};
};

struct RequestOptions {
  std::uint64_t seed = 1;
  std::uint64_t stream = 0;  // tenant index: distinct inputs per tenant
  std::size_t inputs = 1;    // distinct seeded inputs, used round robin
  Checks* checks = nullptr;  // non-null: compare every output with the CPU
                             // reference (needs a functional board)
  CallTimes* times = nullptr;  // non-null: decorate the queue
};

// A request shape: seeded inputs, the expected outputs when checked, and
// the kernel launch. Kernel arguments are the input buffers, the output
// buffer, then `scalars`.
struct RequestShape {
  std::string accelerator;  // also the kernel name
  std::string bitstream;
  std::vector<std::vector<std::vector<std::uint8_t>>> inputs;  // [set][buf]
  std::vector<std::vector<std::uint8_t>> expected;  // [set]; empty: unchecked
  std::uint64_t out_bytes = 0;
  std::vector<std::int64_t> scalars;
  bf::ocl::NdRange range;
  bool float_output = false;  // compare as floats within 1e-3, else exactly
};

// Spector MM on N x N floats; Spector Sobel on a width x height u32 frame.
RequestShape mm_shape(std::size_t n, const RequestOptions& options);
RequestShape sobel_shape(std::size_t width, std::size_t height,
                         const RequestOptions& options);

// One request, shaped as bf::workloads::MatMulWorkload and SobelWorkload
// send it: write the inputs (non-blocking), launch the kernel, read the
// output (blocking).
class SeededRequest final : public bf::workloads::Workload {
 public:
  SeededRequest(std::shared_ptr<const RequestShape> shape,
                const RequestOptions& options);

  std::string name() const override { return shape_->accelerator; }
  std::string bitstream() const override { return shape_->bitstream; }
  std::string accelerator() const override { return shape_->accelerator; }
  bf::Status setup(bf::ocl::Context& context) override;
  bf::Status handle_request(bf::ocl::Context& context) override;
  void teardown() override;
  std::uint64_t request_bytes_in() const override;
  std::uint64_t request_bytes_out() const override {
    return shape_->out_bytes;
  }

 private:
  bool output_matches(const std::vector<std::uint8_t>& expected) const;

  std::shared_ptr<const RequestShape> shape_;  // shared by every instance
  RequestOptions options_;
  std::uint64_t sent_ = 0;
  std::vector<std::uint8_t> out_;
  std::vector<bf::ocl::Buffer> in_buffers_;
  bf::ocl::Buffer out_buffer_;
  bf::ocl::Kernel kernel_;
  std::unique_ptr<bf::ocl::CommandQueue> queue_;
};

// One board (node B) behind a Device Manager, reached through the Remote
// OpenCL Library over local gRPC: the single-tenant rig.
class GrpcRig {
 public:
  explicit GrpcRig(bool functional);
  ~GrpcRig();
  GrpcRig(const GrpcRig&) = delete;
  GrpcRig& operator=(const GrpcRig&) = delete;

  bf::ocl::Runtime& runtime() { return *runtime_; }
  bf::devmgr::DeviceManager& manager() { return *manager_; }

 private:
  std::unique_ptr<bf::sim::Board> board_;
  std::unique_ptr<bf::devmgr::DeviceManager> manager_;
  std::unique_ptr<bf::ocl::Runtime> runtime_;
};

}  // namespace perfbench
