#include "rigs.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <type_traits>

#include "common/rng.h"
#include "net/transport.h"
#include "probes.h"
#include "remote/remote_runtime.h"
#include "sim/bitstream.h"
#include "workloads/matmul.h"
#include "workloads/sobel.h"

namespace perfbench {

namespace ocl = bf::ocl;

namespace {

class TimedQueue final : public ocl::CommandQueue {
 public:
  TimedQueue(std::unique_ptr<ocl::CommandQueue> inner, CallTimes* times)
      : inner_(std::move(inner)), times_(times) {}

  bf::Result<ocl::EventPtr> enqueue_write(const ocl::Buffer& buffer,
                                          std::uint64_t offset,
                                          bf::ByteSpan data, bool blocking,
                                          ocl::EventWaitList wait) override {
    return timed(times_->write_us, [&] {
      return inner_->enqueue_write(buffer, offset, data, blocking, wait);
    });
  }
  bf::Result<ocl::EventPtr> enqueue_write(const ocl::Buffer& buffer,
                                          std::uint64_t offset,
                                          bf::Bytes&& data, bool blocking,
                                          ocl::EventWaitList wait) override {
    return timed(times_->write_us, [&] {
      return inner_->enqueue_write(buffer, offset, std::move(data), blocking,
                                   wait);
    });
  }
  bf::Result<ocl::EventPtr> enqueue_read(const ocl::Buffer& buffer,
                                         std::uint64_t offset,
                                         bf::MutableByteSpan out,
                                         bool blocking,
                                         ocl::EventWaitList wait) override {
    return timed(times_->read_us, [&] {
      return inner_->enqueue_read(buffer, offset, out, blocking, wait);
    });
  }
  bf::Result<ocl::EventPtr> enqueue_kernel(const ocl::Kernel& kernel,
                                           ocl::NdRange range,
                                           ocl::EventWaitList wait) override {
    return timed(times_->kernel_us,
                 [&] { return inner_->enqueue_kernel(kernel, range, wait); });
  }
  bf::Status flush() override {
    ++times_->calls;
    return inner_->flush();
  }
  bf::Status finish() override {
    return timed(times_->finish_us, [&] { return inner_->finish(); });
  }

 private:
  template <typename Call>
  std::invoke_result_t<Call> timed(std::vector<double>& into, Call&& call) {
    ++times_->calls;
    const auto start = std::chrono::steady_clock::now();
    auto result = call();
    into.push_back(wall_us_since(start));
    return result;
  }

  std::unique_ptr<ocl::CommandQueue> inner_;
  CallTimes* times_;
};

template <typename T>
std::vector<std::uint8_t> to_bytes(const std::vector<T>& values) {
  std::vector<std::uint8_t> out(values.size() * sizeof(T));
  std::memcpy(out.data(), values.data(), out.size());
  return out;
}

bf::Rng input_rng(const RequestOptions& options, std::size_t set) {
  return bf::Rng(bf::Rng(options.seed).next_u64() ^
                 (options.stream * 0x9e3779b97f4a7c15ULL) ^
                 (set * 0xbf58476d1ce4e5b9ULL));
}

}  // namespace

std::unique_ptr<ocl::CommandQueue> timed_queue(
    std::unique_ptr<ocl::CommandQueue> inner, CallTimes* times) {
  return std::make_unique<TimedQueue>(std::move(inner), times);
}

RequestShape mm_shape(std::size_t n, const RequestOptions& options) {
  RequestShape shape;
  shape.accelerator = "mm";
  shape.bitstream = bf::sim::BitstreamLibrary::kMatMul;
  shape.out_bytes = n * n * sizeof(float);
  shape.scalars = {static_cast<std::int64_t>(n)};
  shape.range = {n, n, 1};
  shape.float_output = true;
  for (std::size_t set = 0; set < options.inputs; ++set) {
    bf::Rng rng = input_rng(options, set);
    std::vector<float> a(n * n), b(n * n);
    for (float& v : a) v = static_cast<float>(rng.next_double(-1.0, 1.0));
    for (float& v : b) v = static_cast<float>(rng.next_double(-1.0, 1.0));
    if (options.checks != nullptr) {
      shape.expected.push_back(
          to_bytes(bf::workloads::matmul_reference(a, b, n)));
    }
    shape.inputs.push_back({to_bytes(a), to_bytes(b)});
  }
  return shape;
}

RequestShape sobel_shape(std::size_t width, std::size_t height,
                         const RequestOptions& options) {
  RequestShape shape;
  shape.accelerator = "sobel";
  shape.bitstream = bf::sim::BitstreamLibrary::kSobel;
  shape.out_bytes = width * height * sizeof(std::uint32_t);
  shape.scalars = {static_cast<std::int64_t>(width),
                   static_cast<std::int64_t>(height)};
  shape.range = {width, height, 1};
  for (std::size_t set = 0; set < options.inputs; ++set) {
    bf::Rng rng = input_rng(options, set);
    std::vector<std::uint32_t> frame(width * height);
    for (auto& px : frame) px = static_cast<std::uint32_t>(rng.next_below(256));
    if (options.checks != nullptr) {
      shape.expected.push_back(
          to_bytes(bf::workloads::sobel_reference(frame, width, height)));
    }
    shape.inputs.push_back({to_bytes(frame)});
  }
  return shape;
}

SeededRequest::SeededRequest(std::shared_ptr<const RequestShape> shape,
                             const RequestOptions& options)
    : shape_(std::move(shape)),
      options_(options),
      out_(shape_->out_bytes) {}

std::uint64_t SeededRequest::request_bytes_in() const {
  std::uint64_t total = 0;
  for (const auto& buffer : shape_->inputs.front()) total += buffer.size();
  return total;
}

bf::Status SeededRequest::setup(ocl::Context& context) {
  if (bf::Status s = context.program(shape_->bitstream); !s.ok()) return s;
  for (const auto& buffer : shape_->inputs.front()) {
    auto created = context.create_buffer(buffer.size());
    if (!created.ok()) return created.status();
    in_buffers_.push_back(created.value());
  }
  auto out = context.create_buffer(shape_->out_bytes);
  if (!out.ok()) return out.status();
  out_buffer_ = out.value();
  auto kernel = context.create_kernel(shape_->accelerator);
  if (!kernel.ok()) return kernel.status();
  kernel_ = kernel.value();
  std::size_t arg = 0;
  for (const auto& buffer : in_buffers_) kernel_.set_arg(arg++, buffer);
  kernel_.set_arg(arg++, out_buffer_);
  for (std::int64_t scalar : shape_->scalars) kernel_.set_arg(arg++, scalar);
  auto queue = context.create_queue();
  if (!queue.ok()) return queue.status();
  queue_ = options_.times != nullptr
               ? timed_queue(std::move(queue.value()), options_.times)
               : std::move(queue.value());
  return bf::Status::Ok();
}

bf::Status SeededRequest::handle_request(ocl::Context& /*context*/) {
  const std::size_t set = sent_++ % shape_->inputs.size();
  const bool check = options_.checks != nullptr;
  if (check) std::fill(out_.begin(), out_.end(), std::uint8_t{0xff});

  const auto& inputs = shape_->inputs[set];
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    auto write = queue_->enqueue_write(in_buffers_[i], 0, bf::ByteSpan(inputs[i]),
                                       /*blocking=*/false);
    if (!write.ok()) return write.status();
  }
  auto launch = queue_->enqueue_kernel(kernel_, shape_->range);
  if (!launch.ok()) return launch.status();
  auto read = queue_->enqueue_read(out_buffer_, 0, bf::MutableByteSpan(out_),
                                   /*blocking=*/true);
  if (!read.ok()) return read.status();

  if (check) {
    options_.checks->compared.fetch_add(1, std::memory_order_relaxed);
    if (!output_matches(shape_->expected[set])) {
      options_.checks->mismatched.fetch_add(1, std::memory_order_relaxed);
      return bf::Internal(shape_->accelerator +
                          ": output differs from the CPU reference");
    }
  }
  return bf::Status::Ok();
}

bool SeededRequest::output_matches(
    const std::vector<std::uint8_t>& expected) const {
  if (!shape_->float_output) return out_ == expected;
  for (std::size_t i = 0; i + sizeof(float) <= out_.size(); i += sizeof(float)) {
    float got = 0.0F;
    float want = 0.0F;
    std::memcpy(&got, out_.data() + i, sizeof(float));
    std::memcpy(&want, expected.data() + i, sizeof(float));
    if (!(std::fabs(got - want) <= 1e-3F)) return false;
  }
  return true;
}

void SeededRequest::teardown() {
  queue_.reset();
  in_buffers_.clear();
  out_buffer_ = {};
  kernel_ = {};
}

GrpcRig::GrpcRig(bool functional) {
  bf::sim::BoardConfig board;
  board.id = "fpga-b";
  board.node = "B";
  board.host = bf::sim::make_node_b();
  board.functional = functional;
  board_ = std::make_unique<bf::sim::Board>(board);
  bf::devmgr::DeviceManagerConfig manager;
  manager.id = "devmgr-b";
  manager.allow_shared_memory = false;
  manager_ = std::make_unique<bf::devmgr::DeviceManager>(manager, board_.get(),
                                                         nullptr);
  bf::remote::ManagerAddress address;
  address.endpoint = &manager_->endpoint();
  address.transport = bf::net::local_grpc(board.host);
  address.prefer_shared_memory = false;
  runtime_ = std::make_unique<bf::remote::RemoteRuntime>(
      std::vector<bf::remote::ManagerAddress>{address});
}

GrpcRig::~GrpcRig() {
  runtime_.reset();
  manager_.reset();
}

}  // namespace perfbench
