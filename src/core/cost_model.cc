#include "src/core/cost_model.h"

#include <algorithm>
#include <limits>

#include "src/util/logging.h"
#include "src/util/math_util.h"
#include "src/util/rng.h"

namespace t10 {
namespace {

constexpr double kMinPrediction = 1e-7;  // 100 ns floor.

// Shift-model features: a constant, the bytes, and the shift-buffer
// iterations they take.
std::array<double, 3> ShiftFeatures(std::int64_t bytes, std::int64_t chunk_bytes) {
  return {1.0, static_cast<double>(bytes), static_cast<double>(CeilDiv(bytes, chunk_bytes))};
}

}  // namespace

const char* KernelClassName(KernelClass cls) {
  switch (cls) {
    case KernelClass::kMatMul:
      return "MatMul";
    case KernelClass::kConv:
      return "Conv";
    case KernelClass::kElementwise:
      return "Elementwise";
    case KernelClass::kReduce:
      return "Reduce";
    case KernelClass::kGather:
      return "Gather";
    case KernelClass::kVendor:
      return "Vendor";
  }
  return "?";
}

KernelClass ClassifySubTask(const SubTaskShape& shape) {
  switch (shape.kind) {
    case OpKind::kContraction:
      return shape.kernel_volume > 1 ? KernelClass::kConv : KernelClass::kMatMul;
    case OpKind::kElementwise:
      return KernelClass::kElementwise;
    case OpKind::kReduceSum:
      return KernelClass::kReduce;
    case OpKind::kGather:
      return KernelClass::kGather;
    case OpKind::kVendor:
      return KernelClass::kVendor;
  }
  return KernelClass::kElementwise;
}

std::array<double, 3> FittedCostModel::Features(const SubTaskShape& shape) {
  // A constant, the arithmetic work, and the local-memory traffic. (Separate
  // in/out byte features would be collinear for elementwise kernels, where
  // input and output sizes are always equal.)
  return {1.0, shape.flops, static_cast<double>(shape.in_bytes + shape.out_bytes)};
}

SubTaskShape FittedCostModel::RandomShape(KernelClass cls, Rng& rng) {
  SubTaskShape s;
  auto log_uniform = [&rng](std::int64_t lo, std::int64_t hi) {
    double x = rng.UniformReal(std::log(static_cast<double>(lo)),
                               std::log(static_cast<double>(hi)));
    return static_cast<std::int64_t>(std::exp(x));
  };
  switch (cls) {
    case KernelClass::kMatMul: {
      std::int64_t m = log_uniform(1, 256);
      std::int64_t k = log_uniform(1, 512);
      std::int64_t n = log_uniform(1, 256);
      s.kind = OpKind::kContraction;
      s.flops = 2.0 * static_cast<double>(m * k * n);
      s.in_bytes = (m * k + k * n) * 2;
      s.out_bytes = m * n * 2;
      s.inner_length = n;
      s.kernel_volume = 1;
      break;
    }
    case KernelClass::kConv: {
      std::int64_t kernel = 2 * rng.Uniform(0, 3) + 1;  // 1/3/5/7.
      std::int64_t c = log_uniform(1, 64);
      std::int64_t f = log_uniform(1, 64);
      std::int64_t hw = log_uniform(4, 64);
      s.kind = OpKind::kContraction;
      s.flops = 2.0 * static_cast<double>(f * hw * hw * c * kernel * kernel);
      s.in_bytes = (c * (hw + kernel - 1) * (hw + kernel - 1) + f * c * kernel * kernel) * 2;
      s.out_bytes = f * hw * hw * 2;
      s.inner_length = hw;
      s.kernel_volume = c * kernel * kernel;
      break;
    }
    case KernelClass::kElementwise: {
      std::int64_t elems = log_uniform(16, 128 * 1024);
      double cost = static_cast<double>(rng.Uniform(1, 8));
      s.kind = OpKind::kElementwise;
      s.flops = cost * static_cast<double>(elems);
      s.in_bytes = elems * 2;
      s.out_bytes = elems * 2;
      s.inner_length = elems;
      break;
    }
    case KernelClass::kReduce: {
      std::int64_t rows = log_uniform(1, 512);
      std::int64_t cols = log_uniform(2, 1024);
      s.kind = OpKind::kReduceSum;
      s.flops = static_cast<double>(rows * cols);
      s.in_bytes = rows * cols * 2;
      s.out_bytes = rows * 2;
      s.inner_length = cols;
      break;
    }
    case KernelClass::kGather: {
      std::int64_t n = log_uniform(1, 1024);
      std::int64_t e = log_uniform(8, 1024);
      s.kind = OpKind::kGather;
      s.flops = static_cast<double>(n * e);
      s.in_bytes = n * 4 + n * e * 2;
      s.out_bytes = n * e * 2;
      s.inner_length = e;
      break;
    }
    case KernelClass::kVendor: {
      std::int64_t elems = log_uniform(16, 64 * 1024);
      s.kind = OpKind::kVendor;
      // Vary work-per-element so the flops and bytes features decorrelate.
      s.flops = static_cast<double>(elems * rng.Uniform(1, 6));
      s.in_bytes = elems * 2;
      s.out_bytes = elems * 2;
      s.inner_length = elems;
      break;
    }
  }
  return s;
}

FittedCostModel FittedCostModel::Fit(const KernelGroundTruth& truth, int samples_per_class,
                                     std::uint64_t seed) {
  T10_CHECK_GE(samples_per_class, 16);
  FittedCostModel model;
  model.shift_chunk_bytes_ = truth.chip().shift_buffer_bytes;

  Rng rng(seed);
  for (int c = 0; c < kNumKernelClasses; ++c) {
    const KernelClass cls = static_cast<KernelClass>(c);
    LinearRegression& reg = model.kernel_models_[static_cast<std::size_t>(c)];
    for (int i = 0; i < samples_per_class; ++i) {
      SubTaskShape shape = RandomShape(cls, rng);
      reg.AddSample(Features(shape), truth.SubTaskSeconds(shape));
    }
    T10_CHECK(reg.Fit()) << "cost model fit failed for " << KernelClassName(cls);
    model.r_squared_[static_cast<std::size_t>(c)] = reg.RSquared();
  }

  // Communication model: affine in bytes and buffer iterations (paper: "the
  // communication time is also accurately fitted by a linear regression").
  // Sample beyond several buffer lengths so the iteration-count feature
  // varies (a constant column would make the normal equations singular).
  const std::int64_t max_shift_bytes = std::max<std::int64_t>(
      128 * 1024, 8 * model.shift_chunk_bytes_);
  for (int i = 0; i < samples_per_class; ++i) {
    std::int64_t bytes = rng.Uniform(1, max_shift_bytes);
    model.shift_model_.AddSample(ShiftFeatures(bytes, model.shift_chunk_bytes_),
                                 truth.ShiftSeconds(bytes));
  }
  T10_CHECK(model.shift_model_.Fit()) << "shift cost model fit failed";
  return model;
}

double FittedCostModel::SubTaskSeconds(const SubTaskShape& shape) const {
  const KernelClass cls = ClassifySubTask(shape);
  const auto& custom = custom_[static_cast<std::size_t>(cls)];
  if (custom) {
    return custom(shape);
  }
  double predicted = kernel_models_[static_cast<std::size_t>(cls)].Predict(Features(shape));
  return std::max(predicted, kMinPrediction);
}

double FittedCostModel::SplitSecondsFloor(const SubTaskShape& floor) const {
  auto class_floor = [&](KernelClass cls) {
    const auto c = static_cast<std::size_t>(cls);
    if (custom_[c]) {
      return -std::numeric_limits<double>::infinity();  // Its function is opaque.
    }
    // Every step is clamped to at least kMinPrediction. With no coefficient
    // below 0, k >= 1 steps also predict at least one intercept plus the
    // flops and bytes terms of their summed work, so at least the floor's
    // prediction. A negative coefficient (a fit can give one: the bytes of
    // gather, conv and reduce have) breaks that, leaving the clamp.
    const std::vector<double>& coefficients = kernel_models_[c].coefficients();
    if (std::any_of(coefficients.begin(), coefficients.end(), [](double v) { return v < 0.0; })) {
      return kMinPrediction;
    }
    return std::max(kernel_models_[c].Predict(Features(floor)), kMinPrediction);
  };
  const KernelClass cls = ClassifySubTask(floor);
  // A step of a conv whose kernel volume shrinks to 1 is costed as a matmul.
  return cls == KernelClass::kConv
             ? std::min(class_floor(cls), class_floor(KernelClass::kMatMul))
             : class_floor(cls);
}

double FittedCostModel::ShiftSeconds(std::int64_t bytes) const {
  if (bytes <= 0) {
    return 0.0;
  }
  double predicted = shift_model_.Predict(ShiftFeatures(bytes, shift_chunk_bytes_));
  return std::max(predicted, kMinPrediction);
}

double FittedCostModel::RSquared(KernelClass cls) const {
  return r_squared_[static_cast<std::size_t>(cls)];
}

void FittedCostModel::SetCustomKernel(KernelClass cls,
                                      std::function<double(const SubTaskShape&)> fn) {
  custom_[static_cast<std::size_t>(cls)] = std::move(fn);
}

std::vector<FittedCostModel::Sample> FittedCostModel::HeldOutSamples(
    const KernelGroundTruth& truth, KernelClass cls, int count, std::uint64_t seed) const {
  Rng rng(seed);
  std::vector<Sample> samples;
  samples.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Sample sample;
    sample.shape = RandomShape(cls, rng);
    sample.actual_seconds = truth.SubTaskSeconds(sample.shape);
    sample.predicted_seconds = SubTaskSeconds(sample.shape);
    samples.push_back(sample);
  }
  return samples;
}

}  // namespace t10
