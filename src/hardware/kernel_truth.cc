#include "src/hardware/kernel_truth.h"

#include <cmath>

#include "src/util/logging.h"
#include "src/util/math_util.h"

namespace t10 {
namespace {

// Fixed per-vertex launch overheads, by kernel family.
constexpr double kMatrixVertexOverhead = 1.2e-6;
constexpr double kScalarVertexOverhead = 0.8e-6;

// Fraction of peak FLOPs achieved by the matrix (AMP) pipeline vs the scalar
// pipeline.
constexpr double kAmpEfficiency = 0.88;
constexpr double kScalarEfficiency = 0.22;

// Span of the multiplicative measurement noise: +/-1.5%.
constexpr double kNoiseSpan = 0.03;
// The smallest noise factor NoiseFactor() returns.
constexpr double kMinNoise = 1.0 - 0.5 * kNoiseSpan;

// The fixed launch overhead AffineSeconds() charges one step of `kind`.
double VertexOverhead(OpKind kind) {
  switch (kind) {
    case OpKind::kContraction:
      return kMatrixVertexOverhead;
    case OpKind::kElementwise:
    case OpKind::kReduceSum:
    case OpKind::kGather:
      return kScalarVertexOverhead;
    case OpKind::kVendor:
      return 4.0 * kScalarVertexOverhead;
  }
  return 0.0;
}

std::uint64_t HashCombine(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

}  // namespace

KernelGroundTruth::KernelGroundTruth(const ChipSpec& chip) : chip_(chip) {
  T10_CHECK_GT(chip_.core_flops, 0.0);
  T10_CHECK_GT(chip_.local_memory_bandwidth, 0.0);
}

double KernelGroundTruth::NoiseFactor(const SubTaskShape& shape) const {
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  h = HashCombine(h, static_cast<std::uint64_t>(shape.kind));
  h = HashCombine(h, static_cast<std::uint64_t>(shape.flops));
  h = HashCombine(h, static_cast<std::uint64_t>(shape.in_bytes));
  h = HashCombine(h, static_cast<std::uint64_t>(shape.out_bytes));
  h = HashCombine(h, static_cast<std::uint64_t>(shape.inner_length));
  h = HashCombine(h, static_cast<std::uint64_t>(shape.kernel_volume));
  // Map the hash to a +/-1.5% multiplicative perturbation.
  double unit = static_cast<double>(h % 10007) / 10006.0;
  return 1.0 + (unit - 0.5) * kNoiseSpan;
}

double KernelGroundTruth::AffineSeconds(const SubTaskShape& shape) const {
  const double bytes = static_cast<double>(shape.in_bytes + shape.out_bytes);
  const double memory_time = bytes / chip_.local_memory_bandwidth;
  const double overhead = VertexOverhead(shape.kind);
  switch (shape.kind) {
    case OpKind::kContraction:
      return overhead + shape.flops / (chip_.core_flops * kAmpEfficiency) + memory_time;
    case OpKind::kElementwise:
    case OpKind::kReduceSum:
      return overhead + shape.flops / (chip_.core_flops * kScalarEfficiency) + memory_time;
    case OpKind::kGather:
      // Dominated by local memory movement.
      return overhead + 2.0 * memory_time;
    case OpKind::kVendor:
      return overhead + 1.5 * (shape.flops / (chip_.core_flops * kScalarEfficiency)) +
             memory_time;
  }
  return 0.0;
}

double KernelGroundTruth::SubTaskSeconds(const SubTaskShape& shape) const {
  double time = AffineSeconds(shape);
  if (shape.kind == OpKind::kContraction && shape.kernel_volume > 1) {
    // Convolution path: the vendor kernel applies black-box optimizations
    // that depend on the kernel window in a way no affine model captures
    // (im2col thresholds, winograd-like fast paths, register blocking).
    std::uint64_t h = HashCombine(0x13198a2e03707344ULL,
                                  static_cast<std::uint64_t>(shape.kernel_volume));
    h = HashCombine(h, static_cast<std::uint64_t>(shape.inner_length));
    double blackbox = static_cast<double>(h % 997) / 996.0;  // [0, 1].
    time += shape.flops / (chip_.core_flops * kAmpEfficiency) * (0.15 + 0.55 * blackbox);
  }
  return time * NoiseFactor(shape);
}

double KernelGroundTruth::SplitSecondsFloor(const SubTaskShape& floor,
                                            std::int64_t steps) const {
  // A step costs (AffineSeconds + black box) * noise, with the black box
  // >= 0 and the noise >= kMinNoise. AffineSeconds charges each step the
  // kind's launch overhead and its flops and bytes at fixed rates >= 0, so
  // `steps` steps cost at least `steps` overheads plus the rates of their
  // summed work, which is at least AffineSeconds(floor) plus steps - 1
  // overheads.
  return (AffineSeconds(floor) +
          static_cast<double>(steps - 1) * VertexOverhead(floor.kind)) *
         kMinNoise;
}

double KernelGroundTruth::ShiftSeconds(std::int64_t bytes) const {
  if (bytes <= 0) {
    return 0.0;
  }
  const double wire = static_cast<double>(bytes) / chip_.EffectiveLinkBandwidth();
  // Multi-copy pseudo-shift: each buffer-sized chunk adds a small
  // synchronization cost (paper §5 keeps this negligible with an 8 KB
  // buffer).
  const std::int64_t iterations = CeilDiv(bytes, chip_.shift_buffer_bytes);
  return chip_.sync_latency_seconds + wire +
         static_cast<double>(iterations - 1) * 0.05e-6;
}

double KernelGroundTruth::ShiftSecondsFloor(std::int64_t shifts, std::int64_t bytes) const {
  // Each shift of > 0 bytes costs its synchronization, its wire time and
  // chunk iterations >= 0, so the run costs at least `shifts`
  // synchronizations plus the wire time of its summed bytes.
  return static_cast<double>(shifts) * chip_.sync_latency_seconds +
         static_cast<double>(bytes) / chip_.EffectiveLinkBandwidth();
}

}  // namespace t10
