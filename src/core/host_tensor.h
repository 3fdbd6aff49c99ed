// Host-side tensors and the single-core reference evaluator.
//
// ReferenceExecute evaluates an operator's tensor expression directly over
// dense host arrays, with no partitioning, rotation or device memory. It is
// the independent oracle that ProgramExecutor's distributed, byte-level
// execution is compared against.

#ifndef T10_SRC_CORE_HOST_TENSOR_H_
#define T10_SRC_CORE_HOST_TENSOR_H_

#include <cstdint>
#include <vector>

#include "src/ir/operator.h"

namespace t10 {

// A dense row-major FP32 tensor on the host.
struct HostTensor {
  std::vector<std::int64_t> shape;
  std::vector<float> data;

  static HostTensor Zeros(std::vector<std::int64_t> shape);
  std::int64_t NumElements() const;
  float& at(const std::vector<std::int64_t>& index);
  float at(const std::vector<std::int64_t>& index) const;
};

// Single-core reference evaluation of the operator: contractions multiply
// their inputs, elementwise ops add them (identity for one input), reduce-sum
// accumulates its input. CHECK-fails on kinds without tensor-expression
// semantics (kGather/kVendor) and on input shape mismatches.
HostTensor ReferenceExecute(const Operator& op, const std::vector<HostTensor>& inputs);

// Fills a tensor with a deterministic pseudo-random pattern (tests).
HostTensor RandomHostTensor(std::vector<std::int64_t> shape, std::uint64_t seed);

}  // namespace t10

#endif  // T10_SRC_CORE_HOST_TENSOR_H_
