#include "src/core/host_tensor.h"

#include <utility>

#include "src/util/logging.h"
#include "src/util/rng.h"

namespace t10 {
namespace {

std::int64_t FlatIndex(const std::vector<std::int64_t>& shape,
                       const std::vector<std::int64_t>& index) {
  T10_CHECK_EQ(shape.size(), index.size());
  std::int64_t flat = 0;
  for (std::size_t d = 0; d < shape.size(); ++d) {
    T10_CHECK_GE(index[d], 0);
    T10_CHECK_LT(index[d], shape[d]);
    flat = flat * shape[d] + index[d];
  }
  return flat;
}

// Iterates an odometer over `extents`, invoking fn(tuple) for each tuple.
template <typename Fn>
void ForEachTuple(const std::vector<std::int64_t>& extents, Fn&& fn) {
  std::vector<std::int64_t> tuple(extents.size(), 0);
  for (const std::int64_t e : extents) {
    if (e == 0) {
      return;
    }
  }
  while (true) {
    fn(tuple);
    std::size_t d = extents.size();
    while (d-- > 0) {
      if (++tuple[d] < extents[d]) {
        break;
      }
      tuple[d] = 0;
      if (d == 0) {
        return;
      }
    }
    if (d == static_cast<std::size_t>(-1)) {
      return;
    }
  }
}

}  // namespace

HostTensor HostTensor::Zeros(std::vector<std::int64_t> shape) {
  HostTensor t;
  std::int64_t elements = 1;
  for (std::int64_t s : shape) {
    T10_CHECK_GT(s, 0);
    elements *= s;
  }
  t.shape = std::move(shape);
  t.data.assign(static_cast<std::size_t>(elements), 0.0f);
  return t;
}

std::int64_t HostTensor::NumElements() const {
  return static_cast<std::int64_t>(data.size());
}

float& HostTensor::at(const std::vector<std::int64_t>& index) {
  return data[static_cast<std::size_t>(FlatIndex(shape, index))];
}

float HostTensor::at(const std::vector<std::int64_t>& index) const {
  return data[static_cast<std::size_t>(FlatIndex(shape, index))];
}

HostTensor RandomHostTensor(std::vector<std::int64_t> shape, std::uint64_t seed) {
  HostTensor t = HostTensor::Zeros(std::move(shape));
  Rng rng(seed);
  for (float& v : t.data) {
    v = static_cast<float>(rng.UniformReal(-1.0, 1.0));
  }
  return t;
}

HostTensor ReferenceExecute(const Operator& op, const std::vector<HostTensor>& inputs) {
  T10_CHECK_EQ(inputs.size(), op.inputs().size());
  T10_CHECK(op.kind() == OpKind::kContraction || op.kind() == OpKind::kElementwise ||
            op.kind() == OpKind::kReduceSum)
      << "no tensor-expression semantics for " << OpKindName(op.kind());
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    T10_CHECK(inputs[i].shape == TensorShape(op.axes(), op.inputs()[i]))
        << "input " << i << " shape mismatch for " << op.name();
  }
  HostTensor out = HostTensor::Zeros(TensorShape(op.axes(), op.output()));

  std::vector<std::int64_t> extents;
  for (const Axis& axis : op.axes()) {
    extents.push_back(axis.length);
  }
  // One index buffer per operand, refilled for every tuple.
  std::vector<std::vector<std::int64_t>> input_index(inputs.size());
  std::vector<std::int64_t> output_index;
  auto operand_index = [](const TensorRef& tensor, const std::vector<std::int64_t>& tuple,
                          std::vector<std::int64_t>& index) -> const std::vector<std::int64_t>& {
    index.resize(tensor.dims.size());
    for (std::size_t d = 0; d < tensor.dims.size(); ++d) {
      const DimRef& dim = tensor.dims[d];
      std::int64_t v = tuple[dim.axis];
      if (dim.compound()) {
        v = dim.stride * v + tuple[dim.minor_axis];
      }
      index[d] = v;
    }
    return index;
  };
  ForEachTuple(extents, [&](const std::vector<std::int64_t>& tuple) {
    float value;
    if (op.kind() == OpKind::kContraction) {
      value = 1.0f;
      for (std::size_t i = 0; i < inputs.size(); ++i) {
        value *= inputs[i].at(operand_index(op.inputs()[i], tuple, input_index[i]));
      }
    } else {
      // Elementwise: identity (1 input) or addition (2 inputs); ReduceSum:
      // accumulate the single input.
      value = inputs[0].at(operand_index(op.inputs()[0], tuple, input_index[0]));
      if (inputs.size() > 1) {
        value += inputs[1].at(operand_index(op.inputs()[1], tuple, input_index[1]));
      }
    }
    out.at(operand_index(op.output(), tuple, output_index)) += value;
  });
  return out;
}

}  // namespace t10
