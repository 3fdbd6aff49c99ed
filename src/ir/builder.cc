#include "src/ir/builder.h"

#include "src/util/logging.h"
#include "src/util/strings.h"

namespace t10 {
namespace {

// Builds axes named d0, d1, ... for a plain dense shape.
std::vector<Axis> DenseAxes(const std::vector<std::int64_t>& shape) {
  std::vector<Axis> axes;
  axes.reserve(shape.size());
  for (std::size_t i = 0; i < shape.size(); ++i) {
    axes.push_back(
        Axis{NumberedName("d", static_cast<std::int64_t>(i)), shape[i], /*reduction=*/false});
  }
  return axes;
}

TensorRef DenseTensor(const std::string& name, DataType dtype, int rank) {
  TensorRef t;
  t.name = name;
  t.dtype = dtype;
  for (int i = 0; i < rank; ++i) {
    t.dims.push_back(DimRef{i, -1});
  }
  return t;
}

}  // namespace

Operator MatMulOp(const std::string& name, std::int64_t m, std::int64_t k, std::int64_t n,
                  DataType dtype, const std::string& a_name, const std::string& b_name,
                  const std::string& c_name) {
  std::vector<Axis> axes = {{"m", m, false}, {"n", n, false}, {"k", k, true}};
  TensorRef a{a_name, dtype, {DimRef{0}, DimRef{2}}};
  TensorRef b{b_name, dtype, {DimRef{2}, DimRef{1}}};
  TensorRef c{c_name, dtype, {DimRef{0}, DimRef{1}}};
  return Operator(name, OpKind::kContraction, std::move(axes), {a, b}, c);
}

Operator BatchedMatMulOp(const std::string& name, std::int64_t batch, std::int64_t m,
                         std::int64_t k, std::int64_t n, DataType dtype,
                         const std::string& a_name, const std::string& b_name,
                         const std::string& c_name) {
  std::vector<Axis> axes = {{"b", batch, false}, {"m", m, false}, {"n", n, false}, {"k", k, true}};
  TensorRef a{a_name, dtype, {DimRef{0}, DimRef{1}, DimRef{3}}};
  TensorRef b{b_name, dtype, {DimRef{0}, DimRef{3}, DimRef{2}}};
  TensorRef c{c_name, dtype, {DimRef{0}, DimRef{1}, DimRef{2}}};
  return Operator(name, OpKind::kContraction, std::move(axes), {a, b}, c);
}

Operator Conv2dOp(const std::string& name, std::int64_t batch, std::int64_t in_channels,
                  std::int64_t out_channels, std::int64_t out_h, std::int64_t out_w,
                  std::int64_t kernel_h, std::int64_t kernel_w, DataType dtype,
                  const std::string& input_name, const std::string& weight_name,
                  const std::string& output_name, std::int64_t stride) {
  T10_CHECK_GE(stride, 1);
  // Axes: b, f, h, w (parallel); c, kh, kw (reduction).
  std::vector<Axis> axes = {{"b", batch, false},      {"f", out_channels, false},
                            {"h", out_h, false},      {"w", out_w, false},
                            {"c", in_channels, true}, {"kh", kernel_h, true},
                            {"kw", kernel_w, true}};
  TensorRef input{input_name, dtype,
                  {DimRef{0}, DimRef{4}, DimRef{2, 5, stride}, DimRef{3, 6, stride}}};
  TensorRef weight{weight_name, dtype, {DimRef{1}, DimRef{4}, DimRef{5}, DimRef{6}}};
  TensorRef output{output_name, dtype, {DimRef{0}, DimRef{1}, DimRef{2}, DimRef{3}}};
  return Operator(name, OpKind::kContraction, std::move(axes), {input, weight}, output);
}

Operator ElementwiseOp(const std::string& name, const std::vector<std::int64_t>& shape,
                       DataType dtype, const std::string& input_name,
                       const std::string& output_name, double cost) {
  T10_CHECK(!shape.empty());
  std::vector<Axis> axes = DenseAxes(shape);
  int rank = static_cast<int>(shape.size());
  Operator op(name, OpKind::kElementwise, std::move(axes),
              {DenseTensor(input_name, dtype, rank)}, DenseTensor(output_name, dtype, rank));
  op.set_elementwise_cost(cost);
  return op;
}

Operator BinaryOp(const std::string& name, const std::vector<std::int64_t>& shape, DataType dtype,
                  const std::string& lhs_name, const std::string& rhs_name,
                  const std::string& output_name, double cost) {
  T10_CHECK(!shape.empty());
  std::vector<Axis> axes = DenseAxes(shape);
  int rank = static_cast<int>(shape.size());
  Operator op(name, OpKind::kElementwise, std::move(axes),
              {DenseTensor(lhs_name, dtype, rank), DenseTensor(rhs_name, dtype, rank)},
              DenseTensor(output_name, dtype, rank));
  op.set_elementwise_cost(cost);
  return op;
}

Operator ReduceOp(const std::string& name, const std::vector<std::int64_t>& shape, DataType dtype,
                  const std::string& input_name, const std::string& output_name) {
  T10_CHECK_GE(shape.size(), 2u);
  std::vector<Axis> axes = DenseAxes(shape);
  axes.back().reduction = true;
  int rank = static_cast<int>(shape.size());
  TensorRef input = DenseTensor(input_name, dtype, rank);
  TensorRef output = DenseTensor(output_name, dtype, rank - 1);
  return Operator(name, OpKind::kReduceSum, std::move(axes), {input}, output);
}

Operator GatherOp(const std::string& name, std::int64_t n, std::int64_t vocab, std::int64_t embed,
                  DataType dtype, const std::string& indices_name, const std::string& table_name,
                  const std::string& output_name) {
  std::vector<Axis> axes = {{"n", n, false}, {"e", embed, false}, {"v", vocab, true}};
  TensorRef indices{indices_name, DataType::kI32, {DimRef{0}}};
  TensorRef table{table_name, dtype, {DimRef{2}, DimRef{1}}};
  TensorRef output{output_name, dtype, {DimRef{0}, DimRef{1}}};
  return Operator(name, OpKind::kGather, std::move(axes), {indices, table}, output);
}

namespace {

// Resolves axis names to a TensorRef and marks reduction flags: every axis
// not used by the output is a reduction axis.
TensorRef ResolveOperand(const std::vector<Axis>& axes, const NamedOperand& operand,
                         DataType dtype) {
  TensorRef ref;
  ref.name = operand.name;
  ref.dtype = dtype;
  for (const std::string& dim_name : operand.dims) {
    int found = -1;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      if (axes[a].name == dim_name) {
        found = static_cast<int>(a);
        break;
      }
    }
    T10_CHECK_GE(found, 0) << "operand " << operand.name << ": unknown axis " << dim_name;
    ref.dims.push_back(DimRef{found, -1, 1});
  }
  return ref;
}

std::vector<Axis> MarkReductions(std::vector<Axis> axes, const NamedOperand& output) {
  for (Axis& axis : axes) {
    bool in_output = false;
    for (const std::string& dim_name : output.dims) {
      if (dim_name == axis.name) {
        in_output = true;
        break;
      }
    }
    axis.reduction = !in_output;
  }
  return axes;
}

}  // namespace

Operator ContractionOp(const std::string& name, std::vector<Axis> axes,
                       const std::vector<NamedOperand>& inputs, const NamedOperand& output,
                       DataType dtype) {
  axes = MarkReductions(std::move(axes), output);
  std::vector<TensorRef> input_refs;
  for (const NamedOperand& input : inputs) {
    input_refs.push_back(ResolveOperand(axes, input, dtype));
  }
  TensorRef output_ref = ResolveOperand(axes, output, dtype);
  return Operator(name, OpKind::kContraction, std::move(axes), std::move(input_refs),
                  std::move(output_ref));
}

Operator ReduceAxesOp(const std::string& name, std::vector<Axis> axes, const NamedOperand& input,
                      const NamedOperand& output, DataType dtype) {
  axes = MarkReductions(std::move(axes), output);
  TensorRef input_ref = ResolveOperand(axes, input, dtype);
  TensorRef output_ref = ResolveOperand(axes, output, dtype);
  return Operator(name, OpKind::kReduceSum, std::move(axes), {std::move(input_ref)},
                  std::move(output_ref));
}

Operator VendorOp(const std::string& name, const std::vector<std::int64_t>& shape, DataType dtype,
                  const std::string& input_name, const std::string& output_name) {
  std::vector<Axis> axes = DenseAxes(shape);
  int rank = static_cast<int>(shape.size());
  return Operator(name, OpKind::kVendor, std::move(axes), {DenseTensor(input_name, dtype, rank)},
                  DenseTensor(output_name, dtype, rank));
}

}  // namespace t10
