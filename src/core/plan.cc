#include "src/core/plan.h"

#include <algorithm>
#include <sstream>

#include "src/util/logging.h"
#include "src/util/math_util.h"

namespace t10 {
namespace {

// Extent of one tensor dimension consumed by a sub-task, given per-axis
// sub-task extents. Compound dims (h+kh) consume a halo of e_h + e_kh - 1.
template <typename AxisExtent>
std::int64_t SlabExtent(const DimRef& dim, const AxisExtent& axis_extent) {
  std::int64_t extent = axis_extent(dim.axis);
  if (dim.compound()) {
    extent = dim.stride * (extent - 1) + axis_extent(dim.minor_axis);
  }
  return extent;
}

// Tensor `ti` in tensors() order: inputs in operator order, then the output.
const TensorRef& Operand(const Operator& op, std::size_t ti) {
  return ti < op.inputs().size() ? op.inputs()[ti] : op.output();
}

}  // namespace

std::optional<ExecutionPlan> ExecutionPlan::Create(
    const Operator& op, const std::vector<std::int64_t>& fop,
    const std::vector<std::vector<std::int64_t>>& temporal_factors) {
  ExecutionPlan plan;
  if (!plan.Rebuild(op, fop, temporal_factors)) {
    return std::nullopt;
  }
  return plan;
}

bool ExecutionPlan::Rebuild(const Operator& op, std::span<const std::int64_t> fop,
                            std::span<const std::vector<std::int64_t>> temporal_factors) {
  const std::vector<Axis>& axes = op.axes();
  const std::size_t num_tensors = op.inputs().size() + 1;
  T10_CHECK_EQ(fop.size(), axes.size()) << op.name();
  T10_CHECK_EQ(temporal_factors.size(), num_tensors) << op.name();

  op_ = &op;
  fop_.assign(fop.begin(), fop.end());

  // Spatial slicing of every axis, with padding accounting, and the reduce
  // group: cores holding partial outputs.
  axis_slice_.resize(axes.size());
  cores_used_ = 1;
  padding_ratio_ = 1.0;
  reduce_group_ = 1;
  for (std::size_t a = 0; a < axes.size(); ++a) {
    const std::int64_t s = fop_[a];
    if (s < 1 || s > axes[a].length) {
      return false;
    }
    const std::int64_t l = CeilDiv(axes[a].length, s);
    axis_slice_[a] = l;
    padding_ratio_ *= static_cast<double>(axes[a].length) / static_cast<double>(l * s);
    cores_used_ *= s;
    if (axes[a].reduction) {
      reduce_group_ *= s;
    }
  }

  // Per-tensor geometry.
  tensors_.resize(num_tensors);
  for (std::size_t ti = 0; ti < num_tensors; ++ti) {
    const TensorRef& tensor = Operand(op, ti);
    const bool is_output = ti + 1 == num_tensors;
    RTensorPlan& tp = tensors_[ti];
    tp.temporal = temporal_factors[ti];
    T10_CHECK_EQ(tp.temporal.size(), tensor.dims.size()) << op.name() << " " << tensor.name;

    tp.spatial.clear();
    tp.sub_shape.clear();
    for (std::size_t d = 0; d < tensor.dims.size(); ++d) {
      const DimRef& dim = tensor.dims[d];
      std::int64_t s = fop_[dim.axis];
      std::int64_t sub = axis_slice_[dim.axis];
      if (dim.compound()) {
        s *= fop_[dim.minor_axis];
        sub = dim.stride * (sub - 1) + axis_slice_[dim.minor_axis];
      }
      tp.spatial.push_back(s);
      tp.sub_shape.push_back(sub);
    }

    tp.share_cores = 1;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      if (!Operator::TensorUsesAxis(tensor, static_cast<int>(a))) {
        tp.share_cores *= fop_[a];
      }
    }

    tp.ring_size = 1;
    tp.window.clear();
    tp.rotating_dims.clear();
    for (std::size_t d = 0; d < tensor.dims.size(); ++d) {
      const std::int64_t ft = tp.temporal[d];
      if (ft < 1) {
        return false;
      }
      if (ft > 1) {
        // Alignment rules: no temporal split of compound dims, no temporal
        // split of the output (reduce-scatter epilogue instead), and the
        // window length must tile the sub-tensor exactly.
        if (tensor.dims[d].compound() || is_output || tp.sub_shape[d] % ft != 0) {
          return false;
        }
        tp.rotating_dims.push_back(static_cast<int>(d));
      }
      tp.window.push_back(tp.sub_shape[d] / ft);
      tp.ring_size *= ft;
    }
    if (tp.share_cores % tp.ring_size != 0) {
      return false;  // Rings must evenly cover the sharing cores.
    }
    tp.replicas = tp.share_cores / tp.ring_size;

    const std::int64_t dsize = DataTypeSize(tensor.dtype);
    tp.sub_bytes = Product(tp.sub_shape) * dsize;
    tp.window_bytes = Product(tp.window) * dsize;
  }

  // Rotating pace per axis: minimum window among tensors rotating on it.
  axis_pace_.assign(axes.size(), 0);
  for (std::size_t ti = 0; ti < num_tensors; ++ti) {
    const RTensorPlan& tp = tensors_[ti];
    for (int d : tp.rotating_dims) {
      const int a = Operand(op, ti).dims[d].axis;
      const std::int64_t w = tp.window[static_cast<std::size_t>(d)];
      std::int64_t& pace = axis_pace_[a];
      pace = pace == 0 ? w : std::min(pace, w);
    }
  }

  // Loop nest over rotated axes. The axis whose rotating tensors are smallest
  // becomes the innermost loop (paper §4.4: it iterates most often, so it
  // should move the least data).
  auto smallest_rotating_bytes = [&](int axis) {
    std::int64_t smallest = INT64_MAX;
    for (std::size_t ti = 0; ti < num_tensors; ++ti) {
      for (int d : tensors_[ti].rotating_dims) {
        if (Operand(op, ti).dims[d].axis == axis) {
          smallest = std::min(smallest, tensors_[ti].sub_bytes);
        }
      }
    }
    return smallest;
  };
  loops_.clear();
  for (std::size_t a = 0; a < axes.size(); ++a) {
    if (axis_pace_[a] == 0) {
      continue;
    }
    RotationLoop loop;
    loop.axis = static_cast<int>(a);
    loop.pace = axis_pace_[a];
    // The window lengths divide the axis slice, so the pace does too.
    T10_CHECK_EQ(axis_slice_[a] % loop.pace, 0);
    loop.steps = axis_slice_[a] / loop.pace;
    loops_.push_back(loop);
  }
  std::sort(loops_.begin(), loops_.end(), [&](const RotationLoop& x, const RotationLoop& y) {
    const std::int64_t x_bytes = smallest_rotating_bytes(x.axis);
    const std::int64_t y_bytes = smallest_rotating_bytes(y.axis);
    if (x_bytes != y_bytes) {
      return x_bytes > y_bytes;  // Outer = larger.
    }
    return x.axis < y.axis;
  });
  return true;
}

std::int64_t ExecutionPlan::total_steps() const {
  std::int64_t steps = 1;
  for (const RotationLoop& loop : loops_) {
    steps *= loop.steps;
  }
  return steps;
}

SubTaskShape ExecutionPlan::StepSubTask() const {
  const std::vector<Axis>& axes = op_->axes();
  // A rotated axis advances one pace per step; the others cover their slice.
  auto extent = [this](std::size_t a) {
    return axis_pace_[a] > 0 ? axis_pace_[a] : axis_slice_[a];
  };

  SubTaskShape shape;
  shape.kind = op_->kind();
  double domain = 1.0;
  double reduction = 1.0;
  for (std::size_t a = 0; a < axes.size(); ++a) {
    domain *= static_cast<double>(extent(a));
    if (axes[a].reduction) {
      reduction *= static_cast<double>(extent(a));
    }
  }
  switch (op_->kind()) {
    case OpKind::kContraction:
      shape.flops = 2.0 * domain;
      break;
    case OpKind::kElementwise:
      shape.flops = domain * op_->elementwise_cost();
      break;
    case OpKind::kReduceSum:
    case OpKind::kVendor:
      shape.flops = domain;
      break;
    case OpKind::kGather:
      shape.flops = domain / reduction;
      break;
  }

  bool has_compound = false;
  for (const TensorRef& input : op_->inputs()) {
    std::int64_t bytes = DataTypeSize(input.dtype);
    for (const DimRef& dim : input.dims) {
      bytes *= SlabExtent(dim, extent);
      has_compound = has_compound || dim.compound();
    }
    shape.in_bytes += bytes;
  }
  {
    std::int64_t bytes = DataTypeSize(op_->output().dtype);
    for (const DimRef& dim : op_->output().dims) {
      bytes *= SlabExtent(dim, extent);
    }
    shape.out_bytes = bytes;
  }

  shape.inner_length =
      op_->output().dims.empty() ? 1 : extent(op_->output().dims.back().axis);
  if (op_->kind() == OpKind::kContraction && has_compound) {
    shape.kernel_volume = static_cast<std::int64_t>(reduction);
  }
  return shape;
}

std::int64_t ExecutionPlan::PerCoreBytes(const ChipSpec& chip) const {
  std::int64_t bytes = chip.shift_buffer_bytes;
  for (const RTensorPlan& tp : tensors_) {
    bytes += tp.window_bytes;
  }
  return bytes;
}

std::int64_t ExecutionPlan::OperandWindowBytes(int tensor_index) const {
  T10_CHECK_GE(tensor_index, 0);
  T10_CHECK_LT(static_cast<std::size_t>(tensor_index), tensors_.size());
  return tensors_[static_cast<std::size_t>(tensor_index)].window_bytes;
}

PlanMetrics ExecutionPlan::Evaluate(const TimingSource& timing, const ChipSpec& chip) const {
  PlanMetrics m;
  m.cores_used = cores_used_;
  m.steps = total_steps();
  m.per_core_bytes = PerCoreBytes(chip);
  m.padding_ratio = padding_ratio_;

  const SubTaskShape subtask = StepSubTask();
  m.compute_seconds = static_cast<double>(m.steps) * timing.SubTaskSeconds(subtask);

  // Rotation shifts: a tensor rotating on axis `a` ships one slab of
  // thickness rp each time loop `a` advances; loop `a` advances once per
  // iteration of every loop at its level or outside it.
  for (std::size_t ti = 0; ti < tensors_.size(); ++ti) {
    const RTensorPlan& tp = tensors_[ti];
    for (int d : tp.rotating_dims) {
      const int axis = Operand(*op_, ti).dims[d].axis;
      std::int64_t advances = 1;
      for (const RotationLoop& loop : loops_) {
        advances *= loop.steps;
        if (loop.axis == axis) {
          break;
        }
      }
      const std::int64_t window_len = tp.window[static_cast<std::size_t>(d)];
      const std::int64_t slab_bytes = tp.window_bytes * axis_pace_[axis] / window_len;
      m.exchange_seconds += static_cast<double>(advances) * timing.ShiftSeconds(slab_bytes);
      m.shift_bytes_per_core += advances * slab_bytes;
    }
  }

  // Reduce-scatter epilogue for spatially partitioned reduction axes.
  if (reduce_group_ > 1) {
    const RTensorPlan& out = tensors_.back();
    const std::int64_t chunk_bytes = CeilDiv(out.sub_bytes, reduce_group_);
    const std::int64_t rounds = reduce_group_ - 1;
    SubTaskShape add;
    add.kind = OpKind::kElementwise;
    add.flops = static_cast<double>(chunk_bytes) / DataTypeSize(op_->output().dtype);
    add.in_bytes = 2 * chunk_bytes;
    add.out_bytes = chunk_bytes;
    add.inner_length = add.flops > 0 ? static_cast<std::int64_t>(add.flops) : 1;
    m.epilogue_seconds = static_cast<double>(rounds) *
                         (timing.ShiftSeconds(chunk_bytes) + timing.SubTaskSeconds(add));
    m.shift_bytes_per_core += rounds * chunk_bytes;
  }
  return m;
}

std::string ExecutionPlan::DebugString() const {
  std::ostringstream out;
  out << op_->name() << " F_op=[";
  for (std::size_t a = 0; a < fop_.size(); ++a) {
    if (a > 0) {
      out << ",";
    }
    out << op_->axes()[a].name << ":" << fop_[a];
  }
  out << "] cores=" << cores_used_ << " steps=" << total_steps();
  for (std::size_t ti = 0; ti < tensors_.size(); ++ti) {
    const RTensorPlan& tp = tensors_[ti];
    const bool is_output = ti + 1 == tensors_.size();
    out << " " << (is_output ? op_->output().name : op_->inputs()[ti].name) << "{P="
        << tp.share_cores << ",ring=" << tp.ring_size << ",rep=" << tp.replicas << ",win="
        << tp.window_bytes << "B}";
  }
  if (reduce_group_ > 1) {
    out << " reduce_group=" << reduce_group_;
  }
  return out.str();
}

}  // namespace t10
