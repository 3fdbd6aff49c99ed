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

// The shape of the per-step sub-task each core executes: a rotated axis
// advances one pace per step, the others cover their slice.
SubTaskShape StepSubTaskOf(const Operator& op, std::span<const std::int64_t> axis_slice,
                           std::span<const std::int64_t> axis_pace) {
  const std::vector<Axis>& axes = op.axes();
  // An empty `axis_pace` rotates no axis.
  auto extent = [&](std::size_t a) {
    return !axis_pace.empty() && axis_pace[a] > 0 ? axis_pace[a] : axis_slice[a];
  };

  SubTaskShape shape;
  shape.kind = op.kind();
  double domain = 1.0;
  double reduction = 1.0;
  for (std::size_t a = 0; a < axes.size(); ++a) {
    domain *= static_cast<double>(extent(a));
    if (axes[a].reduction) {
      reduction *= static_cast<double>(extent(a));
    }
  }
  switch (op.kind()) {
    case OpKind::kContraction:
      shape.flops = 2.0 * domain;
      break;
    case OpKind::kElementwise:
      shape.flops = domain * op.elementwise_cost();
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
  for (const TensorRef& input : op.inputs()) {
    std::int64_t bytes = DataTypeSize(input.dtype);
    for (const DimRef& dim : input.dims) {
      bytes *= SlabExtent(dim, extent);
      has_compound = has_compound || dim.compound();
    }
    shape.in_bytes += bytes;
  }
  {
    std::int64_t bytes = DataTypeSize(op.output().dtype);
    for (const DimRef& dim : op.output().dims) {
      bytes *= SlabExtent(dim, extent);
    }
    shape.out_bytes = bytes;
  }

  shape.inner_length = op.output().dims.empty() ? 1 : extent(op.output().dims.back().axis);
  if (op.kind() == OpKind::kContraction && has_compound) {
    shape.kernel_volume = static_cast<std::int64_t>(reduction);
  }
  return shape;
}

// Bytes of `tensor` that a sub-task over `axis_slice` touches. Each dim
// indexes its axis slice; a compound dim indexes {stride * i + j}, which skips
// elements when the stride exceeds the minor extent. When no axis feeds two
// dims the touched set is the product of the per-dim sets; otherwise it is
// not counted (0).
std::int64_t TouchedBytes(const TensorRef& tensor, std::span<const std::int64_t> axis_slice) {
  auto feeds = [](const DimRef& dim, int axis) {
    return dim.axis == axis || dim.minor_axis == axis;
  };
  std::int64_t bytes = DataTypeSize(tensor.dtype);
  for (std::size_t d = 0; d < tensor.dims.size(); ++d) {
    const DimRef& dim = tensor.dims[d];
    for (std::size_t e = 0; e < d; ++e) {
      if (feeds(tensor.dims[e], dim.axis) ||
          (dim.compound() && feeds(tensor.dims[e], dim.minor_axis))) {
        return 0;
      }
    }
    const std::int64_t major = axis_slice[static_cast<std::size_t>(dim.axis)];
    if (!dim.compound()) {
      bytes *= major;
      continue;
    }
    if (dim.stride < 0 || dim.axis == dim.minor_axis) {
      return 0;
    }
    const std::int64_t minor = axis_slice[static_cast<std::size_t>(dim.minor_axis)];
    bytes *= std::min(major * minor, dim.stride * (major - 1) + minor);
  }
  return bytes;
}

std::int64_t TotalSteps(std::span<const RotationLoop> loops) {
  std::int64_t steps = 1;
  for (const RotationLoop& loop : loops) {
    steps *= loop.steps;
  }
  return steps;
}

// True if the two operands map their dims to the same axes.
bool SameDims(const TensorRef& a, const TensorRef& b) {
  return std::equal(a.dims.begin(), a.dims.end(), b.dims.begin(), b.dims.end(),
                    [](const DimRef& x, const DimRef& y) {
                      return x.axis == y.axis && x.minor_axis == y.minor_axis &&
                             x.stride == y.stride;
                    });
}

// True if a plan derived on `a` holds for `b`: the geometry the derivation
// reads is equal.
bool SameStructure(const Operator& a, const Operator& b) {
  const auto same_axis = [](const Axis& x, const Axis& y) {
    return x.length == y.length && x.reduction == y.reduction;
  };
  return std::equal(a.axes().begin(), a.axes().end(), b.axes().begin(), b.axes().end(),
                    same_axis) &&
         std::equal(a.inputs().begin(), a.inputs().end(), b.inputs().begin(), b.inputs().end(),
                    SameDims) &&
         SameDims(a.output(), b.output());
}

}  // namespace

const TensorRef& Operand(const Operator& op, std::size_t ti) {
  return ti < op.inputs().size() ? op.inputs()[ti] : op.output();
}

bool FopBase::Reset(const Operator& op_in, std::span<const std::int64_t> fop_in) {
  const std::vector<Axis>& axes = op_in.axes();
  T10_CHECK_EQ(fop_in.size(), axes.size()) << op_in.name();
  op = &op_in;
  fop.assign(fop_in.begin(), fop_in.end());

  // Spatial slicing of every axis, with padding accounting, and the reduce
  // group: cores holding partial outputs.
  axis_slice.resize(axes.size());
  cores_used = 1;
  padding_ratio = 1.0;
  reduce_group = 1;
  for (std::size_t a = 0; a < axes.size(); ++a) {
    const std::int64_t s = fop[a];
    if (s < 1 || s > axes[a].length) {
      return false;
    }
    const std::int64_t l = CeilDiv(axes[a].length, s);
    axis_slice[a] = l;
    padding_ratio *= static_cast<double>(axes[a].length) / static_cast<double>(l * s);
    cores_used *= s;
    if (axes[a].reduction) {
      reduce_group *= s;
    }
  }

  // Per-tensor spatial geometry.
  tensors.resize(op_in.inputs().size() + 1);
  for (std::size_t ti = 0; ti < tensors.size(); ++ti) {
    const TensorRef& tensor = Operand(op_in, ti);
    RTensorPlan& tp = tensors[ti];
    tp.spatial.clear();
    tp.sub_shape.clear();
    for (const DimRef& dim : tensor.dims) {
      std::int64_t s = fop[dim.axis];
      std::int64_t sub = axis_slice[dim.axis];
      if (dim.compound()) {
        s *= fop[dim.minor_axis];
        sub = dim.stride * (sub - 1) + axis_slice[dim.minor_axis];
      }
      tp.spatial.push_back(s);
      tp.sub_shape.push_back(sub);
    }
    tp.share_cores = 1;
    for (std::size_t a = 0; a < axes.size(); ++a) {
      if (!Operator::TensorUsesAxis(tensor, static_cast<int>(a))) {
        tp.share_cores *= fop[a];
      }
    }
    tp.sub_bytes = Product(tp.sub_shape) * DataTypeSize(tensor.dtype);
  }
  return true;
}

std::int64_t TemporalWindowBytes(const TensorRef& tensor, bool is_output,
                                 std::span<const std::int64_t> ft, const RTensorPlan& tp) {
  T10_CHECK_EQ(ft.size(), tensor.dims.size()) << tensor.name;
  std::int64_t ring_size = 1;
  std::int64_t window_bytes = DataTypeSize(tensor.dtype);
  for (std::size_t d = 0; d < ft.size(); ++d) {
    if (ft[d] < 1) {
      return -1;
    }
    // Alignment rules: no temporal split of compound dims, no temporal split
    // of the output (reduce-scatter epilogue instead), and the window length
    // must tile the sub-tensor exactly.
    if (ft[d] > 1 &&
        (tensor.dims[d].compound() || is_output || tp.sub_shape[d] % ft[d] != 0)) {
      return -1;
    }
    window_bytes *= tp.sub_shape[d] / ft[d];
    ring_size *= ft[d];
  }
  if (tp.share_cores % ring_size != 0) {
    return -1;  // Rings must evenly cover the sharing cores.
  }
  return window_bytes;
}

bool ApplyTemporal(const TensorRef& tensor, bool is_output, std::span<const std::int64_t> ft,
                   RTensorPlan& tp) {
  const std::int64_t window_bytes = TemporalWindowBytes(tensor, is_output, ft, tp);
  if (window_bytes < 0) {
    return false;
  }
  tp.temporal.assign(ft.begin(), ft.end());
  tp.ring_size = 1;
  tp.window.clear();
  tp.rotating_dims.clear();
  for (std::size_t d = 0; d < ft.size(); ++d) {
    if (ft[d] > 1) {
      tp.rotating_dims.push_back(static_cast<int>(d));
    }
    tp.window.push_back(tp.sub_shape[d] / ft[d]);
    tp.ring_size *= ft[d];
  }
  tp.replicas = tp.share_cores / tp.ring_size;
  tp.window_bytes = window_bytes;
  return true;
}

void AppendRotations(const TensorRef& tensor, std::span<const std::int64_t> ft,
                     const RTensorPlan& tp, std::int64_t window_bytes,
                     std::vector<Rotation>& rotations) {
  for (std::size_t d = 0; d < ft.size(); ++d) {
    if (ft[d] > 1) {
      rotations.push_back(
          Rotation{tensor.dims[d].axis, tp.sub_shape[d] / ft[d], window_bytes, tp.sub_bytes});
    }
  }
}

void DeriveLoops(std::span<const std::int64_t> axis_slice, std::span<const Rotation> rotations,
                 std::vector<std::int64_t>& axis_pace, std::vector<RotationLoop>& loops) {
  // Rotating pace per axis: minimum window among the dims rotating on it.
  axis_pace.assign(axis_slice.size(), 0);
  for (const Rotation& r : rotations) {
    std::int64_t& pace = axis_pace[static_cast<std::size_t>(r.axis)];
    pace = pace == 0 ? r.window_len : std::min(pace, r.window_len);
  }

  // Loop nest over rotated axes. The axis whose rotating tensors are smallest
  // becomes the innermost loop (paper §4.4: it iterates most often, so it
  // should move the least data).
  loops.clear();
  for (std::size_t a = 0; a < axis_slice.size(); ++a) {
    if (axis_pace[a] == 0) {
      continue;
    }
    RotationLoop loop;
    loop.axis = static_cast<int>(a);
    loop.pace = axis_pace[a];
    // The window lengths divide the axis slice, so the pace does too.
    T10_CHECK_EQ(axis_slice[a] % loop.pace, 0);
    loop.steps = axis_slice[a] / loop.pace;
    loops.push_back(loop);
  }
  auto smallest_rotating_bytes = [&](int axis) {
    std::int64_t smallest = INT64_MAX;
    for (const Rotation& r : rotations) {
      if (r.axis == axis) {
        smallest = std::min(smallest, r.sub_bytes);
      }
    }
    return smallest;
  };
  std::sort(loops.begin(), loops.end(), [&](const RotationLoop& x, const RotationLoop& y) {
    const std::int64_t x_bytes = smallest_rotating_bytes(x.axis);
    const std::int64_t y_bytes = smallest_rotating_bytes(y.axis);
    if (x_bytes != y_bytes) {
      return x_bytes > y_bytes;  // Outer = larger.
    }
    return x.axis < y.axis;
  });
}

EpilogueCost Epilogue(const FopBase& base, const TimingSource& timing) {
  EpilogueCost cost;
  if (base.reduce_group <= 1) {
    return cost;
  }
  const std::int64_t chunk_bytes = CeilDiv(base.tensors.back().sub_bytes, base.reduce_group);
  const std::int64_t rounds = base.reduce_group - 1;
  SubTaskShape add;
  add.kind = OpKind::kElementwise;
  add.flops = static_cast<double>(chunk_bytes) / DataTypeSize(base.op->output().dtype);
  add.in_bytes = 2 * chunk_bytes;
  add.out_bytes = chunk_bytes;
  add.inner_length = add.flops > 0 ? static_cast<std::int64_t>(add.flops) : 1;
  cost.seconds = static_cast<double>(rounds) *
                 (timing.ShiftSeconds(chunk_bytes) + timing.SubTaskSeconds(add));
  cost.bytes_per_core = rounds * chunk_bytes;
  return cost;
}

SubTaskShape SplitFloorShape(const FopBase& base) {
  const Operator& op = *base.op;
  SubTaskShape floor = StepSubTaskOf(op, base.axis_slice, {});
  floor.in_bytes = 0;
  for (const TensorRef& input : op.inputs()) {
    floor.in_bytes += TouchedBytes(input, base.axis_slice);
  }
  floor.out_bytes = TouchedBytes(op.output(), base.axis_slice);
  return floor;
}

PlanMetrics CostPlan(const FopBase& base, std::span<const Rotation> rotations,
                     std::span<const std::int64_t> axis_pace,
                     std::span<const RotationLoop> loops, std::int64_t per_core_bytes,
                     const EpilogueCost& epilogue, const TimingSource& timing) {
  PlanMetrics m;
  m.cores_used = base.cores_used;
  m.steps = TotalSteps(loops);
  m.per_core_bytes = per_core_bytes;
  m.padding_ratio = base.padding_ratio;
  m.compute_seconds = static_cast<double>(m.steps) *
                      timing.SubTaskSeconds(StepSubTaskOf(*base.op, base.axis_slice, axis_pace));

  // Rotation shifts: a tensor rotating on axis `a` ships one slab of
  // thickness rp each time loop `a` advances; loop `a` advances once per
  // iteration of every loop at its level or outside it.
  for (const Rotation& r : rotations) {
    std::int64_t advances = 1;
    for (const RotationLoop& loop : loops) {
      advances *= loop.steps;
      if (loop.axis == r.axis) {
        break;
      }
    }
    const std::int64_t slab_bytes =
        r.window_bytes * axis_pace[static_cast<std::size_t>(r.axis)] / r.window_len;
    m.exchange_seconds += static_cast<double>(advances) * timing.ShiftSeconds(slab_bytes);
    m.shift_bytes_per_core += advances * slab_bytes;
  }

  // Reduce-scatter epilogue for spatially partitioned reduction axes.
  m.epilogue_seconds = epilogue.seconds;
  m.shift_bytes_per_core += epilogue.bytes_per_core;
  return m;
}

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
  T10_CHECK_EQ(temporal_factors.size(), op.inputs().size() + 1) << op.name();
  if (!base_.Reset(op, fop)) {
    return false;
  }
  rotations_.clear();
  for (std::size_t ti = 0; ti < base_.tensors.size(); ++ti) {
    const TensorRef& tensor = Operand(op, ti);
    if (!ApplyTemporal(tensor, ti + 1 == base_.tensors.size(), temporal_factors[ti],
                       base_.tensors[ti])) {
      return false;
    }
    const RTensorPlan& tp = base_.tensors[ti];
    AppendRotations(tensor, tp.temporal, tp, tp.window_bytes, rotations_);
  }
  DeriveLoops(base_.axis_slice, rotations_, axis_pace_, loops_);
  return true;
}

void ExecutionPlan::BindTo(const Operator& op) {
  T10_CHECK(SameStructure(*base_.op, op))
      << "a plan of " << base_.op->name() << " cannot bind to " << op.name();
  base_.op = &op;
}

std::int64_t ExecutionPlan::total_steps() const { return TotalSteps(loops_); }

SubTaskShape ExecutionPlan::StepSubTask() const {
  return StepSubTaskOf(op(), base_.axis_slice, axis_pace_);
}

std::int64_t ExecutionPlan::PerCoreBytes(const ChipSpec& chip) const {
  std::int64_t bytes = chip.shift_buffer_bytes;
  for (const RTensorPlan& tp : base_.tensors) {
    bytes += tp.window_bytes;
  }
  return bytes;
}

std::int64_t ExecutionPlan::OperandWindowBytes(int tensor_index) const {
  T10_CHECK_GE(tensor_index, 0);
  T10_CHECK_LT(static_cast<std::size_t>(tensor_index), base_.tensors.size());
  return base_.tensors[static_cast<std::size_t>(tensor_index)].window_bytes;
}

PlanMetrics ExecutionPlan::Evaluate(const TimingSource& timing, const ChipSpec& chip) const {
  return CostPlan(base_, rotations_, axis_pace_, loops_, PerCoreBytes(chip),
                  Epilogue(base_, timing), timing);
}

std::string ExecutionPlan::DebugString() const {
  std::ostringstream out;
  out << op().name() << " F_op=[";
  for (std::size_t a = 0; a < base_.fop.size(); ++a) {
    if (a > 0) {
      out << ",";
    }
    out << op().axes()[a].name << ":" << base_.fop[a];
  }
  out << "] cores=" << base_.cores_used << " steps=" << total_steps();
  for (std::size_t ti = 0; ti < base_.tensors.size(); ++ti) {
    const RTensorPlan& tp = base_.tensors[ti];
    const bool is_output = ti + 1 == base_.tensors.size();
    out << " " << (is_output ? op().output().name : op().inputs()[ti].name) << "{P="
        << tp.share_cores << ",ring=" << tp.ring_size << ",rep=" << tp.replicas << ",win="
        << tp.window_bytes << "B}";
  }
  if (base_.reduce_group > 1) {
    out << " reduce_group=" << base_.reduce_group;
  }
  return out.str();
}

}  // namespace t10
