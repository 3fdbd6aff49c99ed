#include "src/core/program_executor.h"

#include <algorithm>
#include <cstring>
#include <set>

#include "src/util/logging.h"
#include "src/util/math_util.h"
#include "src/verify/verifier.h"

namespace t10 {
namespace {

// Runs `f` when the scope unwinds, on success and error paths alike.
template <typename F>
class ScopeExit {
 public:
  explicit ScopeExit(F f) : f_(std::move(f)) {}
  ~ScopeExit() { f_(); }
  ScopeExit(const ScopeExit&) = delete;
  ScopeExit& operator=(const ScopeExit&) = delete;

 private:
  F f_;
};

// One rotating dim of an operand's window, which factors around it as
// outer x w_r x inner: a shift along it moves `outer` runs of rp * inner
// elements.
struct RotatingDim {
  int dim = -1;
  int axis = -1;
  std::int64_t w_r = 1;
  std::int64_t outer = 1;
  std::int64_t inner = 1;
};

// Row-major layout of one operand's per-core window.
struct OperandLayout {
  std::vector<RotatingDim> rotating;  // In RTensorPlan::rotating_dims order.
  std::vector<bool> dim_rotates;      // Per window dim.
  std::int64_t window_elems = 1;
  std::vector<std::int64_t> strides;  // Row-major strides over window dims.
};

OperandLayout MakeLayout(const TensorRef& ref, const RTensorPlan& tp) {
  OperandLayout layout;
  const std::size_t rank = tp.window.size();
  layout.strides.assign(rank, 1);
  for (std::size_t d = rank; d-- > 0;) {
    if (d + 1 < rank) {
      layout.strides[d] = layout.strides[d + 1] * tp.window[d + 1];
    }
    layout.window_elems *= tp.window[d];
  }
  layout.dim_rotates.assign(rank, false);
  for (int d : tp.rotating_dims) {
    const DimRef& dim = ref.dims[static_cast<std::size_t>(d)];
    T10_CHECK(!dim.compound()) << "compound dims never rotate";
    for (const RotatingDim& other : layout.rotating) {
      T10_CHECK_NE(other.axis, dim.axis) << "two rotating dims of " << ref.name << " share an axis";
    }
    RotatingDim rot;
    rot.dim = d;
    rot.axis = dim.axis;
    rot.w_r = tp.window[static_cast<std::size_t>(d)];
    rot.inner = layout.strides[static_cast<std::size_t>(d)];
    rot.outer = layout.window_elems / (rot.w_r * rot.inner);
    layout.rotating.push_back(rot);
    layout.dim_rotates[static_cast<std::size_t>(d)] = true;
  }
  return layout;
}

// Index tables for one loop nest: per level (an operator axis or a tensor
// dim), only the lanes that are not padding, each carrying one flat-index
// contribution per channel (an operand window or the host tensor), stored
// lane-major. Built once per (step, core) or (operand, core) and swept with
// running sums, so no element recomputes its index from coordinates.
class IndexTables {
 public:
  // Level l holds at most max_lanes[l] lanes.
  IndexTables(const std::vector<std::int64_t>& max_lanes, int channels)
      : channels_(channels), count_(max_lanes.size(), 0) {
    std::int64_t total = 0;
    for (std::int64_t lanes : max_lanes) {
      start_.push_back(total);
      limit_.push_back(lanes);
      total += lanes * channels;
    }
    entries_.resize(static_cast<std::size_t>(total));
  }

  // Empties level `level`.
  void Clear(int level) { count_[static_cast<std::size_t>(level)] = 0; }
  // Appends a lane to `level`; returns its channel entries to fill.
  std::int64_t* AddLane(int level) {
    const std::size_t l = static_cast<std::size_t>(level);
    T10_CHECK_LT(count_[l], limit_[l]);
    return entries_.data() + start_[l] + count_[l]++ * channels_;
  }

  bool AnyEmpty() const {
    return std::find(count_.begin(), count_.end(), 0) != count_.end();
  }

  // Visits the product of every level's lanes in row-major order (the last
  // level innermost), calling run(base, lanes, count) once per innermost
  // run: base[ch] sums the outer levels' contributions for channel ch, and
  // lanes/count are the innermost level's lane-major entries. Nothing runs
  // if a level has no lanes.
  template <typename Run>
  void Sweep(Run&& run) {
    const std::size_t ch = static_cast<std::size_t>(channels_);
    if (count_.empty()) {
      // Rank-0 nest: a single element at index 0 of every channel.
      base_.assign(ch, 0);
      run(base_.data(), base_.data(), std::int64_t{1});
      return;
    }
    if (AnyEmpty()) {
      return;
    }
    const std::size_t outer = count_.size() - 1;
    cursor_.assign(outer, 0);
    // base_[l * ch + c]: channel c's sum over levels < l at the cursor.
    base_.assign((outer + 1) * ch, 0);
    auto refresh_from = [&](std::size_t level) {
      for (std::size_t l = level; l < outer; ++l) {
        const std::int64_t* lane = entries_.data() + start_[l] + cursor_[l] * channels_;
        for (std::size_t c = 0; c < ch; ++c) {
          base_[(l + 1) * ch + c] = base_[l * ch + c] + lane[c];
        }
      }
    };
    refresh_from(0);
    const std::int64_t* inner = entries_.data() + start_[outer];
    const std::int64_t* inner_base = base_.data() + outer * ch;
    while (true) {
      run(inner_base, inner, count_[outer]);
      std::size_t l = outer;
      while (l > 0 && ++cursor_[l - 1] == count_[l - 1]) {
        cursor_[--l] = 0;
      }
      if (l == 0) {
        return;
      }
      refresh_from(l - 1);
    }
  }

 private:
  int channels_;
  std::vector<std::int64_t> start_;  // Offset of each level in entries_.
  std::vector<std::int64_t> limit_;
  std::vector<std::int64_t> count_;
  std::vector<std::int64_t> entries_;
  std::vector<std::int64_t> cursor_;
  std::vector<std::int64_t> base_;
};

// How one sub-task vertex combines its operands per element: contractions
// multiply the inputs, elementwise ops add them (identity for one input),
// reduce-sum passes its input through; every result accumulates into the
// output. The common arities get their own loop, all with the same
// arithmetic and order.
enum class LaneKernel { kProduct2, kProductN, kPass1, kSum2 };

LaneKernel PickLaneKernel(OpKind kind, int inputs) {
  if (kind == OpKind::kContraction) {
    return inputs == 2 ? LaneKernel::kProduct2 : LaneKernel::kProductN;
  }
  return inputs > 1 ? LaneKernel::kSum2 : LaneKernel::kPass1;
}

// Runs one innermost run of `count` lanes: ptr[ti] is operand ti's window
// at the run's base, lanes holds `operands` offsets per lane (the output
// last).
void RunLanes(LaneKernel kernel, float* const* ptr, int operands, const std::int64_t* lanes,
              std::int64_t count) {
  float* out = ptr[operands - 1];
  switch (kernel) {
    case LaneKernel::kProduct2:
      // 1.0f * a * b, as kProductN computes it; 1.0f * a == a exactly.
      for (std::int64_t t = 0; t < count; ++t, lanes += 3) {
        out[lanes[2]] += ptr[0][lanes[0]] * ptr[1][lanes[1]];
      }
      return;
    case LaneKernel::kProductN:
      for (std::int64_t t = 0; t < count; ++t, lanes += operands) {
        float value = 1.0f;
        for (int ti = 0; ti + 1 < operands; ++ti) {
          value *= ptr[ti][lanes[ti]];
        }
        out[lanes[operands - 1]] += value;
      }
      return;
    case LaneKernel::kPass1:
      for (std::int64_t t = 0; t < count; ++t, lanes += operands) {
        out[lanes[operands - 1]] += ptr[0][lanes[0]];
      }
      return;
    case LaneKernel::kSum2:
      // Only the first two inputs contribute to an elementwise op.
      for (std::int64_t t = 0; t < count; ++t, lanes += operands) {
        out[lanes[operands - 1]] += ptr[0][lanes[0]] + ptr[1][lanes[1]];
      }
      return;
  }
}

// Input arity and shapes are caller data: a mismatch is an operational
// error, not a bug.
Status ValidateInputs(const Operator& op, const std::vector<HostTensor>& inputs) {
  if (inputs.size() != op.inputs().size()) {
    return InvalidArgumentError("operator '" + op.name() + "' takes " +
                                std::to_string(op.inputs().size()) + " input(s), got " +
                                std::to_string(inputs.size()));
  }
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (inputs[i].shape != TensorShape(op.axes(), op.inputs()[i])) {
      return InvalidArgumentError("input " + std::to_string(i) + " shape mismatch for '" +
                                  op.name() + "'");
    }
  }
  return Status::Ok();
}

}  // namespace

ProgramExecutor::ProgramExecutor(Machine& machine, const ExecutionPlan& plan,
                                 FaultToleranceOptions fault_tolerance,
                                 std::vector<int> core_map)
    : machine_(machine),
      plan_(plan),
      program_(LowerPlan(plan)),
      geometry_(plan),
      ft_(fault_tolerance),
      core_map_(std::move(core_map)) {
  T10_CHECK_GE(machine.num_cores(), static_cast<int>(plan.cores_used()));
  const Operator& op = plan.op();
  T10_CHECK(op.kind() == OpKind::kContraction || op.kind() == OpKind::kElementwise ||
            op.kind() == OpKind::kReduceSum)
      << "unsupported kind for byte-level execution: " << OpKindName(op.kind());
  for (int ti = 0; ti < geometry_.num_operands(); ++ti) {
    T10_CHECK(geometry_.Operand(ti).dtype == DataType::kF32)
        << "program executor runs FP32 operands";
  }
  if (!core_map_.empty()) {
    T10_CHECK_GE(core_map_.size(), static_cast<std::size_t>(plan.cores_used()))
        << "core map must cover every logical core of the plan";
    std::set<int> distinct;
    for (int phys : core_map_) {
      T10_CHECK_GE(phys, 0);
      T10_CHECK_LT(phys, machine.num_cores());
      T10_CHECK(distinct.insert(phys).second) << "core map repeats physical core " << phys;
    }
  }
  if (ft_.enabled) {
    T10_CHECK_GT(ft_.checkpoint_interval_steps, 0);
    T10_CHECK_GE(ft_.max_rollbacks, 0);
  }
  // Cross-check: refuse to execute a plan/program pair the static verifier
  // rejects (same rules as `t10c --verify`; debug builds / T10_INTERNAL_VERIFY).
  if (verify::InternalVerifyEnabled()) {
    const verify::Verifier verifier(machine.spec());
    verify::VerifyResult result = verifier.VerifyPlan(plan_);
    result.Merge(verifier.VerifyProgram(program_, plan_));
    T10_CHECK(result.ok()) << "lowered program fails static verification:\n"
                           << result.Listing();
  }
}

void ProgramExecutor::SetTrace(const obs::TraceContext& trace, obs::EventJournal* journal) {
  trace_ = trace;
  journal_ = journal;
}

StatusOr<HostTensor> ProgramExecutor::Run(const std::vector<HostTensor>& inputs,
                                          ProgramRunStats* stats) {
  T10_RETURN_IF_ERROR(ValidateInputs(plan_.op(), inputs));
  std::vector<BufferHandle> owned;
  StatusOr<HostTensor> result = RunImpl(inputs, stats, owned);
  // Release all device memory, also on error paths (reverse order keeps the
  // first-fit allocator's coalescing exact).
  for (auto it = owned.rbegin(); it != owned.rend(); ++it) {
    machine_.Free(*it);
  }
  return result;
}

StatusOr<HostTensor> ProgramExecutor::RunImpl(const std::vector<HostTensor>& inputs,
                                              ProgramRunStats* stats,
                                              std::vector<BufferHandle>& owned) {
  const Operator& op = plan_.op();
  const std::vector<Axis>& axes = op.axes();
  const std::vector<std::int64_t>& slice = plan_.axis_slices();
  const int cores = geometry_.num_cores();
  const int operands = geometry_.num_operands();
  machine_.ResetTrafficCounters();
  const std::int64_t base_retries = machine_.fault_retries();
  const double base_penalty = machine_.fault_penalty_seconds();
  // Request id journal events attribute to (the trace id is the request id
  // on the serving path; -1 outside it).
  const std::int64_t trace_req_id =
      trace_.active() ? static_cast<std::int64_t>(trace_.trace_id) : -1;
  obs::Counter& metric_checkpoints =
      obs::MetricsRegistry::Global().GetCounter("exec.fault.checkpoints");
  obs::Counter& metric_rollbacks =
      obs::MetricsRegistry::Global().GetCounter("exec.fault.rollbacks");

  std::vector<OperandLayout> layouts;
  for (int ti = 0; ti < operands; ++ti) {
    layouts.push_back(
        MakeLayout(geometry_.Operand(ti), plan_.tensors()[static_cast<std::size_t>(ti)]));
  }

  auto allocate = [&](int core, std::int64_t bytes) -> StatusOr<BufferHandle> {
    StatusOr<BufferHandle> handle = machine_.Allocate(core, bytes);
    if (handle.ok()) {
      owned.push_back(*handle);
    }
    return handle;
  };

  // allocate: window buffers + one staging buffer (the pseudo-shift buffer of
  // paper §5) per core; with fault tolerance, also the designated spare
  // region holding the checkpoint copy of every window.
  std::vector<std::int64_t> base_used;
  if (verify::InternalVerifyEnabled()) {
    for (int c = 0; c < cores; ++c) {
      base_used.push_back(machine_.memory(Phys(c)).used_bytes());
    }
  }
  std::vector<std::vector<BufferHandle>> windows(operands);
  std::vector<BufferHandle> staging(cores);
  std::vector<std::vector<BufferHandle>> ckpt;
  for (int ti = 0; ti < operands; ++ti) {
    const RTensorPlan& tp = plan_.tensors()[static_cast<std::size_t>(ti)];
    windows[ti].resize(cores);
    for (int c = 0; c < cores; ++c) {
      T10_ASSIGN_OR_RETURN(windows[ti][c],
                           allocate(Phys(c), std::max<std::int64_t>(tp.window_bytes, 8)));
    }
  }
  for (int c = 0; c < cores; ++c) {
    T10_ASSIGN_OR_RETURN(staging[c], allocate(Phys(c), machine_.spec().shift_buffer_bytes));
  }
  if (ft_.enabled) {
    ckpt.resize(operands);
    for (int ti = 0; ti < operands; ++ti) {
      const RTensorPlan& tp = plan_.tensors()[static_cast<std::size_t>(ti)];
      ckpt[ti].resize(cores);
      for (int c = 0; c < cores; ++c) {
        T10_ASSIGN_OR_RETURN(ckpt[ti][c],
                             allocate(Phys(c), std::max<std::int64_t>(tp.window_bytes, 8)));
      }
    }
  }
  ProgramRunStats run_stats;
  for (int c = 0; c < cores; ++c) {
    run_stats.peak_core_bytes =
        std::max(run_stats.peak_core_bytes, machine_.memory(Phys(c)).used_bytes());
  }
  // Stats are published on every exit path, not just success: a failed run's
  // retry/rollback accounting is precisely what fault campaigns inspect.
  ScopeExit publish_stats([&] {
    run_stats.bytes_sent_total = machine_.total_bytes_sent();
    run_stats.retries = machine_.fault_retries() - base_retries;
    run_stats.fault_penalty_seconds = machine_.fault_penalty_seconds() - base_penalty;
    if (stats != nullptr) {
      *stats = run_stats;
    }
  });
  // Cross-check: the verifier's footprint model must match what was just
  // allocated, byte for byte, or capacity checking has drifted from reality.
  if (!base_used.empty()) {
    const std::int64_t footprint =
        verify::ProgramFootprintBytes(plan_, machine_.spec(), ft_.enabled);
    for (int c = 0; c < cores; ++c) {
      T10_CHECK_EQ(machine_.memory(Phys(c)).used_bytes() - base_used[static_cast<std::size_t>(c)],
                   footprint)
          << "executor allocations disagree with verify::ProgramFootprintBytes on core " << c;
    }
  }

  // Window and staging base pointers, hoisted: scratchpads never move
  // while a program runs.
  std::vector<std::vector<float*>> window_ptr(static_cast<std::size_t>(operands));
  for (int ti = 0; ti < operands; ++ti) {
    for (int c = 0; c < cores; ++c) {
      window_ptr[ti].push_back(reinterpret_cast<float*>(machine_.Data(windows[ti][c])));
    }
  }
  std::vector<std::byte*> staging_ptr;
  for (int c = 0; c < cores; ++c) {
    staging_ptr.push_back(machine_.Data(staging[static_cast<std::size_t>(c)]));
  }

  // Host <-> window transfer tables of operand `ti` on `core`: one level per
  // tensor dim, holding the lanes whose global coordinate lies inside
  // `shape` (the rest are padding), each with its window offset (channel 0)
  // and its row-major host-tensor offset (channel 1).
  auto build_transfer_tables = [&](int ti, int core, const std::vector<std::int64_t>& shape,
                                   IndexTables& tables) {
    const TensorRef& ref = geometry_.Operand(ti);
    const RTensorPlan& tp = plan_.tensors()[static_cast<std::size_t>(ti)];
    const OperandLayout& layout = layouts[static_cast<std::size_t>(ti)];
    const std::vector<std::int64_t>& offset = geometry_.Offset(core);
    T10_CHECK_EQ(shape.size(), ref.dims.size()) << "rank of " << ref.name;
    std::int64_t host_stride = 1;
    for (std::size_t d = ref.dims.size(); d-- > 0;) {
      const DimRef& dim = ref.dims[d];
      std::int64_t base = offset[static_cast<std::size_t>(dim.axis)];
      if (dim.compound()) {
        base = dim.stride * base + offset[static_cast<std::size_t>(dim.minor_axis)];
      }
      // A rotating dim's window starts at the co-start phase of its axis.
      const bool rotating = layout.dim_rotates[d];
      const std::int64_t start =
          rotating ? geometry_.Phase(core)[static_cast<std::size_t>(dim.axis)] % tp.sub_shape[d]
                   : 0;
      tables.Clear(static_cast<int>(d));
      for (std::int64_t j = 0; j < tp.window[d]; ++j) {
        const std::int64_t global = base + (rotating ? (start + j) % tp.sub_shape[d] : j);
        if (global >= shape[d]) {
          continue;  // Padding lane.
        }
        std::int64_t* lane = tables.AddLane(static_cast<int>(d));
        lane[0] = j * layout.strides[d];
        lane[1] = global * host_stride;
      }
      host_stride *= shape[d];
    }
  };

  // --- Upload: place each core's initial windows from the host tensors;
  // padding lanes hold zeros. ---
  for (int ti = 0; ti < static_cast<int>(inputs.size()); ++ti) {
    const HostTensor& input = inputs[static_cast<std::size_t>(ti)];
    IndexTables tables(plan_.tensors()[static_cast<std::size_t>(ti)].window, 2);
    for (int c = 0; c < cores; ++c) {
      float* buffer = window_ptr[ti][c];
      std::fill(buffer, buffer + layouts[static_cast<std::size_t>(ti)].window_elems, 0.0f);
      build_transfer_tables(ti, c, input.shape, tables);
      tables.Sweep([&](const std::int64_t* base, const std::int64_t* lanes, std::int64_t count) {
        float* dst = buffer + base[0];
        const float* src = input.data.data() + base[1];
        for (std::int64_t t = 0; t < count; ++t) {
          dst[lanes[2 * t]] = src[lanes[2 * t + 1]];
        }
      });
    }
  }
  // Zero the output accumulators.
  const int out_ti = operands - 1;
  for (int c = 0; c < cores; ++c) {
    std::memset(window_ptr[out_ti][c], 0, static_cast<std::size_t>(windows[out_ti][c].bytes));
  }

  // Checkpoint save/restore: same-core copies (no link traffic, no faults).
  auto save_checkpoint = [&]() {
    for (int ti = 0; ti < operands; ++ti) {
      for (int c = 0; c < cores; ++c) {
        machine_.Copy(windows[ti][c], ckpt[ti][c]);
      }
    }
    ++run_stats.checkpoints;
    metric_checkpoints.Increment();
  };
  auto restore_checkpoint = [&]() {
    for (int ti = 0; ti < operands; ++ti) {
      for (int c = 0; c < cores; ++c) {
        machine_.Copy(ckpt[ti][c], windows[ti][c]);
      }
    }
    ++run_stats.rollbacks;
    metric_rollbacks.Increment();
  };

  // --- Main compute-shift loop. ---
  std::vector<std::int64_t> pace(axes.size(), 0);
  for (const RotationLoop& loop : plan_.loops()) {
    pace[static_cast<std::size_t>(loop.axis)] = loop.pace;
  }
  // Step-invariant ComputeSet state: per-axis lane extents and, per (axis,
  // operand), the index coefficient of the axis's local coordinate over the
  // operand's non-rotating dims (a compound dim adds stride * l on its major
  // axis and l on its minor one) and the operand's rotating dim on that axis,
  // if any. Rotating dims are resolved per step against their axis's window
  // start: all tensors rotating on an axis co-start at its phase.
  const LaneKernel kernel = PickLaneKernel(op.kind(), static_cast<int>(inputs.size()));
  std::vector<std::int64_t> extents(axes.size());
  for (std::size_t a = 0; a < axes.size(); ++a) {
    extents[a] = pace[a] > 0 ? pace[a] : slice[a];
  }
  const std::size_t slots = axes.size() * static_cast<std::size_t>(operands);
  std::vector<std::int64_t> coef(slots, 0);
  struct RotSlot {
    std::int64_t w_r = 0;     // 0: the operand does not rotate on the axis.
    std::int64_t stride = 0;  // Window stride of the rotating dim (its inner).
  };
  std::vector<RotSlot> rot_slot(slots);
  for (int ti = 0; ti < operands; ++ti) {
    const TensorRef& ref = geometry_.Operand(ti);
    const OperandLayout& layout = layouts[static_cast<std::size_t>(ti)];
    for (const RotatingDim& rot : layout.rotating) {
      rot_slot[static_cast<std::size_t>(rot.axis * operands + ti)] = {rot.w_r, rot.inner};
    }
    for (std::size_t d = 0; d < ref.dims.size(); ++d) {
      const DimRef& dim = ref.dims[d];
      if (layout.dim_rotates[d]) {
        continue;
      }
      if (dim.compound()) {
        coef[static_cast<std::size_t>(dim.axis * operands + ti)] += dim.stride * layout.strides[d];
        coef[static_cast<std::size_t>(dim.minor_axis * operands + ti)] += layout.strides[d];
      } else {
        coef[static_cast<std::size_t>(dim.axis * operands + ti)] += layout.strides[d];
      }
    }
  }
  IndexTables compute_tables(extents, operands);
  std::vector<std::int64_t> advance(axes.size(), 0);
  std::vector<float*> run_ptr(static_cast<std::size_t>(operands));
  std::vector<float> outgoing;  // ShiftSet head slabs of one ring, reused.

  const std::int64_t total_steps = plan_.total_steps();
  run_stats.steps = total_steps;
  std::int64_t ckpt_step = 0;

  // Coarse tracing granularity: one span per checkpoint-interval step group
  // (the whole run when fault tolerance is off), not per step — the span
  // count stays bounded no matter how many rotation steps the plan takes.
  const std::int64_t span_group = ft_.enabled
                                      ? static_cast<std::int64_t>(ft_.checkpoint_interval_steps)
                                      : std::max<std::int64_t>(total_steps, 1);
  obs::Span group_span;

  for (std::int64_t s = 0; s < total_steps; ++s) {
    if (s % span_group == 0) {
      group_span = obs::StartSpan(trace_, "exec.steps");
      if (group_span.active()) {
        group_span.AddAttr("from_step", std::to_string(s));
        group_span.AddAttr("op", op.name());
      }
    }
    if (ft_.enabled && s % ft_.checkpoint_interval_steps == 0) {
      save_checkpoint();
      ckpt_step = s;
    }
    const std::vector<std::int64_t> counters = geometry_.StepCounters(s);
    for (std::size_t a = 0; a < axes.size(); ++a) {
      const int loop = geometry_.LoopOfAxis(static_cast<int>(a));
      advance[a] = loop >= 0 ? counters[static_cast<std::size_t>(loop)] * pace[a] : 0;
    }

    // ComputeSet: every core runs its sub-task vertex on local windows only.
    for (int c = 0; c < cores; ++c) {
      const std::vector<std::int64_t>& offset = geometry_.Offset(c);
      const std::vector<std::int64_t>& phase = geometry_.Phase(c);
      // One level per axis: the step's non-padding local coordinates, each
      // with its physical index contribution to every operand's window.
      struct {
        std::int64_t j = 0;
        std::int64_t w_r = 1;
      } miss;  // First window miss met while building, if any.
      for (std::size_t a = 0; a < axes.size(); ++a) {
        compute_tables.Clear(static_cast<int>(a));
        // Rotating dims on this axis are never compound: their sub-tensor
        // length is the axis slice.
        const std::int64_t sub_len = slice[a];
        const std::int64_t rot_start = (phase[a] + advance[a]) % sub_len;
        for (std::int64_t t = 0; t < extents[a]; ++t) {
          const std::int64_t l = pace[a] > 0 ? (phase[a] + advance[a] + t) % slice[a] : t;
          if (offset[a] + l >= axes[a].length) {
            continue;  // Padding lane.
          }
          std::int64_t* lane = compute_tables.AddLane(static_cast<int>(a));
          for (int ti = 0; ti < operands; ++ti) {
            const std::size_t slot =
                a * static_cast<std::size_t>(operands) + static_cast<std::size_t>(ti);
            std::int64_t index = coef[slot] * l;
            const RotSlot& rot = rot_slot[slot];
            if (rot.w_r > 0) {
              const std::int64_t j = ((l - rot_start) % sub_len + sub_len) % sub_len;
              if (j >= rot.w_r && miss.j < miss.w_r) {
                miss = {j, rot.w_r};
              }
              index += j * rot.stride;
            }
            lane[ti] = index;
          }
        }
      }
      if (compute_tables.AnyEmpty()) {
        continue;  // Some axis is all padding on this core: nothing is read.
      }
      T10_CHECK_LT(miss.j, miss.w_r) << "window miss in " << op.name();
      compute_tables.Sweep(
          [&](const std::int64_t* base, const std::int64_t* lanes, std::int64_t count) {
            for (int ti = 0; ti < operands; ++ti) {
              run_ptr[static_cast<std::size_t>(ti)] = window_ptr[ti][c] + base[ti];
            }
            RunLanes(kernel, run_ptr.data(), operands, lanes, count);
          });
    }

    // ShiftSets: every rotating tensor ships its head slab along the shift's
    // dim to its downstream ring neighbour, then compacts its window and
    // appends the received slab at the tail. With fault tolerance, every
    // slab chunk goes through the checksummed reliable-transfer layer; a
    // kDataLoss (retries exhausted) rolls the ring state back to the last
    // checkpoint and re-executes from there.
    Status shift_status = [&]() -> Status {
      for (const ShiftSet& shift : program_.steps[static_cast<std::size_t>(s)].shifts) {
        const int ti = shift.operand;
        const OperandLayout& layout = layouts[static_cast<std::size_t>(ti)];
        const auto rot_it =
            std::find_if(layout.rotating.begin(), layout.rotating.end(),
                         [&](const RotatingDim& r) { return r.dim == shift.dim; });
        T10_CHECK(rot_it != layout.rotating.end()) << "shift of a non-rotating dim";
        const std::size_t k = static_cast<std::size_t>(rot_it - layout.rotating.begin());
        const RotatingDim& rot = *rot_it;
        const std::int64_t rp = pace[static_cast<std::size_t>(rot.axis)];
        const std::int64_t run_elems = rp * rot.inner;
        const std::int64_t slab_elems = rot.outer * run_elems;
        T10_CHECK_EQ(slab_elems * 4, shift.slab_bytes);

        for (const std::vector<int>& ring : program_.allocations[static_cast<std::size_t>(ti)]
                                                .rings) {
          const int n = static_cast<int>(ring.size());
          outgoing.resize(std::max(outgoing.size(), static_cast<std::size_t>(n * slab_elems)));
          // Phase 1: collect each member's outgoing head slab.
          for (int p = 0; p < n; ++p) {
            const float* buffer = window_ptr[ti][ring[static_cast<std::size_t>(p)]];
            for (std::int64_t o = 0; o < rot.outer; ++o) {
              std::memcpy(outgoing.data() + p * slab_elems + o * run_elems,
                          buffer + o * rot.w_r * rot.inner,
                          static_cast<std::size_t>(run_elems) * 4);
            }
          }
          // Phase 2: local compaction (drop the head, make room at the tail).
          for (int p = 0; p < n; ++p) {
            float* buffer = window_ptr[ti][ring[static_cast<std::size_t>(p)]];
            for (std::int64_t o = 0; o < rot.outer; ++o) {
              std::memmove(buffer + o * rot.w_r * rot.inner,
                           buffer + o * rot.w_r * rot.inner + run_elems,
                           static_cast<std::size_t>((rot.w_r - rp) * rot.inner) * 4);
            }
          }
          // Phase 3: deliver slabs downstream (one step back along dim k of
          // the ring) through the bounded staging buffer, in as many rounds
          // as needed.
          const std::int64_t chunk_bytes = machine_.spec().shift_buffer_bytes;
          for (int p = 0; p < n; ++p) {
            const int src_core = ring[static_cast<std::size_t>(p)];
            const int dst_core =
                ring[static_cast<std::size_t>(geometry_.DownstreamPosition(ti, p, k))];
            const BufferHandle& stage = staging[static_cast<std::size_t>(src_core)];
            const BufferHandle& dst_window = windows[ti][static_cast<std::size_t>(dst_core)];
            for (std::int64_t o = 0; o < rot.outer; ++o) {
              const std::byte* src = reinterpret_cast<const std::byte*>(
                  outgoing.data() + p * slab_elems + o * run_elems);
              // Byte offset of the slab row's tail slot in the dst window.
              const std::int64_t dst_offset = (o * rot.w_r + (rot.w_r - rp)) * rot.inner * 4;
              std::int64_t done = 0;
              while (done < run_elems * 4) {
                const std::int64_t len = std::min(chunk_bytes, run_elems * 4 - done);
                std::memcpy(staging_ptr[static_cast<std::size_t>(src_core)], src + done,
                            static_cast<std::size_t>(len));
                const BufferHandle stage_view{stage.core, stage.offset, len};
                const BufferHandle dst_view{dst_window.core,
                                            dst_window.offset + dst_offset + done, len};
                if (ft_.enabled) {
                  T10_RETURN_IF_ERROR(machine_.CopyReliable(stage_view, dst_view, ft_.retry));
                } else {
                  machine_.Copy(stage_view, dst_view);
                }
                done += len;
                ++run_stats.shift_rounds;
              }
            }
          }
        }
      }
      return Status::Ok();
    }();
    if (!shift_status.ok()) {
      if (ft_.enabled && shift_status.code() == StatusCode::kDataLoss &&
          run_stats.rollbacks < ft_.max_rollbacks) {
        obs::Log(journal_, obs::Severity::kWarn, "exec", "exec.rollback",
                 trace_req_id, /*plan_epoch=*/-1,
                 "step " + std::to_string(s) + " -> checkpoint " + std::to_string(ckpt_step));
        restore_checkpoint();
        s = ckpt_step - 1;  // The loop increment re-enters at ckpt_step.
        continue;
      }
      if (shift_status.code() == StatusCode::kDataLoss) {
        obs::Log(journal_, obs::Severity::kError, "exec", "exec.data_loss",
                 trace_req_id, /*plan_epoch=*/-1,
                 "rollback budget exhausted at step " + std::to_string(s));
        return DataLossError(shift_status.message() + " (after " +
                             std::to_string(run_stats.rollbacks) +
                             " checkpoint rollbacks; program abandoned)");
      }
      if (shift_status.code() == StatusCode::kUnavailable) {
        obs::Log(journal_, obs::Severity::kError, "exec", "exec.unavailable",
                 trace_req_id, /*plan_epoch=*/-1,
                 shift_status.message());
      }
      return shift_status;
    }
  }
  group_span.End();

  // --- Download: merge per-core output windows (partials sum across the
  // reduce group; the on-chip reduce-scatter epilogue is modelled in
  // Evaluate and exercised by sim_machine_test). ---
  HostTensor out = HostTensor::Zeros(TensorShape(axes, op.output()));
  for (const DimRef& dim : op.output().dims) {
    T10_CHECK(!dim.compound());
  }
  IndexTables out_tables(plan_.tensors().back().window, 2);
  for (int c = 0; c < cores; ++c) {
    const float* buffer = window_ptr[out_ti][c];
    build_transfer_tables(out_ti, c, out.shape, out_tables);
    out_tables.Sweep([&](const std::int64_t* base, const std::int64_t* lanes, std::int64_t count) {
      const float* src = buffer + base[0];
      float* dst = out.data.data() + base[1];
      for (std::int64_t t = 0; t < count; ++t) {
        dst[lanes[2 * t + 1]] += src[lanes[2 * t]];
      }
    });
  }

  return out;
}

}  // namespace t10
