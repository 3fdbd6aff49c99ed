#include "src/verify/verifier.h"

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "src/util/math_util.h"

namespace t10::verify {
namespace {

// Operand TensorRefs of an operator in plan order (inputs..., output).
std::vector<const TensorRef*> OperandRefs(const Operator& op) {
  std::vector<const TensorRef*> refs;
  for (const TensorRef& input : op.inputs()) {
    refs.push_back(&input);
  }
  refs.push_back(&op.output());
  return refs;
}

// Rotating pace per operator axis (0 = axis not rotated), from the loop nest.
std::vector<std::int64_t> AxisPaces(const ExecutionPlan& plan) {
  std::vector<std::int64_t> pace(plan.op().axes().size(), 0);
  for (const RotationLoop& loop : plan.loops()) {
    if (loop.axis >= 0 && loop.axis < static_cast<int>(pace.size())) {
      pace[static_cast<std::size_t>(loop.axis)] = loop.pace;
    }
  }
  return pace;
}

// How many times the loop handling `axis` advances over the whole program:
// the product of the step counts of every loop at its level or outside it
// (mirrors ExecutionPlan::Evaluate and LowerPlan's stride arithmetic).
std::int64_t AxisAdvances(const ExecutionPlan& plan, int axis) {
  std::int64_t advances = 1;
  for (const RotationLoop& loop : plan.loops()) {
    advances *= loop.steps;
    if (loop.axis == axis) {
      return advances;
    }
  }
  return 0;  // Axis has no loop: it never advances.
}

// The slab each core ships when tensor `ti` rotates its dim `d`: rp elements
// of thickness along the rotating dim, i.e. window_bytes * pace / window_len.
// Returns -1 when the pace does not evenly tile the window into slabs.
std::int64_t ExpectedSlabBytes(const RTensorPlan& tp, int d, std::int64_t pace) {
  const std::int64_t window_len = tp.window[static_cast<std::size_t>(d)];
  if (window_len <= 0 || pace <= 0 || (tp.window_bytes * pace) % window_len != 0) {
    return -1;
  }
  return tp.window_bytes * pace / window_len;
}

bool ShapeDominates(const std::vector<std::int64_t>& a, const std::vector<std::int64_t>& b) {
  for (std::size_t d = 0; d < a.size(); ++d) {
    if (a[d] < b[d]) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::int64_t ProgramFootprintBytes(const ExecutionPlan& plan, const ChipSpec& chip,
                                   bool fault_tolerant) {
  // Mirror of ProgramExecutor::Run's allocation pattern: one window buffer
  // per operand (minimum 8 bytes, allocator-aligned), doubled by the spare
  // copy fault tolerance keeps, plus the bounded staging buffer of the
  // pseudo-shift mechanism.
  const std::int64_t copies = fault_tolerant ? 2 : 1;
  std::int64_t bytes = RoundUp(std::max<std::int64_t>(chip.shift_buffer_bytes, 1), 8);
  for (const RTensorPlan& tp : plan.tensors()) {
    bytes += copies * RoundUp(std::max<std::int64_t>(tp.window_bytes, 8), 8);
  }
  return bytes;
}

bool InternalVerifyEnabled() {
  static const bool enabled = [] {
    const char* env = std::getenv("T10_INTERNAL_VERIFY");  // NOLINT(concurrency-mt-unsafe): read once under static init.
    if (env != nullptr && env[0] != '\0') {
      return env[0] != '0';
    }
#ifndef NDEBUG
    return true;
#else
    return false;
#endif
  }();
  return enabled;
}

Verifier::Verifier(const ChipSpec& chip, VerifyOptions options)
    : chip_(chip), options_(options) {}

VerifyResult Verifier::VerifyGraph(const Graph& graph) const {
  VerifyResult result;
  if (graph.num_ops() == 0) {
    DiagnosticBuilder(result, "graph.empty", graph.name(), Severity::kWarning)
        << "graph has no operators";
    return result;
  }
  for (int i = 0; i < graph.num_ops(); ++i) {
    const Operator& op = graph.op(i);
    auto check_edge = [&](const TensorRef& ref, bool is_output) {
      if (!graph.HasTensor(ref.name)) {
        DiagnosticBuilder(result, "graph.dangling-operand", op.name())
                .Hint("every operand must be registered by Graph::Add")
            << "tensor '" << ref.name << "' is not recorded in the graph";
        return;
      }
      const TensorInfo& info = graph.tensor(ref.name);
      if (is_output) {
        if (info.producer != i) {
          DiagnosticBuilder(result, "graph.dangling-operand", op.name())
              << "output '" << ref.name << "' records producer " << info.producer
              << ", expected " << i;
        }
      } else {
        if (info.producer >= i) {
          DiagnosticBuilder(result, "graph.dangling-operand", op.name())
                  .Hint("operators must be added in execution order")
              << "input '" << ref.name << "' is produced by operator " << info.producer
              << ", at or after its consumer " << i;
        }
        if (std::find(info.consumers.begin(), info.consumers.end(), i) ==
            info.consumers.end()) {
          DiagnosticBuilder(result, "graph.dangling-operand", op.name())
              << "input '" << ref.name << "' does not record operator " << i
              << " among its consumers";
        }
        if (info.is_weight && info.producer != -1) {
          DiagnosticBuilder(result, "graph.dangling-operand", op.name())
              << "weight '" << ref.name << "' has producer " << info.producer
              << "; weights must be graph-level constants";
        }
      }
      if (info.dtype != ref.dtype) {
        DiagnosticBuilder(result, "graph.dtype-mismatch", op.name())
            << "tensor '" << ref.name << "' is recorded as " << DataTypeName(info.dtype)
            << " but used as " << DataTypeName(ref.dtype);
      }
      const std::vector<std::int64_t> shape = TensorShape(op.axes(), ref);
      if (shape != info.shape) {
        bool halo_use = info.halo_padded;
        for (const DimRef& dim : ref.dims) {
          halo_use = halo_use || dim.compound();
        }
        const bool tolerated =
            halo_use && shape.size() == info.shape.size() &&
            (ShapeDominates(shape, info.shape) || ShapeDominates(info.shape, shape));
        if (!tolerated) {
          DiagnosticBuilder(result, "graph.shape-mismatch", op.name())
                  .Hint("same-named tensors must agree on shape (halo pads excepted)")
              << "tensor '" << ref.name << "' is used with a shape that disagrees with "
              << "its recorded extent";
        }
      }
    };
    for (const TensorRef& input : op.inputs()) {
      check_edge(input, /*is_output=*/false);
    }
    check_edge(op.output(), /*is_output=*/true);
  }
  return result;
}

VerifyResult Verifier::VerifyPlan(const ExecutionPlan& plan) const {
  VerifyResult result;
  const Operator& op = plan.op();
  const std::vector<Axis>& axes = op.axes();
  const std::vector<const TensorRef*> operands = OperandRefs(op);
  const std::vector<std::int64_t>& slice = plan.axis_slices();

  // plan.cores: the spatial factorization must map onto the chip (§4.1).
  if (plan.cores_used() != Product(plan.fop())) {
    DiagnosticBuilder(result, "plan.cores", op.name())
        << "cores_used " << plan.cores_used() << " disagrees with prod(F_op) "
        << Product(plan.fop());
  }
  if (plan.cores_used() < 1 || plan.cores_used() > chip_.num_cores) {
    DiagnosticBuilder(result, "plan.cores", op.name())
            .Hint("cap prod(F_op) at the chip's core count")
        << "plan uses " << plan.cores_used() << " cores but the chip has "
        << chip_.num_cores;
  }
  // plan.degraded-cores: on a chip with a topology health mask, the plan
  // must fit the *surviving* cores — a plan that spans a downed core would
  // stall on its first shift (degraded re-planning contract).
  if (chip_.health.degraded() && plan.cores_used() > chip_.UsableCores()) {
    DiagnosticBuilder(result, "plan.degraded-cores", op.name())
            .Hint("recompile against chip.SurvivingSpec() and run with its core map")
        << "plan uses " << plan.cores_used() << " cores but only " << chip_.UsableCores()
        << " of " << chip_.num_cores << " survive the health mask";
  }
  for (std::size_t a = 0; a < axes.size(); ++a) {
    const std::int64_t s = plan.fop()[a];
    if (s < 1 || s > axes[a].length || slice[a] != CeilDiv(axes[a].length, s)) {
      DiagnosticBuilder(result, "plan.cores", op.name())
          << "axis " << axes[a].name << ": spatial factor " << s << " / slice " << slice[a]
          << " is inconsistent with length " << axes[a].length;
    }
  }

  // plan.capacity: every core must hold its windows plus the shift buffer
  // (§4.3's memory constraint, checked with LocalMemory's alignment).
  const std::int64_t footprint = ProgramFootprintBytes(plan, chip_);
  if (footprint > chip_.core_memory_bytes) {
    DiagnosticBuilder(result, "plan.capacity", op.name())
            .Hint("pick a larger F_op or f_t so per-core windows shrink")
        << "per-core footprint " << footprint << "B (plan accounting "
        << plan.PerCoreBytes(chip_) << "B) exceeds the " << chip_.core_memory_bytes
        << "B scratchpad";
  }

  // plan.window-tiling: f_t must tile each sub-tensor exactly into rings
  // that evenly cover the sharing cores (§4.2's rTensor partitioning).
  for (std::size_t ti = 0; ti < plan.tensors().size(); ++ti) {
    const RTensorPlan& tp = plan.tensors()[ti];
    const bool is_output = ti + 1 == plan.tensors().size();
    std::int64_t ring = 1;
    for (std::size_t d = 0; d < tp.temporal.size(); ++d) {
      const std::int64_t ft = tp.temporal[d];
      const bool rotating =
          std::find(tp.rotating_dims.begin(), tp.rotating_dims.end(), static_cast<int>(d)) !=
          tp.rotating_dims.end();
      if (ft < 1 || tp.window[d] * ft != tp.sub_shape[d]) {
        DiagnosticBuilder(result, "plan.window-tiling", op.name())
                .Operand(static_cast<int>(ti))
                .Hint("f_t must divide the sub-tensor length")
            << "dim " << d << ": window " << tp.window[d] << " x f_t " << ft
            << " does not tile sub-tensor length " << tp.sub_shape[d];
      }
      if (rotating != (ft > 1)) {
        DiagnosticBuilder(result, "plan.window-tiling", op.name())
                .Operand(static_cast<int>(ti))
            << "dim " << d << ": rotating_dims disagrees with f_t " << ft;
      }
      if (ft > 1 && operands[ti]->dims[d].compound()) {
        DiagnosticBuilder(result, "plan.window-tiling", op.name())
                .Operand(static_cast<int>(ti))
            << "compound (halo) dim " << d << " must not be temporally split";
      }
      ring *= ft;
    }
    if (ring != tp.ring_size) {
      DiagnosticBuilder(result, "plan.window-tiling", op.name())
              .Operand(static_cast<int>(ti))
          << "ring_size " << tp.ring_size << " disagrees with prod(f_t) " << ring;
    }
    if (tp.ring_size < 1 || tp.share_cores % tp.ring_size != 0 ||
        tp.replicas * tp.ring_size != tp.share_cores) {
      DiagnosticBuilder(result, "plan.window-tiling", op.name())
              .Operand(static_cast<int>(ti))
              .Hint("rings must evenly cover the sharing cores")
          << "rings of size " << tp.ring_size << " do not partition the " << tp.share_cores
          << " sharing cores (" << tp.replicas << " replicas)";
    }
    if (is_output && tp.ring_size != 1) {
      DiagnosticBuilder(result, "plan.output-rotation", op.name())
              .Operand(static_cast<int>(ti))
              .Hint("outputs use the reduce-scatter epilogue, not rotation")
          << "output tensor is temporally partitioned (ring_size " << tp.ring_size << ")";
    }
  }

  // plan.pace-alignment: rp divides the rotating dim's slice and equals the
  // minimum window among the tensors rotating on the axis (plan.h's
  // divisibility rule; paper §4.2 "rotating pace").
  std::vector<bool> axis_has_loop(axes.size(), false);
  for (const RotationLoop& loop : plan.loops()) {
    if (loop.axis < 0 || loop.axis >= static_cast<int>(axes.size())) {
      DiagnosticBuilder(result, "plan.pace-alignment", op.name())
          << "loop rotates unknown axis " << loop.axis;
      continue;
    }
    axis_has_loop[static_cast<std::size_t>(loop.axis)] = true;
    const std::int64_t axis_len = slice[static_cast<std::size_t>(loop.axis)];
    if (loop.pace < 1 || axis_len % loop.pace != 0 || loop.steps != axis_len / loop.pace) {
      DiagnosticBuilder(result, "plan.pace-alignment", op.name())
              .Hint("rp must divide the per-core slice of the rotating axis")
          << "axis " << axes[static_cast<std::size_t>(loop.axis)].name << ": pace "
          << loop.pace << " x steps " << loop.steps << " does not cover slice " << axis_len;
    }
    std::int64_t min_window = 0;
    for (std::size_t ti = 0; ti < plan.tensors().size(); ++ti) {
      const RTensorPlan& tp = plan.tensors()[ti];
      for (int d : tp.rotating_dims) {
        if (operands[ti]->dims[static_cast<std::size_t>(d)].axis == loop.axis) {
          const std::int64_t w = tp.window[static_cast<std::size_t>(d)];
          min_window = min_window == 0 ? w : std::min(min_window, w);
        }
      }
    }
    if (min_window == 0) {
      DiagnosticBuilder(result, "plan.step-consistency", op.name())
          << "loop rotates axis " << axes[static_cast<std::size_t>(loop.axis)].name
          << " but no tensor rotates on it";
    } else if (loop.pace != min_window) {
      DiagnosticBuilder(result, "plan.pace-alignment", op.name())
              .Hint("T10 designates rp as the minimum window length (§4.2)")
          << "axis " << axes[static_cast<std::size_t>(loop.axis)].name << ": pace "
          << loop.pace << " != minimum rotating window " << min_window;
    }
  }
  // plan.step-consistency: every rotating tensor must be driven by a loop,
  // otherwise some step would wait on a shift that is never scheduled.
  for (std::size_t ti = 0; ti < plan.tensors().size(); ++ti) {
    for (int d : plan.tensors()[ti].rotating_dims) {
      const int axis = operands[ti]->dims[static_cast<std::size_t>(d)].axis;
      if (axis < 0 || axis >= static_cast<int>(axes.size()) ||
          !axis_has_loop[static_cast<std::size_t>(axis)]) {
        DiagnosticBuilder(result, "plan.step-consistency", op.name())
                .Operand(static_cast<int>(ti))
                .Hint("every rotated axis needs a rotation loop")
            << "dim " << d << " rotates on axis " << axis << " which has no loop";
      }
    }
  }

  // plan.padding: heavy padding waste is legal but usually a search bug.
  if (plan.padding_ratio() < 0.5) {
    DiagnosticBuilder(result, "plan.padding", op.name(), Severity::kWarning)
            .Hint("check the search's padding_threshold constraint")
        << "padding wastes " << static_cast<int>((1.0 - plan.padding_ratio()) * 100.0)
        << "% of the partitioned footprint";
  }
  return result;
}

VerifyResult Verifier::VerifyProgram(const DeviceProgram& program,
                                     const ExecutionPlan& plan) const {
  VerifyResult result;
  const std::string& name = program.op_name.empty() ? plan.op().name() : program.op_name;
  const std::vector<const TensorRef*> operands = OperandRefs(plan.op());
  const int cores = static_cast<int>(plan.cores_used());
  const std::vector<std::int64_t> pace = AxisPaces(plan);

  if (program.cores_used != plan.cores_used()) {
    DiagnosticBuilder(result, "program.allocation", name)
        << "program uses " << program.cores_used << " cores but the plan uses "
        << plan.cores_used();
  }
  if (program.allocations.size() != plan.tensors().size()) {
    DiagnosticBuilder(result, "program.allocation", name)
        << "program has " << program.allocations.size() << " allocations for "
        << plan.tensors().size() << " operands";
    return result;  // Per-operand checks below would index out of range.
  }

  // program.capacity: allocations plus the shift staging buffer must fit the
  // scratchpad at every step (they are all live for the whole program).
  std::int64_t footprint = RoundUp(std::max<std::int64_t>(chip_.shift_buffer_bytes, 1), 8);
  for (const TensorAllocation& alloc : program.allocations) {
    footprint += RoundUp(std::max<std::int64_t>(alloc.window_bytes, 8), 8);
  }
  if (footprint > chip_.core_memory_bytes) {
    DiagnosticBuilder(result, "program.capacity", name)
            .Hint("the plan search must reject this configuration")
        << "per-core allocations + shift buffer (" << footprint << "B) exceed the "
        << chip_.core_memory_bytes << "B scratchpad";
  }

  // program.allocation + ring structure/conservation per operand.
  for (std::size_t ti = 0; ti < program.allocations.size(); ++ti) {
    const TensorAllocation& alloc = program.allocations[ti];
    const RTensorPlan& tp = plan.tensors()[ti];
    if (alloc.operand != static_cast<int>(ti) || alloc.window_bytes != tp.window_bytes) {
      DiagnosticBuilder(result, "program.allocation", name)
              .Operand(static_cast<int>(ti))
          << "allocation '" << alloc.name << "' (operand " << alloc.operand << ", "
          << alloc.window_bytes << "B) disagrees with the plan window (" << tp.window_bytes
          << "B)";
    }
    if ((tp.ring_size > 1) != !alloc.rings.empty()) {
      DiagnosticBuilder(result, "program.ring-structure", name)
              .Operand(static_cast<int>(ti))
          << "operand with ring_size " << tp.ring_size << " has " << alloc.rings.size()
          << " rings";
      continue;
    }
    if (alloc.rings.empty()) {
      continue;
    }
    // Structure: every ring is a cycle of ring_size distinct valid cores,
    // and there are exactly cores / ring_size of them.
    const std::int64_t expected_rings =
        tp.ring_size > 0 ? plan.cores_used() / tp.ring_size : 0;
    if (static_cast<std::int64_t>(alloc.rings.size()) != expected_rings) {
      DiagnosticBuilder(result, "program.ring-structure", name)
              .Operand(static_cast<int>(ti))
          << alloc.rings.size() << " rings, expected " << expected_rings << " (cores "
          << plan.cores_used() << " / ring_size " << tp.ring_size << ")";
    }
    // Conservation: with every member sending its head slab downstream, each
    // participating core must send exactly one slab and receive exactly one
    // slab per shift — i.e. the rings form disjoint cycles covering all
    // cores. A core covered twice (or never) breaks byte conservation.
    std::vector<int> sends(static_cast<std::size_t>(cores), 0);
    std::vector<int> receives(static_cast<std::size_t>(cores), 0);
    bool members_valid = true;
    for (const std::vector<int>& ring : alloc.rings) {
      if (static_cast<std::int64_t>(ring.size()) != tp.ring_size) {
        DiagnosticBuilder(result, "program.ring-structure", name)
                .Operand(static_cast<int>(ti))
            << "ring of size " << ring.size() << ", expected " << tp.ring_size;
      }
      for (std::size_t p = 0; p < ring.size(); ++p) {
        const int src = ring[p];
        const int dst = ring[(p + ring.size() - 1) % ring.size()];
        if (src < 0 || src >= cores) {
          DiagnosticBuilder(result, "program.ring-structure", name)
                  .Operand(static_cast<int>(ti))
                  .Core(src)
              << "ring member outside the " << cores << " participating cores";
          members_valid = false;
          continue;
        }
        ++sends[static_cast<std::size_t>(src)];
        if (dst >= 0 && dst < cores) {
          ++receives[static_cast<std::size_t>(dst)];
        }
      }
    }
    if (members_valid) {
      for (int c = 0; c < cores; ++c) {
        if (sends[static_cast<std::size_t>(c)] != 1 ||
            receives[static_cast<std::size_t>(c)] != 1) {
          DiagnosticBuilder(result, "program.ring-conservation", name)
                  .Operand(static_cast<int>(ti))
                  .Core(c)
                  .Hint("every slab leaving the ring must re-enter it")
              << "core sends " << sends[static_cast<std::size_t>(c)] << " and receives "
              << receives[static_cast<std::size_t>(c)]
              << " slab(s) per shift; rings must be disjoint cycles covering all cores";
          break;  // One diagnostic per operand is enough.
        }
      }
    }
  }

  // Expected slab bytes per (operand, rotating dim); -1 marks a pace that
  // does not evenly tile the window (fires program.slab-alignment).
  std::vector<std::int64_t> expected_shift_count(plan.tensors().size(), 0);
  std::vector<std::vector<std::int64_t>> slabs(plan.tensors().size());
  std::int64_t expected_traffic = 0;
  bool slabs_aligned = true;
  for (std::size_t ti = 0; ti < plan.tensors().size(); ++ti) {
    const RTensorPlan& tp = plan.tensors()[ti];
    for (int d : tp.rotating_dims) {
      const int axis = operands[ti]->dims[static_cast<std::size_t>(d)].axis;
      const std::int64_t slab =
          ExpectedSlabBytes(tp, d, pace[static_cast<std::size_t>(axis)]);
      if (slab <= 0) {
        DiagnosticBuilder(result, "program.slab-alignment", name)
                .Operand(static_cast<int>(ti))
                .Hint("rp must divide the rotating dim per the rule in plan.h")
            << "rotating pace " << pace[static_cast<std::size_t>(axis)]
            << " does not evenly tile window length "
            << tp.window[static_cast<std::size_t>(d)] << " into slabs";
        slabs_aligned = false;
        continue;
      }
      slabs[ti].push_back(slab);
      const std::int64_t advances = AxisAdvances(plan, axis);
      expected_shift_count[ti] += advances;
      expected_traffic += advances * slab;
    }
  }

  // program.step-count + per-step checks.
  if (static_cast<std::int64_t>(program.steps.size()) != plan.total_steps()) {
    DiagnosticBuilder(result, "program.step-count", name)
        << "program has " << program.steps.size() << " steps but the plan's loop nest runs "
        << plan.total_steps();
  }
  std::vector<std::int64_t> shift_count(plan.tensors().size(), 0);
  std::vector<bool> staging_warned(plan.tensors().size(), false);
  for (std::size_t s = 0; s < program.steps.size(); ++s) {
    const ProgramStep& step = program.steps[s];
    if (step.compute.vertices != plan.cores_used()) {
      DiagnosticBuilder(result, "program.compute-vertices", name)
              .Step(static_cast<int>(s))
          << "ComputeSet runs " << step.compute.vertices << " vertices, expected "
          << plan.cores_used();
    }
    for (const ShiftSet& shift : step.shifts) {
      if (shift.operand < 0 ||
          shift.operand >= static_cast<int>(plan.tensors().size())) {
        DiagnosticBuilder(result, "program.shift-operand", name)
                .Step(static_cast<int>(s))
            << "shift references unknown operand " << shift.operand;
        continue;
      }
      const std::size_t ti = static_cast<std::size_t>(shift.operand);
      if (plan.tensors()[ti].ring_size <= 1) {
        DiagnosticBuilder(result, "program.shift-operand", name)
                .Step(static_cast<int>(s))
                .Operand(shift.operand)
            << "shift of an operand with no rotation ring";
        continue;
      }
      const std::vector<int>& rotating = plan.tensors()[ti].rotating_dims;
      if (std::find(rotating.begin(), rotating.end(), shift.dim) == rotating.end()) {
        DiagnosticBuilder(result, "program.shift-operand", name)
                .Step(static_cast<int>(s))
                .Operand(shift.operand)
            << "shift along dim " << shift.dim << ", which does not rotate";
        continue;
      }
      ++shift_count[ti];
      if (std::find(slabs[ti].begin(), slabs[ti].end(), shift.slab_bytes) ==
          slabs[ti].end()) {
        DiagnosticBuilder(result, "program.slab-alignment", name)
                .Step(static_cast<int>(s))
                .Operand(shift.operand)
                .Hint("slab bytes must equal window_bytes * rp / window_len")
            << "slab of " << shift.slab_bytes << "B does not match any whole-pace slab of "
            << "this operand";
        slabs_aligned = false;
      }
      if (chip_.shift_buffer_bytes <= 0) {
        DiagnosticBuilder(result, "program.staging", name)
                .Step(static_cast<int>(s))
            << "program shifts data but the chip reserves no shift buffer";
      } else if (shift.slab_bytes > chip_.shift_buffer_bytes &&
                 !staging_warned[ti]) {
        staging_warned[ti] = true;
        DiagnosticBuilder(result, "program.staging", name, Severity::kWarning)
                .Operand(shift.operand)
                .Hint("slabs larger than the staging buffer ship in multiple rounds")
            << "slab of " << shift.slab_bytes << "B exceeds the "
            << chip_.shift_buffer_bytes << "B shift buffer";
      }
    }
  }
  for (std::size_t ti = 0; ti < plan.tensors().size(); ++ti) {
    if (shift_count[ti] != expected_shift_count[ti]) {
      DiagnosticBuilder(result, "program.step-count", name)
              .Operand(static_cast<int>(ti))
              .Hint("a missing shift deadlocks the step waiting on it")
          << "operand shifts " << shift_count[ti] << " time(s), expected "
          << expected_shift_count[ti];
    }
  }

  // program.epilogue: the reduce-scatter merge of partial outputs (§4.2).
  const std::int64_t reduce_group = plan.reduce_group();
  if (reduce_group > 1) {
    const std::int64_t chunk = CeilDiv(plan.output_plan().sub_bytes, reduce_group);
    if (program.epilogue_rounds != reduce_group - 1 ||
        program.epilogue_chunk_bytes != chunk) {
      DiagnosticBuilder(result, "program.epilogue", name)
          << "epilogue " << program.epilogue_rounds << " rounds x "
          << program.epilogue_chunk_bytes << "B, expected " << (reduce_group - 1) << " x "
          << chunk << "B for reduce group " << reduce_group;
    }
  } else if (program.epilogue_rounds != 0) {
    DiagnosticBuilder(result, "program.epilogue", name)
        << "epilogue present (" << program.epilogue_rounds
        << " rounds) with no spatially partitioned reduction";
  }

  // program.traffic-accounting: the program's per-core traffic must equal
  // the plan's analytic accounting (what Evaluate bills for).
  if (slabs_aligned) {
    expected_traffic += (reduce_group > 1 ? reduce_group - 1 : 0) *
                        CeilDiv(plan.output_plan().sub_bytes, std::max<std::int64_t>(
                                                                  reduce_group, 1));
    if (program.BytesSentPerCore() != expected_traffic) {
      DiagnosticBuilder(result, "program.traffic-accounting", name)
          << "program sends " << program.BytesSentPerCore()
          << "B per core but the plan accounts for " << expected_traffic << "B";
    }
  }
  return result;
}

VerifyResult Verifier::VerifyMemoryPlan(const MemoryPlan& plan) const {
  VerifyResult result;
  if (plan.intervals.empty()) {
    return result;
  }
  int num_ops = 0;
  for (const MemoryInterval& interval : plan.intervals) {
    num_ops = std::max(num_ops, interval.last_op + 1);
    if (interval.offset < 0 || interval.bytes <= 0 || interval.first_op > interval.last_op) {
      DiagnosticBuilder(result, "memplan.interval", interval.label)
          << "malformed interval: offset " << interval.offset << ", " << interval.bytes
          << "B, ops [" << interval.first_op << ", " << interval.last_op << "]";
    }
  }
  // memplan.overlap: two intervals that are live at the same operator must
  // occupy disjoint scratchpad ranges (liveness-based reuse, §4.4).
  for (std::size_t i = 0; i < plan.intervals.size(); ++i) {
    for (std::size_t j = i + 1; j < plan.intervals.size(); ++j) {
      const MemoryInterval& a = plan.intervals[i];
      const MemoryInterval& b = plan.intervals[j];
      const bool lifetimes_cross = a.first_op <= b.last_op && b.first_op <= a.last_op;
      const bool addresses_cross = a.offset < b.offset + RoundUp(b.bytes, 8) &&
                                   b.offset < a.offset + RoundUp(a.bytes, 8);
      if (lifetimes_cross && addresses_cross && a.offset >= 0 && b.offset >= 0) {
        DiagnosticBuilder(result, "memplan.overlap", a.label)
                .Hint("the planner must not reuse memory across live tensors")
            << "overlaps '" << b.label << "' at offset " << std::max(a.offset, b.offset)
            << " while both are live";
      }
    }
  }
  // memplan.peak: the recorded peak must equal the interval set's true
  // high-water mark under the allocator's 8-byte alignment.
  std::int64_t peak = 0;
  for (int t = 0; t < num_ops; ++t) {
    std::int64_t live = 0;
    for (const MemoryInterval& interval : plan.intervals) {
      if (interval.first_op <= t && t <= interval.last_op) {
        live += RoundUp(interval.bytes, 8);
      }
    }
    peak = std::max(peak, live);
  }
  if (plan.peak_bytes != peak) {
    DiagnosticBuilder(result, "memplan.peak", "memory plan")
        << "recorded peak " << plan.peak_bytes << "B disagrees with the interval set's "
        << peak << "B";
  }
  if (plan.fits != (plan.peak_bytes <= plan.capacity)) {
    DiagnosticBuilder(result, "memplan.peak", "memory plan")
        << "fits=" << plan.fits << " disagrees with peak " << plan.peak_bytes
        << "B vs capacity " << plan.capacity << "B";
  }
  return result;
}

VerifyResult Verifier::VerifyModel(const CompiledModel& model, const Graph& graph) const {
  VerifyResult result;
  if (!model.fits) {
    DiagnosticBuilder(result, "model.unfit", model.model_name, Severity::kNote)
        << "model does not fit the distributed memory; nothing further to verify";
    return result;
  }
  if (static_cast<int>(model.ops.size()) != graph.num_ops()) {
    DiagnosticBuilder(result, "model.op-order", model.model_name)
        << "compiled model has " << model.ops.size() << " ops for a graph of "
        << graph.num_ops();
    return result;
  }

  // model.reconcile-monotone: Algorithm 1 only ever trades idle memory *up*
  // for setup time, so the trajectory's idle bytes must be non-decreasing
  // and the chosen schedule must be the first feasible minimum (§4.3.2).
  for (std::size_t s = 1; s < model.reconcile_trajectory.size(); ++s) {
    if (model.reconcile_trajectory[s].idle_bytes_per_core <
        model.reconcile_trajectory[s - 1].idle_bytes_per_core) {
      DiagnosticBuilder(result, "model.reconcile-monotone", model.model_name)
              .Step(static_cast<int>(s))
              .Hint("greedy reconciliation steps must grow the idle footprint")
          << "trajectory idle bytes shrink from "
          << model.reconcile_trajectory[s - 1].idle_bytes_per_core << " to "
          << model.reconcile_trajectory[s].idle_bytes_per_core;
    }
  }
  const ReconcileStep* best = nullptr;
  for (const ReconcileStep& step : model.reconcile_trajectory) {
    if (step.feasible && (best == nullptr || step.total_seconds < best->total_seconds)) {
      best = &step;
    }
  }
  if (best != nullptr && best->idle_bytes_per_core != model.idle_bytes_per_core) {
    DiagnosticBuilder(result, "model.reconcile-monotone", model.model_name)
        << "chosen idle footprint " << model.idle_bytes_per_core
        << "B is not the best feasible trajectory point (" << best->idle_bytes_per_core
        << "B)";
  }

  std::int64_t idle_total = 0;
  for (int i = 0; i < graph.num_ops(); ++i) {
    const CompiledOp& compiled = model.ops[static_cast<std::size_t>(i)];
    const Operator& op = graph.op(i);
    if (compiled.op_index != i) {
      DiagnosticBuilder(result, "model.op-order", model.model_name)
          << "compiled op " << i << " records op_index " << compiled.op_index;
      continue;
    }
    // model.plan-binding: plans must reference the graph's operator storage
    // (a dangling or foreign Operator invalidates every derived number).
    if (&compiled.active_plan.op() != &op || &compiled.idle_plan.op() != &op) {
      DiagnosticBuilder(result, "model.plan-binding", op.name())
              .Hint("CompiledModel borrows the Graph's operators")
          << "plan is bound to a different Operator than the graph's";
      continue;
    }
    result.Merge(VerifyPlan(compiled.active_plan));
    result.Merge(VerifyPlan(compiled.idle_plan));
    result.Merge(VerifyProgram(LowerPlan(compiled.active_plan), compiled.active_plan));

    // model.metrics-mismatch: the recorded PlanMetrics must agree with the
    // plan they were evaluated from on every timing-independent field.
    auto check_metrics = [&](const PlanMetrics& metrics, const char* which) {
      if (metrics.cores_used != compiled.active_plan.cores_used() ||
          metrics.steps != compiled.active_plan.total_steps() ||
          metrics.per_core_bytes != compiled.active_plan.PerCoreBytes(chip_)) {
        DiagnosticBuilder(result, "model.metrics-mismatch", op.name())
            << which << " metrics (cores " << metrics.cores_used << ", steps "
            << metrics.steps << ", " << metrics.per_core_bytes
            << "B/core) disagree with the chosen plan (cores "
            << compiled.active_plan.cores_used() << ", steps "
            << compiled.active_plan.total_steps() << ", "
            << compiled.active_plan.PerCoreBytes(chip_) << "B/core)";
      }
    };
    check_metrics(compiled.measured, "measured");
    check_metrics(compiled.predicted, "predicted");

    // model.setup-accounting: idle->active weight fetches re-derived from
    // the two layouts must match what the schedule billed.
    std::int64_t fetch = 0;
    std::int64_t idle_weights = 0;
    std::int64_t active_weights = 0;
    for (std::size_t j = 0; j < op.inputs().size(); ++j) {
      if (!graph.tensor(op.inputs()[j].name).is_weight) {
        continue;
      }
      const std::int64_t idle_w = compiled.idle_plan.OperandWindowBytes(static_cast<int>(j));
      const std::int64_t active_w =
          compiled.active_plan.OperandWindowBytes(static_cast<int>(j));
      fetch += std::max<std::int64_t>(0, active_w - idle_w);
      idle_weights += idle_w;
      active_weights += active_w;
    }
    idle_total += idle_weights;
    if (compiled.setup_bytes != fetch) {
      DiagnosticBuilder(result, "model.setup-accounting", op.name())
          << "setup fetches " << compiled.setup_bytes << "B but the idle/active layouts "
          << "require " << fetch << "B";
    }
    if (compiled.setup_bytes == 0 && idle_weights > active_weights) {
      DiagnosticBuilder(result, "model.idle-oversized", op.name(), Severity::kWarning)
              .Hint("idle memory beyond the active windows buys no setup time")
          << "idle layout holds " << idle_weights << "B of weights, more than the active "
          << active_weights << "B, with nothing left to fetch";
    }
  }
  if (idle_total != model.idle_bytes_per_core) {
    DiagnosticBuilder(result, "model.idle-footprint", model.model_name)
        << "recorded idle footprint " << model.idle_bytes_per_core
        << "B disagrees with the chosen idle layouts (" << idle_total << "B)";
  }
  if (model.memory_peak_bytes > chip_.core_memory_bytes) {
    DiagnosticBuilder(result, "model.memory-peak", model.model_name)
            .Hint("the compiler's budget-shrinking loop must retry until this fits")
        << "claimed to fit but the memory plan peaks at " << model.memory_peak_bytes
        << "B on a " << chip_.core_memory_bytes << "B scratchpad";
  }
  return result;
}

VerifyResult Verifier::VerifyAll(const CompiledModel& model, const Graph& graph) const {
  VerifyResult result = VerifyGraph(graph);
  result.Merge(VerifyModel(model, graph));
  if (model.fits) {
    result.Merge(VerifyMemoryPlan(PlanMemory(model, graph, chip_)));
  }
  return result;
}

}  // namespace t10::verify
