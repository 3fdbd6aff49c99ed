#include "src/core/placement.h"

#include "src/util/logging.h"

namespace t10 {
namespace {

// Ring-position stride of the k-th rotating dim of `tp` (the product of the
// f_t of the rotating dims after it): that dim's coordinate of ring position
// p is p / RingStride(tp, k) % f_t.
std::int64_t RingStride(const RTensorPlan& tp, std::size_t k) {
  std::int64_t stride = 1;
  for (std::size_t i = k + 1; i < tp.rotating_dims.size(); ++i) {
    stride *= tp.temporal[static_cast<std::size_t>(tp.rotating_dims[i])];
  }
  return stride;
}

}  // namespace

PlanGeometry::PlanGeometry(const ExecutionPlan& plan) : plan_(&plan) {
  const Operator& op = plan.op();
  const std::vector<Axis>& axes = op.axes();
  const std::vector<std::int64_t>& fop = plan.fop();
  const std::vector<std::int64_t>& slice = plan.axis_slices();
  const std::size_t num_axes = axes.size();
  const int cores = num_cores();

  for (const TensorRef& input : op.inputs()) {
    operands_.push_back(&input);
  }
  operands_.push_back(&op.output());

  // The co-start phase is a valid partition assignment only if no two
  // operands share a spatially split missing axis whenever some axis has
  // several rotating tensors: otherwise ring neighbours of one tensor would
  // disagree on another's phase contribution.
  for (std::size_t a = 0; a < num_axes; ++a) {
    int rotating_users = 0;
    for (std::size_t ti = 0; ti < operands_.size(); ++ti) {
      for (int d : plan.tensors()[ti].rotating_dims) {
        if (operands_[ti]->dims[d].axis == static_cast<int>(a)) {
          ++rotating_users;
        }
      }
    }
    if (rotating_users < 2) {
      continue;
    }
    for (std::size_t t1 = 0; t1 < operands_.size(); ++t1) {
      for (std::size_t t2 = t1 + 1; t2 < operands_.size(); ++t2) {
        for (std::size_t b = 0; b < num_axes; ++b) {
          const bool missing1 = !Operator::TensorUsesAxis(*operands_[t1], static_cast<int>(b));
          const bool missing2 = !Operator::TensorUsesAxis(*operands_[t2], static_cast<int>(b));
          T10_CHECK(!(missing1 && missing2 && fop[b] > 1))
              << "co-rotating tensors share missing axis " << axes[b].name << " in " << op.name();
        }
      }
    }
  }

  // Loop lookup tables.
  axis_loop_.assign(num_axes, -1);
  for (std::size_t i = 0; i < plan.loops().size(); ++i) {
    axis_loop_[plan.loops()[i].axis] = static_cast<int>(i);
  }
  loop_stride_.assign(plan.loops().size() + 1, 1);
  for (std::size_t i = plan.loops().size(); i-- > 0;) {
    loop_stride_[i] = loop_stride_[i + 1] * plan.loops()[i].steps;
  }

  coords_.resize(cores);
  offsets_.resize(cores);
  phases_.resize(cores);
  sharing_rank_.assign(operands_.size(), std::vector<std::int64_t>(cores, 0));
  subtensor_idx_.assign(operands_.size(), std::vector<std::int64_t>(cores, 0));

  for (int c = 0; c < cores; ++c) {
    std::vector<std::int64_t>& coord = coords_[c];
    coord.resize(num_axes);
    std::int64_t rest = c;
    for (std::size_t a = num_axes; a-- > 0;) {
      coord[a] = rest % fop[a];
      rest /= fop[a];
    }
    offsets_[c].resize(num_axes);
    for (std::size_t a = 0; a < num_axes; ++a) {
      offsets_[c][a] = coord[a] * slice[a];
    }

    phases_[c].assign(num_axes, 0);
    for (std::size_t ti = 0; ti < operands_.size(); ++ti) {
      const RTensorPlan& tp = plan.tensors()[ti];
      // Sharing rank (over missing axes) and sub-tensor index (over used
      // axes), both row-major in axis order.
      std::int64_t rank = 0;
      std::int64_t sub_index = 0;
      for (std::size_t a = 0; a < num_axes; ++a) {
        if (Operator::TensorUsesAxis(*operands_[ti], static_cast<int>(a))) {
          sub_index = sub_index * fop[a] + coord[a];
        } else {
          rank = rank * fop[a] + coord[a];
        }
      }
      sharing_rank_[ti][c] = rank;
      subtensor_idx_[ti][c] = sub_index;

      if (tp.rotating_dims.empty()) {
        continue;
      }
      const std::int64_t ring_pos = rank % tp.ring_size;
      for (std::size_t k = 0; k < tp.rotating_dims.size(); ++k) {
        const int d = tp.rotating_dims[k];
        const int a = operands_[ti]->dims[d].axis;
        const std::int64_t w = tp.window[static_cast<std::size_t>(d)];
        const std::int64_t pos =
            ring_pos / RingStride(tp, k) % tp.temporal[static_cast<std::size_t>(d)];
        phases_[c][static_cast<std::size_t>(a)] =
            (phases_[c][static_cast<std::size_t>(a)] + pos * w) % slice[a];
      }
    }
  }
}

const std::vector<std::int64_t>& PlanGeometry::Coord(int core) const {
  return coords_[static_cast<std::size_t>(core)];
}

const std::vector<std::int64_t>& PlanGeometry::Offset(int core) const {
  return offsets_[static_cast<std::size_t>(core)];
}

const std::vector<std::int64_t>& PlanGeometry::Phase(int core) const {
  return phases_[static_cast<std::size_t>(core)];
}

std::int64_t PlanGeometry::SharingRank(int operand, int core) const {
  return sharing_rank_[static_cast<std::size_t>(operand)][static_cast<std::size_t>(core)];
}

std::int64_t PlanGeometry::RingIndex(int operand, int core) const {
  const RTensorPlan& tp = plan_->tensors()[static_cast<std::size_t>(operand)];
  return SharingRank(operand, core) / tp.ring_size;
}

std::int64_t PlanGeometry::RingPosition(int operand, int core) const {
  const RTensorPlan& tp = plan_->tensors()[static_cast<std::size_t>(operand)];
  return SharingRank(operand, core) % tp.ring_size;
}

std::int64_t PlanGeometry::SubTensorIndex(int operand, int core) const {
  return subtensor_idx_[static_cast<std::size_t>(operand)][static_cast<std::size_t>(core)];
}

std::int64_t PlanGeometry::DownstreamPosition(int operand, std::int64_t position,
                                              std::size_t k) const {
  const RTensorPlan& tp = plan_->tensors()[static_cast<std::size_t>(operand)];
  const std::int64_t stride = RingStride(tp, k);
  const std::int64_t ft = tp.temporal[static_cast<std::size_t>(tp.rotating_dims[k])];
  return position / stride % ft > 0 ? position - stride : position + (ft - 1) * stride;
}

std::vector<std::int64_t> PlanGeometry::StepCounters(std::int64_t step) const {
  std::vector<std::int64_t> counters(plan_->loops().size());
  for (std::size_t i = 0; i < plan_->loops().size(); ++i) {
    counters[i] = (step / loop_stride_[i + 1]) % plan_->loops()[i].steps;
  }
  return counters;
}

int PlanGeometry::LoopOfAxis(int axis) const {
  return axis_loop_[static_cast<std::size_t>(axis)];
}

const TensorRef& PlanGeometry::Operand(int operand) const {
  return *operands_[static_cast<std::size_t>(operand)];
}

}  // namespace t10
