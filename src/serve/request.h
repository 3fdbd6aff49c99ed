// Request/response types for the serving runtime (src/serve).
//
// A request asks the server to run one supported operator of the served
// model over deterministically generated inputs (the seed stands in for a
// real payload; the simulator has no I/O). Identity is owned by the serving
// layer — ids are assigned at admission — so lost/duplicated-response
// accounting is possible end to end. Responses always carry a terminal
// t10::Status: every accepted request gets exactly one response, OK or not.

#ifndef T10_SRC_SERVE_REQUEST_H_
#define T10_SRC_SERVE_REQUEST_H_

#include <chrono>
#include <cstdint>

#include "src/core/host_tensor.h"
#include "src/obs/span.h"
#include "src/util/status.h"

namespace t10 {
namespace serve {

// Wall time for deadlines and latency accounting. The simulated machine has
// no clock of its own, so serving semantics run on host time.
using Clock = std::chrono::steady_clock;

// One inference request against the served model.
struct Request {
  // Index into the server's supported-operator list (Server::num_op_slots).
  int op_slot = 0;
  // Deterministic input generation; equal seeds on the same op slot yield
  // byte-identical inputs (and therefore byte-identical reference outputs).
  std::uint64_t input_seed = 0;
  // Relative deadline from admission; <= 0 means none. Expiry anywhere in
  // the pipeline — queued, mid-batch, or post-execution — yields
  // kDeadlineExceeded.
  double deadline_seconds = 0.0;
  // Whole-request re-executions allowed on transient fault-layer failures
  // (kDataLoss from the fault-tolerant executor). Persistent failures
  // (kUnavailable) are never retried here; they are the health monitor's
  // signal.
  int max_retries = 2;
};

// A Request after admission: queue bookkeeping attached by the scheduler.
struct AdmittedRequest {
  Request request;
  std::int64_t id = -1;
  Clock::time_point admitted_at{};
  Clock::time_point deadline{};  // admitted_at + deadline; max() when none.
  bool has_deadline = false;
  int requeues = 0;  // Times this request was re-queued across a failover.
  // Request-scoped trace context, rooted at admission (trace id == request
  // id, lane "req:<id>"). Inactive when the server runs without a tracer, in
  // which case every downstream span is a no-op.
  obs::TraceContext trace;

  bool ExpiredAt(Clock::time_point now) const { return has_deadline && now >= deadline; }
};

struct Response {
  std::int64_t id = -1;
  int op_slot = 0;
  Status status;       // OK iff `output` holds the operator result.
  HostTensor output;
  std::uint64_t checksum = 0;  // fault::Checksum over output bytes (OK only).
  // OK responses are compared against the plan-epoch's fault-free reference
  // bytes; false here means the reliability layer let corruption through.
  bool bit_identical = false;
  int plan_epoch = -1;  // Model generation that served it (0 = original).
  int retries = 0;      // Transient-failure re-executions used.
  double latency_seconds = 0.0;  // Admission -> response.
  int shard = -1;  // Which router shard answered; -1 outside sharded serving.
};

}  // namespace serve
}  // namespace t10

#endif  // T10_SRC_SERVE_REQUEST_H_
