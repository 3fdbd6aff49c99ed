// Pass 2: per-signature Pareto search, parallel across signatures.
//
// Operators with equal signatures get equal search results (plan_cache.h), so
// the pass produces one Pareto set per distinct signature and points every
// operator at its set. Walking operators in order, the first operator of a
// signature resolves it against the plan cache; the distinct missing
// signatures are searched in parallel on the shared worker pool; a later
// operator of a signature reuses the first one's set. The schedule (which
// worker searched which signature, in what order) never reaches the output:
// SearchOperatorPlans is a pure deterministic enumeration, every task writes
// only its own result slot, and cache insertion walks a fixed order — so any
// --jobs value produces a bit-identical CompiledModel.
//
// Cache-counter contract (kept from the monolithic compiler, asserted by
// tests): walking operators in order, a pre-existing cache entry counts one
// hit; the first operator of a new signature counts one miss; later
// operators of that same signature count hits. A pre-existing entry is
// rebuilt once per compile (compiler.plan_cache.rebuilds): its plans are
// rebuilt from the cached configurations and re-evaluated under the current
// cost model — a warm compile therefore skips the search funnel entirely
// (compiler.search.searches stays 0) yet yields byte-identical plans. A
// damaged entry counts one compiler.plan_cache.rejected per signature.

#ifndef T10_SRC_CORE_PASS_INTRA_OP_SEARCH_H_
#define T10_SRC_CORE_PASS_INTRA_OP_SEARCH_H_

#include "src/core/pass/pass.h"
#include "src/core/search.h"
#include "src/ir/operator.h"

namespace t10 {

// Searches one operator through the plan cache (hit: rebuild + re-evaluate;
// miss: full search + insert). Serial; Compiler::SearchOp and the fault
// campaign use it directly, the pass parallelizes the miss set. The plans are
// bound to `op`.
IntraOpResult SearchOneOp(const Operator& op, CompilerResources& resources);

class IntraOpSearchPass final : public Pass {
 public:
  const char* name() const override { return pass_names::kIntraOpSearch; }
  PassResult Run(CompilationContext& ctx) override;
  verify::VerifyResult Verify(const CompilationContext& ctx) const override;
};

}  // namespace t10

#endif  // T10_SRC_CORE_PASS_INTRA_OP_SEARCH_H_
