// Pass 2: per-signature Pareto search, parallel across and within signatures.
//
// Operators with equal signatures get equal search results (plan_cache.h), so
// the pass produces one Pareto set per distinct signature and points every
// operator at its set. Walking operators in order, the first operator of a
// signature resolves it against the plan cache; the distinct missing
// signatures are searched in parallel on the shared worker pool, each cut
// into chunks of its F_op enumeration (RunSearches); a later operator of a
// signature reuses the first one's set. The schedule (which worker ran which
// chunk, in what order) never reaches the output: a search merges its chunks
// in enumeration order into exactly the serial search's result
// (OperatorSearch), every search writes only its own state, and cache
// insertion walks a fixed order — so any --jobs value produces a
// bit-identical CompiledModel.
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

#include <span>

#include "src/core/pass/pass.h"
#include "src/core/search.h"
#include "src/ir/operator.h"
#include "src/obs/span.h"
#include "src/util/thread_pool.h"

namespace t10 {

// Searches one operator through the plan cache (hit: rebuild + re-evaluate;
// miss: full search + insert). Serial; Compiler::SearchOp and the fault
// campaign use it directly, the pass parallelizes the miss set. The plans are
// bound to `op`.
IntraOpResult SearchOneOp(const Operator& op, CompilerResources& resources);

// Runs every search in `searches` to completion. Each round cuts every
// unfinished search into min(max_chunks, its F_op count) chunks and hands
// all of the chunks to one ParallelFor on `pool` (inline when null), largest
// first; the task that ends a search's last chunk merges it. A search whose
// frontier came up empty relaxes and goes again in the next round. Under an
// active `trace`, each chunk is a "search" span on lane
// "compile.search.<op>" (chunk 0) or "compile.search.<op>.<k>".
void RunSearches(std::span<OperatorSearch> searches, int max_chunks, ThreadPool* pool,
                 const obs::TraceContext& trace = {});

class IntraOpSearchPass final : public Pass {
 public:
  const char* name() const override { return pass_names::kIntraOpSearch; }
  PassResult Run(CompilationContext& ctx) override;
  verify::VerifyResult Verify(const CompilationContext& ctx) const override;
};

}  // namespace t10

#endif  // T10_SRC_CORE_PASS_INTRA_OP_SEARCH_H_
