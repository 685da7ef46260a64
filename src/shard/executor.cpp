#include "shard/executor.hpp"

#include <atomic>

#include "sim/logging.hpp"

namespace gcod::shard {

ShardedModel
shardedModelFor(GnnModel &model, const GraphContext &ctx)
{
    // Model resolution (family validation, operator choice, op-graph
    // lowering) is shared with the stateless/quantized execution paths.
    ShardedModel m;
    m.recipe = forwardRecipeFor(model, ctx);
    return m;
}

namespace {

/**
 * Both precisions: the shards' owned row lists as executeLayer parts,
 * with the per-shard spans and halo-drop re-execution attached as hooks.
 */
Matrix
runShards(const ShardPlan &plan, const ForwardRecipe &r, const QuantizedGnn *q,
          const Matrix &x, fault::FaultPlan *faults,
          ShardExecStats *fault_stats, const obs::TraceCtx *trace)
{
    GCOD_ASSERT(r.spec != nullptr && !r.operators.empty(),
                "sharded model carries no recipe");
    GCOD_ASSERT(x.rows() == int64_t(plan.numNodes) &&
                    int64_t(r.operators[0]->rows()) == x.rows(),
                "activation rows must match the plan graph");

    std::vector<RowSet> parts;
    std::vector<size_t> shardOfPart;
    for (size_t s = 0; s < plan.shards.size(); ++s)
        if (!plan.shards[s].owned.empty()) {
            parts.emplace_back(plan.shards[s].owned);
            shardOfPart.push_back(s);
        }

    obs::TraceRecorder *rec =
        trace != nullptr && trace->enabled(obs::kTraceKernels)
            ? trace->rec
            : nullptr;
    const uint64_t parent = trace != nullptr ? trace->parent : 0;
    std::atomic<uint64_t> drops{0};
    PartHooks hooks;
    hooks.pack = [&](size_t l, const OpStep &,
                     const std::function<void()> &run) {
        // The packed branch codes are exactly what crosses chips, so the
        // packing span IS the halo-exchange payload preparation.
        obs::ScopedSpan xspan(rec, obs::kTraceKernels, "halo.exchange",
                              "shard", parent);
        if (xspan.active())
            xspan.attr("layer", int64_t(l))
                .attr("nodes", x.rows())
                .attr("dense_bits", q->policy.denseBits)
                .attr("sparse_bits", q->policy.sparseBits);
        run();
    };
    hooks.part = [&](size_t l, const OpStep &op, size_t p,
                     const std::function<void()> &run) {
        const size_t s = shardOfPart[p];
        const Shard &sh = plan.shards[s];
        if (op.kind == OpKind::GEMM) {
            obs::ScopedSpan tspan(rec, obs::kTraceKernels, "shard.transform",
                                  "shard", parent);
            if (tspan.active())
                tspan.attr("layer", int64_t(l)).attr("shard", int64_t(s));
            run();
            return;
        }
        if (!isAggregation(op.kind)) {
            run();
            return;
        }
        obs::ScopedSpan cspan(rec, obs::kTraceKernels, "shard.compute",
                              "shard", parent);
        if (cspan.active())
            cspan.attr("layer", int64_t(l))
                .attr("shard", int64_t(s))
                .attr("owned", int64_t(sh.owned.size()))
                .attr("halo", int64_t(sh.halo.size()));
        // Injected halo drop, keyed by (layer, shard) so the injected set
        // is thread-schedule independent: the attempt that consumed the
        // bad halo is discarded and the shard's row-set call runs again
        // against the re-fetched halo (the global slots). The call
        // overwrites the shard's owned rows, so the repeat costs work and
        // leaves the stitch bit-identical.
        if (faults != nullptr &&
            faults->checkIndexed(fault::FaultKind::HaloDrop,
                                 q != nullptr ? "halo.quant" : "halo.fp32",
                                 uint64_t(l) * uint64_t(plan.numShards) +
                                     uint64_t(s))) {
            run();
            drops.fetch_add(1);
        }
        run();
    };

    Matrix out = executeForward(r, q, x, parts, &hooks);
    if (fault_stats != nullptr) {
        fault_stats->haloDrops += drops.load();
        fault_stats->reexecutions += drops.load();
    }
    return out;
}

} // namespace

Matrix
shardedForward(const ShardPlan &plan, const ShardedModel &m, const Matrix &x,
               fault::FaultPlan *faults, ShardExecStats *fault_stats,
               const obs::TraceCtx *trace)
{
    return runShards(plan, m.recipe, nullptr, x, faults, fault_stats, trace);
}

Matrix
quantizedShardedForward(const ShardPlan &plan, const QuantizedGnn &q,
                        const Matrix &x, fault::FaultPlan *faults,
                        ShardExecStats *fault_stats,
                        const obs::TraceCtx *trace)
{
    return runShards(plan, q.recipe, &q, x, faults, fault_stats, trace);
}

} // namespace gcod::shard
