/**
 * @file
 * Sharded forward execution: the host-side numerics of the multi-chip
 * runtime, bit-identical to single-chip execution.
 *
 * A sharded pass is the recipe interpreter (nn/quant_exec executeLayer)
 * run with the shards' owned row lists as its row parts: every op stages
 * one global, node-addressed slot, and each shard computes its owned rows
 * of it — one shard per pool range, its kernels inline on that worker,
 * like one chip per shard. The slots an aggregation reads are whole by
 * then, so a shard reads its halo rows straight from them (the exchange
 * halo.hpp prices). Each output row is a pure function of the global
 * slots with a fixed per-element order, and quantized scales come from
 * the whole slot, so the stitch is bit-identical to the monolithic pass
 * for any shard count, chip mix and thread count, in fp32 and int8.
 *
 * Per-shard accounting rides on the interpreter's hooks: level-2 trace
 * spans "shard.compute" (aggregations), "shard.transform" (GEMMs) and
 * "halo.exchange" (int8 packing of an SpMM input, the wire payload), and
 * halo-drop re-execution.
 */
#ifndef GCOD_SHARD_EXECUTOR_HPP
#define GCOD_SHARD_EXECUTOR_HPP

#include "fault/fault.hpp"
#include "nn/graph_context.hpp"
#include "nn/models.hpp"
#include "nn/quant_exec.hpp"
#include "obs/trace.hpp"
#include "shard/plan.hpp"

namespace gcod::shard {

/**
 * Fault-recovery accounting of one sharded forward pass. For each
 * injected halo drop (fault::FaultKind::HaloDrop) the affected shard's
 * row-set call of that aggregation runs a second time, in fp32 and int8
 * alike. The call overwrites (never accumulates into) the shard's owned
 * rows, which are pure functions of the global slots, so the recovered
 * stitch is bit-identical to the fault-free pass; recovery costs work,
 * never correctness.
 */
struct ShardExecStats
{
    /** Halo payloads dropped/corrupted by injection. */
    uint64_t haloDrops = 0;
    /** Shard-layer computations re-executed to recover. */
    uint64_t reexecutions = 0;
};

/** Execution recipe for one supported model over one graph. */
struct ShardedModel
{
    /** The op graphs the executor interprets. Pointees must outlive. */
    ForwardRecipe recipe;
};

/**
 * Resolve a trainable model into its sharded execution recipe, driven by
 * the model's ModelSpec (aggregation kind, heads, concatSelf per layer),
 * not by name matching. Fatal for unsupported families, naming the
 * family and the supported set.
 */
ShardedModel shardedModelFor(GnnModel &model, const GraphContext &ctx);

/**
 * Run one sharded fp32 forward pass; returns logits for every global
 * node, bit-identical to referenceForward.
 *
 * @p faults (optional) injects halo-exchange drops: shard s at layer l
 * consults the plan ("halo.fp32", "halo.quant" for the quantized pass)
 * at index l * numShards + s once per aggregation op, so the injected
 * set is identical at any thread count. Dropped shards re-execute (see
 * ShardExecStats); @p fault_stats, when non-null, reports the counts.
 *
 * @p trace (optional) records the per-shard spans (file comment) at
 * obs::kTraceKernels, parented under trace->parent. Tracing reads
 * timestamps and copies labels only — the stitched logits stay
 * byte-identical with tracing on or off.
 */
Matrix shardedForward(const ShardPlan &plan, const ShardedModel &m,
                      const Matrix &x, fault::FaultPlan *faults = nullptr,
                      ShardExecStats *fault_stats = nullptr,
                      const obs::TraceCtx *trace = nullptr);

/**
 * Sharded mixed-precision integer forward, bit-identical to
 * quantizedForwardMixed: the same interpreter with pack @p q, every
 * quantization scale derived from the GLOBAL slot. Halo activations
 * cross shards at the pack's wire precision (the packed branch codes),
 * which is what the exchange cost model prices via
 * HaloExchangeOptions::bytesPerScalar. Faults and tracing as above.
 */
Matrix quantizedShardedForward(const ShardPlan &plan, const QuantizedGnn &q,
                               const Matrix &x,
                               fault::FaultPlan *faults = nullptr,
                               ShardExecStats *fault_stats = nullptr,
                               const obs::TraceCtx *trace = nullptr);

} // namespace gcod::shard

#endif // GCOD_SHARD_EXECUTOR_HPP
