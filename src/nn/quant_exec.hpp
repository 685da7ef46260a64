/**
 * @file
 * Op-graph GNN execution: one typed per-layer op graph, one interpreter.
 *
 * forwardRecipeFor() lowers each model family into a ForwardRecipe — per
 * layer, a short sequence of typed ops (SpMM, GEMM, AttentionScore,
 * Residual, ConcatSelf, MaxAgg, Activation, Readout) over explicit
 * tensor slots. executeLayer() is the only interpreter of that graph: it
 * runs a layer op by op over a choice of *rows*, at a choice of
 * precision (fp32 or a QuantizedGnn pack). Every execution path is a
 * short loop that picks the rows:
 *
 *  - referenceForward() / quantizedForwardMixed(): all rows, fp32 (memcmp-
 *    identical to the family's GnnModel::forward) or the GCoD
 *    mixed-precision integer path (low-bit dense branch, degree-protected
 *    tail);
 *  - shard/executor.hpp: each shard's owned rows as one part;
 *  - dyn/incremental_forward.hpp: each layer's dirty rows.
 *
 * Supported families: GCN (plain Mean), GraphSAGE (Mean + self concat,
 * full or neighbor-sampled operators), GIN (Add + eps-residual + 2-layer
 * MLP), GAT (multi-head additive attention), ResGCN (Max aggregation +
 * residual blocks).
 *
 * Precision placement with a pack follows GCoD's polarized split: SpMM
 * and GEMM ops run on packed integer operands (dense low-bit branch,
 * protected high-degree tail at higher bits); attention scoring, Max
 * aggregation, residual adds and activations run in fp32 over the
 * (already quantization-rounded) intermediate slots, with attention
 * vectors dequantized from their higher-width pack — the attention
 * accuracy cliff at low bits comes from the quantized projection
 * h = X W and the quantized attention vectors.
 *
 * Determinism: each op calls one row-subset kernel entry point
 * (tensor/ops.hpp RowSet), which computes every output row as a pure
 * function of its input rows with a fixed per-element order. The order
 * lives in that kernel only, so logits are bit-identical for any thread
 * count, shard count and delta batching by construction.
 */
#ifndef GCOD_NN_QUANT_EXEC_HPP
#define GCOD_NN_QUANT_EXEC_HPP

#include <functional>

#include "nn/graph_context.hpp"
#include "nn/models.hpp"
#include "tensor/qops.hpp"

namespace gcod {

/** Precision placement knobs (defaults mirror GCoD (8-bit) + protection). */
struct MixedPrecisionPolicy
{
    /** Bits of the polarized dense branch (community nodes). */
    int denseBits = 8;
    /** Bits of the protected sparse branch (high-degree tail). */
    int sparseBits = 16;
    /** Bits of the aggregation operator's values. */
    int operatorBits = 16;
    /** Fraction of highest-degree nodes kept in the sparse branch. */
    double protectRatio = 0.1;
};

/** Typed ops of the per-layer execution graph. */
enum class OpKind : uint8_t {
    /** out = operators[opIndex] · in (sparse aggregation). */
    SpMM,
    /** out = in · weights[weight] (dense combination). */
    GEMM,
    /**
     * GAT attention aggregation over per-head projections @p in
     * (N x heads*headDim): additive scores from weights[aSrc]/[aDst],
     * LeakyReLU(0.2) + per-row softmax over operators[opIndex]'s entries
     * plus a trailing self loop, heads concatenated (concatHeads) or
     * averaged.
     */
    AttentionScore,
    /** out = in + scale * slot[aux] (residual stream). */
    Residual,
    /** out = [slot[aux] | in] (GraphSAGE self concat). */
    ConcatSelf,
    /** out[i] = elementwise max over {i} ∪ N(i) rows of in (ResGCN). */
    MaxAgg,
    /** out = act(in). */
    Activation,
    /** Identity marker: the final logits of the model. */
    Readout,
};

/** Activation functions an Activation op can apply. */
enum class ActKind : uint8_t { Relu, Elu };

const char *opKindName(OpKind k);

/** True for ops that read neighbor rows (SpMM/AttentionScore/MaxAgg). */
bool isAggregation(OpKind k);

/**
 * One op of a layer graph. Slot 0 is the layer input; each op writes a
 * fresh slot, and the last op's output slot is the layer output (which
 * becomes slot 0 of the next layer).
 */
struct OpStep
{
    OpKind kind = OpKind::Readout;
    /** Input slot. */
    int in = 0;
    /** Second input slot (Residual addend / ConcatSelf self); -1 unused. */
    int aux = -1;
    /** Output slot. */
    int out = 0;
    /** Index into ForwardRecipe::operators (SpMM/MaxAgg/AttentionScore). */
    int opIndex = -1;
    /** Index into ForwardRecipe::weights (GEMM). */
    int weight = -1;
    /** Attention vector weight indices (AttentionScore). */
    int aSrc = -1;
    int aDst = -1;
    /** Attention heads and per-head output width (AttentionScore). */
    int heads = 1;
    int headDim = 0;
    /** True: concatenate heads; false: average them (AttentionScore). */
    bool concatHeads = false;
    /** Activation function (Activation). */
    ActKind act = ActKind::Relu;
    /** Residual scale: out = in + scale * aux (GIN's 1+eps). */
    float scale = 1.0f;
};

/** The op graph of one layer. */
struct LayerGraph
{
    std::vector<OpStep> ops;
    /** Slot count including slot 0 (the layer input). */
    int numSlots = 1;

    /** Index into ops of the single aggregation op; -1 when none. */
    int aggOp() const;
};

/**
 * Stateless execution recipe: the per-layer op graphs plus every tensor
 * they reference, with no mutable caches — safe to run concurrently,
 * unlike GnnModel::forward. Pointees (spec, operators, weights) must
 * outlive the recipe; they normally belong to a GnnModel + GraphContext
 * pair. `weights` is exactly model.parameters() order (the store's
 * Weights section depends on that).
 */
struct ForwardRecipe
{
    const ModelSpec *spec = nullptr;
    /** Sparse aggregation operators the graphs index (opIndex). */
    std::vector<const CsrMatrix *> operators;
    /** Weight tensors the graphs index (weight/aSrc/aDst). */
    std::vector<const Matrix *> weights;
    /** One op graph per spec layer. */
    std::vector<LayerGraph> layers;
};

/** True when @p spec is a plain-Mean stack (GCN / unsampled GraphSAGE). */
bool supportsPlainMeanForward(const ModelSpec &spec);

/** True when @p spec lowers to an op-graph recipe (the whole zoo). */
bool supportsRecipeForward(const ModelSpec &spec);

/** Human-readable list of the families forwardRecipeFor accepts. */
const char *supportedRecipeFamilies();

/**
 * Lower a trainable model into its op-graph recipe, driven by the
 * ModelSpec (aggregation kinds, heads, concatSelf), not name matching.
 * Fatal for unsupported families, naming the family and listing the
 * supported ones.
 */
ForwardRecipe forwardRecipeFor(GnnModel &model, const GraphContext &ctx);

/** One stateless fp32 forward pass of @p m (the quantization baseline). */
Matrix referenceForward(const ForwardRecipe &m, const Matrix &x);

/**
 * Column width of every slot of @p layer, given the layer input width
 * (slot 0). The interpreter allocates staging matrices from this — LayerSpec
 * outDim is the per-head width for multi-head GAT layers, so it must not
 * be used for allocation.
 */
std::vector<int64_t> layerSlotWidths(const ForwardRecipe &m, size_t layer,
                                     int64_t input_cols);

/**
 * Rows of the GAT attention aggregation: per row r, additive scores over
 * @p adj's row entries plus a trailing self loop, LeakyReLU(0.2),
 * numerically-stable softmax, then per-edge aggregation of the
 * node-addressed @p h into out (concat ? heads*head_dim : head_dim wide).
 */
void attentionRows(const CsrMatrix &adj, const Matrix &h, const Matrix &a_src,
                   const Matrix &a_dst, int heads, int head_dim,
                   bool concat_heads, const RowSet &rows, Matrix &out,
                   RowAddr addr = {});

/** Rows of the Max aggregation: elementwise max over {r} ∪ N(r) of x. */
void maxAggRows(const CsrMatrix &adj, const Matrix &x, const RowSet &rows,
                Matrix &out, RowAddr addr = {});

/**
 * Branch assignment per node under @p protect_ratio: 1 for the protected
 * high-degree (higher-bit) branch, 0 for the dense low-bit branch — the
 * same threshold rule degreeAwareFakeQuantize applies.
 */
std::vector<uint8_t> protectedBranchOf(const std::vector<int32_t> &degrees,
                                       double protect_ratio);

/**
 * A model pre-quantized for integer execution: weight packs at both
 * branch widths for every recipe weight, quantized operator values for
 * every SpMM-consumed operator, and the node branch split. The recipe's
 * pointees (operators, weights, spec) must outlive this pack.
 */
struct QuantizedGnn
{
    /** The op graphs this pack executes (a value copy of the source). */
    ForwardRecipe recipe;
    MixedPrecisionPolicy policy;
    /** 1 = protected high-degree node (sparse branch, higher bits). */
    std::vector<uint8_t> branchOf;
    /** Node -> row within its branch's packed activation matrix. */
    std::vector<int32_t> localIndex;
    /**
     * Parallel to recipe.operators; only SpMM-consumed entries carry
     * quantized values (pattern == nullptr otherwise: that operator is
     * interpreted in fp32, e.g. attention / Max aggregation).
     */
    std::vector<QuantizedCsr> qops;
    /** Per recipe weight, packed at denseBits / sparseBits. */
    std::vector<QuantizedMatrix> wLo;
    std::vector<QuantizedMatrix> wHi;
    /**
     * Dequantized (sparseBits) copies of the weights fp32-interpreted
     * ops read — attention vectors; empty matrices elsewhere. Derived
     * state: rebuildDequantized() recomputes it from wHi.
     */
    std::vector<Matrix> wDeq;
    /** Protected node count (observability / tests). */
    int64_t protectedCount = 0;

    const ModelSpec &spec() const { return *recipe.spec; }

    /** Recompute wDeq from wHi for the recipe's fp32-interpreted ops. */
    void rebuildDequantized();

    /** Packed bytes of both weight packs plus quantized operator values. */
    double packedBytes() const;
};

/** Build the integer-execution pack for @p m over @p degrees. */
QuantizedGnn quantizeGnn(const ForwardRecipe &m,
                         const std::vector<int32_t> &degrees,
                         const MixedPrecisionPolicy &policy = {});

/**
 * One mixed-precision integer forward pass: SpMM/GEMM ops run on
 * branch-packed integer operands, the remaining ops in fp32 over the
 * intermediate slots. Returns fp32 logits for every node.
 */
Matrix quantizedForwardMixed(const QuantizedGnn &q, const Matrix &x);

// ---------------------------------------------------------------------
// The interpreter. Every forward above and in shard/ and dyn/ is a loop
// that picks rows and calls executeLayer.
// ---------------------------------------------------------------------

/**
 * The tensor slots of one layer execution. Slot 0 is the layer input;
 * slot s > 0 lives in mats[s]. A slot is node-addressed (row r holds
 * node r) unless local[s] is set, in which case it holds one row per
 * position of a single explicit row list (row i holds node ids[i]).
 * executeLayer sizes mats/local to the layer and allocates every slot
 * still empty, zero-filled; a caller may pre-fill node-addressed slots
 * whose rows outside the set must survive (e.g. last epoch's clean rows).
 */
struct LayerSlots
{
    /** Slot 0: the layer input, node-addressed. */
    const Matrix *input = nullptr;
    std::vector<Matrix> mats;
    std::vector<char> local;

    const Matrix &at(int s) const { return s == 0 ? *input : mats[size_t(s)]; }
};

/**
 * Optional wrappers around the interpreter's work, for callers that
 * attach per-part accounting (the sharded executor's spans and halo-drop
 * re-execution). Each must call run() at least once; running it again
 * is idempotent.
 */
struct PartHooks
{
    /** Wraps the whole-slot packing of a quantized SpMM's input. */
    std::function<void(size_t layer, const OpStep &op,
                       const std::function<void()> &run)>
        pack;
    /** Wraps part @p part's row-set call of @p op. */
    std::function<void(size_t layer, const OpStep &op, size_t part,
                       const std::function<void()> &run)>
        part;
};

/**
 * Interpret layer @p layer of @p m over the rows in @p parts, op by op,
 * into @p slots. @p q selects the precision: nullptr runs fp32 with the
 * recipe's weights; a pack runs SpMM/GEMM on its integer kernels, with
 * every quantization scale taken from the whole (node-addressed) input
 * slot, and the other ops in fp32 (attention vectors dequantized).
 *
 * @p parts are disjoint row sets. A single RowSet() is every row: each
 * kernel keeps its whole-matrix parallel partitioning. A single list
 * (e.g. a dirty level) is dispatched over the pool by position. Several
 * lists (a shard plan's owned rows) run one part per pool range, their
 * kernels inline on that worker. Position-addressed slots need a single
 * fp32 list. Each op's pool regions carry an "<op>.<precision>" zone
 * label; kernels with their own label keep it innermost.
 */
void executeLayer(const ForwardRecipe &m, const QuantizedGnn *q, size_t layer,
                  const std::vector<RowSet> &parts, LayerSlots &slots,
                  const PartHooks *hooks = nullptr);

/**
 * All layers of @p m over @p parts (which must cover every row: each
 * layer reads its whole input); returns the last layer's output.
 */
Matrix executeForward(const ForwardRecipe &m, const QuantizedGnn *q,
                      const Matrix &x, const std::vector<RowSet> &parts,
                      const PartHooks *hooks = nullptr);

} // namespace gcod

#endif // GCOD_NN_QUANT_EXEC_HPP
