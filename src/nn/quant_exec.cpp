#include "nn/quant_exec.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "sim/logging.hpp"
#include "sim/parallel.hpp"

namespace gcod {

const char *
opKindName(OpKind k)
{
    switch (k) {
    case OpKind::SpMM:
        return "SpMM";
    case OpKind::GEMM:
        return "GEMM";
    case OpKind::AttentionScore:
        return "AttentionScore";
    case OpKind::Residual:
        return "Residual";
    case OpKind::ConcatSelf:
        return "ConcatSelf";
    case OpKind::MaxAgg:
        return "MaxAgg";
    case OpKind::Activation:
        return "Activation";
    case OpKind::Readout:
        return "Readout";
    }
    return "?";
}

bool
isAggregation(OpKind k)
{
    return k == OpKind::SpMM || k == OpKind::MaxAgg ||
           k == OpKind::AttentionScore;
}

int
LayerGraph::aggOp() const
{
    for (size_t i = 0; i < ops.size(); ++i)
        if (ops[i].kind == OpKind::SpMM || ops[i].kind == OpKind::MaxAgg ||
            ops[i].kind == OpKind::AttentionScore)
            return int(i);
    return -1;
}

bool
supportsPlainMeanForward(const ModelSpec &spec)
{
    if (spec.layers.empty())
        return false;
    bool concat = spec.layers.front().concatSelf;
    for (const LayerSpec &l : spec.layers)
        if (l.agg != Aggregation::Mean || l.heads != 1 ||
            l.concatSelf != concat)
            return false;
    return true;
}

namespace {

enum class Family { PlainMean, SageMean, Gin, Gat, ResGcn, Unsupported };

Family
familyOf(const ModelSpec &spec)
{
    if (spec.layers.empty())
        return Family::Unsupported;
    auto uniform = [&](Aggregation agg, bool need_unit_heads) {
        for (const LayerSpec &l : spec.layers)
            if (l.agg != agg || (need_unit_heads && l.heads != 1))
                return false;
        return true;
    };
    if (supportsPlainMeanForward(spec))
        return spec.layers.front().concatSelf ? Family::SageMean
                                              : Family::PlainMean;
    auto noConcat = [&] {
        for (const LayerSpec &l : spec.layers)
            if (l.concatSelf)
                return false;
        return true;
    };
    if (uniform(Aggregation::Add, true) && noConcat())
        return Family::Gin;
    if (uniform(Aggregation::Attention, false) && noConcat())
        return Family::Gat;
    if (uniform(Aggregation::Max, true) && noConcat())
        return Family::ResGcn;
    return Family::Unsupported;
}

/** Append @p op to @p g, assigning it a fresh output slot. */
int
push(LayerGraph &g, OpStep op)
{
    op.out = g.numSlots++;
    g.ops.push_back(op);
    return op.out;
}

constexpr float kLeakySlope = 0.2f;

float
leaky(float x)
{
    return x > 0.0f ? x : kLeakySlope * x;
}

/** Per-head additive score a · h_v, ascending-feature accumulation. */
void
attentionScoreOf(const Matrix &h, const Matrix &a, int heads, int dim,
                 NodeId v, float *out)
{
    for (int k = 0; k < heads; ++k) {
        const float *hv = h.row(v) + int64_t(k) * dim;
        float sv = 0.0f;
        for (int f = 0; f < dim; ++f)
            sv += a(k, f) * hv[f];
        out[k] = sv;
    }
}

/**
 * Row @p r of the GAT attention aggregation into @p out_row. Edge list of
 * r: adjacency entries in row order, self loop last — exactly
 * GatLayer::buildEdges.
 */
void
attentionRowInto(const CsrMatrix &adj, const Matrix &h, const Matrix &a_src,
                 const Matrix &a_dst, int heads, int head_dim,
                 bool concat_heads, NodeId r, float *out_row)
{
    std::vector<NodeId> cols;
    cols.reserve(size_t(adj.rowNnz(r)) + 1);
    adj.forEachInRow(r, [&](NodeId j, float) { cols.push_back(j); });
    cols.push_back(r);
    const size_t ne = cols.size();

    // Scores s_r = aSrc · h_r, t_j = aDst · h_j. Each score is a pure
    // ascending-feature dot product, so computing t_j per edge here
    // yields the same bits as GatLayer's all-nodes precompute.
    std::vector<float> srow(size_t(heads), 0.0f);
    attentionScoreOf(h, a_src, heads, head_dim, r, srow.data());
    std::vector<float> trow(ne * size_t(heads));
    for (size_t e = 0; e < ne; ++e)
        attentionScoreOf(h, a_dst, heads, head_dim, cols[e],
                         trow.data() + e * size_t(heads));

    // Numerically stable softmax per head over r's incident edges, in
    // GatLayer's three-pass edge order.
    std::vector<float> pre(ne * size_t(heads)), alpha(ne * size_t(heads));
    for (int k = 0; k < heads; ++k) {
        float peak = -1e30f;
        for (size_t e = 0; e < ne; ++e) {
            float p = srow[size_t(k)] + trow[e * size_t(heads) + size_t(k)];
            pre[e * size_t(heads) + size_t(k)] = p;
            peak = std::max(peak, leaky(p));
        }
        float denom = 0.0f;
        for (size_t e = 0; e < ne; ++e) {
            float ex =
                std::exp(leaky(pre[e * size_t(heads) + size_t(k)]) - peak);
            alpha[e * size_t(heads) + size_t(k)] = ex;
            denom += ex;
        }
        for (size_t e = 0; e < ne; ++e)
            alpha[e * size_t(heads) + size_t(k)] /= denom;
    }

    // Aggregate values in edge -> head -> feature order.
    const int odim = concat_heads ? heads * head_dim : head_dim;
    std::fill(out_row, out_row + odim, 0.0f);
    for (size_t e = 0; e < ne; ++e) {
        NodeId j = cols[e];
        for (int k = 0; k < heads; ++k) {
            float a = alpha[e * size_t(heads) + size_t(k)];
            const float *hv = h.row(j) + int64_t(k) * head_dim;
            if (concat_heads) {
                float *ov = out_row + int64_t(k) * head_dim;
                for (int f = 0; f < head_dim; ++f)
                    ov[f] += a * hv[f];
            } else {
                float *ov = out_row;
                float inv = 1.0f / float(heads);
                for (int f = 0; f < head_dim; ++f)
                    ov[f] += inv * a * hv[f];
            }
        }
    }
}

/** Row @p r of the Max aggregation into @p out_row. */
void
maxAggRowInto(const CsrMatrix &adj, const Matrix &x, NodeId r,
              float *out_row)
{
    const int64_t cols = x.cols();
    std::memcpy(out_row, x.row(r), size_t(cols) * sizeof(float));
    adj.forEachInRow(r, [&](NodeId j, float) {
        const float *xrow = x.row(j);
        for (int64_t f = 0; f < cols; ++f)
            if (xrow[f] > out_row[f])
                out_row[f] = xrow[f];
    });
}

} // namespace

void
attentionRows(const CsrMatrix &adj, const Matrix &h, const Matrix &a_src,
              const Matrix &a_dst, int heads, int head_dim,
              bool concat_heads, const RowSet &rows, Matrix &out,
              RowAddr addr)
{
    GCOD_ASSERT(h.cols() == int64_t(heads) * head_dim,
                "attention input must be heads x headDim wide");
    parallelFor(
        0, rows.size(adj.rows()),
        [&](const Range &r, size_t) {
            for (int64_t i = r.begin; i < r.end; ++i)
                attentionRowInto(adj, h, a_src, a_dst, heads, head_dim,
                                 concat_heads, rows.node(i),
                                 out.row(rows.row(i, addr.out)));
        },
        16);
}

void
maxAggRows(const CsrMatrix &adj, const Matrix &x, const RowSet &rows,
           Matrix &out, RowAddr addr)
{
    parallelFor(
        0, rows.size(adj.rows()),
        [&](const Range &r, size_t) {
            for (int64_t i = r.begin; i < r.end; ++i)
                maxAggRowInto(adj, x, rows.node(i),
                              out.row(rows.row(i, addr.out)));
        },
        64);
}

bool
supportsRecipeForward(const ModelSpec &spec)
{
    return familyOf(spec) != Family::Unsupported;
}

const char *
supportedRecipeFamilies()
{
    return "plain-Mean (GCN), Mean+concat (GraphSAGE), Add (GIN), "
           "Attention (GAT), Max (ResGCN)";
}

ForwardRecipe
forwardRecipeFor(GnnModel &model, const GraphContext &ctx)
{
    const ModelSpec &spec = model.spec();
    const Family fam = familyOf(spec);
    if (fam == Family::Unsupported)
        GCOD_FATAL("no op-graph recipe for model '", spec.name,
                   "': its layer stack matches no supported family "
                   "(supported: ", supportedRecipeFamilies(), ")");

    ForwardRecipe m;
    m.spec = &spec;
    for (Matrix *w : model.parameters())
        m.weights.push_back(w);
    const size_t L = spec.layers.size();
    auto expectWeights = [&](size_t per_layer) {
        GCOD_ASSERT(m.weights.size() == per_layer * L, "model '", spec.name,
                    "' carries ", m.weights.size(), " parameters but its ",
                    L, "-layer recipe places ", per_layer, " per layer");
    };
    m.layers.resize(L);

    switch (fam) {
    case Family::PlainMean: {
        // GCN: Z = relu(Â X W) per hidden layer.
        m.operators = {&ctx.normalized()};
        expectWeights(1);
        for (size_t l = 0; l < L; ++l) {
            LayerGraph &g = m.layers[l];
            OpStep agg;
            agg.kind = OpKind::SpMM;
            agg.in = 0;
            agg.opIndex = 0;
            int s = push(g, agg);
            OpStep comb;
            comb.kind = OpKind::GEMM;
            comb.in = s;
            comb.weight = int(l);
            int z = push(g, comb);
            if (l + 1 < L) {
                OpStep act;
                act.kind = OpKind::Activation;
                act.act = ActKind::Relu;
                act.in = z;
                push(g, act);
            } else {
                OpStep ro;
                ro.kind = OpKind::Readout;
                ro.in = z;
                push(g, ro);
            }
        }
        break;
    }
    case Family::SageMean: {
        // GraphSAGE: Z = relu([X | mean(N) X] W). The canonical recipe
        // shares ONE row-mean operator; neighbor-sampled serving clones
        // the recipe with per-layer sampled operators (neighbor_sampler).
        m.operators = {&ctx.rowMean()};
        expectWeights(1);
        for (size_t l = 0; l < L; ++l) {
            LayerGraph &g = m.layers[l];
            OpStep agg;
            agg.kind = OpKind::SpMM;
            agg.in = 0;
            agg.opIndex = 0;
            int s = push(g, agg);
            OpStep cat;
            cat.kind = OpKind::ConcatSelf;
            cat.in = s;
            cat.aux = 0;
            int c = push(g, cat);
            OpStep comb;
            comb.kind = OpKind::GEMM;
            comb.in = c;
            comb.weight = int(l);
            int z = push(g, comb);
            if (l + 1 < L) {
                OpStep act;
                act.kind = OpKind::Activation;
                act.act = ActKind::Relu;
                act.in = z;
                push(g, act);
            } else {
                OpStep ro;
                ro.kind = OpKind::Readout;
                ro.in = z;
                push(g, ro);
            }
        }
        break;
    }
    case Family::Gin: {
        // GIN: Z = MLP((1+eps) X + A X); eps is fixed at 0 (GinConv's
        // default, never trained), so the residual scale is exactly 1.
        m.operators = {&ctx.binary()};
        expectWeights(2);
        for (size_t l = 0; l < L; ++l) {
            LayerGraph &g = m.layers[l];
            OpStep agg;
            agg.kind = OpKind::SpMM;
            agg.in = 0;
            agg.opIndex = 0;
            int s = push(g, agg);
            OpStep res;
            res.kind = OpKind::Residual;
            res.in = s;
            res.aux = 0;
            res.scale = 1.0f;
            int r = push(g, res);
            OpStep mlp1;
            mlp1.kind = OpKind::GEMM;
            mlp1.in = r;
            mlp1.weight = int(2 * l);
            int h = push(g, mlp1);
            OpStep act;
            act.kind = OpKind::Activation;
            act.act = ActKind::Relu;
            act.in = h;
            int hr = push(g, act);
            OpStep mlp2;
            mlp2.kind = OpKind::GEMM;
            mlp2.in = hr;
            mlp2.weight = int(2 * l + 1);
            int z = push(g, mlp2);
            if (l + 1 < L) {
                OpStep out;
                out.kind = OpKind::Activation;
                out.act = ActKind::Relu;
                out.in = z;
                push(g, out);
            } else {
                OpStep ro;
                ro.kind = OpKind::Readout;
                ro.in = z;
                push(g, ro);
            }
        }
        break;
    }
    case Family::Gat: {
        // GAT: h = X W, additive-attention aggregation, ELU between
        // layers. Heads > 1 concatenate (GatLayer's hidden setting);
        // heads == 1 runs the same math either way, bit-exactly.
        m.operators = {&ctx.binary()};
        expectWeights(3);
        for (size_t l = 0; l < L; ++l) {
            const LayerSpec &ls = spec.layers[l];
            LayerGraph &g = m.layers[l];
            OpStep proj;
            proj.kind = OpKind::GEMM;
            proj.in = 0;
            proj.weight = int(3 * l);
            int h = push(g, proj);
            OpStep att;
            att.kind = OpKind::AttentionScore;
            att.in = h;
            att.opIndex = 0;
            att.aSrc = int(3 * l + 1);
            att.aDst = int(3 * l + 2);
            att.heads = ls.heads;
            att.concatHeads = ls.heads > 1;
            // LayerSpec::outDim is the PER-HEAD width for attention
            // layers (GatLayer concatenates heads into heads * outDim
            // columns); the projection weight must agree.
            att.headDim = ls.outDim;
            GCOD_ASSERT(m.weights[size_t(3 * l)]->cols() ==
                            int64_t(ls.heads) * ls.outDim,
                        "GAT projection must be heads x outDim wide");
            int z = push(g, att);
            if (l + 1 < L) {
                OpStep act;
                act.kind = OpKind::Activation;
                act.act = ActKind::Elu;
                act.in = z;
                push(g, act);
            } else {
                OpStep ro;
                ro.kind = OpKind::Readout;
                ro.in = z;
                push(g, ro);
            }
        }
        break;
    }
    case Family::ResGcn: {
        // ResGCN: input conv + residual blocks + output conv, all with
        // Max aggregation over the closed neighborhood.
        m.operators = {&ctx.binary()};
        expectWeights(1);
        for (size_t l = 0; l < L; ++l) {
            LayerGraph &g = m.layers[l];
            bool first = l == 0;
            bool last = l + 1 == L;
            OpStep agg;
            agg.kind = OpKind::MaxAgg;
            agg.in = 0;
            agg.opIndex = 0;
            int s = push(g, agg);
            OpStep comb;
            comb.kind = OpKind::GEMM;
            comb.in = s;
            comb.weight = int(l);
            int z = push(g, comb);
            if (last) {
                OpStep ro;
                ro.kind = OpKind::Readout;
                ro.in = z;
                push(g, ro);
                break;
            }
            OpStep act;
            act.kind = OpKind::Activation;
            act.act = ActKind::Relu;
            act.in = z;
            int r = push(g, act);
            if (!first) {
                OpStep res;
                res.kind = OpKind::Residual;
                res.in = r;
                res.aux = 0;
                res.scale = 1.0f;
                push(g, res);
            }
        }
        break;
    }
    case Family::Unsupported:
        break;
    }
    return m;
}

std::vector<int64_t>
layerSlotWidths(const ForwardRecipe &m, size_t layer, int64_t input_cols)
{
    const LayerGraph &g = m.layers[layer];
    std::vector<int64_t> w(size_t(g.numSlots), 0);
    w[0] = input_cols;
    for (const OpStep &op : g.ops) {
        int64_t width = 0;
        switch (op.kind) {
        case OpKind::GEMM:
            width = m.weights[size_t(op.weight)]->cols();
            break;
        case OpKind::AttentionScore:
            width = op.concatHeads ? int64_t(op.heads) * op.headDim
                                   : int64_t(op.headDim);
            break;
        case OpKind::ConcatSelf:
            width = w[size_t(op.aux)] + w[size_t(op.in)];
            break;
        default:
            width = w[size_t(op.in)];
            break;
        }
        w[size_t(op.out)] = width;
    }
    return w;
}

std::vector<uint8_t>
protectedBranchOf(const std::vector<int32_t> &degrees, double protect_ratio)
{
    int32_t threshold = protectionThreshold(degrees, protect_ratio);
    std::vector<uint8_t> branch(degrees.size());
    for (size_t i = 0; i < degrees.size(); ++i)
        branch[i] = degrees[i] >= threshold ? 1 : 0;
    return branch;
}

double
QuantizedGnn::packedBytes() const
{
    double total = 0.0;
    for (const QuantizedCsr &q : qops)
        total += double(q.values.size()) * 2.0;
    for (const QuantizedMatrix &w : wLo)
        total += w.payloadBytes();
    for (const QuantizedMatrix &w : wHi)
        total += w.payloadBytes();
    return total;
}

void
QuantizedGnn::rebuildDequantized()
{
    wDeq.assign(recipe.weights.size(), Matrix());
    for (const LayerGraph &g : recipe.layers)
        for (const OpStep &op : g.ops)
            if (op.kind == OpKind::AttentionScore) {
                if (wDeq[size_t(op.aSrc)].rows() == 0)
                    wDeq[size_t(op.aSrc)] = wHi[size_t(op.aSrc)].toMatrix();
                if (wDeq[size_t(op.aDst)].rows() == 0)
                    wDeq[size_t(op.aDst)] = wHi[size_t(op.aDst)].toMatrix();
            }
}

QuantizedGnn
quantizeGnn(const ForwardRecipe &m, const std::vector<int32_t> &degrees,
            const MixedPrecisionPolicy &policy)
{
    GCOD_ASSERT(!m.operators.empty() &&
                    degrees.size() == size_t(m.operators[0]->rows()),
                "degree count must match the operator");
    GCOD_ASSERT(policy.denseBits <= policy.sparseBits,
                "dense branch must not be wider than the sparse branch");
    QuantizedGnn q;
    q.recipe = m;
    q.policy = policy;
    q.branchOf = protectedBranchOf(degrees, policy.protectRatio);
    q.localIndex = branchLocalIndex(q.branchOf);
    for (uint8_t b : q.branchOf)
        q.protectedCount += b != 0;
    // Only SpMM-consumed operators run on integer kernels; attention and
    // Max aggregations interpret their operator's pattern in fp32.
    std::vector<bool> integerOp(m.operators.size(), false);
    for (const LayerGraph &g : m.layers)
        for (const OpStep &op : g.ops)
            if (op.kind == OpKind::SpMM)
                integerOp[size_t(op.opIndex)] = true;
    q.qops.resize(m.operators.size());
    for (size_t i = 0; i < m.operators.size(); ++i)
        if (integerOp[i])
            q.qops[i] = quantizeCsr(*m.operators[i], policy.operatorBits);
    q.wLo.reserve(m.weights.size());
    q.wHi.reserve(m.weights.size());
    for (const Matrix *w : m.weights) {
        q.wLo.emplace_back(*w, policy.denseBits);
        q.wHi.emplace_back(*w, policy.sparseBits);
    }
    q.rebuildDequantized();
    return q;
}

namespace {

/** Pool-region label per op kind (OpKind order) and precision. */
const char *const kOpZones[][2] = {
    {"SpMM.fp32", "SpMM.quant"},
    {"GEMM.fp32", "GEMM.quant"},
    {"AttentionScore.fp32", "AttentionScore.quant"},
    {"Residual.fp32", "Residual.quant"},
    {"ConcatSelf.fp32", "ConcatSelf.quant"},
    {"MaxAgg.fp32", "MaxAgg.quant"},
    {"Activation.fp32", "Activation.quant"},
    {"Readout.fp32", "Readout.quant"},
};

/**
 * Run @p fn over every part of @p parts, through hooks->part when given.
 * One part runs on the calling thread (its kernels dispatch over the
 * pool); several run one per pool range, each labelled @p zone on its
 * worker, with their kernels inline there — one chip per shard.
 */
void
eachPart(size_t layer, const OpStep &op, const std::vector<RowSet> &parts,
         const PartHooks *hooks, const char *zone,
         const std::function<void(const RowSet &)> &fn)
{
    auto runPart = [&](size_t p) {
        std::function<void()> run = [&] { fn(parts[p]); };
        if (hooks != nullptr && hooks->part)
            hooks->part(layer, op, p, run);
        else
            run();
    };
    if (parts.size() == 1) {
        runPart(0);
        return;
    }
    parallelFor(
        0, int64_t(parts.size()),
        [&](const Range &r, size_t) {
            ParallelZone worker(zone);
            for (int64_t p = r.begin; p < r.end; ++p)
                runPart(size_t(p));
        },
        1);
}

} // namespace

void
executeLayer(const ForwardRecipe &m, const QuantizedGnn *q, size_t layer,
             const std::vector<RowSet> &parts, LayerSlots &slots,
             const PartHooks *hooks)
{
    const LayerGraph &g = m.layers[layer];
    GCOD_ASSERT(!g.ops.empty() && !parts.empty() && slots.input != nullptr,
                "executeLayer needs ops, rows and an input");
    const int64_t n = slots.input->rows();
    GCOD_ASSERT(!m.operators.empty() && int64_t(m.operators[0]->rows()) == n,
                "activation rows must match the operator");
    const std::vector<int64_t> widths =
        layerSlotWidths(m, layer, slots.input->cols());
    slots.mats.resize(size_t(g.numSlots));
    slots.local.resize(size_t(g.numSlots), 0);
    const bool anyLocal = std::any_of(slots.local.begin(), slots.local.end(),
                                      [](char c) { return c != 0; });
    GCOD_ASSERT(!anyLocal || (q == nullptr && parts.size() == 1 &&
                              !parts[0].all() && !slots.local[0]),
                "position-addressed slots need one fp32 row list");
    const int64_t listRows = parts[0].size(n);

    for (const OpStep &op : g.ops) {
        Matrix &out = slots.mats[size_t(op.out)];
        if (out.rows() == 0)
            out = Matrix(slots.local[size_t(op.out)] ? listRows : n,
                         widths[size_t(op.out)]);
        const Matrix &in = slots.at(op.in);
        const Matrix *aux = op.aux >= 0 ? &slots.at(op.aux) : nullptr;
        RowAddr addr;
        addr.in = slots.local[size_t(op.in)] != 0;
        addr.aux = op.aux >= 0 && slots.local[size_t(op.aux)] != 0;
        addr.out = slots.local[size_t(op.out)] != 0;
        const char *zone = kOpZones[size_t(op.kind)][q != nullptr ? 1 : 0];
        ParallelZone opZone(zone);
        auto each = [&](const std::function<void(const RowSet &)> &fn) {
            eachPart(layer, op, parts, hooks, zone, fn);
        };
        auto pack = [&](const std::function<void()> &run) {
            if (hooks != nullptr && hooks->pack)
                hooks->pack(layer, op, run);
            else
                run();
        };

        switch (op.kind) {
        case OpKind::SpMM: {
            const CsrMatrix &adj = *m.operators[size_t(op.opIndex)];
            if (q == nullptr) {
                each([&](const RowSet &r) {
                    spmmRows(adj, in, r, out, addr);
                });
                break;
            }
            // Per-branch scales of the whole input slot: every part codes
            // its neighbor rows exactly as the all-rows pass would.
            const QuantizedCsr &qa = q->qops[size_t(op.opIndex)];
            GCOD_ASSERT(qa.pattern != nullptr,
                        "SpMM operator missing from the quantization pack");
            MixedQuantizedMatrix mx;
            pack([&] {
                mx = mixedQuantize(in, q->branchOf, q->localIndex,
                                   q->policy.denseBits, q->policy.sparseBits);
            });
            each([&](const RowSet &r) { qspmmMixedRows(qa, mx, r, out); });
            break;
        }
        case OpKind::GEMM: {
            if (q == nullptr) {
                const Matrix &w = *m.weights[size_t(op.weight)];
                each([&](const RowSet &r) {
                    matmulRows(in, w, r, out, addr);
                });
                break;
            }
            // Per-row activation scales: aggregation (Add in particular)
            // spreads per-row magnitudes across orders of magnitude, and
            // one per-branch scale starves the small rows of codes. A
            // row's own scale factors out of its dot products exactly, so
            // this stays bit-identical across threads, shards and row
            // sets. SpMM keeps per-branch scales — it mixes rows in one
            // accumulator.
            RowQuantizedMatrix rz = rowQuantize(
                in, q->branchOf, q->policy.denseBits, q->policy.sparseBits);
            const QuantizedMatrix &lo = q->wLo[size_t(op.weight)];
            const QuantizedMatrix &hi = q->wHi[size_t(op.weight)];
            each([&](const RowSet &r) {
                qmatmulRowScaledRows(rz, lo, hi, r, out);
            });
            break;
        }
        case OpKind::AttentionScore: {
            // fp32 over the (quantized) projection; a pack supplies its
            // attention vectors dequantized from the sparse-branch width —
            // this is where low bits fall off the accuracy cliff.
            const CsrMatrix &adj = *m.operators[size_t(op.opIndex)];
            const Matrix &as = q != nullptr ? q->wDeq[size_t(op.aSrc)]
                                            : *m.weights[size_t(op.aSrc)];
            const Matrix &ad = q != nullptr ? q->wDeq[size_t(op.aDst)]
                                            : *m.weights[size_t(op.aDst)];
            each([&](const RowSet &r) {
                attentionRows(adj, in, as, ad, op.heads, op.headDim,
                              op.concatHeads, r, out, addr);
            });
            break;
        }
        case OpKind::MaxAgg: {
            const CsrMatrix &adj = *m.operators[size_t(op.opIndex)];
            each([&](const RowSet &r) { maxAggRows(adj, in, r, out, addr); });
            break;
        }
        case OpKind::Residual:
            // Scale, then add: replicates GinConv (`scaled *= (1+eps);
            // s += scaled`) and the ResGCN block (`r += h`) exactly.
            GCOD_ASSERT(aux != nullptr, "Residual needs its aux slot");
            each([&](const RowSet &r) {
                addScaledRows(in, *aux, op.scale, r, out, addr);
            });
            break;
        case OpKind::ConcatSelf:
            GCOD_ASSERT(aux != nullptr, "ConcatSelf needs its aux slot");
            each([&](const RowSet &r) {
                hconcatRows(*aux, in, r, out, addr);
            });
            break;
        case OpKind::Activation:
            each([&](const RowSet &r) {
                if (op.act == ActKind::Relu)
                    reluRows(in, r, out, addr);
                else
                    eluRows(in, r, out, addr);
            });
            break;
        case OpKind::Readout:
            each([&](const RowSet &r) { copyRows(in, r, out, addr); });
            break;
        }
    }
}

Matrix
executeForward(const ForwardRecipe &m, const QuantizedGnn *q, const Matrix &x,
               const std::vector<RowSet> &parts, const PartHooks *hooks)
{
    Matrix cur;
    for (size_t l = 0; l < m.layers.size(); ++l) {
        LayerSlots slots;
        slots.input = l == 0 ? &x : &cur;
        executeLayer(m, q, l, parts, slots, hooks);
        cur = std::move(slots.mats[size_t(m.layers[l].ops.back().out)]);
    }
    return cur;
}

Matrix
referenceForward(const ForwardRecipe &m, const Matrix &x)
{
    return executeForward(m, nullptr, x, {RowSet()});
}

Matrix
quantizedForwardMixed(const QuantizedGnn &q, const Matrix &x)
{
    return executeForward(q.recipe, &q, x, {RowSet()});
}

} // namespace gcod
