#include "ops.hpp"

#include <algorithm>
#include <cmath>

#include "sim/parallel.hpp"

namespace gcod {

namespace {

/**
 * Column-tile width for the dense kernels: a K x kColTile stripe of the
 * right-hand operand stays cache-resident while every row of the local
 * range streams against it.
 */
constexpr int64_t kColTile = 128;

/** Smallest number of scalar multiply-adds worth shipping to the pool. */
constexpr int64_t kMinParallelWork = 1 << 15;

/** Rows per range so each range carries at least kMinParallelWork flops. */
int64_t
rowGrain(int64_t flopsPerRow)
{
    return std::max<int64_t>(1, kMinParallelWork / std::max<int64_t>(
                                                       1, flopsPerRow));
}

/**
 * Run fn(i) for every position i of @p rows, partitioned so each pool
 * range carries at least kMinParallelWork of @p cost_per_row work.
 */
template <typename Fn>
void
forPositions(const RowSet &rows, int64_t n, int64_t cost_per_row,
             const Fn &fn)
{
    parallelFor(
        0, rows.size(n),
        [&](const Range &r, size_t) {
            for (int64_t i = r.begin; i < r.end; ++i)
                fn(i);
        },
        rowGrain(cost_per_row));
}

/** Zero output row @p row when @p rows is an explicit list. */
void
clearListRow(const RowSet &rows, float *row, int64_t cols)
{
    if (!rows.all())
        std::fill(row, row + cols, 0.0f);
}

} // namespace

void
matmulRows(const Matrix &a, const Matrix &b, const RowSet &rows, Matrix &c,
           RowAddr addr)
{
    GCOD_ASSERT(a.cols() == b.rows() && c.cols() == b.cols(),
                "matmul shape mismatch");
    ParallelZone zone("matmul");
    // Parallel over disjoint row blocks of C; within a block, i-k-j order
    // tiled over j so one K x kColTile stripe of B is reused across the
    // whole block. Accumulation into each c(i, j) stays in ascending-k
    // order, so the result is bit-identical for any thread count.
    parallelFor(
        0, rows.size(a.rows()),
        [&](const Range &r, size_t) {
            for (int64_t i = r.begin; i < r.end; ++i)
                clearListRow(rows, c.row(rows.row(i, addr.out)), c.cols());
            for (int64_t jb = 0; jb < b.cols(); jb += kColTile) {
                int64_t jend = std::min(jb + kColTile, b.cols());
                for (int64_t i = r.begin; i < r.end; ++i) {
                    const float *arow = a.row(rows.row(i, addr.in));
                    float *crow = c.row(rows.row(i, addr.out));
                    for (int64_t k = 0; k < a.cols(); ++k) {
                        float av = arow[k];
                        if (av == 0.0f)
                            continue;
                        const float *brow = b.row(k);
                        for (int64_t j = jb; j < jend; ++j)
                            crow[j] += av * brow[j];
                    }
                }
            }
        },
        rowGrain(a.cols() * b.cols()));
}

Matrix
matmul(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows(), b.cols(), 0.0f);
    matmulRows(a, b, RowSet(), c);
    return c;
}

Matrix
matmulTransposedA(const Matrix &a, const Matrix &b)
{
    GCOD_ASSERT(a.rows() == b.rows(), "matmulTransposedA shape mismatch");
    ParallelZone zone("matmulTransposedA");
    Matrix c(a.cols(), b.cols(), 0.0f);
    // Parallel over disjoint row blocks of C (= column blocks of A); the
    // k sweep is innermost-outer exactly as in the scalar kernel, so each
    // c(i, j) accumulates in ascending-k order and the block's C rows
    // stay cache-resident across the whole sweep.
    parallelFor(
        0, a.cols(),
        [&](const Range &r, size_t) {
            for (int64_t k = 0; k < a.rows(); ++k) {
                const float *arow = a.row(k);
                const float *brow = b.row(k);
                for (int64_t i = r.begin; i < r.end; ++i) {
                    float av = arow[i];
                    if (av == 0.0f)
                        continue;
                    float *crow = c.row(i);
                    for (int64_t j = 0; j < b.cols(); ++j)
                        crow[j] += av * brow[j];
                }
            }
        },
        rowGrain(a.rows() * b.cols()));
    return c;
}

Matrix
matmulTransposedB(const Matrix &a, const Matrix &b)
{
    GCOD_ASSERT(a.cols() == b.cols(), "matmulTransposedB shape mismatch");
    ParallelZone zone("matmulTransposedB");
    Matrix c(a.rows(), b.rows(), 0.0f);
    // Parallel over row blocks of C; j tiled so a block of B rows is
    // reused across every row of the local range. Each c(i, j) is one
    // ascending-k dot product, identical to the scalar kernel.
    parallelFor(
        0, a.rows(),
        [&](const Range &r, size_t) {
            for (int64_t jb = 0; jb < b.rows(); jb += kColTile) {
                int64_t jend = std::min(jb + kColTile, b.rows());
                for (int64_t i = r.begin; i < r.end; ++i) {
                    const float *arow = a.row(i);
                    float *crow = c.row(i);
                    for (int64_t j = jb; j < jend; ++j) {
                        const float *brow = b.row(j);
                        float acc = 0.0f;
                        for (int64_t k = 0; k < a.cols(); ++k)
                            acc += arow[k] * brow[k];
                        crow[j] += acc;
                    }
                }
            }
        },
        rowGrain(a.cols() * b.rows()));
    return c;
}

void
spmmRows(const CsrMatrix &a, const Matrix &x, const RowSet &rows, Matrix &y,
         RowAddr addr)
{
    GCOD_ASSERT(int64_t(a.cols()) == x.rows() && y.cols() == x.cols(),
                "spmm shape mismatch");
    ParallelZone zone("spmmRowWise");
    RangeFn body = [&](const Range &r, size_t) {
        for (int64_t i = r.begin; i < r.end; ++i) {
            float *yrow = y.row(rows.row(i, addr.out));
            clearListRow(rows, yrow, x.cols());
            a.forEachInRow(rows.node(i), [&](NodeId c, float v) {
                const float *xrow = x.row(c);
                for (int64_t j = 0; j < x.cols(); ++j)
                    yrow[j] += v * xrow[j];
            });
        }
    };
    // All rows are cut by cumulative nnz (the indptr array), not row
    // count: on power-law graphs equal row counts give wildly unequal
    // work while equal nnz shares stay balanced — the same imbalance the
    // paper's accelerators rebalance in hardware. Explicit lists split
    // by position at the mean row cost. Each output row is written by
    // exactly one range, so results are thread-count invariant.
    if (rows.all()) {
        parallelForWeighted(a.indptr(), body, rowGrain(x.cols()));
        return;
    }
    int64_t meanNnz = a.rows() > 0 ? int64_t(a.nnz()) / a.rows() : 0;
    parallelFor(0, rows.size(0), body,
                rowGrain(x.cols() * std::max<int64_t>(1, meanNnz)));
}

Matrix
spmmRowWise(const CsrMatrix &a, const Matrix &x)
{
    Matrix y(a.rows(), x.cols(), 0.0f);
    spmmRows(a, x, RowSet(), y);
    return y;
}

Matrix
spmmColumnWise(const CscMatrix &a, const Matrix &x)
{
    GCOD_ASSERT(int64_t(a.cols()) == x.rows(), "spmm shape mismatch");
    Matrix y(a.rows(), x.cols(), 0.0f);
    // Consume one adjacency column per step; each column's entries all
    // multiply the same row of X (distributed aggregation, Fig. 5(b)).
    // Stays serial: distinct columns scatter into the same output rows,
    // and this dataflow exists to mirror the accelerator, not to be the
    // host hot path (spmmRowWise is).
    for (NodeId c = 0; c < a.cols(); ++c) {
        const float *xrow = x.row(c);
        a.forEachInCol(c, [&](NodeId r, float v) {
            float *yrow = y.row(r);
            for (int64_t j = 0; j < x.cols(); ++j)
                yrow[j] += v * xrow[j];
        });
    }
    return y;
}

Matrix
spmm(const CsrMatrix &a, const Matrix &x)
{
    return spmmRowWise(a, x);
}

void
reluRows(const Matrix &x, const RowSet &rows, Matrix &y, RowAddr addr)
{
    GCOD_ASSERT(x.cols() == y.cols(), "relu shape mismatch");
    forPositions(rows, x.rows(), x.cols(), [&](int64_t i) {
        const float *in = x.row(rows.row(i, addr.in));
        float *out = y.row(rows.row(i, addr.out));
        for (int64_t j = 0; j < x.cols(); ++j)
            out[j] = std::max(in[j], 0.0f);
    });
}

Matrix
relu(const Matrix &x)
{
    Matrix y(x.rows(), x.cols());
    reluRows(x, RowSet(), y);
    return y;
}

void
eluRows(const Matrix &x, const RowSet &rows, Matrix &y, RowAddr addr)
{
    GCOD_ASSERT(x.cols() == y.cols(), "elu shape mismatch");
    forPositions(rows, x.rows(), 8 * x.cols(), [&](int64_t i) {
        const float *in = x.row(rows.row(i, addr.in));
        float *out = y.row(rows.row(i, addr.out));
        for (int64_t j = 0; j < x.cols(); ++j)
            out[j] = in[j] < 0.0f ? std::exp(in[j]) - 1.0f : in[j];
    });
}

void
addScaledRows(const Matrix &in, const Matrix &aux, float scale,
              const RowSet &rows, Matrix &out, RowAddr addr)
{
    GCOD_ASSERT(in.cols() == aux.cols() && in.cols() == out.cols(),
                "addScaled shape mismatch");
    forPositions(rows, in.rows(), 2 * in.cols(), [&](int64_t i) {
        const float *irow = in.row(rows.row(i, addr.in));
        const float *arow = aux.row(rows.row(i, addr.aux));
        float *orow = out.row(rows.row(i, addr.out));
        for (int64_t j = 0; j < in.cols(); ++j)
            orow[j] = arow[j] * scale;
        for (int64_t j = 0; j < in.cols(); ++j)
            orow[j] = irow[j] + orow[j];
    });
}

void
copyRows(const Matrix &x, const RowSet &rows, Matrix &y, RowAddr addr)
{
    GCOD_ASSERT(x.cols() == y.cols(), "copy shape mismatch");
    forPositions(rows, x.rows(), x.cols(), [&](int64_t i) {
        const float *in = x.row(rows.row(i, addr.in));
        std::copy(in, in + x.cols(), y.row(rows.row(i, addr.out)));
    });
}

Matrix
reluBackward(const Matrix &grad, const Matrix &x)
{
    GCOD_ASSERT(grad.sameShape(x), "reluBackward shape mismatch");
    Matrix g = grad;
    float *gd = g.data().data();
    const float *xd = x.data().data();
    parallelFor(
        0, g.size(),
        [&](const Range &r, size_t) {
            for (int64_t i = r.begin; i < r.end; ++i)
                if (xd[i] <= 0.0f)
                    gd[i] = 0.0f;
        },
        kMinParallelWork);
    return g;
}

Matrix
leakyRelu(const Matrix &x, float alpha)
{
    Matrix y = x;
    float *d = y.data().data();
    parallelFor(
        0, y.size(),
        [&](const Range &r, size_t) {
            for (int64_t i = r.begin; i < r.end; ++i)
                if (d[i] < 0.0f)
                    d[i] *= alpha;
        },
        kMinParallelWork);
    return y;
}

Matrix
softmaxRows(const Matrix &x)
{
    Matrix y(x.rows(), x.cols());
    parallelFor(
        0, x.rows(),
        [&](const Range &range, size_t) {
            for (int64_t r = range.begin; r < range.end; ++r) {
                const float *in = x.row(r);
                float *out = y.row(r);
                float peak = in[0];
                for (int64_t c = 1; c < x.cols(); ++c)
                    peak = std::max(peak, in[c]);
                float sum = 0.0f;
                for (int64_t c = 0; c < x.cols(); ++c) {
                    out[c] = std::exp(in[c] - peak);
                    sum += out[c];
                }
                for (int64_t c = 0; c < x.cols(); ++c)
                    out[c] /= sum;
            }
        },
        rowGrain(4 * x.cols()));
    return y;
}

namespace {

bool
rowSelected(const std::vector<bool> &mask, int64_t r)
{
    return mask.empty() || mask[size_t(r)];
}

} // namespace

double
crossEntropy(const Matrix &probs, const std::vector<int> &labels,
             const std::vector<bool> &mask)
{
    GCOD_ASSERT(labels.size() == size_t(probs.rows()),
                "crossEntropy label count mismatch");
    double loss = 0.0;
    int64_t counted = 0;
    for (int64_t r = 0; r < probs.rows(); ++r) {
        if (!rowSelected(mask, r))
            continue;
        float p = probs(r, labels[size_t(r)]);
        loss += -std::log(std::max(p, 1e-12f));
        ++counted;
    }
    return counted ? loss / double(counted) : 0.0;
}

Matrix
softmaxCrossEntropyBackward(const Matrix &probs,
                            const std::vector<int> &labels,
                            const std::vector<bool> &mask)
{
    Matrix grad(probs.rows(), probs.cols(), 0.0f);
    int64_t counted = 0;
    for (int64_t r = 0; r < probs.rows(); ++r)
        if (rowSelected(mask, r))
            ++counted;
    if (!counted)
        return grad;
    float inv = 1.0f / float(counted);
    parallelFor(
        0, probs.rows(),
        [&](const Range &range, size_t) {
            for (int64_t r = range.begin; r < range.end; ++r) {
                if (!rowSelected(mask, r))
                    continue;
                for (int64_t c = 0; c < probs.cols(); ++c)
                    grad(r, c) = probs(r, c) * inv;
                grad(r, labels[size_t(r)]) -= inv;
            }
        },
        rowGrain(probs.cols()));
    return grad;
}

double
accuracy(const Matrix &logits, const std::vector<int> &labels,
         const std::vector<bool> &mask)
{
    GCOD_ASSERT(labels.size() == size_t(logits.rows()),
                "accuracy label count mismatch");
    int64_t correct = 0, counted = 0;
    for (int64_t r = 0; r < logits.rows(); ++r) {
        if (!rowSelected(mask, r))
            continue;
        const float *row = logits.row(r);
        int64_t best = 0;
        for (int64_t c = 1; c < logits.cols(); ++c)
            if (row[c] > row[best])
                best = c;
        if (best == labels[size_t(r)])
            ++correct;
        ++counted;
    }
    return counted ? double(correct) / double(counted) : 0.0;
}

void
hconcatRows(const Matrix &a, const Matrix &b, const RowSet &rows, Matrix &out,
            RowAddr addr)
{
    GCOD_ASSERT(out.cols() == a.cols() + b.cols(), "hconcat shape mismatch");
    forPositions(rows, a.rows(), out.cols(), [&](int64_t i) {
        const float *arow = a.row(rows.row(i, addr.aux));
        const float *brow = b.row(rows.row(i, addr.in));
        float *orow = out.row(rows.row(i, addr.out));
        std::copy(arow, arow + a.cols(), orow);
        std::copy(brow, brow + b.cols(), orow + a.cols());
    });
}

Matrix
hconcat(const Matrix &a, const Matrix &b)
{
    GCOD_ASSERT(a.rows() == b.rows(), "hconcat row mismatch");
    Matrix c(a.rows(), a.cols() + b.cols());
    hconcatRows(a, b, RowSet(), c);
    return c;
}

Matrix
meanOf(const std::vector<Matrix> &ms)
{
    GCOD_ASSERT(!ms.empty(), "meanOf needs at least one matrix");
    Matrix acc = ms[0];
    for (size_t i = 1; i < ms.size(); ++i)
        acc += ms[i];
    acc *= 1.0f / float(ms.size());
    return acc;
}

} // namespace gcod
