/**
 * @file
 * Dense and sparse linear-algebra kernels.
 *
 * The two SpMM product orders mirror the paper's Fig. 7 dataflows:
 *  - spmmRowWise:    row-wise products (gathered; combination in the
 *                    efficiency-aware pipeline)
 *  - spmmColumnWise: column-wise products over CSC (distributed; the
 *                    aggregation dataflow of AWB-GCN and GCoD)
 * Both compute the same A*B; tests assert they agree with the reference.
 *
 * The kernels the recipe interpreter (nn/quant_exec) calls each have one
 * row-subset entry point (RowSet); the whole-matrix call is its all-rows
 * case.
 */
#ifndef GCOD_TENSOR_OPS_HPP
#define GCOD_TENSOR_OPS_HPP

#include "graph/sparse.hpp"
#include "tensor/matrix.hpp"

namespace gcod {

/**
 * The rows one row-subset kernel call computes. Position i of the set is
 * node node(i): every node in order when ids is null — the whole-matrix
 * call, which keeps each kernel's own parallel partitioning — else
 * ids[i], in list order. Each output row is a pure function of its input
 * rows with a fixed per-element order, so any subset, order, partition
 * or thread count reproduces the whole-matrix bits. Whole-matrix calls
 * expect a zero-initialised output; list calls zero or overwrite every
 * output row first, so running one twice is idempotent.
 */
struct RowSet
{
    /** Node ids in compute order; nullptr selects every row. */
    const std::vector<NodeId> *ids = nullptr;

    RowSet() = default;
    RowSet(const std::vector<NodeId> &list) : ids(&list) {}

    bool all() const { return ids == nullptr; }
    /** Positions in the set; @p n is the row count of the all-rows set. */
    int64_t size(int64_t n) const
    {
        return ids == nullptr ? n : int64_t(ids->size());
    }
    NodeId node(int64_t i) const
    {
        return ids == nullptr ? NodeId(i) : (*ids)[size_t(i)];
    }
    /** Row of position @p i in an operand addressed by node or position. */
    int64_t row(int64_t i, bool by_position) const
    {
        return by_position ? i : node(i);
    }
};

/**
 * Which dense operands of a row-subset call hold one row per set
 * position (row i = node ids[i]) instead of one row per node, so a
 * caller can stage intermediates for just the set's rows. Aggregation
 * inputs are always node-addressed: they read neighbor rows.
 */
struct RowAddr
{
    bool in = false;
    bool aux = false;
    bool out = false;
};

/** Rows of C = A * B; matmul() is the all-rows case. */
void matmulRows(const Matrix &a, const Matrix &b, const RowSet &rows,
                Matrix &c, RowAddr addr = {});

/** Dense C = A * B. */
Matrix matmul(const Matrix &a, const Matrix &b);

/** Dense C = A^T * B (used by backward passes). */
Matrix matmulTransposedA(const Matrix &a, const Matrix &b);

/** Dense C = A * B^T (used by backward passes). */
Matrix matmulTransposedB(const Matrix &a, const Matrix &b);

/**
 * Rows of Y = A * X in row-wise (gathered) order; all rows keep the
 * nnz-weighted partitioning of spmmRowWise(), the all-rows case.
 */
void spmmRows(const CsrMatrix &a, const Matrix &x, const RowSet &rows,
              Matrix &y, RowAddr addr = {});

/** Sparse-dense Y = A * X using row-wise (gathered) products. */
Matrix spmmRowWise(const CsrMatrix &a, const Matrix &x);

/** Sparse-dense Y = A * X using column-wise (distributed) products. */
Matrix spmmColumnWise(const CscMatrix &a, const Matrix &x);

/** Convenience: Y = A * X through the CSR row-wise kernel. */
Matrix spmm(const CsrMatrix &a, const Matrix &x);

/** Rows of y = max(x, 0); relu() is the all-rows case. */
void reluRows(const Matrix &x, const RowSet &rows, Matrix &y,
              RowAddr addr = {});

/** Elementwise ReLU, returning max(x, 0). */
Matrix relu(const Matrix &x);

/** Rows of y = ELU(x) = x < 0 ? exp(x) - 1 : x. */
void eluRows(const Matrix &x, const RowSet &rows, Matrix &y,
             RowAddr addr = {});

/**
 * Rows of out = in + scale * aux, as two elementwise passes (scale, then
 * add) so no fused multiply-add creeps in.
 */
void addScaledRows(const Matrix &in, const Matrix &aux, float scale,
                   const RowSet &rows, Matrix &out, RowAddr addr = {});

/** Rows of y = x. */
void copyRows(const Matrix &x, const RowSet &rows, Matrix &y,
              RowAddr addr = {});

/** Gradient mask of ReLU: grad * (x > 0). */
Matrix reluBackward(const Matrix &grad, const Matrix &x);

/** Elementwise LeakyReLU with negative slope alpha. */
Matrix leakyRelu(const Matrix &x, float alpha);

/** Row-wise softmax. */
Matrix softmaxRows(const Matrix &x);

/**
 * Mean cross-entropy over the rows selected by mask (mask empty = all).
 * @param probs  row-stochastic predictions (softmax output)
 * @param labels class index per row
 */
double crossEntropy(const Matrix &probs, const std::vector<int> &labels,
                    const std::vector<bool> &mask = {});

/**
 * Combined softmax + cross-entropy backward over masked rows:
 * grad = (probs - onehot(labels)) / |mask| restricted to masked rows.
 */
Matrix softmaxCrossEntropyBackward(const Matrix &probs,
                                   const std::vector<int> &labels,
                                   const std::vector<bool> &mask = {});

/** Fraction of masked rows whose argmax equals the label. */
double accuracy(const Matrix &logits, const std::vector<int> &labels,
                const std::vector<bool> &mask = {});

/**
 * Rows of out = [A | B]; @p a is addressed by addr.aux, @p b by addr.in.
 * hconcat() is the all-rows case.
 */
void hconcatRows(const Matrix &a, const Matrix &b, const RowSet &rows,
                 Matrix &out, RowAddr addr = {});

/** Horizontal concatenation [A | B]. */
Matrix hconcat(const Matrix &a, const Matrix &b);

/** Row-wise mean of a list of equally-shaped matrices. */
Matrix meanOf(const std::vector<Matrix> &ms);

} // namespace gcod

#endif // GCOD_TENSOR_OPS_HPP
