/**
 * @file
 * Integer (quantized) dense and sparse kernels — the host execution path
 * of the GCoD low-bit variants (paper Tab. VI/VII). Where tensor/ops.cpp
 * computes in fp32, these kernels multiply packed integer codes and
 * accumulate in exact int64 arithmetic, applying the scales once per
 * output element.
 *
 * Determinism contract (matches sim/parallel): every kernel partitions
 * its OUTPUT rows, and integer accumulation is associative, so results
 * are bit-identical for any thread count — and, because each output row
 * depends only on its own exact integer sums, bit-identical when any
 * row sets (RowSet, tensor/ops.hpp) are computed and stitched.
 *
 * Mixed precision follows GCoD's dense/sparse split: activations are
 * row-partitioned into a low-bit branch (the polarized dense community
 * nodes) and a higher-bit branch (the protected high-degree tail), each
 * packed with its own per-matrix scale; kernels keep one integer
 * accumulator per branch and combine the two scaled sums per element.
 */
#ifndef GCOD_TENSOR_QOPS_HPP
#define GCOD_TENSOR_QOPS_HPP

#include "tensor/ops.hpp"
#include "tensor/quant.hpp"

namespace gcod {

/** Dense C = deq(A) * deq(B), computed in integer arithmetic. */
Matrix qmatmul(const QuantizedMatrix &a, const QuantizedMatrix &b);

/** Sparse-dense Y = deq(A) * deq(X), row-wise, integer accumulation. */
Matrix qspmm(const QuantizedCsr &a, const QuantizedMatrix &x);

/**
 * Row-partitioned two-branch quantized activation matrix. Global row r
 * lives in branch branchOf[r] (0 = low-bit dense branch, 1 = higher-bit
 * protected branch) at row localIndex[r] of that branch's packed matrix.
 * The referenced vectors must outlive this object (they belong to the
 * model-level quantization pack, nn/quant_exec).
 */
struct MixedQuantizedMatrix
{
    const std::vector<uint8_t> *branchOf = nullptr;
    const std::vector<int32_t> *localIndex = nullptr;
    QuantizedMatrix lo;
    QuantizedMatrix hi;

    int64_t rows() const { return int64_t(branchOf->size()); }
    int64_t cols() const { return lo.rows() ? lo.cols() : hi.cols(); }
};

/** localIndex companion of a branch assignment: row -> in-branch row. */
std::vector<int32_t> branchLocalIndex(const std::vector<uint8_t> &branch_of);

/**
 * Split @p x by @p branch_of and pack each branch at its own bit width
 * with a fresh per-branch symmetric scale. Scales depend only on the
 * (global) matrix content, so monolithic and sharded executions that
 * quantize the same global activations get identical codes.
 */
MixedQuantizedMatrix mixedQuantize(const Matrix &x,
                                   const std::vector<uint8_t> &branch_of,
                                   const std::vector<int32_t> &local_index,
                                   int lo_bits, int hi_bits);

/**
 * Rows of Y = deq(A) * deq(X) with two-branch X (integer per-branch
 * sums), written into the node rows of @p y (pattern.rows x x.cols).
 * All rows keep nnz-weighted partitioning; the row math is the same for
 * any set, so stitching the row sets of a partition reproduces the
 * all-rows call bit for bit.
 */
void qspmmMixedRows(const QuantizedCsr &a, const MixedQuantizedMatrix &x,
                    const RowSet &rows, Matrix &y);

/** qspmmMixedRows over all rows into a fresh matrix. */
Matrix qspmmMixed(const QuantizedCsr &a, const MixedQuantizedMatrix &x);

/**
 * Per-row quantized GEMM input: row r is coded at the branch-matching
 * bit width with its OWN symmetric scale. A row's scale multiplies
 * every term of that row's dot products, so it factors out of the
 * int64 accumulation exactly — per-row scales keep the determinism
 * contract while covering activations whose per-row dynamic range one
 * per-branch scale cannot (Add-aggregation sums make hub rows dwarf
 * leaf rows, starving the leaves of codes). Codes are stored widened
 * to int16: this is a transient runtime operand, never a wire or store
 * format. SpMM inputs CANNOT use per-row scales — aggregation mixes
 * rows inside one integer accumulator — and keep mixedQuantize's
 * per-branch packing.
 */
struct RowQuantizedMatrix
{
    const std::vector<uint8_t> *branchOf = nullptr;
    std::vector<int16_t> codes;  ///< rows x cols, row-major
    std::vector<float> rowScale; ///< one symmetric scale per row

    int64_t rows = 0;
    int64_t cols = 0;

    const int16_t *row(int64_t r) const { return codes.data() + r * cols; }
};

/**
 * Pack @p x with one fresh symmetric scale per row at the
 * branch-matching width. Codes and scales are pure functions of the
 * row's own bytes, so monolithic, sharded, and incremental executions
 * over the same global activations always agree.
 */
RowQuantizedMatrix rowQuantize(const Matrix &x,
                               const std::vector<uint8_t> &branch_of,
                               int lo_bits, int hi_bits);

/**
 * Rows of Z = deq(X) * deq(W) with per-row X scales, written into the
 * node rows of @p z; row r uses the branch-matching weight pack (W_lo
 * dense, W_hi protected).
 */
void qmatmulRowScaledRows(const RowQuantizedMatrix &x,
                          const QuantizedMatrix &w_lo,
                          const QuantizedMatrix &w_hi, const RowSet &rows,
                          Matrix &z);

/** qmatmulRowScaledRows over all rows into a fresh matrix. */
Matrix qmatmulRowScaled(const RowQuantizedMatrix &x,
                        const QuantizedMatrix &w_lo,
                        const QuantizedMatrix &w_hi);

} // namespace gcod

#endif // GCOD_TENSOR_QOPS_HPP
