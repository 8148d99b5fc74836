#ifndef LIMA_MATRIX_MATMUL_H_
#define LIMA_MATRIX_MATMUL_H_

#include "common/parallel.h"
#include "common/result.h"
#include "matrix/matrix.h"

namespace lima {

// Kernels. All three operations run on one register-blocked microkernel
// template (matmul.cc): wide outputs hold a 4-row tile of vector
// accumulators across the inner dimension, skinny outputs (fewer than 4
// columns) vectorize across output rows instead. The template is compiled
// with 32-byte vectors for AVX2 and with 16-byte vectors for the baseline
// ISA; the AVX2 build is chosen once per process when the CPU supports it
// (x86-64 only), with no configuration knob.
//
// Summation-order contract, the same for both builds and every budget:
// each output cell is ((+0.0 + a0*b0) + a1*b1) + ... in ascending inner
// index, with a separate multiply and add (no FMA, no zero skipping, so
// 0 * Inf is NaN as in cellwise `*`). The reductions over input rows
// (TransposeMatMul, left Tsmm) sum fixed row chunks in that order and fold
// the chunk partials in ascending chunk order. See docs/CONCURRENCY.md.

/// Dense matrix multiply A (m x k) * B (k x n). Output rows are partitioned
/// into cost-model-sized chunks of whole row blocks, executed under `par`'s
/// budget lease (sequential when par is null — identical bytes either way).
/// Returns InvalidArgument on an inner-dimension mismatch.
Result<Matrix> MatMul(const Matrix& a, const Matrix& b,
                      const ParallelContext* par = nullptr);

/// Transpose-self matrix multiply (SystemDS "tsmm" / BLAS dsyrk):
/// left = X^T * X (cols x cols), right = X * X^T (rows x rows).
/// Exploits symmetry of the result (computes the upper triangle only).
/// The left path reduces per-chunk partial triangles in chunk order, so the
/// result is a pure function of the input size, not of the thread count.
Matrix Tsmm(const Matrix& x, bool left = true,
            const ParallelContext* par = nullptr);

/// Transpose A^T * B without materializing t(A). Used by compensation plans.
/// Input rows are partitioned into fixed chunks with per-chunk partial
/// accumulators reduced in chunk order (the output is shared across all
/// input rows).
Result<Matrix> TransposeMatMul(const Matrix& a, const Matrix& b,
                               const ParallelContext* par = nullptr);

}  // namespace lima

#endif  // LIMA_MATRIX_MATMUL_H_
