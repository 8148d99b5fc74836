#ifndef LIMA_MATRIX_MATMUL_KERNELS_H_
#define LIMA_MATRIX_MATMUL_KERNELS_H_

// Internal interface of the dense multiply kernels behind matmul.h. The
// public entry points use ActiveKernels(); the kernel tests drive each ISA
// instantiation directly, and bench_kernel_scaling times the row-range gemm
// without the chunking around it.

#include <cstdint>

namespace lima {
namespace matmul_internal {

/// One instantiation of the register-blocked microkernels. Every output cell
/// is summed in ascending inner index from +0.0 (or from the value already in
/// `out` for the accumulating kernel), with separate multiply and add, so all
/// instantiations produce the same bytes.
struct Kernels {
  /// out[rb:re, :] = A[rb:re, :] * B for row-major A (m x k), B (k x n) and
  /// out (m x n). With `upper`, tiles that hold only cells below the diagonal
  /// (column < row) may be skipped; their cells are then left untouched.
  void (*gemm)(const double* a, const double* b, double* out, int64_t rb,
               int64_t re, int64_t k, int64_t n, bool upper);
  /// out += A[rb:re, :]^T * B[rb:re, :] for row-major A (m x k), B (m x n)
  /// and out (k x n). Each cell adds its rows in ascending order onto the
  /// value already in `out`; `upper` as for gemm.
  void (*tgemm)(const double* a, const double* b, double* out, int64_t rb,
                int64_t re, int64_t k, int64_t n, bool upper);
  /// Output rows per gemm row block. Row ranges that start on a multiple of
  /// it run without scalar tail rows except at the matrix end.
  int64_t row_block;
};

/// 16-byte vectors; runs on every target.
const Kernels& BaselineKernels();

/// 32-byte vectors compiled for AVX2 (without FMA). Null when the CPU lacks
/// AVX2 or the build is not for x86-64.
const Kernels* Avx2Kernels();

/// The instantiation the public kernels use: AVX2 when available, chosen
/// once per process.
const Kernels& ActiveKernels();

}  // namespace matmul_internal
}  // namespace lima

#endif  // LIMA_MATRIX_MATMUL_KERNELS_H_
