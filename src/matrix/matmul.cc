#include "matrix/matmul.h"

#include <algorithm>
#include <cstring>
#include <sstream>
#include <vector>

#include "analysis/cost_model.h"
#include "matrix/matmul_kernels.h"
#include "matrix/reorg.h"

namespace lima {

namespace {

using matmul_internal::Kernels;

// ---- Register-blocked microkernels -----------------------------------------
//
// One template set, instantiated per vector type V. Summation-order contract
// (see matmul.h): every output cell is ((+0.0 + a0*b0) + a1*b1) + ... in
// ascending inner index, one separate multiply and add per term, so tiling,
// vector width and row panels never change a bit. The helpers are forced
// inline so that each instantiation is compiled for the ISA of the entry
// point that calls it.
#define LIMA_KERNEL [[gnu::always_inline]] inline

typedef double Vec2 __attribute__((vector_size(16)));
#if defined(__x86_64__)
typedef double Vec4 __attribute__((vector_size(32)));
#endif

template <class V>
constexpr int64_t kLanes = sizeof(V) / sizeof(double);

// Rows of a vector-along-columns tile; its width is two vectors.
constexpr int kTileRows = 4;
// Doubles of B (gemm) or of the A and B row panel (tgemm) kept cache
// resident while the tiles sweep over them.
constexpr int64_t kPanelDoubles = 32768;

/// Vectors per t(A)B strip tile for skinny outputs: C accumulator columns
/// times H vectors stay within the 16 vector registers.
constexpr int StripVectors(int c) { return c == 1 ? 4 : 2; }
/// Vectors per gemm strip tile. Each lane reads its own row of A, and the
/// rows of more vectors would not fit the general-purpose registers.
constexpr int kGemmStripVectors = 2;

template <class V>
LIMA_KERNEL void Load(V& v, const double* p) {
  std::memcpy(&v, p, sizeof(V));
}

template <class V>
LIMA_KERNEL void Store(double* p, const V& v) {
  std::memcpy(p, &v, sizeof(V));
}

/// v = {p[0], p[stride], p[2 * stride], ...}.
template <class V>
LIMA_KERNEL void Gather(V& v, const double* p, int64_t stride) {
  static_assert(kLanes<V> == 2 || kLanes<V> == 4);
  if constexpr (kLanes<V> == 2) {
    v = V{p[0], p[stride]};
  } else {
    v = V{p[0], p[stride], p[2 * stride], p[3 * stride]};
  }
}

/// p[0], p[stride], p[2 * stride], ... = the lanes of v.
template <class V>
LIMA_KERNEL void Scatter(double* p, int64_t stride, const V& v) {
  double lanes[kLanes<V>];
  Store(lanes, v);
  for (int64_t l = 0; l < kLanes<V>; ++l) p[l * stride] = lanes[l];
}

// out[i:i+MR, j:j+NV*W] = A[i:i+MR, :] * B[:, j:j+NV*W], vectors along the
// output row.
template <class V, int MR, int NV>
LIMA_KERNEL void GemmTile(const double* a, const double* b, double* out,
                          int64_t i, int64_t j, int64_t k, int64_t n) {
  constexpr int64_t W = kLanes<V>;
  V acc[MR][NV] = {};
  const double* arow = a + i * k;
  for (int64_t p = 0; p < k; ++p) {
    V bv[NV];
    for (int v = 0; v < NV; ++v) Load(bv[v], b + p * n + j + v * W);
    for (int r = 0; r < MR; ++r) {
      const double av = arow[r * k + p];
      for (int v = 0; v < NV; ++v) acc[r][v] += av * bv[v];
    }
  }
  for (int r = 0; r < MR; ++r) {
    for (int v = 0; v < NV; ++v) {
      Store(out + (i + r) * n + j + v * W, acc[r][v]);
    }
  }
}

// out[i:i+H*W, j:j+C] = A[i:i+H*W, :] * B[:, j:j+C], vectors across H*W
// output rows: the skinny (GEMV-like) shape, where a row holds too few
// columns for a vector.
template <class V, int H, int C>
LIMA_KERNEL void GemmStripTile(const double* a, const double* b, double* out,
                               int64_t i, int64_t j, int64_t k, int64_t n) {
  constexpr int64_t W = kLanes<V>;
  V acc[H][C] = {};
  const double* arow = a + i * k;
  for (int64_t p = 0; p < k; ++p) {
    double bv[C];
    for (int c = 0; c < C; ++c) bv[c] = b[p * n + j + c];
    for (int h = 0; h < H; ++h) {
      V col;
      Gather(col, arow + h * W * k + p, k);
      for (int c = 0; c < C; ++c) acc[h][c] += col * bv[c];
    }
  }
  for (int h = 0; h < H; ++h) {
    for (int c = 0; c < C; ++c) {
      Scatter(out + (i + h * W) * n + j + c, n, acc[h][c]);
    }
  }
}

// Columns [j, j+C) of out[rb:re, :].
template <class V, int C>
LIMA_KERNEL void GemmStrip(const double* a, const double* b, double* out,
                           int64_t rb, int64_t re, int64_t j, int64_t k,
                           int64_t n) {
  constexpr int64_t W = kLanes<V>;
  constexpr int H = kGemmStripVectors;
  int64_t i = rb;
  for (; i + H * W <= re; i += H * W) {
    GemmStripTile<V, H, C>(a, b, out, i, j, k, n);
  }
  if (i + W <= re) {
    GemmStripTile<V, 1, C>(a, b, out, i, j, k, n);
    i += W;
  }
  for (; i < re; ++i) {
    for (int c = 0; c < C; ++c) {
      double s = 0.0;
      for (int64_t p = 0; p < k; ++p) s += a[i * k + p] * b[p * n + j + c];
      out[i * n + j + c] = s;
    }
  }
}

// Columns [jb, je) of output rows [i, i+MR); je - jb is a multiple of W.
// With `upper`, tiles entirely left of the diagonal are skipped.
template <class V, int MR>
LIMA_KERNEL void GemmRowBlock(const double* a, const double* b, double* out,
                              int64_t i, int64_t jb, int64_t je, int64_t k,
                              int64_t n, bool upper) {
  constexpr int64_t W = kLanes<V>;
  int64_t j = jb;
  for (; j + 2 * W <= je; j += 2 * W) {
    if (!upper || j + 2 * W > i) GemmTile<V, MR, 2>(a, b, out, i, j, k, n);
  }
  if (j < je && (!upper || j + W > i)) {
    GemmTile<V, MR, 1>(a, b, out, i, j, k, n);
  }
}

template <class V>
LIMA_KERNEL void GemmImpl(const double* a, const double* b, double* out,
                          int64_t rb, int64_t re, int64_t k, int64_t n,
                          bool upper) {
  constexpr int64_t W = kLanes<V>;
  const int64_t tiled = n < 4 ? 0 : n - n % W;
  // Column panels of B that stay cache resident across the row blocks.
  const int64_t panel = std::max<int64_t>(
      2 * W, kPanelDoubles / std::max<int64_t>(k, 1) / (2 * W) * (2 * W));
  for (int64_t jb = 0; jb < tiled; jb += panel) {
    const int64_t je = std::min(tiled, jb + panel);
    int64_t i = rb;
    for (; i + kTileRows <= re; i += kTileRows) {
      GemmRowBlock<V, kTileRows>(a, b, out, i, jb, je, k, n, upper);
    }
    for (; i < re; ++i) GemmRowBlock<V, 1>(a, b, out, i, jb, je, k, n, upper);
  }
  switch (n - tiled) {
    case 0: break;
    case 1: GemmStrip<V, 1>(a, b, out, rb, re, tiled, k, n); break;
    case 2: GemmStrip<V, 2>(a, b, out, rb, re, tiled, k, n); break;
    default: GemmStrip<V, 3>(a, b, out, rb, re, tiled, k, n); break;
  }
}

// out[p:p+MR, j:j+NV*W] += A[ib:ie, p:p+MR]^T * B[ib:ie, j:j+NV*W], vectors
// along the output row. The accumulators start from `out`, so successive row
// panels keep each cell's ascending row order.
template <class V, int MR, int NV>
LIMA_KERNEL void TgemmTile(const double* a, const double* b, double* out,
                           int64_t ib, int64_t ie, int64_t p, int64_t j,
                           int64_t k, int64_t n) {
  constexpr int64_t W = kLanes<V>;
  V acc[MR][NV];
  for (int r = 0; r < MR; ++r) {
    for (int v = 0; v < NV; ++v) Load(acc[r][v], out + (p + r) * n + j + v * W);
  }
  for (int64_t i = ib; i < ie; ++i) {
    V bv[NV];
    for (int v = 0; v < NV; ++v) Load(bv[v], b + i * n + j + v * W);
    const double* arow = a + i * k + p;
    for (int r = 0; r < MR; ++r) {
      const double av = arow[r];
      for (int v = 0; v < NV; ++v) acc[r][v] += av * bv[v];
    }
  }
  for (int r = 0; r < MR; ++r) {
    for (int v = 0; v < NV; ++v) {
      Store(out + (p + r) * n + j + v * W, acc[r][v]);
    }
  }
}

// out[p:p+H*W, j:j+C] += A[ib:ie, p:p+H*W]^T * B[ib:ie, j:j+C], vectors
// along the output column (contiguous in a row of A).
template <class V, int H, int C>
LIMA_KERNEL void TgemmStripTile(const double* a, const double* b, double* out,
                                int64_t ib, int64_t ie, int64_t p, int64_t j,
                                int64_t k, int64_t n) {
  constexpr int64_t W = kLanes<V>;
  V acc[H][C];
  for (int h = 0; h < H; ++h) {
    for (int c = 0; c < C; ++c) {
      Gather(acc[h][c], out + (p + h * W) * n + j + c, n);
    }
  }
  for (int64_t i = ib; i < ie; ++i) {
    double bv[C];
    for (int c = 0; c < C; ++c) bv[c] = b[i * n + j + c];
    for (int h = 0; h < H; ++h) {
      V av;
      Load(av, a + i * k + p + h * W);
      for (int c = 0; c < C; ++c) acc[h][c] += av * bv[c];
    }
  }
  for (int h = 0; h < H; ++h) {
    for (int c = 0; c < C; ++c) {
      Scatter(out + (p + h * W) * n + j + c, n, acc[h][c]);
    }
  }
}

// Columns [j, j+C) of out, all k output rows, over input rows [ib, ie).
template <class V, int C>
LIMA_KERNEL void TgemmStrip(const double* a, const double* b, double* out,
                            int64_t ib, int64_t ie, int64_t j, int64_t k,
                            int64_t n) {
  constexpr int64_t W = kLanes<V>;
  constexpr int H = StripVectors(C);
  int64_t p = 0;
  for (; p + H * W <= k; p += H * W) {
    TgemmStripTile<V, H, C>(a, b, out, ib, ie, p, j, k, n);
  }
  // The fewer than H whole vectors left share one tile, so their
  // accumulator chains still overlap.
  switch ((k - p) / W) {
    case 0: break;
    case 1: TgemmStripTile<V, 1, C>(a, b, out, ib, ie, p, j, k, n); break;
    case 2: TgemmStripTile<V, 2, C>(a, b, out, ib, ie, p, j, k, n); break;
    default: TgemmStripTile<V, 3, C>(a, b, out, ib, ie, p, j, k, n); break;
  }
  p += (k - p) / W * W;
  for (; p < k; ++p) {
    for (int c = 0; c < C; ++c) {
      double s = out[p * n + j + c];
      for (int64_t i = ib; i < ie; ++i) s += a[i * k + p] * b[i * n + j + c];
      out[p * n + j + c] = s;
    }
  }
}

// Columns [0, je) of output rows [p, p+MR); je is a multiple of W.
template <class V, int MR>
LIMA_KERNEL void TgemmRowBlock(const double* a, const double* b, double* out,
                               int64_t ib, int64_t ie, int64_t p, int64_t je,
                               int64_t k, int64_t n, bool upper) {
  constexpr int64_t W = kLanes<V>;
  int64_t j = 0;
  for (; j + 2 * W <= je; j += 2 * W) {
    if (!upper || j + 2 * W > p) {
      TgemmTile<V, MR, 2>(a, b, out, ib, ie, p, j, k, n);
    }
  }
  if (j < je && (!upper || j + W > p)) {
    TgemmTile<V, MR, 1>(a, b, out, ib, ie, p, j, k, n);
  }
}

template <class V>
LIMA_KERNEL void TgemmImpl(const double* a, const double* b, double* out,
                           int64_t rb, int64_t re, int64_t k, int64_t n,
                           bool upper) {
  constexpr int64_t W = kLanes<V>;
  const int64_t tiled = n < 4 ? 0 : n - n % W;
  // Input row panels whose A and B rows stay cache resident while every
  // output tile passes over them.
  const int64_t panel = std::clamp<int64_t>(
      kPanelDoubles / 2 / std::max<int64_t>(k + n, 1), 16, 4096);
  for (int64_t ib = rb; ib < re; ib += panel) {
    const int64_t ie = std::min(re, ib + panel);
    int64_t p = 0;
    for (; p + kTileRows <= k; p += kTileRows) {
      TgemmRowBlock<V, kTileRows>(a, b, out, ib, ie, p, tiled, k, n, upper);
    }
    for (; p < k; ++p) {
      TgemmRowBlock<V, 1>(a, b, out, ib, ie, p, tiled, k, n, upper);
    }
    switch (n - tiled) {
      case 0: break;
      case 1: TgemmStrip<V, 1>(a, b, out, ib, ie, tiled, k, n); break;
      case 2: TgemmStrip<V, 2>(a, b, out, ib, ie, tiled, k, n); break;
      default: TgemmStrip<V, 3>(a, b, out, ib, ie, tiled, k, n); break;
    }
  }
}

#undef LIMA_KERNEL

void GemmBaseline(const double* a, const double* b, double* out, int64_t rb,
                  int64_t re, int64_t k, int64_t n, bool upper) {
  GemmImpl<Vec2>(a, b, out, rb, re, k, n, upper);
}

void TgemmBaseline(const double* a, const double* b, double* out, int64_t rb,
                   int64_t re, int64_t k, int64_t n, bool upper) {
  TgemmImpl<Vec2>(a, b, out, rb, re, k, n, upper);
}

constexpr Kernels kBaselineKernels{&GemmBaseline, &TgemmBaseline,
                                   kGemmStripVectors * kLanes<Vec2>};

#if defined(__x86_64__)
__attribute__((target("avx2"))) void GemmAvx2(const double* a, const double* b,
                                              double* out, int64_t rb,
                                              int64_t re, int64_t k, int64_t n,
                                              bool upper) {
  GemmImpl<Vec4>(a, b, out, rb, re, k, n, upper);
}

__attribute__((target("avx2"))) void TgemmAvx2(const double* a,
                                               const double* b, double* out,
                                               int64_t rb, int64_t re,
                                               int64_t k, int64_t n,
                                               bool upper) {
  TgemmImpl<Vec4>(a, b, out, rb, re, k, n, upper);
}

constexpr Kernels kAvx2Kernels{&GemmAvx2, &TgemmAvx2,
                               kGemmStripVectors * kLanes<Vec4>};
#endif

/// Rows per chunk when `rows` output rows are split into about `chunks`
/// chunks, rounded up to whole gemm row blocks (at least one).
int64_t BlockedRowsPerChunk(int64_t rows, int chunks, int64_t block) {
  int64_t per = std::max<int64_t>(1, (rows + chunks - 1) / chunks);
  return (per + block - 1) / block * block;
}

/// Chunk count for the partial-accumulator reductions below. Beyond the
/// cost-model plan, two extra caps: the fan-out itself (each chunk owns a
/// private copy of the whole output) and the total partial-buffer footprint.
/// Like every decomposition in this file it depends only on problem sizes,
/// so the chunk→accumulator mapping — and therefore the floating-point
/// summation order — is fixed across budget settings.
constexpr int kMaxReductionChunks = 32;
constexpr int64_t kMaxPartialBytes = int64_t{64} << 20;

int PlanReductionChunks(double flops, double bytes, int64_t rows,
                        int64_t out_cells) {
  int chunks = PlanParallelChunks(flops, bytes, kMaxReductionChunks);
  chunks = static_cast<int>(std::min<int64_t>(chunks, rows));
  int64_t by_mem = kMaxPartialBytes / std::max<int64_t>(1, out_cells * 8);
  return static_cast<int>(std::max<int64_t>(
      1, std::min<int64_t>(chunks, by_mem)));
}

/// out[i] = sum over partials (ascending) of partials[c][i], for the
/// `cells`-sized dense buffers. Cell ranges can run in parallel; each cell
/// sums chunk 0 first, so the order matches the sequential reduce exactly.
void ReducePartials(const std::vector<Matrix>& partials, double* out,
                    int64_t cells, const ParallelContext* par) {
  int64_t num = static_cast<int64_t>(partials.size());
  int reduce_chunks = PlanParallelChunks(
      static_cast<double>(num) * static_cast<double>(cells),
      8.0 * static_cast<double>(num + 1) * static_cast<double>(cells));
  reduce_chunks = static_cast<int>(std::min<int64_t>(reduce_chunks, cells));
  int64_t per = (cells + reduce_chunks - 1) / reduce_chunks;
  RunChunks(par, reduce_chunks, [&](int64_t r) {
    int64_t cb = r * per;
    int64_t ce = std::min(cells, cb + per);
    for (const Matrix& part : partials) {
      const double* pp = part.data();
      for (int64_t i = cb; i < ce; ++i) out[i] += pp[i];
    }
  });
}

}  // namespace

namespace matmul_internal {

const Kernels& BaselineKernels() { return kBaselineKernels; }

const Kernels* Avx2Kernels() {
#if defined(__x86_64__)
  if (__builtin_cpu_supports("avx2")) return &kAvx2Kernels;
#endif
  return nullptr;
}

const Kernels& ActiveKernels() {
  static const Kernels* const active = [] {
    const Kernels* avx2 = Avx2Kernels();
    return avx2 != nullptr ? avx2 : &kBaselineKernels;
  }();
  return *active;
}

}  // namespace matmul_internal

Result<Matrix> MatMul(const Matrix& a, const Matrix& b,
                      const ParallelContext* par) {
  if (a.cols() != b.rows()) {
    std::ostringstream msg;
    msg << "matmul dimension mismatch: " << a.rows() << "x" << a.cols()
        << " %*% " << b.rows() << "x" << b.cols();
    return Status::Invalid(msg.str());
  }
  int64_t m = a.rows();
  int64_t k = a.cols();
  int64_t n = b.cols();
  Matrix out(m, n);
  double* po = out.mutable_data();
  const double* pa = a.data();
  const double* pb = b.data();
  const Kernels& kernels = matmul_internal::ActiveKernels();

  // Output rows partition cleanly: every chunk computes its own rows in
  // full, so any chunk count yields identical bytes. Chunks hold whole row
  // blocks so that only the last one has tail rows.
  int chunks = PlanParallelChunks(
      2.0 * static_cast<double>(m) * static_cast<double>(k) *
          static_cast<double>(n),
      8.0 * static_cast<double>(m * k + k * n + m * n));
  chunks = static_cast<int>(std::min<int64_t>(chunks, m));
  if (chunks <= 1) {
    kernels.gemm(pa, pb, po, 0, m, k, n, /*upper=*/false);
    return out;
  }
  int64_t rows_per_chunk = BlockedRowsPerChunk(m, chunks, kernels.row_block);
  RunChunks(par, (m + rows_per_chunk - 1) / rows_per_chunk, [&](int64_t c) {
    int64_t rb = c * rows_per_chunk;
    int64_t re = std::min(m, rb + rows_per_chunk);
    kernels.gemm(pa, pb, po, rb, re, k, n, /*upper=*/false);
  });
  return out;
}

Matrix Tsmm(const Matrix& x, bool left, const ParallelContext* par) {
  const Kernels& kernels = matmul_internal::ActiveKernels();
  if (!left) {
    // X * X^T = gemm(X, t(X)) on the upper triangle: out[i][j] is
    // dot(row_i, row_j). Rows partition the output, so chunking never
    // changes the bytes; chunks outnumber threads so claim-order balances
    // the triangular row costs.
    int64_t m = x.rows();
    int64_t k = x.cols();
    Matrix out(m, m);
    Matrix xt = Transpose(x);
    int chunks = PlanParallelChunks(
        static_cast<double>(m) * static_cast<double>(m) *
            static_cast<double>(k),
        8.0 * static_cast<double>(m * k + m * m));
    int64_t rows_per_chunk = BlockedRowsPerChunk(m, chunks, kernels.row_block);
    RunChunks(par, (m + rows_per_chunk - 1) / rows_per_chunk, [&](int64_t c) {
      int64_t rb = c * rows_per_chunk;
      int64_t re = std::min(m, rb + rows_per_chunk);
      kernels.gemm(x.data(), xt.data(), out.mutable_data(), rb, re, k, m,
                   /*upper=*/true);
    });
    for (int64_t i = 0; i < m; ++i) {
      for (int64_t j = 0; j < i; ++j) out.At(i, j) = out.At(j, i);
    }
    return out;
  }

  // X^T * X = t(X) %*% X on the upper triangle, accumulated over the rows
  // of X.
  int64_t m = x.rows();
  int64_t n = x.cols();
  Matrix out(n, n);
  int chunks = PlanReductionChunks(
      static_cast<double>(m) * static_cast<double>(n) * static_cast<double>(n),
      8.0 * static_cast<double>(m * n + n * n), m, n * n);

  if (chunks <= 1) {
    kernels.tgemm(x.data(), x.data(), out.mutable_data(), 0, m, n, n,
                  /*upper=*/true);
  } else {
    // Each chunk accumulates a private upper triangle over a fixed row
    // slice, then the partials are reduced in chunk order — the same
    // summation grouping at every budget setting.
    int64_t rows_per_chunk = (m + chunks - 1) / chunks;
    std::vector<Matrix> partials(chunks, Matrix(n, n));
    RunChunks(par, chunks, [&](int64_t c) {
      int64_t rb = c * rows_per_chunk;
      int64_t re = std::min(m, rb + rows_per_chunk);
      kernels.tgemm(x.data(), x.data(), partials[c].mutable_data(), rb, re,
                    n, n, /*upper=*/true);
    });
    ReducePartials(partials, out.mutable_data(), n * n, par);
  }
  // Mirror upper triangle to lower.
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t j = 0; j < i; ++j) out.At(i, j) = out.At(j, i);
  }
  return out;
}

Result<Matrix> TransposeMatMul(const Matrix& a, const Matrix& b,
                               const ParallelContext* par) {
  if (a.rows() != b.rows()) {
    std::ostringstream msg;
    msg << "t(A)%*%B dimension mismatch: " << a.rows() << "x" << a.cols()
        << " vs " << b.rows() << "x" << b.cols();
    return Status::Invalid(msg.str());
  }
  int64_t m = a.rows();
  int64_t k = a.cols();
  int64_t n = b.cols();
  Matrix out(k, n);
  double* po = out.mutable_data();
  const Kernels& kernels = matmul_internal::ActiveKernels();

  // Every input row i scatters into the whole k x n output, so the rows of
  // `out` cannot be partitioned the way MatMul does; instead each chunk
  // accumulates a private k x n partial over a fixed slice of input rows
  // and the partials are reduced in chunk order (the Tsmm left-path
  // scheme).
  int chunks = PlanReductionChunks(
      2.0 * static_cast<double>(m) * static_cast<double>(k) *
          static_cast<double>(n),
      8.0 * static_cast<double>(m * k + m * n + k * n), m, k * n);
  if (chunks <= 1) {
    kernels.tgemm(a.data(), b.data(), po, 0, m, k, n, /*upper=*/false);
    return out;
  }
  int64_t rows_per_chunk = (m + chunks - 1) / chunks;
  std::vector<Matrix> partials(chunks, Matrix(k, n));
  RunChunks(par, chunks, [&](int64_t c) {
    int64_t rb = c * rows_per_chunk;
    int64_t re = std::min(m, rb + rows_per_chunk);
    kernels.tgemm(a.data(), b.data(), partials[c].mutable_data(), rb, re, k,
                  n, /*upper=*/false);
  });
  ReducePartials(partials, po, k * n, par);
  return out;
}

}  // namespace lima
