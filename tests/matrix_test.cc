#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>

#include "analysis/cost_model.h"
#include "common/parallel.h"
#include "matrix/aggregates.h"
#include "matrix/datagen.h"
#include "matrix/elementwise.h"
#include "matrix/factorize.h"
#include "matrix/indexing.h"
#include "matrix/matmul.h"
#include "matrix/matmul_kernels.h"
#include "matrix/reorg.h"
#include "matrix/sparse_matrix.h"

namespace lima {
namespace {

Matrix RandomMatrix(int64_t rows, int64_t cols, uint64_t seed) {
  return *Rand(rows, cols, -1.0, 1.0, 1.0, RandPdf::kUniform, seed);
}

// Naive reference matmul for validation.
Matrix ReferenceMatMul(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t j = 0; j < b.cols(); ++j) {
      double s = 0;
      for (int64_t k = 0; k < a.cols(); ++k) s += a.At(i, k) * b.At(k, j);
      out.At(i, j) = s;
    }
  }
  return out;
}

// Same shape and the same bytes in every cell.
bool SameBytes(const Matrix& got, const Matrix& want) {
  return got.rows() == want.rows() && got.cols() == want.cols() &&
         (got.size() == 0 ||
          std::memcmp(got.data(), want.data(), sizeof(double) * got.size()) ==
              0);
}

// SameBytes restricted to the upper triangle (column >= row) of a square
// result: the symmetric kernels compute only that part.
bool SameUpperBytes(const Matrix& got, const Matrix& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) return false;
  for (int64_t i = 0; i < got.rows(); ++i) {
    for (int64_t j = i; j < got.cols(); ++j) {
      double g = got.At(i, j);
      double w = want.At(i, j);
      if (std::memcmp(&g, &w, sizeof(double)) != 0) return false;
    }
  }
  return true;
}

// True when the cost model plans one chunk for this much work. The
// reduction kernels (t(A)B, left tsmm) then add every cell's terms in plain
// ascending order, exactly like ReferenceMatMul.
bool SingleChunk(double flops, double bytes) {
  return PlanParallelChunks(flops, bytes) <= 1;
}

TEST(MatrixTest, ConstructionAndAccess) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_EQ(m.rows(), 2);
  EXPECT_EQ(m.cols(), 3);
  EXPECT_EQ(m.size(), 6);
  EXPECT_DOUBLE_EQ(m.At(1, 2), 6);
  EXPECT_EQ(m.SizeInBytes(), 48);
}

TEST(MatrixTest, Sparsity) {
  Matrix m(2, 2, {0, 1, 0, 3});
  EXPECT_DOUBLE_EQ(m.Sparsity(), 0.5);
  EXPECT_DOUBLE_EQ(Matrix(3, 3).Sparsity(), 0.0);
}

TEST(MatrixTest, EqualsApprox) {
  Matrix a(2, 2, {1, 2, 3, 4});
  Matrix b(2, 2, {1, 2, 3, 4 + 1e-12});
  EXPECT_TRUE(a.EqualsApprox(b, 1e-9));
  EXPECT_FALSE(a.EqualsApprox(b, 1e-15));
  EXPECT_FALSE(a.EqualsApprox(Matrix(2, 3)));
}

TEST(MatrixTest, IsSymmetric) {
  Matrix s(2, 2, {1, 5, 5, 2});
  EXPECT_TRUE(s.IsSymmetric());
  Matrix n(2, 2, {1, 5, 4, 2});
  EXPECT_FALSE(n.IsSymmetric());
  EXPECT_FALSE(Matrix(2, 3).IsSymmetric());
}

// ---- Elementwise -----------------------------------------------------------

TEST(ElementwiseTest, BinaryMatrixMatrix) {
  Matrix a(2, 2, {1, 2, 3, 4});
  Matrix b(2, 2, {5, 6, 7, 8});
  EXPECT_TRUE(EwiseBinary(BinaryOp::kAdd, a, b)
                  ->EqualsApprox(Matrix(2, 2, {6, 8, 10, 12})));
  EXPECT_TRUE(EwiseBinary(BinaryOp::kMul, a, b)
                  ->EqualsApprox(Matrix(2, 2, {5, 12, 21, 32})));
  EXPECT_TRUE(EwiseBinary(BinaryOp::kSub, b, a)
                  ->EqualsApprox(Matrix(2, 2, {4, 4, 4, 4})));
}

TEST(ElementwiseTest, ComparisonsProduceZeroOne) {
  Matrix a(1, 3, {1, 2, 3});
  Matrix b(1, 3, {2, 2, 2});
  EXPECT_TRUE(EwiseBinary(BinaryOp::kLt, a, b)
                  ->EqualsApprox(Matrix(1, 3, {1, 0, 0})));
  EXPECT_TRUE(EwiseBinary(BinaryOp::kEq, a, b)
                  ->EqualsApprox(Matrix(1, 3, {0, 1, 0})));
  EXPECT_TRUE(EwiseBinary(BinaryOp::kGe, a, b)
                  ->EqualsApprox(Matrix(1, 3, {0, 1, 1})));
}

TEST(ElementwiseTest, RowVectorBroadcast) {
  Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix row(1, 3, {10, 20, 30});
  EXPECT_TRUE(EwiseBinary(BinaryOp::kAdd, a, row)
                  ->EqualsApprox(Matrix(2, 3, {11, 22, 33, 14, 25, 36})));
}

TEST(ElementwiseTest, ColVectorBroadcast) {
  Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix col(2, 1, {10, 100});
  EXPECT_TRUE(EwiseBinary(BinaryOp::kMul, a, col)
                  ->EqualsApprox(Matrix(2, 3, {10, 20, 30, 400, 500, 600})));
}

TEST(ElementwiseTest, IncompatibleShapesRejected) {
  Matrix a(2, 3);
  Matrix b(3, 2);
  EXPECT_FALSE(EwiseBinary(BinaryOp::kAdd, a, b).ok());
}

TEST(ElementwiseTest, ScalarVariants) {
  Matrix a(1, 3, {1, 2, 3});
  EXPECT_TRUE(EwiseBinaryScalar(BinaryOp::kSub, a, 1.0, false)
                  .EqualsApprox(Matrix(1, 3, {0, 1, 2})));
  EXPECT_TRUE(EwiseBinaryScalar(BinaryOp::kSub, a, 1.0, true)
                  .EqualsApprox(Matrix(1, 3, {0, -1, -2})));
  EXPECT_TRUE(EwiseBinaryScalar(BinaryOp::kPow, a, 2.0, false)
                  .EqualsApprox(Matrix(1, 3, {1, 4, 9})));
}

TEST(ElementwiseTest, UnaryOps) {
  Matrix a(1, 4, {-1.5, 0.0, 2.25, 4.0});
  EXPECT_TRUE(EwiseUnary(UnaryOp::kAbs, a)
                  .EqualsApprox(Matrix(1, 4, {1.5, 0, 2.25, 4})));
  EXPECT_TRUE(EwiseUnary(UnaryOp::kSign, a)
                  .EqualsApprox(Matrix(1, 4, {-1, 0, 1, 1})));
  EXPECT_TRUE(EwiseUnary(UnaryOp::kNeg, a)
                  .EqualsApprox(Matrix(1, 4, {1.5, 0, -2.25, -4})));
  EXPECT_TRUE(EwiseUnary(UnaryOp::kFloor, Matrix(1, 2, {1.7, -1.2}))
                  .EqualsApprox(Matrix(1, 2, {1, -2})));
  EXPECT_TRUE(EwiseUnary(UnaryOp::kCeil, Matrix(1, 2, {1.2, -1.7}))
                  .EqualsApprox(Matrix(1, 2, {2, -1})));
}

TEST(ElementwiseTest, ExpLogInverse) {
  Matrix a(1, 3, {0.5, 1.0, 2.0});
  Matrix roundtrip = EwiseUnary(UnaryOp::kLog, EwiseUnary(UnaryOp::kExp, a));
  EXPECT_TRUE(roundtrip.EqualsApprox(a, 1e-12));
}

TEST(ElementwiseTest, SigmoidRange) {
  Matrix a(1, 3, {-100, 0, 100});
  Matrix s = EwiseUnary(UnaryOp::kSigmoid, a);
  EXPECT_NEAR(s.At(0, 0), 0.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.At(0, 1), 0.5);
  EXPECT_NEAR(s.At(0, 2), 1.0, 1e-12);
}

// ---- Aggregates ------------------------------------------------------------

TEST(AggregateTest, FullAggregates) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_DOUBLE_EQ(Sum(m), 21);
  EXPECT_DOUBLE_EQ(Mean(m), 3.5);
  EXPECT_DOUBLE_EQ(MinValue(m), 1);
  EXPECT_DOUBLE_EQ(MaxValue(m), 6);
  EXPECT_DOUBLE_EQ(Trace(m), 1 + 5);
}

TEST(AggregateTest, ColumnAggregates) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(ColSums(m).EqualsApprox(Matrix(1, 3, {5, 7, 9})));
  EXPECT_TRUE(ColMeans(m).EqualsApprox(Matrix(1, 3, {2.5, 3.5, 4.5})));
  EXPECT_TRUE(ColMins(m).EqualsApprox(Matrix(1, 3, {1, 2, 3})));
  EXPECT_TRUE(ColMaxs(m).EqualsApprox(Matrix(1, 3, {4, 5, 6})));
  EXPECT_TRUE(ColVars(m).EqualsApprox(Matrix(1, 3, {4.5, 4.5, 4.5})));
}

TEST(AggregateTest, RowAggregates) {
  Matrix m(2, 3, {1, 2, 3, 6, 5, 4});
  EXPECT_TRUE(RowSums(m).EqualsApprox(Matrix(2, 1, {6, 15})));
  EXPECT_TRUE(RowMeans(m).EqualsApprox(Matrix(2, 1, {2, 5})));
  EXPECT_TRUE(RowMins(m).EqualsApprox(Matrix(2, 1, {1, 4})));
  EXPECT_TRUE(RowMaxs(m).EqualsApprox(Matrix(2, 1, {3, 6})));
}

TEST(AggregateTest, RowIndexMaxFirstTie) {
  Matrix m(2, 3, {1, 3, 3, 9, 2, 9});
  Matrix idx = RowIndexMax(m);
  EXPECT_DOUBLE_EQ(idx.At(0, 0), 2);
  EXPECT_DOUBLE_EQ(idx.At(1, 0), 1);
}

TEST(AggregateTest, ColVarsSingleRowIsZero) {
  EXPECT_TRUE(ColVars(Matrix(1, 3, {1, 2, 3}))
                  .EqualsApprox(Matrix(1, 3, {0, 0, 0})));
}

// ---- MatMul ----------------------------------------------------------------

class MatMulSizes : public ::testing::TestWithParam<std::tuple<int, int, int>> {
};

TEST_P(MatMulSizes, MatchesReference) {
  auto [m, k, n] = GetParam();
  Matrix a = RandomMatrix(m, k, 1);
  Matrix b = RandomMatrix(k, n, 2);
  Result<Matrix> fast = MatMul(a, b);
  ASSERT_TRUE(fast.ok());
  // Output rows never share a sum, so the bytes match at any chunk count.
  EXPECT_TRUE(SameBytes(*fast, ReferenceMatMul(a, b)));
}

TEST_P(MatMulSizes, TsmmMatchesTransposedProduct) {
  auto [m, k, n] = GetParam();
  (void)n;
  Matrix x = RandomMatrix(m, k, 3);
  Matrix expected = ReferenceMatMul(Transpose(x), x);
  Matrix got = Tsmm(x, true);
  EXPECT_TRUE(got.EqualsApprox(expected, 1e-9));
  if (SingleChunk(1.0 * m * k * k, 8.0 * (m * k + k * k))) {
    EXPECT_TRUE(SameBytes(got, expected));
  }
}

TEST_P(MatMulSizes, TransposeMatMulMatchesReference) {
  auto [m, k, n] = GetParam();
  Matrix a = RandomMatrix(m, k, 4);
  Matrix b = RandomMatrix(m, n, 5);
  Result<Matrix> r = TransposeMatMul(a, b);
  ASSERT_TRUE(r.ok());
  Matrix expected = ReferenceMatMul(Transpose(a), b);
  EXPECT_TRUE(r->EqualsApprox(expected, 1e-9));
  if (SingleChunk(2.0 * m * k * n, 8.0 * (m * k + m * n + k * n))) {
    EXPECT_TRUE(SameBytes(*r, expected));
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatMulSizes,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(3, 4, 5),
                                           std::make_tuple(17, 9, 23),
                                           std::make_tuple(64, 32, 16),
                                           std::make_tuple(70, 128, 5)));

TEST(MatMulTest, InnerDimensionMismatchRejected) {
  EXPECT_FALSE(MatMul(Matrix(2, 3), Matrix(4, 2)).ok());
  EXPECT_FALSE(TransposeMatMul(Matrix(2, 3), Matrix(3, 2)).ok());
}

// Every kernel's output at every parallelism budget: null (inline), 1, 2
// and 4 units. Shapes are large enough to be split into several chunks.
TEST(MatMulTest, MultithreadedMatchesSingle) {
  struct Shape {
    int64_t m, k, n;
  };
  const Shape shapes[] = {{200, 40, 30},  {2000, 60, 1},    {997, 33, 17},
                          {1500, 100, 5}, {301, 300, 299}, {4000, 40, 3}};
  ParallelBudget one(1), two(2), four(4);
  ParallelContext p1(&one), p2(&two), p4(&four);
  for (const Shape& s : shapes) {
    SCOPED_TRACE(std::to_string(s.m) + "x" + std::to_string(s.k) + "x" +
                 std::to_string(s.n));
    Matrix a = RandomMatrix(s.m, s.k, 11);
    Matrix b = RandomMatrix(s.k, s.n, 12);
    Matrix c = RandomMatrix(s.m, s.n, 13);
    Matrix mm = *MatMul(a, b);
    Matrix tmm = *TransposeMatMul(a, c);
    Matrix left = Tsmm(a, true);
    Matrix right = Tsmm(b, false);
    ASSERT_FALSE(SingleChunk(2.0 * s.m * s.k * s.n,
                             8.0 * (s.m * s.k + s.k * s.n + s.m * s.n)));
    for (const ParallelContext* par : {&p1, &p2, &p4}) {
      EXPECT_TRUE(SameBytes(*MatMul(a, b, par), mm));
      EXPECT_TRUE(SameBytes(*TransposeMatMul(a, c, par), tmm));
      EXPECT_TRUE(SameBytes(Tsmm(a, true, par), left));
      EXPECT_TRUE(SameBytes(Tsmm(b, false, par), right));
    }
  }
}

TEST(MatMulTest, TsmmRightIsGramOfRows) {
  Matrix x = RandomMatrix(6, 4, 8);
  Matrix expected = ReferenceMatMul(x, Transpose(x));
  EXPECT_TRUE(Tsmm(x, false).EqualsApprox(expected, 1e-9));
}

// IEEE propagation: 0 * Inf is NaN in a product exactly as in `*`; no
// kernel skips zero operands.
TEST(MatMulTest, ZeroTimesInfinityIsNaN) {
  const double inf = std::numeric_limits<double>::infinity();
  Matrix zeros(2, 2);
  Matrix infs(2, 2, inf);
  Matrix mm = *MatMul(zeros, infs);
  Matrix tmm = *TransposeMatMul(zeros, infs);
  for (int64_t i = 0; i < mm.size(); ++i) {
    EXPECT_TRUE(std::isnan(mm.data()[i]));
    EXPECT_TRUE(std::isnan(tmm.data()[i]));
  }
  // X = cbind(zeros, Inf): t(X) %*% X = [0 NaN; NaN Inf].
  Matrix x(3, 2, {0, inf, 0, inf, 0, inf});
  Matrix left = Tsmm(x, true);
  EXPECT_EQ(left.At(0, 0), 0.0);
  EXPECT_TRUE(std::isnan(left.At(0, 1)));
  EXPECT_TRUE(std::isnan(left.At(1, 0)));
  EXPECT_EQ(left.At(1, 1), inf);
  // X %*% t(X) on the rows of t(X): the same pattern.
  Matrix right = Tsmm(Transpose(x), false);
  EXPECT_EQ(right.At(0, 0), 0.0);
  EXPECT_TRUE(std::isnan(right.At(0, 1)));
  EXPECT_TRUE(std::isnan(right.At(1, 0)));
  EXPECT_EQ(right.At(1, 1), inf);
}

// ---- MatMul kernel instantiations ------------------------------------------

// Runs each ISA instantiation of the microkernels directly, whatever the
// dispatcher would pick on this CPU.
class MatMulKernelTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    kernels_ = GetParam() == "avx2" ? matmul_internal::Avx2Kernels()
                                    : &matmul_internal::BaselineKernels();
    if (kernels_ == nullptr) GTEST_SKIP() << "CPU lacks AVX2";
  }

  Matrix Gemm(const Matrix& a, const Matrix& b, bool upper = false) const {
    Matrix out(a.rows(), b.cols());
    kernels_->gemm(a.data(), b.data(), out.mutable_data(), 0, a.rows(),
                   a.cols(), b.cols(), upper);
    return out;
  }

  Matrix Tgemm(const Matrix& a, const Matrix& b, bool upper = false) const {
    Matrix out(a.cols(), b.cols());
    kernels_->tgemm(a.data(), b.data(), out.mutable_data(), 0, a.rows(),
                    a.cols(), b.cols(), upper);
    return out;
  }

  const matmul_internal::Kernels* kernels_ = nullptr;
};

// Every tile tail: m, k, n across vector widths, row blocks and strips,
// including empty and single-row/column operands.
TEST_P(MatMulKernelTest, ShapeSweepMatchesOrderedReference) {
  const int dims[] = {0, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 33};
  for (int m : dims) {
    for (int k : dims) {
      for (int n : dims) {
        SCOPED_TRACE(std::to_string(m) + "x" + std::to_string(k) + "x" +
                     std::to_string(n));
        Matrix a = RandomMatrix(m, k, 100 + m);
        Matrix b = RandomMatrix(k, n, 200 + n);
        Matrix c = RandomMatrix(m, n, 300 + k);
        ASSERT_TRUE(SameBytes(Gemm(a, b), ReferenceMatMul(a, b)));
        ASSERT_TRUE(
            SameBytes(Tgemm(a, c), ReferenceMatMul(Transpose(a), c)));
      }
      Matrix x = RandomMatrix(m, k, 400 + m * 40 + k);
      Matrix xt = Transpose(x);
      ASSERT_TRUE(SameUpperBytes(Tgemm(x, x, /*upper=*/true),
                                 ReferenceMatMul(xt, x)));
      ASSERT_TRUE(SameUpperBytes(Gemm(x, xt, /*upper=*/true),
                                 ReferenceMatMul(x, xt)));
    }
  }
}

// Row ranges that split a row block: gemm rows are independent, and tgemm
// accumulates onto `out`, so two ranges equal one ascending pass.
TEST_P(MatMulKernelTest, SplitRowRangesMatchOnePass) {
  for (int64_t n : {1, 3, 5, 16}) {
    Matrix a = RandomMatrix(37, 19, 500 + n);
    Matrix b = RandomMatrix(19, n, 600 + n);
    Matrix c = RandomMatrix(37, n, 700 + n);
    Matrix out(37, n);
    kernels_->gemm(a.data(), b.data(), out.mutable_data(), 0, 13, 19, n,
                   false);
    kernels_->gemm(a.data(), b.data(), out.mutable_data(), 13, 37, 19, n,
                   false);
    EXPECT_TRUE(SameBytes(out, ReferenceMatMul(a, b)));
    Matrix acc(19, n);
    kernels_->tgemm(a.data(), c.data(), acc.mutable_data(), 0, 13, 19, n,
                    false);
    kernels_->tgemm(a.data(), c.data(), acc.mutable_data(), 13, 37, 19, n,
                    false);
    EXPECT_TRUE(SameBytes(acc, ReferenceMatMul(Transpose(a), c)));
  }
}

TEST_P(MatMulKernelTest, ZeroTimesInfinityIsNaN) {
  const double inf = std::numeric_limits<double>::infinity();
  for (int64_t n : {1, 2, 5, 9}) {
    Matrix zeros(6, 6);
    Matrix infs(6, n, inf);
    Matrix mm = Gemm(zeros, infs);
    Matrix tmm = Tgemm(zeros, infs);
    for (int64_t i = 0; i < mm.size(); ++i) {
      EXPECT_TRUE(std::isnan(mm.data()[i]));
      EXPECT_TRUE(std::isnan(tmm.data()[i]));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Isa, MatMulKernelTest,
                         ::testing::Values("baseline", "avx2"),
                         [](const auto& info) { return info.param; });

// ---- Factorize -------------------------------------------------------------

TEST(SolveTest, SolvesKnownSystem) {
  Matrix a(2, 2, {2, 0, 0, 4});
  Matrix b(2, 1, {6, 8});
  EXPECT_TRUE(Solve(a, b)->EqualsApprox(Matrix(2, 1, {3, 2}), 1e-12));
}

TEST(SolveTest, MultipleRhs) {
  Matrix a = RandomMatrix(8, 8, 9);
  for (int64_t i = 0; i < 8; ++i) a.At(i, i) += 10;  // well-conditioned
  Matrix x = RandomMatrix(8, 3, 10);
  Matrix b = ReferenceMatMul(a, x);
  EXPECT_TRUE(Solve(a, b)->EqualsApprox(x, 1e-8));
}

TEST(SolveTest, RequiresPivoting) {
  Matrix a(2, 2, {0, 1, 1, 0});  // zero pivot without row exchange
  Matrix b(2, 1, {2, 3});
  EXPECT_TRUE(Solve(a, b)->EqualsApprox(Matrix(2, 1, {3, 2}), 1e-12));
}

TEST(SolveTest, SingularRejected) {
  Matrix a(2, 2, {1, 2, 2, 4});
  EXPECT_EQ(Solve(a, Matrix(2, 1)).status().code(),
            StatusCode::kRuntimeError);
}

TEST(SolveTest, NonSquareRejected) {
  EXPECT_FALSE(Solve(Matrix(2, 3), Matrix(2, 1)).ok());
  EXPECT_FALSE(Solve(Matrix(2, 2), Matrix(3, 1)).ok());
}

TEST(CholeskyTest, FactorReproducesMatrix) {
  Matrix x = RandomMatrix(20, 5, 11);
  Matrix spd = Tsmm(x, true);
  for (int64_t i = 0; i < 5; ++i) spd.At(i, i) += 1.0;
  Result<Matrix> l = Cholesky(spd);
  ASSERT_TRUE(l.ok());
  EXPECT_TRUE(ReferenceMatMul(*l, Transpose(*l)).EqualsApprox(spd, 1e-9));
  // Lower-triangular.
  for (int64_t i = 0; i < 5; ++i) {
    for (int64_t j = i + 1; j < 5; ++j) EXPECT_DOUBLE_EQ(l->At(i, j), 0.0);
  }
}

TEST(CholeskyTest, IndefiniteRejected) {
  Matrix a(2, 2, {1, 2, 2, 1});  // eigenvalues 3, -1
  EXPECT_FALSE(Cholesky(a).ok());
}

TEST(EigenTest, DiagonalMatrix) {
  Matrix a(3, 3);
  a.At(0, 0) = 1;
  a.At(1, 1) = 5;
  a.At(2, 2) = 3;
  auto result = EigenSymmetric(a);
  ASSERT_TRUE(result.ok());
  const auto& [values, vectors] = *result;
  EXPECT_TRUE(values.EqualsApprox(Matrix(3, 1, {5, 3, 1}), 1e-10));
  (void)vectors;
}

TEST(EigenTest, ReconstructsMatrixAndOrthogonal) {
  Matrix x = RandomMatrix(30, 6, 12);
  Matrix a = Tsmm(x, true);
  auto result = EigenSymmetric(a);
  ASSERT_TRUE(result.ok());
  const auto& [values, vectors] = *result;
  // A == V diag(w) V^T.
  Matrix vd(6, 6);
  for (int64_t i = 0; i < 6; ++i) {
    for (int64_t j = 0; j < 6; ++j) {
      vd.At(i, j) = vectors.At(i, j) * values.At(j, 0);
    }
  }
  EXPECT_TRUE(ReferenceMatMul(vd, Transpose(vectors)).EqualsApprox(a, 1e-7));
  // V^T V == I.
  Matrix vtv = ReferenceMatMul(Transpose(vectors), vectors);
  Matrix eye(6, 6);
  for (int64_t i = 0; i < 6; ++i) eye.At(i, i) = 1;
  EXPECT_TRUE(vtv.EqualsApprox(eye, 1e-9));
  // Descending order.
  for (int64_t i = 1; i < 6; ++i) {
    EXPECT_GE(values.At(i - 1, 0), values.At(i, 0));
  }
}

TEST(EigenTest, NonSymmetricRejected) {
  Matrix a(2, 2, {1, 2, 3, 4});
  EXPECT_FALSE(EigenSymmetric(a).ok());
}

// ---- Reorg -----------------------------------------------------------------

TEST(ReorgTest, TransposeInvolution) {
  Matrix m = RandomMatrix(7, 13, 13);
  EXPECT_TRUE(Transpose(Transpose(m)).EqualsApprox(m));
  EXPECT_DOUBLE_EQ(Transpose(m).At(5, 3), m.At(3, 5));
}

TEST(ReorgTest, DiagBothDirections) {
  Matrix v(3, 1, {1, 2, 3});
  Matrix d = *Diag(v);
  EXPECT_EQ(d.rows(), 3);
  EXPECT_DOUBLE_EQ(d.At(1, 1), 2);
  EXPECT_DOUBLE_EQ(d.At(0, 1), 0);
  EXPECT_TRUE(Diag(d)->EqualsApprox(v));
  EXPECT_FALSE(Diag(Matrix(2, 3)).ok());
}

TEST(ReorgTest, CBindRBind) {
  Matrix a(2, 1, {1, 2});
  Matrix b(2, 2, {3, 4, 5, 6});
  EXPECT_TRUE(CBind(a, b)->EqualsApprox(Matrix(2, 3, {1, 3, 4, 2, 5, 6})));
  Matrix c(1, 1, {9});
  EXPECT_TRUE(RBind(a, Matrix(1, 1, {9}))
                  ->EqualsApprox(Matrix(3, 1, {1, 2, 9})));
  EXPECT_FALSE(CBind(Matrix(2, 1), Matrix(3, 1)).ok());
  EXPECT_FALSE(RBind(Matrix(2, 2), Matrix(2, 3)).ok());
}

TEST(ReorgTest, ReshapeRowMajor) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  EXPECT_TRUE(Reshape(m, 3, 2)->EqualsApprox(Matrix(3, 2, {1, 2, 3, 4, 5, 6})));
  EXPECT_FALSE(Reshape(m, 4, 2).ok());
}

TEST(ReorgTest, OrderValuesAndIndices) {
  Matrix v(4, 1, {3, 1, 4, 1});
  EXPECT_TRUE(Order(v, false, false)->EqualsApprox(Matrix(4, 1, {1, 1, 3, 4})));
  // Stable: the first 1 (index 2) precedes the second (index 4).
  EXPECT_TRUE(Order(v, false, true)->EqualsApprox(Matrix(4, 1, {2, 4, 1, 3})));
  EXPECT_TRUE(Order(v, true, false)->EqualsApprox(Matrix(4, 1, {4, 3, 1, 1})));
  EXPECT_FALSE(Order(Matrix(2, 2), false, false).ok());
}

TEST(ReorgTest, TableContingency) {
  Matrix v1(4, 1, {1, 2, 2, 3});
  Matrix v2(4, 1, {2, 1, 1, 3});
  Matrix t = *Table(v1, v2);
  EXPECT_EQ(t.rows(), 3);
  EXPECT_EQ(t.cols(), 3);
  EXPECT_DOUBLE_EQ(t.At(0, 1), 1);
  EXPECT_DOUBLE_EQ(t.At(1, 0), 2);
  EXPECT_DOUBLE_EQ(t.At(2, 2), 1);
  EXPECT_DOUBLE_EQ(Sum(t), 4);
}

TEST(ReorgTest, TableWithExplicitDims) {
  Matrix v1(1, 1, {1});
  Matrix v2(1, 1, {1});
  Matrix t = *Table(v1, v2, 5, 7);
  EXPECT_EQ(t.rows(), 5);
  EXPECT_EQ(t.cols(), 7);
  EXPECT_FALSE(Table(Matrix(1, 1, {0.5}), v2).ok());
  EXPECT_FALSE(Table(Matrix(2, 1), Matrix(3, 1)).ok());
}

TEST(ReorgTest, ReverseRows) {
  Matrix m(3, 1, {1, 2, 3});
  EXPECT_TRUE(ReverseRows(m).EqualsApprox(Matrix(3, 1, {3, 2, 1})));
}

// ---- Indexing --------------------------------------------------------------

TEST(IndexingTest, RightIndexSlices) {
  Matrix m(3, 3, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  EXPECT_TRUE(RightIndex(m, 2, 3, 1, 2)
                  ->EqualsApprox(Matrix(2, 2, {4, 5, 7, 8})));
  EXPECT_TRUE(RightIndex(m, 1, 1, 1, 3)->EqualsApprox(Matrix(1, 3, {1, 2, 3})));
  EXPECT_FALSE(RightIndex(m, 0, 1, 1, 1).ok());
  EXPECT_FALSE(RightIndex(m, 1, 4, 1, 1).ok());
  EXPECT_FALSE(RightIndex(m, 2, 1, 1, 1).ok());
}

TEST(IndexingTest, LeftIndexProducesNewMatrix) {
  Matrix m(3, 3);
  Matrix src(2, 2, {1, 2, 3, 4});
  Matrix out = *LeftIndex(m, src, 1, 2, 2, 3);
  EXPECT_DOUBLE_EQ(out.At(0, 1), 1);
  EXPECT_DOUBLE_EQ(out.At(1, 2), 4);
  EXPECT_DOUBLE_EQ(m.At(0, 1), 0);  // original untouched
  EXPECT_FALSE(LeftIndex(m, src, 1, 3, 1, 2).ok());  // shape mismatch
}

TEST(IndexingTest, SelectColumnsAndRows) {
  Matrix m(2, 3, {1, 2, 3, 4, 5, 6});
  Matrix idx(2, 1, {3, 1});
  EXPECT_TRUE(SelectColumns(m, idx)->EqualsApprox(Matrix(2, 2, {3, 1, 6, 4})));
  Matrix ridx(1, 1, {2});
  EXPECT_TRUE(SelectRows(m, ridx)->EqualsApprox(Matrix(1, 3, {4, 5, 6})));
  EXPECT_FALSE(SelectColumns(m, Matrix(1, 1, {4})).ok());
  EXPECT_FALSE(SelectRows(m, Matrix(1, 1, {0})).ok());
}

// ---- Datagen ---------------------------------------------------------------

TEST(DatagenTest, RandDeterministicPerSeed) {
  Matrix a = *Rand(10, 10, 0, 1, 1.0, RandPdf::kUniform, 42);
  Matrix b = *Rand(10, 10, 0, 1, 1.0, RandPdf::kUniform, 42);
  Matrix c = *Rand(10, 10, 0, 1, 1.0, RandPdf::kUniform, 43);
  EXPECT_TRUE(a.EqualsApprox(b));
  EXPECT_FALSE(a.EqualsApprox(c));
}

TEST(DatagenTest, RandRespectsRange) {
  Matrix m = *Rand(50, 50, 2, 5, 1.0, RandPdf::kUniform, 1);
  EXPECT_GE(MinValue(m), 2.0);
  EXPECT_LT(MaxValue(m), 5.0);
}

TEST(DatagenTest, RandSparsityApproximate) {
  Matrix m = *Rand(100, 100, 1, 2, 0.3, RandPdf::kUniform, 2);
  EXPECT_NEAR(m.Sparsity(), 0.3, 0.03);
}

TEST(DatagenTest, RandNormalMoments) {
  Matrix m = *Rand(200, 200, 0, 0, 1.0, RandPdf::kNormal, 3);
  EXPECT_NEAR(Mean(m), 0.0, 0.02);
  double var = 0;
  for (int64_t i = 0; i < m.size(); ++i) var += m.data()[i] * m.data()[i];
  EXPECT_NEAR(var / m.size(), 1.0, 0.03);
}

TEST(DatagenTest, RandValidation) {
  EXPECT_FALSE(Rand(-1, 2, 0, 1, 1, RandPdf::kUniform, 1).ok());
  EXPECT_FALSE(Rand(2, 2, 0, 1, 1.5, RandPdf::kUniform, 1).ok());
}

TEST(DatagenTest, SampleDistinctInRange) {
  Matrix s = *Sample(50, 20, 7);
  EXPECT_EQ(s.rows(), 20);
  std::set<double> values(s.data(), s.data() + s.size());
  EXPECT_EQ(values.size(), 20u);
  EXPECT_GE(*values.begin(), 1.0);
  EXPECT_LE(*values.rbegin(), 50.0);
  EXPECT_FALSE(Sample(5, 10, 1).ok());
}

TEST(DatagenTest, SeqVariants) {
  EXPECT_TRUE(SeqMatrix(1, 5, 1)->EqualsApprox(Matrix(5, 1, {1, 2, 3, 4, 5})));
  EXPECT_TRUE(SeqMatrix(5, 1, -2)->EqualsApprox(Matrix(3, 1, {5, 3, 1})));
  EXPECT_TRUE(SeqMatrix(0, 1, 0.25)->EqualsApprox(
      Matrix(5, 1, {0, 0.25, 0.5, 0.75, 1})));
  EXPECT_FALSE(SeqMatrix(1, 5, 0).ok());
  EXPECT_FALSE(SeqMatrix(5, 1, 1).ok());
}

// ---- Sparse ----------------------------------------------------------------

TEST(SparseTest, FromDenseRoundTrip) {
  Matrix dense(3, 4, {1, 0, 2, 0, 0, 0, 0, 3, 4, 0, 0, 5});
  SparseMatrix sparse = SparseMatrix::FromDense(dense);
  EXPECT_EQ(sparse.nnz(), 5);
  EXPECT_TRUE(sparse.ToDense().EqualsApprox(dense));
}

TEST(SparseTest, FromTripletsMergesDuplicates) {
  auto sparse = SparseMatrix::FromTriplets(2, 2, {{0, 0, 1.0}, {0, 0, 2.0},
                                                  {1, 1, 5.0}});
  ASSERT_TRUE(sparse.ok());
  EXPECT_EQ(sparse->nnz(), 2);
  EXPECT_DOUBLE_EQ(sparse->ToDense().At(0, 0), 3.0);
  EXPECT_FALSE(SparseMatrix::FromTriplets(2, 2, {{2, 0, 1.0}}).ok());
}

TEST(SparseTest, SpMVMatchesDense) {
  Matrix dense = RandomMatrix(20, 15, 14);
  for (int64_t i = 0; i < dense.size(); ++i) {
    if (std::fabs(dense.mutable_data()[i]) < 0.7) dense.mutable_data()[i] = 0;
  }
  SparseMatrix sparse = SparseMatrix::FromDense(dense);
  Matrix x = RandomMatrix(15, 1, 15);
  EXPECT_TRUE(sparse.SpMV(x)->EqualsApprox(ReferenceMatMul(dense, x), 1e-10));
  EXPECT_FALSE(sparse.SpMV(Matrix(14, 1)).ok());
}

TEST(SparseTest, SpMMMatchesDense) {
  Matrix dense = RandomMatrix(10, 12, 16);
  for (int64_t i = 0; i < dense.size(); ++i) {
    if (std::fabs(dense.mutable_data()[i]) < 0.5) dense.mutable_data()[i] = 0;
  }
  SparseMatrix sparse = SparseMatrix::FromDense(dense);
  Matrix b = RandomMatrix(12, 6, 17);
  EXPECT_TRUE(sparse.SpMM(b)->EqualsApprox(ReferenceMatMul(dense, b), 1e-10));
}

}  // namespace
}  // namespace lima
