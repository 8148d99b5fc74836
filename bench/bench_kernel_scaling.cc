// Thread-scaling curves for the unified parallel execution layer
// (src/common/parallel.h): GEMM, TSMM and elementwise chains under budget
// capacities 1/2/4/8, a parfor gridsearch sharing the same budget, and the
// persistent-pool ParallelFor against a transient-thread baseline (the
// pre-refactor implementation, reproduced locally) on small-kernel repeat
// loops. Results are recorded in bench/BENCH_kernel_scaling.json.
//
// Every parallel variant is also checked byte-identical against the
// sequential (null ParallelContext) execution at fixture setup — the
// determinism contract of the layer, not a statistical tolerance.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <functional>
#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "lang/session.h"
#include "matrix/datagen.h"
#include "matrix/elementwise.h"
#include "matrix/matmul.h"
#include "matrix/matmul_kernels.h"

namespace lima {
namespace {

struct ScalingFixture {
  Matrix a = Matrix(0, 0);
  Matrix b = Matrix(0, 0);
  Matrix small = Matrix(0, 0);
};

ScalingFixture* Fixture() {
  static ScalingFixture* f = [] {
    auto* fx = new ScalingFixture;
    fx->a = *Rand(512, 512, -1.0, 1.0, 1.0, RandPdf::kUniform, 21);
    fx->b = *Rand(512, 512, -1.0, 1.0, 1.0, RandPdf::kUniform, 22);
    fx->small = *Rand(64, 64, -1.0, 1.0, 1.0, RandPdf::kUniform, 23);
    // Determinism gate: parallel bytes must equal sequential bytes.
    ParallelBudget budget(8);
    ParallelContext par(&budget);
    Matrix seq = *MatMul(fx->a, fx->b);
    Matrix wide = *MatMul(fx->a, fx->b, &par);
    if (std::memcmp(seq.data(), wide.data(),
                    sizeof(double) * seq.size()) != 0) {
      std::abort();  // budget changed result bytes: contract violation
    }
    return fx;
  }();
  return f;
}

/// 512x512x512 GEMM under a budget of range(0) units.
void KernelScalingGemm(benchmark::State& state) {
  ScalingFixture* f = Fixture();
  ParallelBudget budget(static_cast<int>(state.range(0)));
  ParallelContext par(&budget);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MatMul(f->a, f->b, &par)->data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(KernelScalingGemm)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// t(X) %*% X (left TSMM, chunked reduction) under a shared budget.
void KernelScalingTsmm(benchmark::State& state) {
  ScalingFixture* f = Fixture();
  ParallelBudget budget(static_cast<int>(state.range(0)));
  ParallelContext par(&budget);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Tsmm(f->a, /*left=*/true, &par).data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(KernelScalingTsmm)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Elementwise chain (mul, add, scalar-mul) over 512x512 operands.
void KernelScalingEwiseChain(benchmark::State& state) {
  ScalingFixture* f = Fixture();
  ParallelBudget budget(static_cast<int>(state.range(0)));
  ParallelContext par(&budget);
  for (auto _ : state) {
    Matrix t = *EwiseBinary(BinaryOp::kMul, f->a, f->b, &par);
    Matrix u = *EwiseBinary(BinaryOp::kAdd, t, f->a, &par);
    benchmark::DoNotOptimize(
        EwiseBinaryScalar(BinaryOp::kMul, u, 0.5, false, &par).data());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(KernelScalingEwiseChain)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Parfor gridsearch whose workers and their kernels share one budget of
/// range(0) units (the tentpole scenario: task- and intra-op parallelism
/// arbitrated together instead of workers pinned to one thread each).
void KernelScalingParforGridsearch(benchmark::State& state) {
  const char* script = R"(
    X = rand(rows=256, cols=64, min=-1, max=1, seed=5);
    y = rand(rows=256, cols=1, min=-1, max=1, seed=6);
    best = 999999999;
    parfor (i in 1:8) {
      lambda = 0.001 * i;
      A = t(X) %*% X + diag(matrix(lambda, 64, 1));
      w = solve(A, t(X) %*% y);
      r = y - X %*% w;
      err = sum(r * r);
    }
  )";
  LimaConfig config = LimaConfig::TracingOnly();
  config.max_parallelism = static_cast<int>(state.range(0));
  config.parfor_workers = 4;
  for (auto _ : state) {
    LimaSession session(config);
    Status status = session.Run(script);
    if (!status.ok()) state.SkipWithError(status.ToString().c_str());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(KernelScalingParforGridsearch)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

/// Row-range GEMM used by the small-kernel loops below: the row-range
/// kernel behind MatMul.
void GemmRowRange(const Matrix& a, const Matrix& b, Matrix* out,
                  int64_t row_begin, int64_t row_end) {
  matmul_internal::ActiveKernels().gemm(a.data(), b.data(),
                                        out->mutable_data(), row_begin,
                                        row_end, a.cols(), b.cols(),
                                        /*upper=*/false);
}

/// The pre-refactor ParallelFor: spawn num_threads-1 transient std::threads
/// per call, join them before returning. Reproduced here as the baseline
/// the persistent pool is measured against.
void TransientParallelFor(int64_t n, int num_threads,
                          const std::function<void(int64_t)>& fn) {
  if (n <= 1 || num_threads <= 1) {
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }
  int64_t chunk = (n + num_threads - 1) / num_threads;
  std::vector<std::thread> threads;
  for (int t = 1; t < num_threads; ++t) {
    int64_t begin = t * chunk;
    int64_t end = begin + chunk < n ? begin + chunk : n;
    if (begin >= end) break;
    threads.emplace_back([&fn, begin, end] {
      for (int64_t i = begin; i < end; ++i) fn(i);
    });
  }
  int64_t end0 = chunk < n ? chunk : n;
  for (int64_t i = 0; i < end0; ++i) fn(i);
  for (std::thread& t : threads) t.join();
}

/// Small-kernel repeat loop, transient-thread baseline: a 64x64 GEMM split
/// over 4 threads, 32 calls per iteration — thread create/join dominates.
void SmallKernelRepeatTransient(benchmark::State& state) {
  ScalingFixture* f = Fixture();
  const int64_t rows = f->small.rows();
  for (auto _ : state) {
    for (int call = 0; call < 32; ++call) {
      Matrix out(rows, f->small.cols());
      TransientParallelFor(4, 4, [&](int64_t q) {
        int64_t begin = q * rows / 4;
        int64_t end = (q + 1) * rows / 4;
        GemmRowRange(f->small, f->small, &out, begin, end);
      });
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(SmallKernelRepeatTransient)->Unit(benchmark::kMicrosecond);

/// Same loop on the shared persistent pool (PooledRun with width 4).
void SmallKernelRepeatPooled(benchmark::State& state) {
  ScalingFixture* f = Fixture();
  ParallelBudget budget(4);  // grows the global pool to 3 threads
  const int64_t rows = f->small.rows();
  for (auto _ : state) {
    for (int call = 0; call < 32; ++call) {
      Matrix out(rows, f->small.cols());
      PooledRun(4, 4, [&](int64_t q) {
        int64_t begin = q * rows / 4;
        int64_t end = (q + 1) * rows / 4;
        GemmRowRange(f->small, f->small, &out, begin, end);
      });
      benchmark::DoNotOptimize(out.data());
    }
  }
  state.SetItemsProcessed(state.iterations() * 32);
}
BENCHMARK(SmallKernelRepeatPooled)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace lima

BENCHMARK_MAIN();
