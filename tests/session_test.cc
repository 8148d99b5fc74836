#include "lang/session.h"

#include <gtest/gtest.h>

#include <cmath>
#include <regex>
#include <thread>
#include <unordered_map>

#include "analysis/redundancy.h"
#include "lang/compiler.h"
#include "matrix/datagen.h"

namespace lima {
namespace {

TEST(SessionTest, ScalarArithmetic) {
  LimaSession session(LimaConfig::Base());
  ASSERT_TRUE(session.Run("x = 1 + 2 * 3; y = x ^ 2;").ok());
  EXPECT_DOUBLE_EQ(*session.GetDouble("x"), 7.0);
  EXPECT_DOUBLE_EQ(*session.GetDouble("y"), 49.0);
}

TEST(SessionTest, MatrixOps) {
  LimaSession session(LimaConfig::Base());
  Status status = session.Run(R"(
    X = matrix(2, 3, 4);
    s = sum(X);
    Y = X * 3 + 1;
    sy = sum(Y);
  )");
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_DOUBLE_EQ(*session.GetDouble("s"), 24.0);
  EXPECT_DOUBLE_EQ(*session.GetDouble("sy"), 84.0);
}

TEST(SessionTest, MatMulAndTsmm) {
  LimaSession session(LimaConfig::Base());
  Status status = session.Run(R"(
    X = rand(rows=20, cols=5, seed=42);
    A = t(X) %*% X;
    tr = sum(A);
  )");
  ASSERT_TRUE(status.ok()) << status.ToString();
  MatrixPtr a = *session.GetMatrix("A");
  EXPECT_EQ(a->rows(), 5);
  EXPECT_EQ(a->cols(), 5);
  EXPECT_TRUE(a->IsSymmetric(1e-9));
}

// Matrix products follow IEEE propagation like the cellwise operators:
// 0 * Inf is NaN whether it occurs in `*`, `%*%` or a tsmm, under Base and
// under reuse.
TEST(SessionTest, MatMulPropagatesNaNLikeCellwise) {
  for (const LimaConfig& config : {LimaConfig::Base(), LimaConfig::Lima()}) {
    LimaSession session(config);
    Status status = session.Run(R"(
      A = matrix(0, rows=2, cols=2);
      B = matrix(1, rows=2, cols=2) / 0;
      mm = sum(A %*% B);
      ew = sum(A * B);
      X = cbind(matrix(0, rows=3, cols=1), matrix(1, rows=3, cols=1) / 0);
      G = t(X) %*% X;
      Y = t(X);
      R = Y %*% t(Y);
    )");
    ASSERT_TRUE(status.ok()) << status.ToString();
    EXPECT_TRUE(std::isnan(*session.GetDouble("mm")));
    EXPECT_TRUE(std::isnan(*session.GetDouble("ew")));
    // Both products are [0 NaN; NaN Inf].
    for (const char* name : {"G", "R"}) {
      MatrixPtr g = *session.GetMatrix(name);
      EXPECT_EQ(g->At(0, 0), 0.0) << name;
      EXPECT_TRUE(std::isnan(g->At(0, 1))) << name;
      EXPECT_TRUE(std::isnan(g->At(1, 0))) << name;
      EXPECT_TRUE(std::isinf(g->At(1, 1))) << name;
    }
  }
}

TEST(SessionTest, ControlFlow) {
  LimaSession session(LimaConfig::Base());
  Status status = session.Run(R"(
    s = 0;
    for (i in 1:10) {
      if (i <= 5) { s = s + i; } else { s = s + 1; }
    }
    k = 0;
    while (k < 7) { k = k + 2; }
  )");
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_DOUBLE_EQ(*session.GetDouble("s"), 20.0);
  EXPECT_DOUBLE_EQ(*session.GetDouble("k"), 8.0);
}

TEST(SessionTest, FunctionsAndMultiReturn) {
  LimaSession session(LimaConfig::Base());
  Status status = session.Run(R"(
    stats = function(Matrix X) return (Double s, Double m) {
      s = sum(X);
      m = mean(X);
    }
    X = matrix(3, 2, 2);
    [a, b] = stats(X);
  )");
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_DOUBLE_EQ(*session.GetDouble("a"), 12.0);
  EXPECT_DOUBLE_EQ(*session.GetDouble("b"), 3.0);
}

TEST(SessionTest, IndexingAndLeftIndex) {
  LimaSession session(LimaConfig::Base());
  Status status = session.Run(R"(
    X = matrix(0, 4, 4);
    X[2:3, 2:3] = matrix(5, 2, 2);
    s = sum(X);
    Y = X[2, ];
    sy = sum(Y);
    c = X[, 2];
    sc = sum(c);
  )");
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_DOUBLE_EQ(*session.GetDouble("s"), 20.0);
  EXPECT_DOUBLE_EQ(*session.GetDouble("sy"), 10.0);
  EXPECT_DOUBLE_EQ(*session.GetDouble("sc"), 10.0);
}

TEST(SessionTest, PrintAndStringConcat) {
  LimaSession session(LimaConfig::Base());
  ASSERT_TRUE(session.Run(R"(print("value: " + 3.5);)").ok());
  EXPECT_EQ(session.ConsumeOutput(), "value: 3.5\n");
}

TEST(SessionTest, SolveRecoversCoefficients) {
  LimaSession session(LimaConfig::Base());
  Status status = session.Run(R"(
    X = rand(rows=100, cols=3, min=-1, max=1, seed=7);
    bTrue = matrix(2, 3, 1);
    y = X %*% bTrue;
    A = t(X) %*% X;
    b = t(X) %*% y;
    beta = solve(A, b);
    err = sum(abs(beta - bTrue));
  )");
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_LT(*session.GetDouble("err"), 1e-8);
}

TEST(SessionTest, ParforComputesDisjointColumns) {
  LimaConfig config = LimaConfig::Base();
  config.parfor_workers = 4;
  LimaSession session(config);
  Status status = session.Run(R"(
    B = matrix(0, 3, 8);
    parfor (i in 1:8) {
      B[, i] = matrix(i, 3, 1);
    }
    s = sum(B);
  )");
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_DOUBLE_EQ(*session.GetDouble("s"), 3 * 36.0);
}

TEST(SessionTest, ListsAndEval) {
  LimaSession session(LimaConfig::Base());
  Status status = session.Run(R"(
    addm = function(Matrix A, Matrix B) return (Matrix C) {
      C = A + B;
    }
    l = list(matrix(1, 2, 2), matrix(2, 2, 2));
    C = eval("addm", l);
    s = sum(C);
  )");
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_DOUBLE_EQ(*session.GetDouble("s"), 12.0);
}

TEST(SessionTest, ReuseMatchesBaseResults) {
  // Property: identical script, identical results with and without reuse.
  const char* script = R"(
    X = rand(rows=50, cols=8, seed=11);
    y = rand(rows=50, cols=1, seed=12);
    acc = 0;
    for (i in 1:5) {
      A = t(X) %*% X;
      b = t(X) %*% y;
      beta = solve(A + diag(matrix(i * 0.1, 8, 1)), b);
      acc = acc + sum(abs(beta));
    }
  )";
  LimaSession base(LimaConfig::Base());
  ASSERT_TRUE(base.Run(script).ok());
  LimaSession lima(LimaConfig::Lima());
  ASSERT_TRUE(lima.Run(script).ok());
  EXPECT_NEAR(*base.GetDouble("acc"), *lima.GetDouble("acc"), 1e-9);
  // The invariant parts (t(X)%*%X, t(X)%*%y) must have been reused.
  EXPECT_GT(lima.stats()->cache_hits.load(), 0);
}

TEST(SessionTest, BoundInputsAreTraced) {
  LimaSession session(LimaConfig::Lima());
  session.BindMatrix("X", Matrix(3, 3, 1.0));
  ASSERT_TRUE(session.Run("s = sum(X %*% X);").ok());
  EXPECT_DOUBLE_EQ(*session.GetDouble("s"), 27.0);
  ASSERT_NE(session.GetLineageItem("s"), nullptr);
  EXPECT_EQ(session.GetLineageItem("s")->opcode(), "sum");
}

TEST(SessionTest, RebindingInputsInvalidatesReuse) {
  // Re-binding a different matrix under the same name must not alias in the
  // reuse cache (the session-API analogue of the paper's immutable-files
  // assumption, enforced via content fingerprints).
  LimaSession session(LimaConfig::Lima());
  session.BindMatrix("X", Matrix(4, 4, 1.0));
  ASSERT_TRUE(session.Run("s = sum(t(X) %*% X);").ok());
  double first = *session.GetDouble("s");
  session.BindMatrix("X", Matrix(4, 4, 2.0));
  ASSERT_TRUE(session.Run("s = sum(t(X) %*% X);").ok());
  double second = *session.GetDouble("s");
  EXPECT_DOUBLE_EQ(first, 4.0 * 4.0 * 4.0);
  EXPECT_DOUBLE_EQ(second, 4.0 * 4.0 * 16.0);  // not the stale cached value
  // And binding the identical content again DOES reuse.
  session.BindMatrix("X", Matrix(4, 4, 2.0));
  int64_t hits_before = session.stats()->cache_hits.load();
  ASSERT_TRUE(session.Run("s = sum(t(X) %*% X);").ok());
  EXPECT_GT(session.stats()->cache_hits.load(), hits_before);
}

TEST(SessionTest, LineageBuiltinReturnsLog) {
  LimaSession session(LimaConfig::TracingOnly());
  Status status = session.Run(R"(
    X = rand(rows=3, cols=3, seed=5);
    s = sum(X %*% X);
    log = lineage(s);
    print(log);
  )");
  ASSERT_TRUE(status.ok()) << status.ToString();
  std::string out = session.ConsumeOutput();
  EXPECT_NE(out.find("rand"), std::string::npos);
  EXPECT_NE(out.find("mm"), std::string::npos);
  EXPECT_NE(out.find("sum"), std::string::npos);
}

TEST(SessionTest, LineageBuiltinFailsWithoutTracing) {
  LimaSession session(LimaConfig::Base());
  Status status = session.Run("x = 1 + 1; l = lineage(x);");
  EXPECT_FALSE(status.ok());
}

/// Renumbers the "(N)" item ids of a lineage log by first appearance. Ids
/// come from a process-wide counter, so equal DAGs traced at different times
/// differ only in them.
std::string RenumberIds(const std::string& log) {
  static const std::regex kId(R"(\((\d+)\))");
  std::unordered_map<std::string, size_t> ids;
  std::string out;
  size_t last = 0;
  for (auto it = std::sregex_iterator(log.begin(), log.end(), kId);
       it != std::sregex_iterator(); ++it) {
    out.append(log, last, it->position() - last);
    auto [id, inserted] = ids.emplace(it->str(1), ids.size());
    out += "(" + std::to_string(id->second) + ")";
    last = it->position() + it->length();
  }
  out.append(log, last);
  return out;
}

// A compiled Program is immutable (runtime/program.h): one program running
// on two sessions from two threads at once must give each the output and
// lineage a fresh Run(script) gives, and leave the program's static plan as
// compiled.
TEST(SessionTest, SharedProgramRunsOnTwoSessionsConcurrently) {
  const std::string script = R"(
    gram = function(Matrix A) return (Matrix G) {
      G = t(A) %*% A + 1;
    }
    X = rand(rows=40, cols=6, seed=3);
    s = 0;
    for (i in 1:6) {
      if (i %% 2 == 0) { s = s + sum(gram(X * i)); } else { s = s - i; }
    }
    P = matrix(0, 6, 3);
    parfor (j in 1:3) {
      G = gram(X + j);
      P[, j] = G[, j];
    }
    R = gram(X) %*% P;
    print("s=" + s + " r=" + sum(R));
  )";
  const LimaConfig config = LimaConfig::Lima();
  LimaSession reference(config);
  ASSERT_TRUE(reference.Run(script).ok());
  const std::string expected_output = reference.ConsumeOutput();
  const std::string expected_lineage =
      RenumberIds(*reference.GetLineage("R"));

  Result<std::unique_ptr<Program>> compiled = CompileScript(script, config);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  std::shared_ptr<const Program> program = std::move(*compiled);
  const std::string plan_before = StaticPlanToJson(program->static_plan());

  std::string outputs[2], lineages[2];
  Status statuses[2];
  std::vector<std::thread> threads;
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&, t] {
      LimaSession session(config);
      statuses[t] = session.Run(program);
      outputs[t] = session.ConsumeOutput();
      Result<std::string> lineage = session.GetLineage("R");
      if (lineage.ok()) lineages[t] = RenumberIds(*lineage);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (int t = 0; t < 2; ++t) {
    ASSERT_TRUE(statuses[t].ok()) << statuses[t].ToString();
    EXPECT_EQ(outputs[t], expected_output);
    EXPECT_EQ(lineages[t], expected_lineage);
  }
  EXPECT_EQ(StaticPlanToJson(program->static_plan()), plan_before);
}

}  // namespace
}  // namespace lima
