// Workload `pipelines`: a closed-loop series of Fig. 9-style ML pipelines
// under LimaConfig::Lima(), one fresh session per job, parfor_workers = 4.
// Heavy operations are the jobs; light operations are the incremental-
// retraining appends (lm on rbind(X, dX), the Sec. 4.2 partial rewrites),
// each its own Run() on the job's warm session.
#include <algorithm>
#include <memory>

#include "algorithms/scripts.h"
#include "common/parallel.h"
#include "harness.h"

namespace lima {
namespace baseline {
namespace {

struct Job {
  std::string name;
  /// calls[0] is the job itself (heavy); later calls are light appends.
  std::vector<std::string> calls;
  std::vector<std::string> outputs;
};

std::string S(int64_t v) { return std::to_string(v); }

// Every generated value is drawn into a local first: operands of one string
// concatenation are evaluated in an unspecified order.

/// `count` grid values 10^-(offset + step * i), i = 1..count.
std::string Grid(Rng* rng, int count, double lo, double hi) {
  const std::string offset = Num(rng->Uniform(lo, hi));
  const std::string step = Num(rng->Uniform(0.5, 1.5));
  return "10 ^ (0 - (" + offset + " + seq(1, " + S(count) + ", 1) * " + step +
         "))";
}

Job Hlm(Rng rng) {
  const std::string x = S(rng.Seed()), w = S(rng.Seed()), e = S(rng.Seed());
  const std::string regs = Grid(&rng, 6, 0, 1), tols = Grid(&rng, 5, 6, 7);
  return {"hlm",
          {"X = rand(rows=20000, cols=60, min=-1, max=1, seed=" + x + ");\n" +
           "y = X %*% rand(rows=60, cols=1, min=-1, max=1, seed=" + w + ")\n" +
           "    + rand(rows=20000, cols=1, min=-0.1, max=0.1, seed=" + e +
           ");\n" + "regs = " + regs + ";\n" + "icpts = seq(0, 2, 1);\n" +
           "tols = " + tols + ";\n" +
           "losses = gridSearchLmPar(X, y, regs, icpts, tols);\n"
           "result = min(losses);\n"},
          {"result"}};
}

Job Ens(Rng rng) {
  const std::string x = S(rng.Seed()), proto = S(rng.Seed());
  const std::string xte = S(rng.Seed()), ws = S(rng.Seed());
  std::string script =
      "nclass = 5;\n"
      "X = rand(rows=4000, cols=100, min=-1, max=1, seed=" + x + ");\n" +
      "proto = rand(rows=100, cols=nclass, min=-1, max=1, seed=" + proto +
      ");\n" + "Y = rowIndexMax(X %*% proto);\n" +
      "Xte = rand(rows=2000, cols=100, min=-1, max=1, seed=" + xte + ");\n" +
      "Yte = rowIndexMax(Xte %*% proto);\n";
  for (int i = 1; i <= 3; ++i) {
    const std::string reg = Num(rng.Uniform(0.01, 1));
    script += "W" + S(i) + " = msvm(X, Y, nclass, " + reg + ", 0.001, 4);\n";
  }
  for (int i = 1; i <= 3; ++i) {
    const std::string reg = Num(rng.Uniform(0.001, 0.1));
    script += "M" + S(i) + " = mlogreg(X, Y, nclass, " + reg + ", 6, 0.1);\n";
  }
  script +=
      "ws = rand(rows=20, cols=6, min=0, max=1, seed=" + ws + ");\n" +
      "bestAcc = 0 - 1;\n"
      "for (i in 1:20) {\n"
      "  S = as.scalar(ws[i, 1]) * (Xte %*% W1)\n"
      "    + as.scalar(ws[i, 2]) * (Xte %*% W2)\n"
      "    + as.scalar(ws[i, 3]) * (Xte %*% W3)\n"
      "    + as.scalar(ws[i, 4]) * (Xte %*% M1)\n"
      "    + as.scalar(ws[i, 5]) * (Xte %*% M2)\n"
      "    + as.scalar(ws[i, 6]) * (Xte %*% M3);\n"
      "  acc = mean(rowIndexMax(S) == Yte);\n"
      "  if (acc > bestAcc) { bestAcc = acc; }\n"
      "}\n"
      "result = bestAcc;\n";
  return {"ens", {script}, {"result"}};
}

Job Pcalm(Rng rng) {
  const std::string a = S(rng.Seed()), w = S(rng.Seed());
  const std::string kmin = S(rng.Int(4, 8));
  return {"pcalm",
          {"A = rand(rows=10000, cols=60, min=-1, max=1, seed=" + a + ");\n" +
           "y = A %*% rand(rows=60, cols=1, min=-1, max=1, seed=" + w +
           ");\n" + "bestR2 = 0 - 1e300;\n" + "kmin = " + kmin + ";\n" +
           "for (ki in 1:8) {\n"
           "  K = kmin + (ki - 1) * 2;\n"
           "  [R, V] = pca(A, K);\n"
           "  B = lm(R, y, 0, 1e-6, 1e-9, 0);\n"
           "  r2 = 1 - l2norm(R, y, B) / sum((y - mean(y)) ^ 2);\n"
           "  n = nrow(A);\n"
           "  adjr2 = 1 - (1 - r2) * (n - 1) / (n - K - 1);\n"
           "  if (adjr2 > bestR2) { bestR2 = adjr2; }\n"
           "}\n"
           "result = bestR2;\n"},
          {"result"}};
}

Job Hcv(Rng rng) {
  const std::string x = S(rng.Seed()), w = S(rng.Seed()), e = S(rng.Seed());
  const std::string regs = Grid(&rng, 4, 0, 1);
  return {"hcv",
          {"X = rand(rows=8000, cols=40, min=-1, max=1, seed=" + x + ");\n" +
           "y = X %*% rand(rows=40, cols=1, min=-1, max=1, seed=" + w + ")\n" +
           "    + rand(rows=8000, cols=1, min=-0.1, max=0.1, seed=" + e +
           ");\n" + "regs = " + regs + ";\n" +
           "best = 1e300;\n"
           "for (r in 1:nrow(regs)) {\n"
           "  for (c in 1:2) {\n"
           "    l = sum(cvLmPar(X, y, 8, as.scalar(regs[r, 1]), 0));\n"
           "    if (l < best) { best = l; }\n"
           "  }\n"
           "}\n"
           "result = best;\n"},
          {"result"}};
}

/// Incremental retraining: fit lm on X, then append slices dX and refit on
/// rbind(X, dX). The appends take a fixed list of sizes in seeded order.
Job Incremental(Rng rng) {
  const std::string reg = Num(rng.Uniform(1e-4, 1e-2));
  const std::string w = S(rng.Seed()), x = S(rng.Seed()), e = S(rng.Seed());
  Job job{"incremental",
          {"w = rand(rows=50, cols=1, min=-1, max=1, seed=" + w + ");\n" +
           "X = rand(rows=6000, cols=50, min=-1, max=1, seed=" + x + ");\n" +
           "y = X %*% w + rand(rows=6000, cols=1, min=-0.1, max=0.1, seed=" +
           e + ");\n" + "B = lm(X, y, 0, " + reg + ");\n" +
           "result = lmLoss(X, y, B, 0);\n"},
          {"result", "B"}};
  std::vector<int64_t> sizes = {200, 300, 400, 400, 500, 600};
  for (size_t i = sizes.size() - 1; i > 0; --i) {
    std::swap(sizes[i], sizes[static_cast<size_t>(rng.Int(0, i))]);
  }
  const int kAppends = static_cast<int>(sizes.size());
  for (int i = 0; i < kAppends; ++i) {
    const std::string rows = S(sizes[i]);
    const std::string dx = S(rng.Seed()), de = S(rng.Seed());
    job.calls.push_back(
        "dX = rand(rows=" + rows + ", cols=50, min=-1, max=1, seed=" + dx +
        ");\n" + "X = rbind(X, dX);\n" + "y = rbind(y, dX %*% w + rand(rows=" +
        rows + ", cols=1, min=-0.1, max=0.1, seed=" + de + "));\n" +
        "B = lm(X, y, 0, " + reg + ");\n" + "result = lmLoss(X, y, B, 0);\n");
  }
  return job;
}

/// The fixed job list of one pass, in seeded order.
std::vector<Job> MakeJobs(uint64_t seed) {
  Rng rng(seed);
  std::vector<Job> jobs = {Hlm(rng.Fork(1)), Ens(rng.Fork(2)),
                           Pcalm(rng.Fork(3)), Hcv(rng.Fork(4)),
                           Incremental(rng.Fork(5))};
  for (size_t i = jobs.size() - 1; i > 0; --i) {
    std::swap(jobs[i], jobs[static_cast<size_t>(rng.Int(0, i))]);
  }
  return jobs;
}

constexpr int kWarmupPasses = 3;

LimaConfig JobConfig(LimaConfig config, bool profile) {
  config.parfor_workers = 4;
  config.profile = profile;
  return config;
}

struct Pass {
  double wall_ms = 0;
  /// results[j][c]: call c of job j.
  std::vector<std::vector<CallResult>> results;
  Counters counters;
  double kernel_ms = 0;
  double lineage_bytes = 0, lineage_items = 0;
  std::vector<double> segment_write_ms;
  double segment_bytes = 0, records = 0;
};

/// Runs every job in a fresh session. Wall time covers session construction,
/// the Run() calls and session teardown; profile reads and PersistLineage
/// (when `store_dir` is set) happen outside it.
Pass RunPass(const std::vector<Job>& jobs, const LimaConfig& config,
             const std::string& store_dir) {
  Pass pass;
  const bool tracing_only = config.trace_lineage && !config.reuse_enabled();
  for (const Job& job : jobs) {
    Clock::time_point start = Clock::now();
    auto session = std::make_unique<LimaSession>(config);
    std::vector<CallResult> results;
    for (const std::string& call : job.calls) {
      results.push_back(
          RunCall(session.get(), scripts::Builtins() + call, job.outputs));
    }
    pass.wall_ms += MillisSince(start);
    pass.counters.Add(*session->stats());
    if (config.profile) pass.kernel_ms += KernelMillis(*session);
    if (tracing_only) {
      const LineageSize size = MeasureLineage(*session, "result");
      pass.lineage_bytes += size.bytes;
      pass.lineage_items += size.items;
    }
    if (!store_dir.empty()) {
      const PersistSample persist = TimePersist(session.get(), store_dir);
      pass.segment_write_ms.push_back(persist.ms);
      pass.records += persist.records;
      pass.segment_bytes += persist.bytes;
    }
    start = Clock::now();
    session.reset();
    pass.wall_ms += MillisSince(start);
    pass.results.push_back(std::move(results));
  }
  return pass;
}

}  // namespace

void RunPipelines(const RunOptions& options, Report* report) {
  const std::vector<Job> jobs = MakeJobs(options.seed);
  const LimaConfig lima = JobConfig(LimaConfig::Lima(), false);
  const LimaConfig traced = JobConfig(LimaConfig::Lima(), true);

  // Set-up: a fresh job session until it accepts work (builtins compiled),
  // sampled before every untraced pass so the samples span the run. The
  // first, discarded sample also pays one-time process initialization.
  std::vector<double> setup_s;
  auto setup_sample = [&] {
    const Clock::time_point start = Clock::now();
    LimaSession session(lima);
    ++report->attempted;
    if (!session.Run(scripts::Builtins() + "ready = 1;\n").ok()) {
      report->Fail("pipelines set-up run");
    }
    return MillisSince(start) / 1e3;
  };
  setup_sample();
  // Discarded warm-up passes: glibc malloc's dynamic mmap threshold climbs
  // as the first large matrices are freed, and until it settles the first
  // passes map fresh pages for every matrix and run up to 2x slower.
  for (int i = 0; i < kWarmupPasses; ++i) RunPass(jobs, lima, "");

  // Timed passes; the traced run alternates untraced and traced passes.
  const std::string store_dir = "pipelines_store";
  std::vector<Pass> plain, profiled;
  ParallelBudget::Global().ResetPeak();
  const Clock::time_point begin = Clock::now();
  while (MillisSince(begin) < options.seconds * 1e3 || plain.size() < 2 ||
         (options.trace && profiled.size() < 2)) {
    const bool traced_pass = options.trace && plain.size() > profiled.size();
    if (traced_pass) {
      profiled.push_back(RunPass(jobs, traced, store_dir));
    } else {
      setup_s.push_back(setup_sample());
      plain.push_back(RunPass(jobs, lima, ""));
    }
  }
  const double peak_rss_mb = PeakRssMb();
  const double peak_in_use =
      static_cast<double>(ParallelBudget::Global().peak_in_use());

  // Reference: the same jobs with reuse off, outside the timed region.
  const LimaConfig base = JobConfig(LimaConfig::Base(), false);
  const Pass reference = RunPass(jobs, base, "");
  for (const std::vector<Pass>* passes : {&plain, &profiled}) {
    for (const Pass& pass : *passes) {
      for (size_t j = 0; j < jobs.size(); ++j) {
        for (size_t c = 0; c < jobs[j].calls.size(); ++c) {
          const CallResult& got = pass.results[j][c];
          const std::string what = jobs[j].name + " call " + std::to_string(c);
          ++report->attempted;
          if (!got.ok) {
            report->Fail(what + ": " + got.error);
            continue;
          }
          CheckOutputs(got, reference.results[j][c], what, report);
        }
      }
    }
  }

  // A heavy operation is one pass's job list (the five jobs' first Run()s);
  // single jobs differ in cost by 10x, so percentiles over them would jump
  // between job types. A light operation is one incremental append.
  std::vector<double> walls, heavy, light;
  for (const Pass& pass : plain) {
    walls.push_back(pass.wall_ms);
    double jobs_ms = 0;
    for (const std::vector<CallResult>& job : pass.results) {
      jobs_ms += job[0].ms;
      for (size_t c = 1; c < job.size(); ++c) light.push_back(job[c].ms);
    }
    heavy.push_back(jobs_ms);
  }
  const double wall_ms = Median(walls);

  if (!options.trace) {
    report->Set("wall_s", wall_ms / 1e3, "s");
    report->Set("heavy_p50_ms", Median(heavy), "ms");
    report->Set("light_p50_ms", Median(light), "ms");
    report->SetCommon(Median(setup_s), peak_rss_mb);
    return;
  }

  LayerMetrics layers;
  std::vector<CompileTiming> timings;
  double compile_ms_per_pass = 0;
  for (const Job& job : jobs) {
    for (const std::string& call : job.calls) {
      timings.push_back(TimeCompile(scripts::Builtins() + call, lima));
      compile_ms_per_pass +=
          timings.back().parse_ms + timings.back().compile_ms;
    }
  }
  layers.compile = MedianTiming(timings);
  std::vector<double> traced_walls, execute_ms, kernel_ms, segment_ms;
  double segment_bytes = 0, records = 0;
  for (const Pass& pass : profiled) {
    traced_walls.push_back(pass.wall_ms);
    double pass_call_ms = 0;
    for (const std::vector<CallResult>& job : pass.results) {
      for (const CallResult& call : job) pass_call_ms += call.ms;
    }
    execute_ms.push_back(pass_call_ms - compile_ms_per_pass);
    kernel_ms.push_back(pass.kernel_ms);
    segment_ms.insert(segment_ms.end(), pass.segment_write_ms.begin(),
                      pass.segment_write_ms.end());
    segment_bytes += pass.segment_bytes;
    records += pass.records;
  }
  layers.execute_ms = Median(execute_ms);
  layers.kernel_ms = Median(kernel_ms);
  layers.counters = profiled.back().counters;
  layers.kernels = MeasureKernels(10000, 60, 16, 20000, 60, options.seed);
  // Tracing cost (TracingOnly - Base) and probing cost (Lima - TracingOnly)
  // per pass, from alternating passes; the reference is the first Base pass.
  const LimaConfig tracing_only = JobConfig(LimaConfig::TracingOnly(), false);
  const Pass tracing = RunPass(jobs, tracing_only, "");
  const double base_ms =
      Median({reference.wall_ms, RunPass(jobs, base, "").wall_ms});
  const double tracing_ms =
      Median({tracing.wall_ms, RunPass(jobs, tracing_only, "").wall_ms});
  layers.bytes_per_item =
      tracing.lineage_items > 0 ? tracing.lineage_bytes / tracing.lineage_items
                                : 0;
  layers.trace_s = (tracing_ms - base_ms) / 1e3;
  layers.probe_s = (wall_ms - tracing_ms) / 1e3;
  layers.peak_in_use = peak_in_use;
  layers.segment_write_ms = Median(segment_ms);
  layers.bytes_per_record = records > 0 ? segment_bytes / records : 0;
  layers.store_bytes = DirectoryBytes(store_dir);
  layers.trace_overhead_frac = Median(traced_walls) / wall_ms - 1;
  layers.Emit(report);
}

}  // namespace baseline
}  // namespace lima
