// Workload `minibatch`: Fig. 6's mini-batch cellwise loop at batch size 8,
// two epochs in one LIMA session whose cache budget is far below the working
// set. The loop is fed to the session in chunks of 50 mini-batches, one
// Run() each (light operations); an epoch is a heavy operation. Time goes to
// creating and hashing lineage items and to cache probe, put and eviction,
// not to the 8x784 kernels.
#include <algorithm>
#include <memory>

#include "common/parallel.h"
#include "harness.h"

namespace lima {
namespace baseline {
namespace {

constexpr int64_t kRows = 8000;
constexpr int64_t kBatch = 8;
constexpr int64_t kChunk = 50;  // mini-batches per Run()
constexpr int64_t kChunks = kRows / kBatch / kChunk;
constexpr int kEpochs = 2;
constexpr int64_t kCacheBudget = int64_t{64} << 20;

struct Workload {
  std::string load;                ///< set-up: materialize X, reset acc
  std::vector<std::string> calls;  ///< kEpochs * kChunks chunk scripts
};

Workload MakeWorkload(uint64_t seed) {
  Rng rng(seed);
  Workload w;
  const std::string x_seed = std::to_string(rng.Seed());
  w.load = "X = rand(rows=" + std::to_string(kRows) +
           ", cols=784, min=0, max=1, seed=" + x_seed + ");\nacc = 0;\n";
  std::string chain;
  for (int k = 0; k < 10; ++k) {
    const std::string c = Num(static_cast<double>(rng.Int(10, 30)) / 10);
    chain += "  Xb = ((Xb + Xb) * i - Xb) / (i + " + c + ");\n";
  }
  for (int e = 0; e < kEpochs; ++e) {
    std::vector<int64_t> order(kChunks);
    for (int64_t c = 0; c < kChunks; ++c) order[c] = c;
    for (int64_t c = kChunks - 1; c > 0; --c) {
      std::swap(order[c], order[rng.Int(0, c)]);
    }
    for (int64_t c : order) {
      w.calls.push_back("for (i in " + std::to_string(c * kChunk + 1) + ":" +
                        std::to_string((c + 1) * kChunk) +
                        ") {\n"
                        "  lo = (i - 1) * " + std::to_string(kBatch) +
                        " + 1;\n"
                        "  hi = i * " + std::to_string(kBatch) + ";\n" +
                        "  Xb = X[lo:hi, ];\n" + chain +
                        "  acc = acc + sum(Xb);\n}\n");
    }
  }
  return w;
}

LimaConfig SessionConfig(LimaConfig config, bool profile) {
  config.cache_budget_bytes = kCacheBudget;
  config.profile = profile;
  return config;
}

struct Pass {
  double setup_s = 0;
  /// Two epochs plus session teardown (set-up excluded).
  double wall_ms = 0;
  std::vector<CallResult> calls;
  std::vector<double> epoch_ms;
  Counters counters;
  double kernel_ms = 0;
  LineageSize lineage;
  PersistSample persist;
  bool setup_ok = false;
};

Pass RunPass(const Workload& w, const LimaConfig& config,
             const std::string& store_dir) {
  Pass pass;
  Clock::time_point start = Clock::now();
  auto session = std::make_unique<LimaSession>(config);
  pass.setup_ok = session->Run(w.load).ok();
  pass.setup_s = MillisSince(start) / 1e3;
  double epoch = 0;
  for (const std::string& call : w.calls) {
    pass.calls.push_back(RunCall(session.get(), call, {"acc"}));
    epoch += pass.calls.back().ms;
    pass.wall_ms += pass.calls.back().ms;
    if (pass.calls.size() % kChunks == 0) {
      pass.epoch_ms.push_back(epoch);
      epoch = 0;
    }
  }
  pass.counters.Add(*session->stats());
  if (config.profile) pass.kernel_ms = KernelMillis(*session);
  if (config.trace_lineage && !config.reuse_enabled()) {
    pass.lineage = MeasureLineage(*session, "acc");
  }
  if (!store_dir.empty()) pass.persist = TimePersist(session.get(), store_dir);
  start = Clock::now();
  session.reset();
  pass.wall_ms += MillisSince(start);
  return pass;
}

}  // namespace

void RunMinibatch(const RunOptions& options, Report* report) {
  const Workload w = MakeWorkload(options.seed);
  const LimaConfig lima = SessionConfig(LimaConfig::Lima(), false);
  const LimaConfig traced = SessionConfig(LimaConfig::Lima(), true);

  const std::string store_dir = "minibatch_store";
  std::vector<Pass> plain, profiled;
  ParallelBudget::Global().ResetPeak();
  const Clock::time_point begin = Clock::now();
  while (MillisSince(begin) < options.seconds * 1e3 || plain.size() < 3 ||
         (options.trace && profiled.size() < 2)) {
    if (options.trace && plain.size() > profiled.size()) {
      profiled.push_back(RunPass(w, traced, store_dir));
    } else {
      plain.push_back(RunPass(w, lima, ""));
    }
  }
  const double peak_rss_mb = PeakRssMb();
  const double peak_in_use =
      static_cast<double>(ParallelBudget::Global().peak_in_use());

  const LimaConfig base = SessionConfig(LimaConfig::Base(), false);
  const Pass reference = RunPass(w, base, "");
  for (const std::vector<Pass>* passes : {&plain, &profiled}) {
    for (const Pass& pass : *passes) {
      ++report->attempted;
      if (!pass.setup_ok) report->Fail("minibatch set-up run");
      for (size_t c = 0; c < pass.calls.size(); ++c) {
        const std::string what = "minibatch chunk " + std::to_string(c);
        ++report->attempted;
        if (!pass.calls[c].ok) {
          report->Fail(what + ": " + pass.calls[c].error);
          continue;
        }
        CheckOutputs(pass.calls[c], reference.calls[c], what, report);
      }
    }
  }

  std::vector<double> walls, setup_s, heavy, light;
  for (const Pass& pass : plain) {
    walls.push_back(pass.wall_ms);
    setup_s.push_back(pass.setup_s);
    heavy.insert(heavy.end(), pass.epoch_ms.begin(), pass.epoch_ms.end());
    for (const CallResult& call : pass.calls) light.push_back(call.ms);
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
  for (size_t c = 0; c < 5; ++c) {
    timings.push_back(TimeCompile(w.calls[c], lima));
  }
  layers.compile = MedianTiming(timings);
  const double compile_ms_per_pass =
      (layers.compile.parse_ms + layers.compile.compile_ms) *
      static_cast<double>(w.calls.size());
  std::vector<double> traced_walls, execute_ms, kernel_ms, segment_ms;
  for (const Pass& pass : profiled) {
    traced_walls.push_back(pass.wall_ms);
    double pass_call_ms = 0;
    for (const CallResult& call : pass.calls) pass_call_ms += call.ms;
    execute_ms.push_back(pass_call_ms - compile_ms_per_pass);
    kernel_ms.push_back(pass.kernel_ms);
    segment_ms.push_back(pass.persist.ms);
  }
  layers.execute_ms = Median(execute_ms);
  layers.kernel_ms = Median(kernel_ms);
  layers.counters = profiled.back().counters;
  layers.peak_in_use = peak_in_use;
  layers.kernels =
      MeasureKernels(kBatch, 784, kBatch, kBatch, 784, options.seed);
  // Tracing cost (TracingOnly - Base) and probing cost (Lima - TracingOnly)
  // from alternating passes; the reference is the first Base pass.
  const LimaConfig tracing_only =
      SessionConfig(LimaConfig::TracingOnly(), false);
  const Pass tracing = RunPass(w, tracing_only, "");
  std::vector<double> base_ms = {reference.wall_ms};
  std::vector<double> tracing_ms = {tracing.wall_ms};
  for (int i = 0; i < 2; ++i) {
    base_ms.push_back(RunPass(w, base, "").wall_ms);
    tracing_ms.push_back(RunPass(w, tracing_only, "").wall_ms);
  }
  layers.bytes_per_item = tracing.lineage.items > 0
                              ? tracing.lineage.bytes / tracing.lineage.items
                              : 0;
  layers.trace_s = (Median(tracing_ms) - Median(base_ms)) / 1e3;
  layers.probe_s = (wall_ms - Median(tracing_ms)) / 1e3;
  layers.segment_write_ms = Median(segment_ms);
  const PersistSample& persist = profiled.back().persist;
  layers.bytes_per_record =
      persist.records > 0 ? persist.bytes / persist.records : 0;
  layers.store_bytes = DirectoryBytes(store_dir);
  layers.trace_overhead_frac = Median(traced_walls) / wall_ms - 1;
  layers.Emit(report);
}

}  // namespace baseline
}  // namespace lima
