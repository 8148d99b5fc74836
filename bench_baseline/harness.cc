#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>

#include "analysis/opcode_registry.h"
#include "analysis/redundancy.h"
#include "analysis/shape_inference.h"
#include "common/parallel.h"
#include "lang/compiler.h"
#include "lang/parser.h"
#include "matrix/matmul.h"

namespace lima {
namespace baseline {

double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double Rng::Uniform(double lo, double hi) {
  return lo + (hi - lo) * static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

int64_t Rng::Int(int64_t lo, int64_t hi) {
  return lo + static_cast<int64_t>(Next() % static_cast<uint64_t>(hi - lo + 1));
}

std::string Num(double v) {
  char buf[40];
  for (int precision = 6; precision <= 17; ++precision) {
    std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
    if (std::strtod(buf, nullptr) == v) break;
  }
  return buf;
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) value = 0;
  metrics.push_back({name, {value, unit}});
}

void Report::Fail(const std::string& what) {
  ++failed;
  std::fprintf(stderr, "bench_baseline: failed: %s\n", what.c_str());
}

void Report::Mismatch(const std::string& what) {
  ++failed;
  correct = false;
  std::fprintf(stderr, "bench_baseline: wrong output: %s\n", what.c_str());
}

void Report::SetCommon(double setup_s, double peak_rss_mb) {
  Set("setup_s", setup_s, "s");
  Set("peak_rss_mb", peak_rss_mb, "MB");
  Set("ok_rate",
      attempted > 0 ? 1.0 - static_cast<double>(failed) / attempted : 0,
      "ratio");
}

std::string Report::ToJson() const {
  std::string out = std::string("{\"correct\": ") +
                    (correct && failed == 0 ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(attempted) +
                    ", \"failed\": " + std::to_string(failed) +
                    ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    char value[40];
    std::snprintf(value, sizeof(value), "%.17g", metrics[i].second.first);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].first + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].second.second + "\"}";
  }
  return out + "}}";
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

CompileTiming TimeCompile(const std::string& source,
                          const LimaConfig& config) {
  CompileTiming t;
  Clock::time_point start = Clock::now();
  Result<std::vector<StmtPtr>> statements = ParseScript(source);
  t.parse_ms = MillisSince(start);
  if (!statements.ok()) return t;
  start = Clock::now();
  Result<std::unique_ptr<Program>> program =
      CompileStatements(*statements, config);
  t.compile_ms = MillisSince(start);
  if (!program.ok()) return t;
  t.instructions = (*program)->static_plan().num_instructions;
  start = Clock::now();
  RedundancyAnalysis redundancy = AnalyzeRedundancy(**program);
  t.gvn_ms = MillisSince(start);
  start = Clock::now();
  ShapeAnalysis shapes = InferShapes(**program);
  t.shape_ms = MillisSince(start);
  return t;
}

CompileTiming MedianTiming(const std::vector<CompileTiming>& timings) {
  auto median_of = [&timings](double CompileTiming::*field) {
    std::vector<double> values;
    for (const CompileTiming& t : timings) values.push_back(t.*field);
    return Median(values);
  };
  CompileTiming m;
  m.parse_ms = median_of(&CompileTiming::parse_ms);
  m.compile_ms = median_of(&CompileTiming::compile_ms);
  m.gvn_ms = median_of(&CompileTiming::gvn_ms);
  m.shape_ms = median_of(&CompileTiming::shape_ms);
  m.instructions = median_of(&CompileTiming::instructions);
  return m;
}

namespace {

Matrix RandomMatrix(int64_t rows, int64_t cols, Rng* rng) {
  Matrix m(rows, cols);
  double* data = m.mutable_data();
  for (int64_t i = 0; i < m.size(); ++i) data[i] = rng->Uniform(-1, 1);
  return m;
}

// Median GFLOP/s of repeated calls, at least 3 and for at least 60 ms.
template <typename Fn>
double Gflops(double flops, Fn&& call) {
  std::vector<double> seconds;
  const Clock::time_point begin = Clock::now();
  while (seconds.size() < 3 || MillisSince(begin) < 60) {
    const Clock::time_point start = Clock::now();
    call();
    seconds.push_back(MillisSince(start) / 1e3);
  }
  return flops / Median(seconds) / 1e9;
}

}  // namespace

KernelRates MeasureKernels(int64_t m, int64_t k, int64_t n, int64_t tsmm_rows,
                           int64_t tsmm_cols, uint64_t seed) {
  Rng rng(seed);
  const Matrix a = RandomMatrix(m, k, &rng);
  const Matrix b = RandomMatrix(k, n, &rng);
  const Matrix x = RandomMatrix(tsmm_rows, tsmm_cols, &rng);
  ParallelBudget budget(4);
  ParallelContext width4(&budget);
  const double gemm_flops = 2.0 * m * k * n;
  const double tsmm_flops =
      static_cast<double>(tsmm_rows) * tsmm_cols * (tsmm_cols + 1);
  double sink = 0;
  auto gemm = [&](const ParallelContext* par) {
    Result<Matrix> c = MatMul(a, b, par);
    sink += c.ok() ? c->At(0, 0) : 0;
  };
  auto tsmm = [&](const ParallelContext* par) {
    sink += Tsmm(x, /*left=*/true, par).At(0, 0);
  };
  KernelRates rates;
  rates.gemm_w1 = Gflops(gemm_flops, [&] { gemm(nullptr); });
  rates.gemm_w4 = Gflops(gemm_flops, [&] { gemm(&width4); });
  rates.tsmm_w1 = Gflops(tsmm_flops, [&] { tsmm(nullptr); });
  rates.tsmm_w4 = Gflops(tsmm_flops, [&] { tsmm(&width4); });
  if (!std::isfinite(sink)) std::fprintf(stderr, "kernel sink: %g\n", sink);
  return rates;
}

double KernelMillis(const LimaSession& session) {
  double nanos = 0;
  for (const ProfileReport::OpRow& row : session.ProfileReport().ops) {
    const OpcodeEffect* effect = LookupOpcode(row.opcode);
    if (effect == nullptr) continue;
    if (effect->category == OpcodeCategory::kCompute ||
        effect->category == OpcodeCategory::kDataGen) {
      nanos += static_cast<double>(row.profile.total_nanos);
    }
  }
  return nanos / 1e6;
}

void Counters::Add(const RuntimeStats& s) {
  instructions += s.instructions_executed.load();
  items += s.lineage_items_created.load();
  probes += s.cache_probes.load();
  hits += s.cache_hits.load();
  partial_hits += s.partial_reuse_hits.load();
  evictions += s.evictions.load();
  rewrite_ms += s.rewrite_nanos.load() / 1e6;
  saved_ms += s.compute_saved_nanos.load() / 1e6;
  placeholder_waits += s.placeholder_waits.load();
  budget_grants += s.budget_grants.load();
  budget_denials += s.budget_denials.load();
  lease_waits += s.budget_lease_waits.load();
}

void LayerMetrics::Emit(Report* r) const {
  r->Set("lang.parse_ms", compile.parse_ms, "ms");
  r->Set("lang.compile_ms", compile.compile_ms, "ms");
  r->Set("lang.instructions", compile.instructions, "count");
  r->Set("analysis.gvn_ms", compile.gvn_ms, "ms");
  r->Set("analysis.shape_ms", compile.shape_ms, "ms");
  r->Set("runtime.execute_ms", execute_ms, "ms");
  r->Set("runtime.instructions_executed", counters.instructions, "count");
  r->Set("matrix.gemm_gflops_w1", kernels.gemm_w1, "GFLOP/s");
  r->Set("matrix.gemm_gflops_w4", kernels.gemm_w4, "GFLOP/s");
  r->Set("matrix.tsmm_gflops_w1", kernels.tsmm_w1, "GFLOP/s");
  r->Set("matrix.tsmm_gflops_w4", kernels.tsmm_w4, "GFLOP/s");
  r->Set("matrix.kernel_ms", kernel_ms, "ms");
  r->Set("lineage.items", counters.items, "count");
  r->Set("lineage.bytes_per_item", bytes_per_item, "B");
  r->Set("lineage.trace_s", trace_s, "s");
  r->Set("reuse.probe_s", probe_s, "s");
  r->Set("reuse.probes", counters.probes, "count");
  r->Set("reuse.hit_ratio",
         counters.probes > 0 ? counters.hits / counters.probes : 0, "ratio");
  r->Set("reuse.partial_hits", counters.partial_hits, "count");
  r->Set("reuse.evictions", counters.evictions, "count");
  r->Set("reuse.rewrite_ms", counters.rewrite_ms, "ms");
  r->Set("reuse.saved_ms", counters.saved_ms, "ms");
  r->Set("reuse.cross_tenant_hits", cross_tenant_hits, "count");
  r->Set("reuse.placeholder_waits", counters.placeholder_waits, "count");
  r->Set("common.budget_grants", counters.budget_grants, "count");
  r->Set("common.budget_denials", counters.budget_denials, "count");
  r->Set("common.lease_waits", counters.lease_waits, "count");
  r->Set("common.peak_in_use", peak_in_use, "count");
  r->Set("serve.queue_wait_p50_ms", queue_wait_p50_ms, "ms");
  r->Set("serve.queue_wait_p90_ms", queue_wait_p90_ms, "ms");
  r->Set("serve.service_ms", service_ms, "ms");
  r->Set("serve.shed", shed, "count");
  r->Set("serve.gen_lag_ms", gen_lag_ms, "ms");
  r->Set("serve.light_p90_ms", light_p90_ms, "ms");
  r->Set("serve.heavy_p90_ms", heavy_p90_ms, "ms");
  r->Set("serve.slo_rps", slo_rps, "1/s");
  r->Set("persist.warm_start_ms", warm_start_ms, "ms");
  r->Set("persist.stop_ms", stop_ms, "ms");
  r->Set("persist.snapshots", snapshots, "count");
  r->Set("persist.store_bytes", store_bytes, "B");
  r->Set("persist.segment_write_ms", segment_write_ms, "ms");
  r->Set("persist.bytes_per_record", bytes_per_record, "B");
  r->Set("obs.trace_overhead_frac", trace_overhead_frac, "ratio");
}

double DirectoryBytes(const std::string& dir) {
  double bytes = 0;
  std::error_code ec;
  for (auto it = std::filesystem::recursive_directory_iterator(dir, ec);
       !ec && it != std::filesystem::recursive_directory_iterator();
       it.increment(ec)) {
    if (it->is_regular_file(ec)) {
      bytes += static_cast<double>(it->file_size(ec));
    }
  }
  return bytes;
}

CallResult RunCall(LimaSession* session, const std::string& script,
                   const std::vector<std::string>& outputs) {
  CallResult r;
  const int64_t partial_before = session->stats()->partial_reuse_hits.load();
  const Clock::time_point start = Clock::now();
  Status status = session->Run(script);
  r.ms = MillisSince(start);
  r.rewritten = session->stats()->partial_reuse_hits.load() > partial_before;
  if (!status.ok()) {
    r.error = status.ToString();
    return r;
  }
  for (const std::string& name : outputs) {
    Result<MatrixPtr> matrix = session->GetMatrix(name);
    if (matrix.ok()) {
      const Matrix& m = **matrix;
      r.values.insert(r.values.end(), m.data(), m.data() + m.size());
      continue;
    }
    Result<double> scalar = session->GetDouble(name);
    if (!scalar.ok()) {
      r.error = "missing output " + name;
      return r;
    }
    r.values.push_back(*scalar);
  }
  r.ok = true;
  return r;
}

LineageSize MeasureLineage(const LimaSession& session,
                           const std::string& name) {
  LineageSize size;
  if (LineageItemPtr root = session.GetLineageItem(name)) {
    size.bytes = static_cast<double>(root->SizeInBytes());
    size.items = static_cast<double>(root->NodeCount());
  }
  return size;
}

PersistSample TimePersist(LimaSession* session, const std::string& dir) {
  PersistSample sample;
  const double before = DirectoryBytes(dir);
  const Clock::time_point start = Clock::now();
  Result<int64_t> records = session->PersistLineage(dir);
  sample.ms = MillisSince(start);
  if (records.ok()) {
    sample.records = static_cast<double>(*records);
    sample.bytes = DirectoryBytes(dir) - before;
  }
  return sample;
}

namespace {

/// Relative tolerance applied where a partial rewrite re-associated a sum.
constexpr double kRewriteRtol = 1e-9;

/// True when |a - b| <= rtol * max(|a|, |b|) (exact when rtol == 0); NaN
/// equals NaN.
bool Close(double a, double b, double rtol) {
  if (std::isnan(a) || std::isnan(b)) return std::isnan(a) && std::isnan(b);
  if (a == b) return true;
  return std::fabs(a - b) <= rtol * std::max(std::fabs(a), std::fabs(b));
}

}  // namespace

void CheckOutputs(const CallResult& got, const CallResult& want,
                  const std::string& what, Report* report) {
  if (!want.ok) {
    report->Mismatch(what + ": reference failed: " + want.error);
    return;
  }
  if (got.values.size() != want.values.size()) {
    report->Mismatch(what + ": output size differs");
    return;
  }
  const double rtol = got.rewritten ? kRewriteRtol : 0;
  for (size_t i = 0; i < got.values.size(); ++i) {
    if (!Close(got.values[i], want.values[i], rtol)) {
      report->Mismatch(what + ": value " + std::to_string(i) + " is " +
                       Num(got.values[i]) + ", reference " +
                       Num(want.values[i]) + " (rtol " + Num(rtol) + ")");
      return;
    }
  }
}

}  // namespace baseline
}  // namespace lima
