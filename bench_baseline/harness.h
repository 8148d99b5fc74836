// Shared plumbing of the baseline benchmark: seeded generation, timing,
// percentiles, the result record every workload fills, and the per-layer
// probes that time calls into the program's public functions from outside.
#ifndef LIMA_BENCH_BASELINE_HARNESS_H_
#define LIMA_BENCH_BASELINE_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/config.h"
#include "lang/session.h"

namespace lima {
namespace baseline {

using Clock = std::chrono::steady_clock;

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MillisSince(Clock::time_point t) {
  return MillisBetween(t, Clock::now());
}

/// Quantile with linear interpolation between order statistics (q in
/// [0, 1]); 0 for an empty sample.
double Quantile(std::vector<double> values, double q);
inline double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

/// SplitMix64: the same seed gives the same stream on every platform
/// (std:: distributions are implementation-defined, so none are used).
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [lo, hi).
  double Uniform(double lo, double hi);
  /// Uniform integer in [lo, hi].
  int64_t Int(int64_t lo, int64_t hi);
  /// Independent child stream (for one job, script or request class).
  Rng Fork(uint64_t salt) {
    return Rng(Next() ^ (salt * 0x9E3779B97F4A7C15ull));
  }
  /// A DML rand() seed.
  int64_t Seed() { return Int(1, 1000000000); }

 private:
  uint64_t state_;
};

/// Shortest round-trip decimal form of `v`, valid as a DML literal.
std::string Num(double v);

/// What the benchmark was asked to do (command-line arguments).
struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

/// The result of one run: operation counts, the correctness verdict and
/// named metrics, printed as the last stdout line.
struct Report {
  int64_t attempted = 0;
  /// Operations that errored, timed out, were shed, or whose output failed
  /// the reference check.
  int64_t failed = 0;
  /// False once any output differs from its reference.
  bool correct = true;
  /// A stalled server thread could not be joined: the process must end
  /// right after printing the result instead of returning from main.
  bool abandon_threads = false;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void Set(const std::string& name, double value, const std::string& unit);
  /// Counts a failed operation and logs why on stderr.
  void Fail(const std::string& what);
  /// Counts an output that differs from its reference.
  void Mismatch(const std::string& what);
  /// Adds the end-to-end metrics every workload reports.
  void SetCommon(double setup_s, double peak_rss_mb);
  std::string ToJson() const;
};

/// Peak resident set size of this process so far (VmHWM), in MB.
double PeakRssMb();

/// Outside-in timing of the front end on one script: ParseScript,
/// CompileStatements (which includes every analysis pass), and separate
/// re-runs of the GVN pass (AnalyzeRedundancy) and InferShapes on the
/// compiled program.
struct CompileTiming {
  double parse_ms = 0;
  double compile_ms = 0;
  double gvn_ms = 0;
  double shape_ms = 0;
  double instructions = 0;
};
CompileTiming TimeCompile(const std::string& source, const LimaConfig& config);
/// Element-wise median over several scripts' timings.
CompileTiming MedianTiming(const std::vector<CompileTiming>& timings);

/// Direct MatMul/Tsmm throughput at one shape, sequential (width 1) and on
/// a private 4-unit budget (width 4). Tsmm counts rows*cols*(cols+1) flops
/// (the symmetric half it computes).
struct KernelRates {
  double gemm_w1 = 0, gemm_w4 = 0, tsmm_w1 = 0, tsmm_w4 = 0;
};
KernelRates MeasureKernels(int64_t m, int64_t k, int64_t n, int64_t tsmm_rows,
                           int64_t tsmm_cols, uint64_t seed);

/// Sum of the profile's compute opcodes (everything but variable
/// management and control transfer), in ms. Needs config.profile = true.
double KernelMillis(const LimaSession& session);

/// Reuse/lineage/budget counters of one or more sessions, accumulated.
struct Counters {
  double instructions = 0, items = 0, probes = 0, hits = 0, partial_hits = 0;
  double evictions = 0, rewrite_ms = 0, saved_ms = 0, placeholder_waits = 0;
  double budget_grants = 0, budget_denials = 0, lease_waits = 0;
  void Add(const RuntimeStats& stats);
};

/// Emits every per-layer metric with the values measured by the workload;
/// metrics a workload does not exercise are reported as 0 (README.md).
struct LayerMetrics {
  CompileTiming compile;
  double execute_ms = 0;
  KernelRates kernels;
  double kernel_ms = 0;
  Counters counters;
  double bytes_per_item = 0;
  double trace_s = 0;
  double probe_s = 0;
  double cross_tenant_hits = 0;
  double peak_in_use = 0;
  double queue_wait_p50_ms = 0, queue_wait_p90_ms = 0, service_ms = 0;
  double shed = 0, gen_lag_ms = 0;
  double light_p90_ms = 0, heavy_p90_ms = 0, slo_rps = 0;
  double warm_start_ms = 0, stop_ms = 0, snapshots = 0, store_bytes = 0;
  double segment_write_ms = 0, bytes_per_record = 0;
  double trace_overhead_frac = 0;
  void Emit(Report* report) const;
};

/// Total size of the regular files under `dir`, in bytes.
double DirectoryBytes(const std::string& dir);

/// Footprint of one variable's lineage trace (LineageItem::SizeInBytes and
/// NodeCount); zeros when the variable is untraced.
struct LineageSize {
  double bytes = 0, items = 0;
};
LineageSize MeasureLineage(const LimaSession& session, const std::string& name);

/// One timed LimaSession::PersistLineage into `dir`: its duration, the
/// segment bytes it wrote and the lineage records in them.
struct PersistSample {
  double ms = 0, bytes = 0, records = 0;
};
PersistSample TimePersist(LimaSession* session, const std::string& dir);

/// One timed LimaSession::Run and the values it produced.
struct CallResult {
  bool ok = false;
  double ms = 0;
  /// The named outputs, flattened (a matrix contributes all its cells).
  std::vector<double> values;
  /// A partial rewrite fired during the call, so sums may be re-associated.
  bool rewritten = false;
  std::string error;
};
CallResult RunCall(LimaSession* session, const std::string& script,
                   const std::vector<std::string>& outputs);

/// Checks `got` against the reference `want`: bit for bit, or within a
/// relative 1e-9 when a partial rewrite fired; records a mismatch in
/// `report`.
void CheckOutputs(const CallResult& got, const CallResult& want,
                  const std::string& what, Report* report);

/// Workload entry points; each fills `report` for options.trace.
void RunPipelines(const RunOptions& options, Report* report);
void RunMinibatch(const RunOptions& options, Report* report);
void RunServeMix(const RunOptions& options, Report* report);

}  // namespace baseline
}  // namespace lima

#endif  // LIMA_BENCH_BASELINE_HARNESS_H_
