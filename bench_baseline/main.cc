// Baseline benchmark program (README.md in this directory).
//
//   bench_baseline --workload pipelines|minibatch|serve_mix --seed N
//                  --seconds S --trace 0|1
//
// Runs in the current directory (stores and the serve socket are created
// there). Prints one host line, then the result as the last stdout line:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
#include <unistd.h>

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>

#include "harness.h"

namespace lima {
namespace baseline {
namespace {

/// Ends the process if a run exceeds its time limit, so a wedged program
/// fails the run instead of hanging it.
class Watchdog {
 public:
  explicit Watchdog(std::chrono::seconds limit)
      : thread_([this, limit] {
          std::unique_lock<std::mutex> lock(mu_);
          if (!cv_.wait_for(lock, limit, [this] { return done_; })) {
            std::fprintf(stderr, "bench_baseline: run exceeded %llds\n",
                         static_cast<long long>(limit.count()));
            std::_Exit(3);
          }
        }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      done_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  bool done_ = false;
  std::thread thread_;
};

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

int Usage() {
  std::fprintf(stderr,
               "usage: bench_baseline --workload pipelines|minibatch|serve_mix"
               " --seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace
}  // namespace baseline
}  // namespace lima

int main(int argc, char** argv) {
  using namespace lima::baseline;
  RunOptions options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
    } else if (flag == "--trace") {
      options.trace = value == "1";
      if (value != "0" && value != "1") return Usage();
    } else {
      return Usage();
    }
    if (end != nullptr && (*end != '\0' || end == value.c_str())) {
      return Usage();
    }
  }
  if (argc % 2 != 1 || options.seconds <= 0 || options.seconds > 60) {
    return Usage();
  }

#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  std::fprintf(stderr,
               "bench_baseline: refusing to measure a non-optimised or "
               "sanitizer build (%s)\n",
               LIMA_BENCH_BUILD_TYPE);
  return 3;
#endif

  void (*run)(const RunOptions&, Report*) = nullptr;
  if (options.workload == "pipelines") run = RunPipelines;
  if (options.workload == "minibatch") run = RunMinibatch;
  if (options.workload == "serve_mix") run = RunServeMix;
  if (run == nullptr) return Usage();

  std::printf("{\"host\": {\"nproc\": %ld, \"cpu\": %s, \"build_type\": %s, "
              "\"compiler\": %s}}\n",
              sysconf(_SC_NPROCESSORS_ONLN), JsonString(CpuModel()).c_str(),
              JsonString(LIMA_BENCH_BUILD_TYPE).c_str(),
              JsonString(LIMA_BENCH_COMPILER).c_str());
  std::fflush(stdout);

  Report report;
  {
    Watchdog watchdog(std::chrono::seconds(170));
    run(options, &report);
  }
  std::printf("%s\n", report.ToJson().c_str());
  if (report.abandon_threads) {
    std::fflush(stdout);
    std::_Exit(0);
  }
  return 0;
}
