// Workload `serve_mix`: an open-loop, seeded arrival schedule sent to an
// in-process LimaServer (4 pool workers, 4 tenants, a persistent store with
// periodic snapshots). Light requests are small scripts whose cost is mostly
// compiling the builtins preamble; heavy requests are pagerank, kmeans and
// grid-search variants repeated across tenants, so they hit the shared
// cache. Each request is timed from its due time and carries a client
// deadline, so a stalled server shows up as timed-out operations.
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <future>
#include <memory>
#include <thread>

#include "algorithms/scripts.h"
#include "common/parallel.h"
#include "harness.h"
#include "serve/protocol.h"
#include "serve/server.h"

namespace lima {
namespace baseline {
namespace {

/// Where a server listens and keeps its store. Relative paths: the
/// benchmark runs inside its own work directory, and a Unix socket path must
/// stay under 108 bytes.
struct Endpoint {
  const char* socket;
  const char* store;
};
const Endpoint kMain{"serve.sock", "serve_store"};
/// Set-up samples restart a second server on a copy of the prefilled store,
/// so that the measured server keeps its cache between rounds.
const Endpoint kSetup{"setup.sock", "setup_store"};
constexpr int kTenants = 4;
constexpr int kConnections = 4;  // generator threads = open connections
constexpr int kLightScripts = 32;
constexpr double kHeavyShare = 0.35;
constexpr double kNominalRps = 25;
/// Ladder rates (requests/s): 10% apart around the server's capacity (about
/// 300 requests/s on 4 vCPUs), so the interpolated slo_rps cannot jump by a
/// coarse step when the host is a little slower.
constexpr double kLadder[] = {30, 60, 120, 180, 240, 270, 300, 330, 360, 400};
/// Latency limits on the p90 of each class, from the request's due time.
constexpr double kLightLimitMs = 100;
constexpr double kHeavyLimitMs = 300;
constexpr auto kDeadline = std::chrono::seconds(5);
/// Restarts on the prefilled store before the measured part; one more is
/// taken before each round, and setup_s is the median of all of them.
constexpr int kSetupSamples = 11;
/// Rounds of the untraced run (the traced run has one per ladder step):
/// the host's speed changes within seconds, so finer rounds spread it more
/// evenly over the metrics.
constexpr int kUntracedRounds = 30;

struct Scripts {
  std::vector<std::string> text;  ///< light scripts first, then heavy
  int num_light = 0;
  bool heavy(int i) const { return i >= num_light; }
};

std::string S(int64_t v) { return std::to_string(v); }

Scripts MakeScripts(Rng rng) {
  Scripts s;
  for (int i = 0; i < kLightScripts; ++i) {
    const std::string a = S(rng.Int(2, 40)), b = S(rng.Int(2, 16));
    const std::string seed = S(rng.Seed()), v = Num(rng.Uniform(-10, 10));
    switch (i % 4) {
      case 0:
        s.text.push_back("a = " + v +
                         ";\nb = (a * 3 + 1) / 2;\nprint(\"light \" + b);\n");
        break;
      case 1:
        s.text.push_back("M = rand(rows=" + a + ", cols=" + b +
                         ", min=0, max=1, seed=" + seed +
                         ");\nprint(\"light \" + sum(M));\n");
        break;
      case 2:
        s.text.push_back("v = seq(1, " + a +
                         ", 1);\nprint(\"light \" + sum(v ^ 2) / " + a +
                         ");\n");
        break;
      default:
        s.text.push_back("M = matrix(" + v + ", " + a + ", " + b +
                         ");\nprint(\"light \" + sum(t(M) %*% M));\n");
    }
  }
  s.num_light = kLightScripts;
  // Both pagerank variants have n = 300, so that four of the six heavy
  // scripts cost about the same on a cache hit and the heavy p50 falls
  // inside that group rather than in the gap before the k-means scripts.
  for (int i = 0; i < 2; ++i) {
    const std::string n = S(300), seed = S(rng.Seed());
    s.text.push_back(
        "n = " + n + ";\n" +
        "G = rand(rows=n, cols=n, min=0.01, max=1, seed=" + seed + ");\n" +
        "G = G / max(colSums(G), 1e-12);\n"
        "S = G %*% t(G);\n"
        "S = S / max(colSums(S), 1e-12);\n"
        "p = matrix(1 / n, n, 1);\n"
        "e = matrix(1, n, 1);\n"
        "u = matrix(1 / n, 1, n);\n"
        "for (i in 1:15) {\n"
        "  p = 0.85 * (S %*% p) + 0.15 * (e %*% (u %*% p));\n"
        "  p = p / sum(p);\n"
        "}\n"
        "result = sum(p * p);\n"
        "print(\"rank energy: \" + result);\n");
  }
  for (int i = 0; i < 2; ++i) {
    const std::string s1 = S(rng.Seed()), s2 = S(rng.Seed());
    const std::string s3 = S(rng.Seed());
    const std::string ks = S(rng.Seed());
    s.text.push_back(
        "X = rbind(rand(rows=1500, cols=12, seed=" + s1 + ") + 5,\n" +
        "          rand(rows=1500, cols=12, seed=" + s2 + ") - 5,\n" +
        "          rand(rows=1500, cols=12, seed=" + s3 + "));\n" +
        "for (k in 2:3) {\n"
        "  [C, assign, wsse] = kmeans(X, k, 4, " + ks + ");\n" +
        "  print(\"k=\" + k + \" wsse=\" + wsse);\n"
        "}\n"
        "result = wsse;\n");
  }
  for (int i = 0; i < 2; ++i) {
    const std::string xs = S(rng.Seed()), ws = S(rng.Seed());
    const std::string off = Num(rng.Uniform(0, 1));
    s.text.push_back(
        "X = rand(rows=10000, cols=40, min=-1, max=1, seed=" + xs + ");\n" +
        "y = X %*% rand(rows=40, cols=1, seed=" + ws + ");\n" +
        "regs = 10 ^ (0 - (" + off + " + seq(1, 4, 1)));\n" +
        "icpts = seq(0, 1, 1);\n"
        "tols = 10 ^ (0 - 7 - seq(1, 2, 1));\n"
        "losses = gridSearchLm(X, y, regs, icpts, tols);\n"
        "result = min(losses);\n"
        "print(\"best loss: \" + result);\n");
  }
  return s;
}

struct Request {
  double due_s = 0;
  int script = 0;
  int tenant = 0;
};

/// `count` requests at `rate`, one arriving at a uniformly drawn point of
/// each 1/rate slot (an open-loop schedule with less burstiness than
/// Poisson, so short runs see the same load). Exactly kHeavyShare of them
/// are heavy, cycling through the heavy scripts, so every run has the same
/// class and script mix; which slots are heavy is shuffled.
std::vector<Request> Schedule(Rng* rng, const Scripts& scripts, int count,
                              double rate) {
  const int num_heavy =
      static_cast<int>(scripts.text.size()) - scripts.num_light;
  std::vector<Request> plan(count);
  const int heavy = static_cast<int>(std::lround(count * kHeavyShare));
  const int64_t offset = rng->Int(0, num_heavy - 1);
  for (int i = 0; i < count; ++i) {
    Request& r = plan[i];
    r.due_s = (i + rng->Uniform(0, 1)) / rate;
    r.script = i < heavy ? scripts.num_light +
                               static_cast<int>((offset + i) % num_heavy)
                         : static_cast<int>(rng->Int(0, scripts.num_light - 1));
    r.tenant = static_cast<int>(rng->Int(0, kTenants - 1));
  }
  for (int i = count - 1; i > 0; --i) {
    std::swap(plan[i].script, plan[rng->Int(0, i)].script);
  }
  return plan;
}

/// Closes the descriptor on every path.
struct Fd {
  int fd;
  ~Fd() {
    if (fd >= 0) ::close(fd);
  }
};

/// One request/response exchange that gives up at `deadline`: connect,
/// send and receive each wait at most the time left.
Result<serve::Message> CallWithDeadline(const serve::Message& request,
                                        Clock::time_point deadline,
                                        const char* socket = kMain.socket) {
  const auto left = std::chrono::duration_cast<std::chrono::microseconds>(
      deadline - Clock::now());
  if (left.count() <= 0) return Status::IoError("deadline passed");
  Fd sock{::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0)};
  if (sock.fd < 0) return Status::IoError(std::strerror(errno));
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(left.count() / 1000000);
  tv.tv_usec = static_cast<suseconds_t>(left.count() % 1000000);
  ::setsockopt(sock.fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(sock.fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, socket, sizeof(addr.sun_path) - 1);
  int rc;
  do {
    rc = ::connect(sock.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc < 0 && errno == EINTR);
  if (rc < 0) {
    return Status::IoError(std::string("connect: ") + std::strerror(errno));
  }
  LIMA_RETURN_NOT_OK(serve::WriteMessage(sock.fd, request));
  return serve::ReadMessage(sock.fd);
}

struct Outcome {
  enum Kind { kOk, kError, kShed, kTimeout } kind = kError;
  double latency_ms = 0;  ///< response time - due time
  double lag_ms = 0;      ///< send time - due time
  double client_ms = 0;   ///< response time - send time
  double service_ms = 0;  ///< the server's elapsed_us
  double probes = 0, hits = 0;
  std::string output;
};

/// Sends `plan` over `connections` connections. Open loop: each request is
/// sent at its due time or as soon as a connection frees up. Closed loop
/// (`open_loop` false): each connection sends its next request as soon as
/// the previous one is answered, and due time = send time.
std::vector<Outcome> Drive(const std::vector<Request>& plan,
                           const Scripts& scripts, bool open_loop,
                           int connections = kConnections) {
  std::vector<Outcome> out(plan.size());
  std::atomic<size_t> next{0};
  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  auto sender = [&] {
    for (size_t i; (i = next.fetch_add(1)) < plan.size();) {
      Clock::time_point due = Clock::now();
      if (open_loop) {
        due = t0 + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(plan[i].due_s));
        std::this_thread::sleep_until(due);
      }
      const Clock::time_point sent = Clock::now();
      const Clock::time_point deadline = due + kDeadline;
      Outcome& o = out[i];
      o.lag_ms = MillisBetween(due, sent);
      serve::Message request;
      request.Set("op", "run");
      request.Set("tenant", "t" + std::to_string(plan[i].tenant));
      request.Set("script", scripts.text[plan[i].script]);
      Result<serve::Message> response = CallWithDeadline(request, deadline);
      const Clock::time_point done = Clock::now();
      o.latency_ms = MillisBetween(due, done);
      o.client_ms = MillisBetween(sent, done);
      if (!response.ok()) {
        o.kind = done >= deadline ? Outcome::kTimeout : Outcome::kError;
        o.output = response.status().ToString();
        continue;
      }
      const std::string status = response->Get("status");
      o.kind = status == "ok"           ? Outcome::kOk
               : status == "overloaded" ? Outcome::kShed
                                        : Outcome::kError;
      o.output =
          response->Get(status == "ok" ? "output" : "error");
      o.service_ms = std::atof(response->Get("elapsed_us", "0").c_str()) / 1e3;
      o.probes = std::atof(response->Get("cache_probes", "0").c_str());
      o.hits = std::atof(response->Get("cache_hits", "0").c_str());
    }
  };
  std::vector<std::thread> threads;
  for (int c = 0; c < connections; ++c) threads.emplace_back(sender);
  for (std::thread& t : threads) t.join();
  return out;
}

/// Latencies of one class (heavy or light) among the answered requests.
std::vector<double> ClassLatencies(const std::vector<Request>& plan,
                                   const std::vector<Outcome>& out,
                                   const Scripts& scripts, bool heavy) {
  std::vector<double> ms;
  for (size_t i = 0; i < plan.size(); ++i) {
    if (scripts.heavy(plan[i].script) == heavy) ms.push_back(out[i].latency_ms);
  }
  return ms;
}

serve::ServeOptions Options(bool profile, const Endpoint& at = kMain) {
  serve::ServeOptions options;
  options.socket_path = at.socket;
  options.pool_size = 4;
  options.queue_capacity = 64;
  options.store_dir = at.store;
  options.snapshot_every = 50;
  options.session_config.profile = profile;
  return options;
}

/// Starts a server on the store; the time until it answers a ping is one
/// set-up sample.
std::unique_ptr<serve::LimaServer> StartServer(bool profile,
                                               const Endpoint& at,
                                               double* setup_s,
                                               double* start_ms) {
  const Clock::time_point begin = Clock::now();
  auto server = std::make_unique<serve::LimaServer>(Options(profile, at));
  if (!server->Start().ok()) return nullptr;
  *start_ms = MillisSince(begin);
  serve::Message ping;
  ping.Set("op", "ping");
  if (!CallWithDeadline(ping, Clock::now() + kDeadline, at.socket).ok()) {
    return nullptr;
  }
  *setup_s = MillisSince(begin) / 1e3;
  return server;
}

/// Records every outcome against the reference outputs.
void Check(const std::vector<Request>& plan, const std::vector<Outcome>& out,
           const std::vector<std::string>& reference, const std::string& phase,
           Report* report) {
  for (size_t i = 0; i < plan.size(); ++i) {
    ++report->attempted;
    const Outcome& o = out[i];
    const std::string what = phase + " request " + std::to_string(i);
    if (o.kind == Outcome::kOk) {
      if (o.output != reference[plan[i].script]) report->Mismatch(what);
    } else {
      report->Fail(what + (o.kind == Outcome::kShed      ? " shed"
                           : o.kind == Outcome::kTimeout ? " timed out"
                                                         : " error") +
                   ": " + o.output);
    }
  }
}

/// Ladder step verdict: every request answered, both class p90s within
/// their limits, and no growing backlog: the median send lag of the step's
/// last quarter stays within the light limit.
struct Step {
  double rate = 0, light_p90 = 0;
  bool pass = false;
};

Step RunStep(const std::vector<Request>& plan, const std::vector<Outcome>& out,
             const Scripts& scripts, double rate) {
  Step step;
  step.rate = rate;
  step.light_p90 = Quantile(ClassLatencies(plan, out, scripts, false), 0.9);
  const double heavy_p90 =
      Quantile(ClassLatencies(plan, out, scripts, true), 0.9);
  bool answered = true;
  std::vector<double> late_lag;
  for (size_t i = 0; i < out.size(); ++i) {
    answered = answered && out[i].kind == Outcome::kOk;
    if (4 * i >= 3 * out.size()) late_lag.push_back(out[i].lag_ms);
  }
  step.pass = answered && step.light_p90 <= kLightLimitMs &&
              heavy_p90 <= kHeavyLimitMs && Median(late_lag) <= kLightLimitMs;
  return step;
}

/// The highest passing ladder rate, refined by interpolating the light p90
/// toward its limit between that step and the next (failing) one. A lower
/// step that failed on a brief stall does not cap the result.
double SloRps(const std::vector<Step>& steps) {
  size_t best = steps.size();
  for (size_t k = 0; k < steps.size(); ++k) {
    if (steps[k].pass) best = k;
  }
  if (best == steps.size()) {
    return steps[0].rate * std::min(1.0, kLightLimitMs / steps[0].light_p90);
  }
  if (best + 1 == steps.size()) return steps[best].rate;
  const Step& lo = steps[best];
  const Step& hi = steps[best + 1];
  double f = 0;
  if (hi.light_p90 > lo.light_p90) {
    f = std::clamp(
        (kLightLimitMs - lo.light_p90) / (hi.light_p90 - lo.light_p90), 0.0,
        1.0);
  }
  return lo.rate + f * (hi.rate - lo.rate);
}

/// The measured phases, run in rounds so that a slow spell of the host
/// spreads over every metric instead of landing on one phase. Each round
/// sends a slice of the nominal schedule, then one ladder step (in
/// increasing order) when `step_s` is positive, and, when `list` is
/// non-empty, that fixed request list back to back on one connection.
/// `before_round` runs first in every round.
struct Rounds {
  std::vector<std::vector<Request>> nominal_plans, ladder_plans;
  std::vector<std::vector<Outcome>> nominal_out, ladder_out, list_out;
  std::vector<Step> steps;
  std::vector<double> list_s;

  /// Latencies of one class at the nominal rate, over all rounds.
  std::vector<double> Nominal(const Scripts& scripts, bool heavy) const {
    std::vector<double> all;
    for (size_t k = 0; k < nominal_plans.size(); ++k) {
      const std::vector<double> ms =
          ClassLatencies(nominal_plans[k], nominal_out[k], scripts, heavy);
      all.insert(all.end(), ms.begin(), ms.end());
    }
    return all;
  }
};

Rounds RunRounds(Rng* rng, const Scripts& scripts, double nominal_s,
                 double step_s, const std::vector<Request>& list,
                 const std::function<void()>& before_round) {
  const int rounds = step_s > 0 ? std::size(kLadder) : kUntracedRounds;
  const int nominal_count = static_cast<int>(kNominalRps * nominal_s / rounds);
  Rounds r;
  for (int k = 0; k < rounds; ++k) {
    const double rate = step_s > 0 ? kLadder[k] : kNominalRps;
    before_round();
    r.nominal_plans.push_back(
        Schedule(rng, scripts, nominal_count, kNominalRps));
    r.nominal_out.push_back(Drive(r.nominal_plans[k], scripts, true));
    if (step_s > 0) {
      r.ladder_plans.push_back(
          Schedule(rng, scripts, static_cast<int>(rate * step_s), rate));
      r.ladder_out.push_back(Drive(r.ladder_plans[k], scripts, true));
      r.steps.push_back(
          RunStep(r.ladder_plans[k], r.ladder_out[k], scripts, rate));
    }
    if (!list.empty()) {
      const Clock::time_point start = Clock::now();
      r.list_out.push_back(Drive(list, scripts, false, 1));
      r.list_s.push_back(MillisSince(start) / 1e3);
    }
  }
  return r;
}

/// Records every outcome of the rounds against the reference outputs.
void CheckRounds(const Rounds& r, const std::vector<Request>& list,
                 const std::vector<std::string>& reference, Report* report) {
  for (size_t k = 0; k < r.nominal_plans.size(); ++k) {
    Check(r.nominal_plans[k], r.nominal_out[k], reference, "nominal", report);
  }
  for (size_t k = 0; k < r.ladder_plans.size(); ++k) {
    Check(r.ladder_plans[k], r.ladder_out[k], reference,
          "ladder " + Num(kLadder[k]) + "/s", report);
  }
  for (const std::vector<Outcome>& out : r.list_out) {
    Check(list, out, reference, "list", report);
  }
}

/// Stops the server unless a request stuck in it keeps Stop() from
/// draining within kDeadline. The stuck request already counts as timed
/// out; the run then reports instead of hanging, and the process ends right
/// after printing (Report::abandon_threads) without joining the server.
bool StopWithinDeadline(std::unique_ptr<serve::LimaServer>* server,
                        Report* report) {
  // Shared with the stopper thread, which may outlive this call.
  auto stopped = std::make_shared<std::promise<void>>();
  std::future<void> done = stopped->get_future();
  serve::LimaServer* raw = server->get();
  std::thread stopper([raw, stopped] {
    raw->Stop();
    stopped->set_value();
  });
  if (done.wait_for(kDeadline) == std::future_status::ready) {
    stopper.join();
    server->reset();
    return true;
  }
  report->Fail("server did not drain within the client deadline");
  report->abandon_threads = true;
  (void)server->release();  // its destructor would block on Stop() too
  stopper.detach();         // ends with the process; see Report
  return false;
}

/// Base-session output of every script (the correctness reference), and
/// the time each took.
std::vector<std::string> Reference(const Scripts& scripts,
                                   std::vector<double>* base_ms) {
  std::vector<std::string> outputs;
  for (const std::string& text : scripts.text) {
    LimaSession session(LimaConfig::Base());
    const Clock::time_point start = Clock::now();
    Status status = session.Run(scripts::Builtins() + text);
    base_ms->push_back(MillisSince(start));
    outputs.push_back(status.ok() ? session.ConsumeOutput()
                                  : "reference failed: " + status.ToString());
  }
  return outputs;
}

double StatField(const serve::Message& stats, const std::string& suffix) {
  double total = 0;
  for (const auto& [key, value] : stats.fields) {
    if (key.size() >= suffix.size() &&
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += std::atof(value.c_str());
    }
  }
  return total;
}

}  // namespace

void RunServeMix(const RunOptions& options, Report* report) {
  Rng rng(options.seed);
  const Scripts scripts = MakeScripts(rng.Fork(1));
  Rng plan_rng = rng.Fork(2);
  const int num_scripts = static_cast<int>(scripts.text.size());
  std::filesystem::remove_all(kMain.store);
  std::filesystem::remove_all(kSetup.store);

  // Seeded prefill: every heavy script once, then a snapshot at Stop().
  {
    serve::LimaServer prefill(Options(false));
    if (!prefill.Start().ok()) {
      report->Fail("prefill server start");
      return;
    }
    for (int i = scripts.num_light; i < num_scripts; ++i) {
      serve::Message request;
      request.Set("op", "run");
      request.Set("tenant", "t" + std::to_string(i % kTenants));
      request.Set("script", scripts.text[i]);
      ++report->attempted;
      if (!CallWithDeadline(request, Clock::now() + kDeadline).ok()) {
        report->Fail("prefill request " + std::to_string(i));
      }
    }
    prefill.Stop();
  }

  // Set-up samples: a second server started on a copy of the prefilled
  // store until it answers a ping, then stopped (which snapshots again).
  std::filesystem::copy(kMain.store, kSetup.store,
                        std::filesystem::copy_options::recursive);
  std::vector<double> setup_s, start_ms, stop_ms;
  auto setup_sample = [&] {
    double setup = 0, start = 0;
    ++report->attempted;
    std::unique_ptr<serve::LimaServer> restarted =
        StartServer(false, kSetup, &setup, &start);
    if (restarted == nullptr) {
      report->Fail("set-up server start");
      return;
    }
    setup_s.push_back(setup);
    start_ms.push_back(start);
    const Clock::time_point stop = Clock::now();
    restarted->Stop();
    stop_ms.push_back(MillisSince(stop));
  };
  for (int i = 0; i < kSetupSamples; ++i) setup_sample();
  double setup = 0, start = 0;
  std::unique_ptr<serve::LimaServer> server =
      StartServer(false, kMain, &setup, &start);
  if (server == nullptr) {
    report->Fail("server start");
    return;
  }
  const double seconds = options.seconds;
  std::vector<double> base_ms;

  if (!options.trace) {
    const std::vector<Request> list =
        Schedule(&plan_rng, scripts, 20, kNominalRps);
    const Rounds rounds =
        RunRounds(&plan_rng, scripts, seconds * 0.8, 0, list, setup_sample);
    const double peak_rss_mb = PeakRssMb();
    CheckRounds(rounds, list, Reference(scripts, &base_ms), report);
    StopWithinDeadline(&server, report);
    report->Set("wall_s", Median(rounds.list_s), "s");
    report->Set("heavy_p50_ms", Median(rounds.Nominal(scripts, true)), "ms");
    report->Set("light_p50_ms", Median(rounds.Nominal(scripts, false)), "ms");
    report->SetCommon(Median(setup_s), peak_rss_mb);
    return;
  }

  // Traced run: the rounds (without the request list) on the untraced
  // server, then the nominal schedule on a server restarted with profiling
  // on. The tail latencies and slo_rps come from the untraced rounds.
  LayerMetrics layers;
  const Rounds rounds = RunRounds(&plan_rng, scripts, seconds * 0.3,
                                  seconds * 0.02, {}, setup_sample);
  const int nominal_count = static_cast<int>(kNominalRps * seconds * 0.3);
  const std::vector<Request> nominal =
      Schedule(&plan_rng, scripts, nominal_count, kNominalRps);
  {
    const Clock::time_point stop = Clock::now();
    server->Stop();
    stop_ms.push_back(MillisSince(stop));
  }
  server = StartServer(true, kMain, &setup, &start);
  if (server == nullptr) {
    report->Fail("traced server start");
    return;
  }
  start_ms.push_back(start);
  ParallelBudget::Global().ResetPeak();
  const std::vector<Outcome> traced_out = Drive(nominal, scripts, true);
  serve::Message stats_request;
  stats_request.Set("op", "stats");
  Result<serve::Message> stats =
      CallWithDeadline(stats_request, Clock::now() + kDeadline);
  if (!stats.ok()) report->Fail("stats op: " + stats.status().ToString());

  // Replay every heavy script once on a session attached to the server's
  // shared cache: the server reports only probe and hit counts per request.
  {
    LimaConfig replay_config = LimaConfig::Serving();
    replay_config.profile = true;
    LimaSession replay(replay_config, server->shared_cache());
    std::vector<double> heavy_run_ms;
    for (int i = scripts.num_light; i < num_scripts; ++i) {
      heavy_run_ms.push_back(
          RunCall(&replay, scripts::Builtins() + scripts.text[i], {}).ms);
    }
    layers.counters.Add(*replay.stats());
    layers.counters.evictions =
        server->shared_cache()->stats()->evictions.load();
    layers.kernel_ms = KernelMillis(replay);
    layers.execute_ms = Median(heavy_run_ms);
  }

  const std::vector<std::string> reference = Reference(scripts, &base_ms);
  CheckRounds(rounds, {}, reference, report);
  Check(nominal, traced_out, reference, "traced", report);
  {
    const Clock::time_point stop = Clock::now();
    if (StopWithinDeadline(&server, report)) {
      stop_ms.push_back(MillisSince(stop));
    }
  }

  std::vector<CompileTiming> light_timings, heavy_timings;
  for (int i = 0; i < num_scripts; ++i) {
    const CompileTiming t =
        TimeCompile(scripts::Builtins() + scripts.text[i],
                    LimaConfig::Serving());
    (scripts.heavy(i) ? heavy_timings : light_timings).push_back(t);
  }
  layers.compile = MedianTiming(light_timings);
  const CompileTiming heavy_compile = MedianTiming(heavy_timings);
  layers.execute_ms -= heavy_compile.parse_ms + heavy_compile.compile_ms;
  layers.kernels = MeasureKernels(300, 300, 300, 10000, 40, options.seed);

  // Tracing and probing cost on cold sessions, against Base: three rounds
  // over the heavy scripts (the first Base round is the reference run).
  std::vector<double> base_round_ms, trace_round_ms, lima_round_ms;
  double items = 0, item_bytes = 0;
  for (int round = 0; round < 3; ++round) {
    double base_sum = 0, trace_sum = 0, lima_sum = 0;
    for (int i = scripts.num_light; i < num_scripts; ++i) {
      const std::string text = scripts::Builtins() + scripts.text[i];
      if (round == 0) {
        base_sum += base_ms[i];
      } else {
        LimaSession plain(LimaConfig::Base());
        base_sum += RunCall(&plain, text, {}).ms;
      }
      LimaSession tracing(LimaConfig::TracingOnly());
      trace_sum += RunCall(&tracing, text, {}).ms;
      if (round == 0) {
        const LineageSize size = MeasureLineage(tracing, "result");
        item_bytes += size.bytes;
        items += size.items;
      }
      LimaSession cold(LimaConfig::Serving());
      lima_sum += RunCall(&cold, text, {}).ms;
    }
    base_round_ms.push_back(base_sum);
    trace_round_ms.push_back(trace_sum);
    lima_round_ms.push_back(lima_sum);
  }
  layers.trace_s = (Median(trace_round_ms) - Median(base_round_ms)) / 1e3;
  layers.probe_s = (Median(lima_round_ms) - Median(trace_round_ms)) / 1e3;
  layers.bytes_per_item = items > 0 ? item_bytes / items : 0;

  std::vector<double> queue_ms, service_ms, lag_ms;
  for (const Outcome& o : traced_out) {
    if (o.kind != Outcome::kOk) continue;
    queue_ms.push_back(o.client_ms - o.service_ms);
    service_ms.push_back(o.service_ms);
    lag_ms.push_back(o.lag_ms);
    layers.counters.probes += o.probes;
    layers.counters.hits += o.hits;
  }
  layers.queue_wait_p50_ms = Quantile(queue_ms, 0.5);
  layers.queue_wait_p90_ms = Quantile(queue_ms, 0.9);
  layers.service_ms = Median(service_ms);
  layers.gen_lag_ms = Quantile(lag_ms, 0.9);
  if (stats.ok()) {
    layers.shed = StatField(*stats, "shed");
    layers.cross_tenant_hits = StatField(*stats, ".cross_tenant_hits");
    layers.snapshots = StatField(*stats, "snapshots_taken");
    layers.peak_in_use = StatField(*stats, "parallel_peak_in_use");
    layers.counters.lease_waits = StatField(*stats, "parallel_lease_waits");
  }
  layers.warm_start_ms = Median(start_ms);
  layers.stop_ms = Median(stop_ms);
  layers.store_bytes = DirectoryBytes(kMain.store);
  layers.light_p90_ms = Quantile(rounds.Nominal(scripts, false), 0.9);
  layers.heavy_p90_ms = Quantile(rounds.Nominal(scripts, true), 0.9);
  layers.slo_rps = SloRps(rounds.steps);
  const double plain_p50 = Median(rounds.Nominal(scripts, true));
  const double traced_p50 =
      Median(ClassLatencies(nominal, traced_out, scripts, true));
  layers.trace_overhead_frac = plain_p50 > 0 ? traced_p50 / plain_p50 - 1 : 0;
  layers.Emit(report);
}

}  // namespace baseline
}  // namespace lima
