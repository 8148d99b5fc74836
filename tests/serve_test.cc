#include "serve/server.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/scripts.h"
#include "common/config.h"
#include "common/timer.h"
#include "gtest/gtest.h"
#include "lang/compiler.h"
#include "lang/session.h"
#include "runtime/analysis.h"
#include "serve/client.h"
#include "serve/protocol.h"

namespace lima {
namespace serve {
namespace {

/// Unique-per-test socket path under /tmp (sun_path is ~108 bytes, so test
/// temp dirs are too risky).
std::string SocketPath(const char* tag) {
  return "/tmp/lima_serve_test_" + std::to_string(::getpid()) + "_" + tag +
         ".sock";
}

/// A small script with enough distinct operator results to populate the
/// cache. Deterministic: seeded rand only.
constexpr const char* kScript =
    "X = rand(rows=24, cols=24, seed=11);"
    "Y = X %*% t(X);"
    "print(sum(Y) + sum(X));";

/// The uncached reference: a standalone session that prepends Builtins() to
/// `script` and compiles it on the spot.
Result<std::string> UncachedOutput(const std::string& script) {
  LimaSession session(LimaConfig::Serving());
  LIMA_RETURN_NOT_OK(session.Run(scripts::Builtins() + script));
  return session.ConsumeOutput();
}

Message Stats(const std::string& socket_path) {
  Message request;
  request.Set("op", "stats");
  Result<Message> report = Call(socket_path, request);
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  return report.ok() ? *report : Message();
}

int64_t Field(const Message& message, const std::string& key) {
  return std::stoll(message.Get(key, "-1"));
}

TEST(ServeTest, MessageRoundTrip) {
  Message in;
  in.Set("op", "run");
  in.Set("script", std::string("a\0b\"\n", 5));  // binary-safe values
  in.Set("tenant", "");
  in.Set("tenant", "dup-key");  // repeated keys preserved in order
  Result<Message> out = DecodeMessage(EncodeMessage(in));
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out->fields.size(), 4u);
  EXPECT_EQ(out->fields, in.fields);
  EXPECT_EQ(out->Get("tenant"), "");  // Find returns the first occurrence
}

TEST(ServeTest, DecodeRejectsMalformedPayloads) {
  const std::string good = EncodeMessage([] {
    Message m;
    m.Set("k", "v");
    return m;
  }());
  EXPECT_FALSE(DecodeMessage(good.substr(0, good.size() - 1)).ok());
  EXPECT_FALSE(DecodeMessage(good + "x").ok());
  EXPECT_FALSE(DecodeMessage("").ok());
  // Absurd field count must fail before allocating.
  EXPECT_FALSE(DecodeMessage(std::string("\xff\xff\xff\xff", 4)).ok());
}

TEST(ServeTest, ProtocolRoundTripOverSocketPair) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  Message request;
  request.Set("op", "ping");
  request.Set("payload", std::string(100000, 'x'));  // multi-read frame
  ASSERT_TRUE(WriteMessage(fds[0], request).ok());
  Result<Message> received = ReadMessage(fds[1]);
  ASSERT_TRUE(received.ok()) << received.status().ToString();
  EXPECT_EQ(received->fields, request.fields);
  ::close(fds[0]);
  // Reading from a closed peer reports the clean-close message.
  Result<Message> eof = ReadMessage(fds[1]);
  EXPECT_FALSE(eof.ok());
  EXPECT_NE(eof.status().ToString().find("connection closed"),
            std::string::npos);
  ::close(fds[1]);
}

TEST(ServeTest, RunPingStatsAndErrors) {
  ServeOptions options;
  options.socket_path = SocketPath("basic");
  options.pool_size = 2;
  LimaServer server(options);
  ASSERT_TRUE(server.Start().ok());

  Message ping;
  ping.Set("op", "ping");
  Result<Message> pong = Call(options.socket_path, ping);
  ASSERT_TRUE(pong.ok()) << pong.status().ToString();
  EXPECT_EQ(pong->Get("status"), "ok");

  Result<Message> run = RunScript(options.socket_path, "alice", kScript);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_NE(run->Get("output"), "");

  // A script error comes back as status=error, not a dropped connection.
  Result<Message> bad =
      RunScript(options.socket_path, "alice", "this is not DML;");
  EXPECT_FALSE(bad.ok());

  Message unknown;
  unknown.Set("op", "frobnicate");
  Result<Message> response = Call(options.socket_path, unknown);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->Get("status"), "error");

  Message stats;
  stats.Set("op", "stats");
  Result<Message> report = Call(options.socket_path, stats);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->Get("status"), "ok");
  EXPECT_NE(report->Find("tenant.alice.probes"), nullptr);

  server.Stop();
}

// Tenant B's identical request must hit entries tenant A created, and the
// hits must be attributed as cross-tenant.
TEST(ServeTest, SharedCacheGivesCrossTenantHits) {
  ServeOptions options;
  options.socket_path = SocketPath("xtenant");
  options.pool_size = 1;
  LimaServer server(options);
  ASSERT_TRUE(server.Start().ok());

  Result<Message> first = RunScript(options.socket_path, "alice", kScript);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  Result<Message> second = RunScript(options.socket_path, "bob", kScript);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(first->Get("output"), second->Get("output"));
  EXPECT_GT(std::stoll(second->Get("cache_hits", "0")), 0);

  Message stats;
  stats.Set("op", "stats");
  Result<Message> report = Call(options.socket_path, stats);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(std::stoll(report->Get("tenant.bob.cross_tenant_hits", "0")), 0);
  EXPECT_EQ(std::stoll(report->Get("tenant.alice.cross_tenant_hits", "0")),
            0);
  server.Stop();
}

TEST(ServeTest, PrivateCachesIsolateTenants) {
  ServeOptions options;
  options.socket_path = SocketPath("private");
  options.pool_size = 1;
  options.shared_cache = false;
  LimaServer server(options);
  ASSERT_TRUE(server.Start().ok());

  Result<Message> first = RunScript(options.socket_path, "alice", kScript);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  Result<Message> second = RunScript(options.socket_path, "bob", kScript);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(first->Get("output"), second->Get("output"));
  // Bob's private cache has never seen the script: all misses.
  EXPECT_EQ(std::stoll(second->Get("cache_hits", "-1")), 0);
  server.Stop();
}

// A zero-byte budget forces every entry the tenant owns out of the cache;
// an unbudgeted tenant on the same cache keeps its entries.
TEST(ServeTest, TenantBudgetIsolation) {
  ServeOptions options;
  options.socket_path = SocketPath("budget");
  options.pool_size = 1;
  options.tenant_budgets.emplace_back("squeezed", int64_t{0});
  LimaServer server(options);
  ASSERT_TRUE(server.Start().ok());

  ASSERT_TRUE(RunScript(options.socket_path, "roomy", kScript).ok());
  ASSERT_TRUE(RunScript(options.socket_path, "squeezed",
                        "A = rand(rows=32, cols=32, seed=3);"
                        "print(sum(A %*% t(A)));")
                  .ok());

  Message stats;
  stats.Set("op", "stats");
  Result<Message> report = Call(options.socket_path, stats);
  ASSERT_TRUE(report.ok());
  EXPECT_GT(std::stoll(report->Get("tenant.roomy.resident_bytes", "0")), 0);
  EXPECT_EQ(std::stoll(report->Get("tenant.squeezed.resident_bytes", "-1")),
            0);
  EXPECT_GT(std::stoll(report->Get("tenant.squeezed.evictions", "0")), 0);
  server.Stop();
}

// With a single worker wedged on a slow request and a queue of one, a third
// concurrent connection must get an explicit "overloaded" answer instead of
// hanging.
TEST(ServeTest, OverloadIsShedExplicitly) {
  ServeOptions options;
  options.socket_path = SocketPath("overload");
  options.pool_size = 1;
  options.queue_capacity = 1;
  LimaServer server(options);
  ASSERT_TRUE(server.Start().ok());

  // ~hundreds of ms of compute on this container: a grid of matmuls.
  const std::string slow =
      "G = rand(rows=220, cols=220, seed=5);"
      "acc = 0.0;"
      "for (i in 1:24) { acc = acc + sum(G %*% G); }"
      "print(acc);";

  std::atomic<int> ok_count{0};
  std::atomic<int> overloaded_count{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 6; ++i) {
    clients.emplace_back([&, i] {
      Message request;
      request.Set("op", "run");
      request.Set("tenant", "t" + std::to_string(i));
      request.Set("script", slow);
      Result<Message> response = Call(options.socket_path, request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      const std::string status = response->Get("status");
      if (status == "ok") ok_count.fetch_add(1);
      if (status == "overloaded") overloaded_count.fetch_add(1);
    });
  }
  for (std::thread& t : clients) t.join();

  // Everyone got a definite answer, at least one was shed, and the server's
  // own accounting agrees.
  EXPECT_EQ(ok_count.load() + overloaded_count.load(), 6);
  EXPECT_GT(overloaded_count.load(), 0);
  EXPECT_GT(ok_count.load(), 0);
  EXPECT_EQ(server.counters().shed, overloaded_count.load());
  server.Stop();
}

// Stop() must answer every admitted request before returning.
TEST(ServeTest, GracefulDrainServesAdmittedRequests) {
  ServeOptions options;
  options.socket_path = SocketPath("drain");
  options.pool_size = 2;
  options.queue_capacity = 32;
  LimaServer server(options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<int> ok_count{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 8; ++i) {
    clients.emplace_back([&] {
      Result<Message> response =
          RunScript(options.socket_path, "drainer", kScript);
      if (response.ok()) ok_count.fetch_add(1);
    });
  }
  // Let the clients connect, then stop while some are likely still queued.
  while (server.counters().accepted < 4) {
    std::this_thread::yield();
  }
  server.Stop();
  for (std::thread& t : clients) t.join();

  const LimaServer::Counters counters = server.counters();
  // Every admitted connection was served (drained), none abandoned.
  EXPECT_EQ(counters.completed + counters.failed, counters.accepted);
  EXPECT_EQ(ok_count.load(), counters.completed);
  EXPECT_GT(ok_count.load(), 0);
}

// Concurrent tenants hammering the same scripts must all see exactly the
// output a lone LimaSession produces: reuse never changes results.
TEST(ServeTest, ConcurrentTenantsMatchLocalSession) {
  LimaSession reference(LimaConfig::Serving());
  ASSERT_TRUE(reference.Run(kScript).ok());
  const std::string expected = reference.ConsumeOutput();

  ServeOptions options;
  options.socket_path = SocketPath("determinism");
  options.pool_size = 4;
  options.queue_capacity = 64;
  LimaServer server(options);
  ASSERT_TRUE(server.Start().ok());

  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int i = 0; i < 16; ++i) {
    clients.emplace_back([&, i] {
      const std::string tenant = "tenant" + std::to_string(i % 4);
      Result<Message> response =
          RunScript(options.socket_path, tenant, kScript);
      if (!response.ok() || response->Get("output") != expected) {
        mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  server.Stop();
}

TEST(ServeTest, ReloadAppliesBudgetsAndPoolSize) {
  ServeOptions options;
  options.socket_path = SocketPath("reload");
  options.pool_size = 1;
  LimaServer server(options);
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(RunScript(options.socket_path, "alice", kScript).ok());

  ServeOptions updated = options;
  updated.pool_size = 3;
  updated.queue_capacity = 64;
  updated.tenant_budgets.emplace_back("alice", int64_t{0});
  server.Reload(updated);

  // The budget applied immediately: alice's residency was evicted to zero.
  Message stats;
  stats.Set("op", "stats");
  Result<Message> report = Call(options.socket_path, stats);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(std::stoll(report->Get("tenant.alice.resident_bytes", "-1")), 0);
  // And the grown pool still serves requests.
  EXPECT_TRUE(RunScript(options.socket_path, "bob", kScript).ok());
  server.Stop();
}

TEST(ServeTest, LoadServeOptionsFileParsesAndRejects) {
  const std::string path = "/tmp/lima_serve_test_" +
                           std::to_string(::getpid()) + "_config.txt";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs(
        "# serve config\n"
        "pool_size 3\n"
        "queue_capacity 9\n"
        "budget_mb 64\n"
        "tenant_budget_mb alice 8\n",
        f);
    std::fclose(f);
  }
  Result<ServeOptions> loaded = LoadServeOptionsFile(path, ServeOptions());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->pool_size, 3);
  EXPECT_EQ(loaded->queue_capacity, 9);
  EXPECT_EQ(loaded->session_config.cache_budget_bytes,
            int64_t{64} * 1024 * 1024);
  ASSERT_EQ(loaded->tenant_budgets.size(), 1u);
  EXPECT_EQ(loaded->tenant_budgets[0].first, "alice");
  EXPECT_EQ(loaded->tenant_budgets[0].second, int64_t{8} * 1024 * 1024);

  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    ASSERT_NE(f, nullptr);
    std::fputs("pool_size banana\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(LoadServeOptionsFile(path, ServeOptions()).ok());
  std::remove(path.c_str());
}

// Cached plans give byte-identical output to an uncached compile, on the
// first request (plan-cache miss) and the second (hit), for every bundled
// script and one script of each light request kind of the serve benchmark.
TEST(ServeTest, PlanCacheOutputMatchesUncachedSession) {
  std::vector<std::string> scripts_to_check;
  std::vector<std::filesystem::path> paths;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(LIMA_SOURCE_DIR) + "/scripts")) {
    if (entry.path().extension() == ".dml") paths.push_back(entry.path());
  }
  std::sort(paths.begin(), paths.end());
  ASSERT_FALSE(paths.empty());
  for (const std::filesystem::path& path : paths) {
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    scripts_to_check.push_back(text.str());
  }
  scripts_to_check.push_back("a = 2.5;\nb = (a * 3 + 1) / 2;\n"
                             "print(\"light \" + b);\n");
  scripts_to_check.push_back(
      "M = rand(rows=12, cols=5, min=0, max=1, seed=42);\n"
      "print(\"light \" + sum(M));\n");
  scripts_to_check.push_back("v = seq(1, 17, 1);\n"
                             "print(\"light \" + sum(v ^ 2) / 17);\n");
  scripts_to_check.push_back("M = matrix(-3.25, 9, 4);\n"
                             "print(\"light \" + sum(t(M) %*% M));\n");

  ServeOptions options;
  options.socket_path = SocketPath("plan_exact");
  options.pool_size = 2;
  LimaServer server(options);
  ASSERT_TRUE(server.Start().ok());
  for (const std::string& script : scripts_to_check) {
    Result<std::string> expected = UncachedOutput(script);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    ASSERT_FALSE(expected->empty()) << script;
    for (const char* want : {"miss", "hit"}) {
      Result<Message> run = RunScript(options.socket_path, "t", script);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(run->Get("plan_cache"), want) << script;
      EXPECT_EQ(run->Get("output"), *expected) << want << "\n" << script;
    }
  }
  const PlanCache::Stats plans = server.plan_cache_stats();
  EXPECT_EQ(plans.misses, static_cast<int64_t>(scripts_to_check.size()));
  EXPECT_EQ(plans.hits, static_cast<int64_t>(scripts_to_check.size()));
  server.Stop();
}

// Concurrent workers run one cached Program at once, each on its own
// session, with identical output; racing misses insert one entry.
TEST(ServeTest, PlanCacheServesConcurrentClients) {
  ServeOptions options;
  options.socket_path = SocketPath("plan_concurrent");
  options.pool_size = 4;
  options.queue_capacity = 64;
  LimaServer server(options);
  ASSERT_TRUE(server.Start().ok());

  Result<Message> first = RunScript(options.socket_path, "t0", kScript);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->Get("plan_cache"), "miss");
  std::atomic<int> mismatches{0};
  std::atomic<int> hits{0};
  std::vector<std::thread> clients;
  for (int i = 1; i < 8; ++i) {
    clients.emplace_back([&, i] {
      Result<Message> response = RunScript(
          options.socket_path, "t" + std::to_string(i % 4), kScript);
      if (!response.ok() || response->Get("output") != first->Get("output")) {
        mismatches.fetch_add(1);
      }
      if (response.ok() && response->Get("plan_cache") == "hit") {
        hits.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_EQ(hits.load(), 7);
  Message report = Stats(options.socket_path);
  EXPECT_EQ(Field(report, "plan_cache_misses"), 1);
  EXPECT_EQ(Field(report, "plan_cache_hits"), 7);
  EXPECT_EQ(Field(report, "plan_cache_entries"), 1);

  // Simultaneous first requests for a new script may all miss and compile;
  // the first insert wins and the cache holds one entry for it.
  const std::string racer = "R = rand(rows=30, cols=30, seed=4);"
                            "print(sum(R %*% R));";
  Result<std::string> expected = UncachedOutput(racer);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  clients.clear();
  for (int i = 0; i < 4; ++i) {
    clients.emplace_back([&] {
      Result<Message> response = RunScript(options.socket_path, "r", racer);
      if (!response.ok() || response->Get("output") != *expected) {
        mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(mismatches.load(), 0);
  const PlanCache::Stats plans = server.plan_cache_stats();
  EXPECT_EQ(plans.entries, 2);
  EXPECT_EQ(plans.hits + plans.misses, 12);
  server.Stop();
}

// The key covers exactly the LimaConfig fields the compiler reads.
TEST(ServeTest, PlanCacheKeyCoversCompileRelevantConfig) {
  const std::string script = "x = sum(rand(rows=4, cols=4, seed=1));";
  const LimaConfig base = LimaConfig::Serving();
  PlanCache cache;
  auto hit = [&](const LimaConfig& config) {
    Result<PlanCache::Lookup> lookup = cache.GetOrCompile(script, config);
    EXPECT_TRUE(lookup.ok()) << lookup.status().ToString();
    return lookup.ok() && lookup->hit;
  };
  EXPECT_FALSE(hit(base));
  EXPECT_TRUE(hit(base));

  const std::vector<std::function<void(LimaConfig*)>> compile_relevant = {
      [](LimaConfig* c) { c->redundancy_check = !c->redundancy_check; },
      [](LimaConfig* c) { c->operator_fusion = !c->operator_fusion; },
      [](LimaConfig* c) { c->reuse_mode = ReuseMode::kNone; },
      [](LimaConfig* c) { c->compiler_assist = !c->compiler_assist; },
      [](LimaConfig* c) {
        c->parfor_dependency_check = !c->parfor_dependency_check;
      },
  };
  for (size_t i = 0; i < compile_relevant.size(); ++i) {
    LimaConfig changed = base;
    compile_relevant[i](&changed);
    EXPECT_FALSE(hit(changed)) << "field " << i;
    EXPECT_TRUE(hit(changed)) << "field " << i;
  }

  // Fields the compiler does not read share the base entry.
  LimaConfig runtime_only = base;
  runtime_only.parfor_workers = 3;
  runtime_only.cache_budget_bytes = 1 << 20;
  runtime_only.reuse_mode = ReuseMode::kMultiLevel;
  EXPECT_TRUE(hit(runtime_only));
  EXPECT_EQ(cache.stats().entries,
            static_cast<int64_t>(compile_relevant.size()) + 1);
}

// The cache holds kCapacity entries and evicts the least recently used.
TEST(ServeTest, PlanCacheEvictsLeastRecentlyUsed) {
  ServeOptions options;
  options.socket_path = SocketPath("plan_lru");
  options.pool_size = 1;
  LimaServer server(options);
  ASSERT_TRUE(server.Start().ok());
  auto script = [](size_t i) { return "print(" + std::to_string(i) + ");"; };
  auto plan_cache = [&](size_t i) {
    Result<Message> run = RunScript(options.socket_path, "t", script(i));
    EXPECT_TRUE(run.ok()) << run.status().ToString();
    return run.ok() ? run->Get("plan_cache") : std::string();
  };
  for (size_t i = 0; i < PlanCache::kCapacity; ++i) {
    ASSERT_EQ(plan_cache(i), "miss");
  }
  EXPECT_EQ(plan_cache(0), "hit");  // 0 becomes most recently used
  EXPECT_EQ(plan_cache(PlanCache::kCapacity), "miss");  // evicts 1

  Message report = Stats(options.socket_path);
  EXPECT_EQ(Field(report, "plan_cache_entries"),
            static_cast<int64_t>(PlanCache::kCapacity));
  EXPECT_EQ(Field(report, "plan_cache_evictions"), 1);
  EXPECT_EQ(plan_cache(0), "hit");
  EXPECT_EQ(plan_cache(1), "miss");
  server.Stop();
}

// A script that fails to compile gets today's error and is not cached.
TEST(ServeTest, PlanCacheSkipsCompileErrors) {
  const std::string bad = "x = undefined_function(3);";
  LimaSession reference(LimaConfig::Serving());
  const Status expected = reference.Run(scripts::Builtins() + bad);
  ASSERT_FALSE(expected.ok());

  ServeOptions options;
  options.socket_path = SocketPath("plan_error");
  options.pool_size = 1;
  LimaServer server(options);
  ASSERT_TRUE(server.Start().ok());
  Message request;
  request.Set("op", "run");
  request.Set("script", bad);
  for (int attempt = 0; attempt < 2; ++attempt) {
    Result<Message> response = Call(options.socket_path, request);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->Get("status"), "error");
    EXPECT_EQ(response->Get("error"), expected.ToString());
    EXPECT_EQ(response->Get("plan_cache"), "miss");
  }
  const PlanCache::Stats plans = server.plan_cache_stats();
  EXPECT_EQ(plans.entries, 0);
  EXPECT_EQ(plans.misses, 2);
  server.Stop();
}

// Pruning keeps exactly the functions main reaches through fcall (also in
// predicates and transitively), and keeps everything once eval can reach
// functions by name at run time.
TEST(ServeTest, PlanCachePruningRespectsEval) {
  const std::string functions = R"(
    leaf = function(Matrix A) return (Matrix B) { B = A * 2; }
    inner = function(Matrix A) return (Matrix B) { B = leaf(A) + 1; }
    count = function(Double k) return (Double r) { r = k + 1; }
    unused = function(Matrix A) return (Matrix B) { B = A - 1; }
  )";
  const std::string direct = functions + R"(
    k = 0;
    while (count(k) < 3) { k = k + 1; }
    print("direct " + sum(inner(matrix(1, 2, 2))) + " " + k);
  )";
  const std::string dynamic = functions + R"(
    C = eval("unused", list(matrix(5, 2, 2)));
    print("eval " + sum(C));
  )";
  const LimaConfig config = LimaConfig::Serving();

  Result<std::unique_ptr<Program>> pruned =
      CompileScript(scripts::Builtins() + direct, config);
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  const size_t all = (*pruned)->functions().size();
  EXPECT_EQ(PruneUnreachableFunctions(pruned->get()),
            static_cast<int>(all) - 3);
  for (const char* name : {"leaf", "inner", "count"}) {
    EXPECT_NE((*pruned)->GetFunction(name), nullptr) << name;
  }
  for (const StaticPlanInstr& row : (*pruned)->static_plan().instrs) {
    EXPECT_TRUE(row.function == "main" || row.function == "leaf" ||
                row.function == "inner" || row.function == "count")
        << row.function;
  }

  Result<std::unique_ptr<Program>> kept =
      CompileScript(scripts::Builtins() + dynamic, config);
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  EXPECT_EQ(PruneUnreachableFunctions(kept->get()), 0);
  EXPECT_EQ((*kept)->functions().size(), all);

  ServeOptions options;
  options.socket_path = SocketPath("plan_eval");
  options.pool_size = 1;
  LimaServer server(options);
  ASSERT_TRUE(server.Start().ok());
  for (const std::string& script : {direct, dynamic}) {
    Result<std::string> expected = UncachedOutput(script);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    for (const char* want : {"miss", "hit"}) {
      Result<Message> run = RunScript(options.socket_path, "t", script);
      ASSERT_TRUE(run.ok()) << run.status().ToString();
      EXPECT_EQ(run->Get("plan_cache"), want);
      EXPECT_EQ(run->Get("output"), *expected);
    }
  }
  server.Stop();
}

// With one worker, a client that connects and sends nothing must not keep
// the next client waiting beyond the read deadline; the idle connection is
// answered with an error and counted as failed.
TEST(ServeTest, IdleClientCannotWedgeSingleWorker) {
  ServeOptions options;
  options.socket_path = SocketPath("idle");
  options.pool_size = 1;
  LimaServer server(options);
  ASSERT_TRUE(server.Start().ok());

  int idle = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(idle, 0);
  sockaddr_un addr;
  std::memset(&addr, 0, sizeof(addr));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options.socket_path.c_str(),
              options.socket_path.size() + 1);
  ASSERT_EQ(::connect(idle, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  while (server.counters().accepted < 1) std::this_thread::yield();

  StopWatch watch;
  Result<Message> run = RunScript(options.socket_path, "busy", kScript);
  const double seconds = watch.ElapsedSeconds();
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_LT(seconds, kRequestReadTimeoutSec + 3.0);

  Result<Message> answer = ReadMessage(idle);
  ::close(idle);
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_EQ(answer->Get("status"), "error");
  EXPECT_NE(answer->Get("error").find("read deadline"), std::string::npos)
      << answer->Get("error");
  EXPECT_EQ(server.counters().failed, 1);
  server.Stop();
}

}  // namespace
}  // namespace serve
}  // namespace lima
