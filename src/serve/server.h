#ifndef LIMA_SERVE_SERVER_H_
#define LIMA_SERVE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/config.h"
#include "common/result.h"
#include "common/status.h"
#include "persist/snapshot.h"
#include "reuse/lineage_cache.h"
#include "runtime/program.h"
#include "serve/protocol.h"

namespace lima {
namespace serve {

/// Configuration of one lima_serve daemon (docs/SERVING.md). Reloadable
/// fields (SIGHUP): pool_size, queue_capacity, tenant_budgets. The socket
/// path, session template, and cache mode are fixed at Start().
struct ServeOptions {
  /// Filesystem path of the Unix-domain listening socket.
  std::string socket_path;

  /// Number of worker threads executing requests. Reload can grow and
  /// shrink this; shrink takes effect as workers finish their current
  /// request.
  int pool_size = 2;

  /// Admission control: maximum accepted-but-unserved connections. The
  /// accept loop sheds beyond this by answering status="overloaded"
  /// immediately, so a saturated server stays responsive instead of
  /// building an unbounded backlog.
  int queue_capacity = 16;

  /// Session template for request execution (reuse mode, policy, cache
  /// budget, shards, ...). Defaults to LimaConfig::Serving().
  LimaConfig session_config = LimaConfig::Serving();

  /// True (default): all tenants share one sharded lineage cache, so tenant
  /// B reuses results tenant A computed (cross-tenant hits). False: one
  /// private cache per tenant — the isolation baseline bench_serve compares
  /// against.
  bool shared_cache = true;

  /// Per-tenant cache byte budgets (LineageCache::SetTenantBudget); tenants
  /// not listed are unlimited (bounded only by the cache-wide budget).
  std::vector<std::pair<std::string, int64_t>> tenant_budgets;

  /// Persistent lineage store directory (docs/PERSISTENCE.md). When set and
  /// shared_cache is on, Start() warm-starts the cache from the newest
  /// snapshot (corrupt or version-skewed snapshots degrade to a cold start),
  /// Stop() writes a fresh snapshot, and the "query" op serves in-situ
  /// lineage queries against the store. Fixed at Start().
  std::string store_dir;

  /// Write a cache snapshot after every N completed requests (0 = only at
  /// Stop()). Bounds data loss on SIGKILL to the last N requests.
  int snapshot_every = 0;
};

/// Parses a lima_serve config file into `base` (missing keys keep their
/// values). Line format, '#' comments allowed:
///
///   pool_size 4
///   queue_capacity 32
///   budget_mb 512
///   tenant_budget_mb alice 64
///
/// Used both at startup (--config=) and on SIGHUP reload.
Result<ServeOptions> LoadServeOptionsFile(const std::string& path,
                                          ServeOptions base);

/// Compile once, serve many: a bounded LRU cache of compiled programs keyed
/// by (exact script text, the compile-relevant LimaConfig fields). A hit
/// skips parse and compile; every worker then runs the same immutable
/// Program (runtime/program.h) on its own session. Thread-safe.
class PlanCache {
 public:
  /// Entries kept; the least recently used one is evicted beyond this.
  static constexpr size_t kCapacity = 64;

  struct Stats {
    int64_t hits = 0;
    int64_t misses = 0;
    int64_t entries = 0;
    int64_t evictions = 0;
  };

  struct Lookup {
    std::shared_ptr<const Program> program;
    bool hit = false;
  };

  /// The program compiled from scripts::Builtins() + `script` under
  /// `config`. A miss compiles exactly as LimaSession::Run(source) does,
  /// prunes functions main cannot reach (PruneUnreachableFunctions) and
  /// inserts the result; when two callers race on one key, the first insert
  /// wins and both run its program. Compile errors are returned and not
  /// cached. Lookup compares the full script text, never just its hash.
  Result<Lookup> GetOrCompile(const std::string& script,
                              const LimaConfig& config);

  Stats stats() const;

 private:
  struct Entry {
    std::string key;  ///< ConfigKey byte + script text
    std::shared_ptr<const Program> program;
  };

  mutable std::mutex mu_;
  /// Most recently used first. list nodes are stable, so index_ keys view
  /// into Entry::key.
  std::list<Entry> lru_;
  std::unordered_map<std::string_view, std::list<Entry>::iterator> index_;
  int64_t hits_ = 0;
  int64_t misses_ = 0;
  int64_t evictions_ = 0;
};

/// A worker waits this long for a connection's request bytes before
/// answering it with an error, so an idle or stalled client cannot hold a
/// pool worker (and with pool_size=1, the whole server) indefinitely.
constexpr int kRequestReadTimeoutSec = 2;

/// Multi-tenant DML execution daemon: accepts framed requests (protocol.h)
/// over a Unix-domain socket and executes each "run" op on a fresh
/// LimaSession attached to the shared lineage cache, running a compiled
/// program from the plan cache (compiled on a miss), inside a
/// LineageCache::TenantScope so the cache charges bytes and hits to the
/// requesting tenant. One request per connection (connect → request →
/// response → close), which keeps admission control trivial: a connection
/// IS a queue slot.
class LimaServer {
 public:
  explicit LimaServer(ServeOptions options);
  ~LimaServer();

  LimaServer(const LimaServer&) = delete;
  LimaServer& operator=(const LimaServer&) = delete;

  /// Binds the socket (unlinking a stale file), starts the accept loop and
  /// the worker pool.
  Status Start();

  /// Graceful shutdown: stop accepting, serve every already-admitted
  /// request, join all threads, unlink the socket. Idempotent.
  void Stop();

  /// Applies reloadable fields from `options`: tenant budgets (takes effect
  /// immediately, evicting down if needed), queue capacity, pool size
  /// (grows by spawning, shrinks as workers finish requests).
  void Reload(const ServeOptions& options);

  /// Admission/served counters (relaxed reads; for stats + tests).
  struct Counters {
    int64_t accepted = 0;   ///< connections admitted to the queue
    int64_t shed = 0;       ///< connections answered "overloaded"
    int64_t completed = 0;  ///< requests answered "ok"
    int64_t failed = 0;     ///< requests answered "error"
  };
  Counters counters() const;

  const std::string& socket_path() const { return options_.socket_path; }

  /// The shared cache (null when shared_cache=false). Exposed for tests
  /// and the stats op.
  const std::shared_ptr<LineageCache>& shared_cache() const {
    return shared_cache_;
  }

  /// Warm-start outcome of Start() (attempted=false when no store_dir or
  /// private caches). Exposed for tests and the stats op.
  const persist::WarmStartReport& warm_start_report() const {
    return warm_start_;
  }

  /// Compiled-plan cache counters (also reported by the stats op).
  PlanCache::Stats plan_cache_stats() const { return plan_cache_.stats(); }

  /// Snapshots written so far (Stop() + periodic). Relaxed read.
  int64_t snapshots_taken() const {
    return snapshots_taken_.load(std::memory_order_relaxed);
  }

 private:
  void AcceptLoop();
  void WorkerLoop(int worker_id);
  /// Serves one connection end to end; owns (and closes) `fd`.
  void ServeConnection(int fd);
  Message HandleRequest(const Message& request);
  Message HandleRun(const Message& request);
  Message HandleStats();
  Message HandleQuery(const Message& request);
  /// Writes a cache snapshot into store_dir (no-op without one). Serialized
  /// by snapshot_mu_ so a periodic snapshot and Stop() never interleave.
  void SaveSnapshot();
  /// Periodic-snapshot hook: called after each completed request.
  void MaybeSnapshot();
  /// Cache for `tenant`: the shared cache, or (private mode) the tenant's
  /// own cache, created on first use.
  std::shared_ptr<LineageCache> CacheForTenant(const std::string& tenant);
  void ApplyTenantBudgets(
      const std::vector<std::pair<std::string, int64_t>>& budgets);

  ServeOptions options_;
  std::shared_ptr<LineageCache> shared_cache_;

  int listen_fd_ = -1;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopping_{false};
  /// Set by the first Stop() caller; later calls return immediately.
  std::atomic<bool> stopped_{false};

  /// Admitted connections waiting for a worker. Guarded by queue_mu_.
  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<int> queue_;
  std::atomic<int> queue_capacity_{0};
  /// Workers exit when their id >= desired_pool_size_ (reload shrink).
  std::atomic<int> desired_pool_size_{0};

  std::thread accept_thread_;
  std::mutex workers_mu_;
  std::vector<std::thread> workers_;

  /// Private-mode per-tenant caches; guarded by tenant_caches_mu_.
  std::mutex tenant_caches_mu_;
  std::unordered_map<std::string, std::shared_ptr<LineageCache>>
      tenant_caches_;

  std::atomic<int64_t> accepted_{0};
  std::atomic<int64_t> shed_{0};
  std::atomic<int64_t> completed_{0};
  std::atomic<int64_t> failed_{0};

  PlanCache plan_cache_;

  /// Persistence state (set at Start when options_.store_dir is non-empty).
  persist::WarmStartReport warm_start_;
  std::mutex snapshot_mu_;
  std::atomic<int64_t> snapshots_taken_{0};
};

}  // namespace serve
}  // namespace lima

#endif  // LIMA_SERVE_SERVER_H_
