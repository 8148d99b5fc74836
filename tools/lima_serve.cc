// lima_serve: multi-tenant DML execution daemon over a Unix-domain socket
// (docs/SERVING.md). Every request runs on a fresh LimaSession attached to
// one shared sharded lineage cache, so tenants transparently reuse each
// other's intermediates; per-tenant byte budgets bound how much of the
// cache any one tenant can hold.
//
// Daemon:
//   lima_serve --socket=/tmp/lima.sock [--pool=N] [--queue=N]
//              [--budget-mb=N] [--tenant-budget-mb=TENANT:N]...
//              [--private-caches] [--config=FILE]
//              [--store-dir=DIR] [--snapshot-every=N]
//
//   --store-dir enables the persistent lineage store (docs/PERSISTENCE.md):
//   warm-start from the newest snapshot at boot, snapshot on drain and
//   (with --snapshot-every=N) after every N completed requests, and the
//   "query" op for in-situ lineage queries.
//
//   SIGHUP  reloads --config (pool size, queue capacity, tenant budgets)
//   SIGINT/SIGTERM drain in-flight and admitted requests, then exit
//
// One-shot client (handy for scripting and CI):
//   lima_serve --socket=/tmp/lima.sock --call --tenant=NAME script.dml
//   echo 'print(sum(rand(rows=3,cols=3)));' |
//     lima_serve --socket=/tmp/lima.sock --call --tenant=NAME -
//   lima_serve --socket=/tmp/lima.sock --call --op=stats
//   lima_serve --socket=/tmp/lima.sock --call --op=query --query=stats
#include <pthread.h>
#include <signal.h>

#include <cstdio>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "common/string_util.h"
#include "serve/client.h"
#include "serve/server.h"

namespace {

void PrintUsage() {
  std::fprintf(
      stderr,
      "usage: lima_serve --socket=PATH [--pool=N] [--queue=N]\n"
      "                  [--budget-mb=N] [--tenant-budget-mb=TENANT:N]...\n"
      "                  [--private-caches] [--config=FILE]\n"
      "                  [--store-dir=DIR] [--snapshot-every=N]\n"
      "       lima_serve --socket=PATH --call [--tenant=NAME] [--op=OP]\n"
      "                  [--query=Q] [--persist] [<script.dml | ->]\n");
}

bool ParseFlag(const std::string& arg, const char* name, std::string* value) {
  std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *value = arg.substr(prefix.size());
  return true;
}

int RunClient(const std::string& socket_path, const std::string& op,
              const std::string& tenant, const std::string& script_path,
              const std::string& query, bool persist) {
  using lima::serve::Call;
  using lima::serve::Message;

  Message request;
  request.Set("op", op);
  request.Set("tenant", tenant);
  if (op == "query") {
    request.Set("q", query);
  }
  if (persist) {
    request.Set("persist", "1");
  }
  if (op == "run") {
    std::string source;
    if (script_path.empty()) {
      std::fprintf(stderr, "lima_serve --call: missing script argument\n");
      return 2;
    }
    if (script_path == "-") {
      std::ostringstream buffer;
      buffer << std::cin.rdbuf();
      source = buffer.str();
    } else {
      std::ifstream in(script_path);
      if (!in) {
        std::fprintf(stderr, "cannot open %s\n", script_path.c_str());
        return 1;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      source = buffer.str();
    }
    request.Set("script", source);
  }

  lima::Result<Message> response = Call(socket_path, request);
  if (!response.ok()) {
    std::fprintf(stderr, "%s\n", response.status().ToString().c_str());
    return 1;
  }
  const std::string status = response->Get("status");
  if (status != "ok") {
    std::fprintf(stderr, "%s: %s\n", status.c_str(),
                 response->Get("error", "<no error text>").c_str());
    // Overload shedding is an explicit, retryable condition — give it a
    // distinct exit code so load scripts can tell it from a hard failure.
    return status == "overloaded" ? 3 : 1;
  }
  std::fputs(response->Get("output").c_str(), stdout);
  for (const auto& [key, value] : response->fields) {
    if (key != "status" && key != "output") {
      std::fprintf(stderr, "%s=%s\n", key.c_str(), value.c_str());
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace lima;

  serve::ServeOptions options;
  std::string config_path;
  std::string tenant = "default";
  std::string op = "run";
  std::string script_path;
  std::string query;
  bool call_mode = false;
  bool persist = false;
  std::string value;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (ParseFlag(arg, "socket", &value)) {
      options.socket_path = value;
    } else if (ParseFlag(arg, "pool", &value)) {
      Result<int> pool = ParseIntStrict(value, 1, 4096, "--pool");
      if (!pool.ok()) {
        std::fprintf(stderr, "%s\n", pool.status().ToString().c_str());
        return 2;
      }
      options.pool_size = *pool;
    } else if (ParseFlag(arg, "queue", &value)) {
      Result<int> queue = ParseIntStrict(value, 1, 1 << 20, "--queue");
      if (!queue.ok()) {
        std::fprintf(stderr, "%s\n", queue.status().ToString().c_str());
        return 2;
      }
      options.queue_capacity = *queue;
    } else if (ParseFlag(arg, "budget-mb", &value)) {
      Result<int64_t> budget_mb = ParseInt64Strict(
          value, 0, std::numeric_limits<int64_t>::max() / (1024 * 1024),
          "--budget-mb");
      if (!budget_mb.ok()) {
        std::fprintf(stderr, "%s\n", budget_mb.status().ToString().c_str());
        return 2;
      }
      options.session_config.cache_budget_bytes =
          int64_t{1024} * 1024 * *budget_mb;
    } else if (ParseFlag(arg, "tenant-budget-mb", &value)) {
      const size_t colon = value.find(':');
      if (colon == std::string::npos || colon == 0) {
        std::fprintf(stderr,
                     "--tenant-budget-mb expects TENANT:MB, got: %s\n",
                     value.c_str());
        return 2;
      }
      Result<int64_t> budget_mb = ParseInt64Strict(
          value.substr(colon + 1), 0,
          std::numeric_limits<int64_t>::max() / (1024 * 1024),
          "--tenant-budget-mb");
      if (!budget_mb.ok()) {
        std::fprintf(stderr, "%s\n", budget_mb.status().ToString().c_str());
        return 2;
      }
      options.tenant_budgets.emplace_back(value.substr(0, colon),
                                          int64_t{1024} * 1024 * *budget_mb);
    } else if (arg == "--private-caches") {
      options.shared_cache = false;
    } else if (ParseFlag(arg, "config", &value)) {
      config_path = value;
    } else if (ParseFlag(arg, "store-dir", &value)) {
      options.store_dir = value;
    } else if (ParseFlag(arg, "snapshot-every", &value)) {
      Result<int> every = ParseIntStrict(value, 0, 1 << 20,
                                         "--snapshot-every");
      if (!every.ok()) {
        std::fprintf(stderr, "%s\n", every.status().ToString().c_str());
        return 2;
      }
      options.snapshot_every = *every;
    } else if (arg == "--call") {
      call_mode = true;
    } else if (arg == "--persist") {
      persist = true;
    } else if (ParseFlag(arg, "tenant", &value)) {
      tenant = value;
    } else if (ParseFlag(arg, "query", &value)) {
      query = value;
    } else if (ParseFlag(arg, "op", &value)) {
      if (value != "run" && value != "stats" && value != "ping" &&
          value != "query") {
        std::fprintf(stderr, "unknown op: %s\n", value.c_str());
        return 2;
      }
      op = value;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      return 0;
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      PrintUsage();
      return 2;
    } else {
      script_path = arg;
    }
  }
  if (options.socket_path.empty()) {
    PrintUsage();
    return 2;
  }

  if (call_mode) {
    return RunClient(options.socket_path, op, tenant, script_path, query,
                     persist);
  }

  if (!config_path.empty()) {
    Result<serve::ServeOptions> loaded =
        serve::LoadServeOptionsFile(config_path, options);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s\n", loaded.status().ToString().c_str());
      return 2;
    }
    options = *loaded;
  }

  // The handled signals stay blocked in every thread (server threads inherit
  // this mask) and the main thread takes them synchronously with sigwait.
  // Unlike an async handler, this also works under ThreadSanitizer, which
  // never delivered a handler-caught SIGTERM to a thread parked in read().
  sigset_t handled;
  sigemptyset(&handled);
  sigaddset(&handled, SIGHUP);
  sigaddset(&handled, SIGINT);
  sigaddset(&handled, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &handled, nullptr);
  signal(SIGPIPE, SIG_IGN);

  serve::LimaServer server(options);
  Status status = server.Start();
  if (!status.ok()) {
    std::fprintf(stderr, "%s\n", status.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "lima_serve: listening on %s (pool=%d queue=%d %s)\n",
               options.socket_path.c_str(), options.pool_size,
               options.queue_capacity,
               options.shared_cache ? "shared cache" : "private caches");
  if (!options.store_dir.empty()) {
    std::fprintf(stderr, "lima_serve: %s\n",
                 server.warm_start_report().Summary().c_str());
  }

  // SIGHUP reloads; SIGINT/SIGTERM (or a failed wait) drain and exit.
  int signo = 0;
  while (sigwait(&handled, &signo) == 0 && signo == SIGHUP) {
    if (config_path.empty()) {
      std::fprintf(stderr, "lima_serve: SIGHUP ignored (no --config)\n");
      continue;
    }
    Result<serve::ServeOptions> loaded =
        serve::LoadServeOptionsFile(config_path, options);
    if (!loaded.ok()) {
      // Keep serving with the old config; a bad reload must not kill a
      // live daemon.
      std::fprintf(stderr, "lima_serve: reload failed: %s\n",
                   loaded.status().ToString().c_str());
      continue;
    }
    options = *loaded;
    server.Reload(options);
    std::fprintf(stderr, "lima_serve: reloaded %s (pool=%d queue=%d)\n",
                 config_path.c_str(), options.pool_size,
                 options.queue_capacity);
  }

  std::fprintf(stderr, "lima_serve: draining...\n");
  server.Stop();
  std::fprintf(stderr, "lima_serve: bye\n");
  return 0;
}
