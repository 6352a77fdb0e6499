// bench_serve — load generator for the `samdb serve` daemon.
//
// Self-hosted mode (default): builds a census-like database in process,
// starts two in-process servers — cross-client batching ON (--batch-max
// requests coalesced into one parallel executor call) and OFF (the
// one-request-per-call baseline) — and drives both with the same closed-loop
// client fleet, reporting the throughput ratio plus p50/p99 latency and peak
// queue depth per config.
//
// External mode (--port=N [--host=A] --workload=FILE): drives an already
// running daemon with queries from a workload file; used by the CI smoke.
//
// Flags:
//   --smoke         tiny sizes (CI)
//   --clients=N     concurrent client connections   (default 8)
//   --requests=N    requests per client             (default 200; smoke 40)
//   --pipeline=N    outstanding requests per client (default 4)
//   --rows=N        census rows, self-hosted mode   (default 40000)
//   --min-speedup=X fail (exit 1) when the batched/baseline throughput
//                   ratio lands below X (default 0 = report only); the CI
//                   gate uses a conservative threshold so a regression to
//                   per-request dispatch fails the build
//   --port=N        external daemon port (switches to external mode)
//   --host=A        external daemon host (default 127.0.0.1)
//   --workload=F    queries for external mode (workload text format)

#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "datasets/datasets.h"
#include "engine/executor.h"
#include "obs/json.h"
#include "obs/metrics_registry.h"
#include "sam/sam_model.h"
#include "serve/client.h"
#include "serve/server.h"
#include "workload/generator.h"
#include "workload/io.h"

namespace sam {
namespace {

struct Args {
  size_t clients;
  size_t requests;
  size_t pipeline;
  size_t rows;
  double min_speedup;  // 0 = report only.
  int port;            // 0 = self-hosted.
  std::string host;
  std::string workload;
};

Args ParseArgs(int argc, char** argv) {
  const Flags flags(argc, argv, 1);
  const bool smoke = flags.GetBool("smoke");
  Args args;
  args.clients = bench::CountFlag(flags, "clients", 8, 1);
  args.requests = bench::CountFlag(flags, "requests", smoke ? 40 : 200, 1);
  args.pipeline = bench::CountFlag(flags, "pipeline", 4, 1);
  args.rows = bench::CountFlag(flags, "rows", smoke ? 4000 : 40000, 1);
  args.min_speedup = bench::DoubleFlag(flags, "min-speedup", 0);
  args.port = static_cast<int>(bench::CountFlag(flags, "port", 0, 0));
  args.host = flags.Get("host", "127.0.0.1");
  args.workload = flags.Get("workload");
  bench::ExitOnUnreadFlags(flags);
  return args;
}

std::string EstimateRequest(int64_t id, const std::string& query_text) {
  return "{\"id\": " + std::to_string(id) + ", \"type\": \"estimate\", "
         "\"query\": \"" + obs::EscapeJson(query_text) + "\"}";
}

struct LoadResult {
  double seconds = 0;
  uint64_t ok_responses = 0;
  uint64_t errors = 0;
  std::string stats_json;
};

/// Closed-loop fleet: every client keeps up to `pipeline` requests in
/// flight; total offered load is clients * requests.
Result<LoadResult> RunLoad(const Args& args, const std::string& host, int port,
                           const std::vector<std::string>& request_lines) {
  std::atomic<uint64_t> ok{0};
  std::atomic<uint64_t> errors{0};
  std::atomic<bool> failed{false};
  std::vector<std::thread> threads;
  const Stopwatch watch;
  for (size_t c = 0; c < args.clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = serve::ServeClient::Connect(host, port);
      if (!client.ok()) {
        failed.store(true);
        return;
      }
      serve::ServeClient& cl = client.ValueOrDie();
      size_t sent = 0;
      size_t received = 0;
      size_t inflight = 0;
      while (received < args.requests && !failed.load()) {
        while (sent < args.requests && inflight < args.pipeline) {
          const std::string& line =
              request_lines[(c * args.requests + sent) % request_lines.size()];
          if (!cl.Send(line).ok()) {
            failed.store(true);
            return;
          }
          ++sent;
          ++inflight;
        }
        auto response = cl.ReceiveLine();
        if (!response.ok()) {
          failed.store(true);
          return;
        }
        ++received;
        --inflight;
        if (response.ValueOrDie().find("\"ok\": true") != std::string::npos) {
          ok.fetch_add(1);
        } else {
          errors.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoadResult result;
  result.seconds = watch.ElapsedSeconds();
  result.ok_responses = ok.load();
  result.errors = errors.load();
  if (failed.load()) return Status::IOError("a load client failed");

  auto stats_client = serve::ServeClient::Connect(host, port);
  if (stats_client.ok()) {
    auto stats =
        stats_client.ValueOrDie().Call("{\"id\": 0, \"type\": \"stats\"}");
    if (stats.ok()) {
      const obs::JsonValue* s = stats.ValueOrDie().Find("stats");
      if (s != nullptr && s->is_object()) {
        // Re-serialise the interesting subset compactly.
        auto num = [s](const char* key, const char* sub) -> double {
          const obs::JsonValue* v = s->Find(key);
          if (v != nullptr && sub != nullptr) v = v->Find(sub);
          return v != nullptr ? v->number_value : 0.0;
        };
        char buf[256];
        std::snprintf(buf, sizeof(buf),
                      "p50=%.3gms p99=%.3gms cache_hits=%.0f "
                      "cache_misses=%.0f batches=%.0f",
                      num("latency_ms", "p50"), num("latency_ms", "p99"),
                      num("plan_cache", "hits"), num("plan_cache", "misses"),
                      num("batches", nullptr));
        result.stats_json = buf;
      }
    }
  }
  return result;
}

void Report(const char* label, const Args& args, const LoadResult& r) {
  const double total =
      static_cast<double>(args.clients) * static_cast<double>(args.requests);
  std::printf("%-28s %8.0f req/s  ok=%llu err=%llu  %s\n", label,
              total / r.seconds,
              static_cast<unsigned long long>(r.ok_responses),
              static_cast<unsigned long long>(r.errors),
              r.stats_json.c_str());
}

int RunExternal(const Args& args) {
  auto workload = LoadWorkload(args.workload);
  if (!workload.ok()) {
    std::fprintf(stderr, "error: %s\n", workload.status().ToString().c_str());
    return 1;
  }
  std::vector<std::string> lines;
  int64_t id = 1;
  for (const Query& q : workload.ValueOrDie()) {
    lines.push_back(EstimateRequest(id++, EncodeWorkloadQuery(q)));
  }
  auto result = RunLoad(args, args.host, args.port, lines);
  if (!result.ok()) {
    std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
    return 1;
  }
  Report("external daemon", args, result.ValueOrDie());
  return result.ValueOrDie().errors == 0 ? 0 : 1;
}

int RunSelfHosted(const Args& args) {
  obs::EnableMetrics(true);
  Database db = MakeCensusLike(args.rows, /*seed=*/7);
  auto exec = Executor::Create(&db);
  if (!exec.ok()) {
    std::fprintf(stderr, "error: %s\n", exec.status().ToString().c_str());
    return 1;
  }
  SingleRelationWorkloadOptions wopts;
  wopts.num_queries = 128;
  wopts.seed = 11;
  auto workload =
      GenerateSingleRelationWorkload(db, "census", *exec.ValueOrDie(), wopts);
  if (!workload.ok()) {
    std::fprintf(stderr, "error: %s\n", workload.status().ToString().c_str());
    return 1;
  }

  SamOptions options;
  auto sam = SamModel::Create(db, workload.ValueOrDie(), SchemaHints{},
                              static_cast<int64_t>(args.rows), options);
  if (!sam.ok()) {
    std::fprintf(stderr, "error: %s\n", sam.status().ToString().c_str());
    return 1;
  }
  sam.ValueOrDie()->model()->SyncSamplerWeights();
  std::shared_ptr<const SamModel> model(sam.MoveValue().release());

  std::vector<std::string> lines;
  int64_t id = 1;
  for (const Query& q : workload.ValueOrDie()) {
    lines.push_back(EstimateRequest(id++, EncodeWorkloadQuery(q)));
  }

  auto run_config = [&](const char* label, bool per_request_executor,
                        LoadResult* out) -> int {
    obs::MetricsRegistry::Global().Reset();
    serve::ServeOptions sopts;
    sopts.per_request_executor = per_request_executor;
    if (per_request_executor) {
      sopts.batch_max = 1;
      sopts.plan_cache_capacity = 0;
    }
    sopts.queue_capacity = args.clients * args.pipeline + 16;
    serve::SamServer server(&db, exec.ValueOrDie().get(), model, sopts);
    const Status st = server.Start();
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    auto result = RunLoad(args, "127.0.0.1", server.port(), lines);
    if (!result.ok()) {
      std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
      return 1;
    }
    server.Stop();
    *out = result.MoveValue();
    Report(label, args, *out);
    return 0;
  };

  std::printf("bench_serve: %zu clients x %zu requests (pipeline %zu), "
              "census rows=%zu\n",
              args.clients, args.requests, args.pipeline, args.rows);
  // Baseline = one `Executor::ParallelCardinality` call per request: per-call
  // pool construction and query compilation, no coalescing, no plan cache —
  // what a daemon wrapping the pre-existing batch API would do. The serve
  // fast path coalesces requests across clients into single
  // `ParallelCardinalityCompiled` calls on a persistent pool with cached
  // plans.
  LoadResult baseline, batched;
  if (run_config("baseline (1 call/request)", true, &baseline) != 0) return 1;
  if (run_config("serve (batched + cached)", false, &batched) != 0) return 1;

  const double total =
      static_cast<double>(args.clients) * static_cast<double>(args.requests);
  const double speedup =
      (total / batched.seconds) / (total / baseline.seconds);
  std::printf("cross-client batching speedup: %.2fx\n", speedup);

  const uint64_t expected = args.clients * args.requests;
  if (baseline.ok_responses != expected || batched.ok_responses != expected) {
    std::fprintf(stderr, "error: lost responses (want %llu per config)\n",
                 static_cast<unsigned long long>(expected));
    return 1;
  }
  if (args.min_speedup > 0 && speedup < args.min_speedup) {
    std::fprintf(stderr,
                 "error: speedup %.2fx below required %.2fx — cross-client "
                 "batching is not paying for itself\n",
                 speedup, args.min_speedup);
    return 1;
  }
  return 0;
}

int Run(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  return args.port > 0 ? RunExternal(args) : RunSelfHosted(args);
}

}  // namespace
}  // namespace sam

int main(int argc, char** argv) { return sam::Run(argc, argv); }
