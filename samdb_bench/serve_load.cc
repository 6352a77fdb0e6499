// Closed-loop load generator for the serve session that ends every round.
// Callers of a cardinality service wait for each answer, so the fleet is
// closed-loop: each client keeps a fixed number of requests in flight and
// sends the next only when one returns.

#include <atomic>
#include <map>
#include <mutex>
#include <set>
#include <thread>

#include "ar/estimator.h"
#include "bench.h"
#include "common/random.h"
#include "obs/json.h"
#include "serve/client.h"
#include "serve/plan_cache.h"
#include "serve/server.h"
#include "workload/io.h"

namespace samdb_bench {
namespace {

// The traffic mix. Where the repository has a figure, the mix takes it:
//  - each client keeps bench_serve's default `--pipeline` of 4 requests in
//    flight;
//  - the hot share of exact requests is the training workload's own repeat
//    rate: the share of its queries whose plan-cache key occurred earlier in
//    it. The hot subset is those repeated queries, drawn in proportion to
//    their multiplicity; the other exact requests walk the remaining
//    training and test queries once (plan-cache misses).
// The rest are assumptions that no measurement in the repository backs; the
// record reports the shares each session achieved beside the metrics.
constexpr size_t kPipeline = 4;        // bench_serve's default --pipeline.
constexpr double kModelShare = 0.1;    // Assumed share of model estimates.
constexpr size_t kModelQueries = 16;   // Assumed pool of model queries.
constexpr double kJobAt = 1.0 / 3;     // Assumed job submission point.
constexpr int64_t kTimeoutMs = 30000;  // ServeOptions' default deadline.

struct PoolEntry {
  std::string tail;  // The request after its id: `"query": ...}`.
  int64_t expected = 0;
};

std::string Request(int64_t id, const std::string& tail) {
  return "{\"id\": " + std::to_string(id) + ", \"type\": \"estimate\", " + tail;
}

std::string QueryTail(const sam::Query& q, const char* estimator,
                      size_t paths) {
  std::string tail = "\"query\": \"" +
                     sam::obs::EscapeJson(sam::EncodeWorkloadQuery(q)) +
                     "\", \"estimator\": \"" + estimator + "\"";
  if (paths > 0) tail += ", \"paths\": " + std::to_string(paths);
  return tail + "}";
}

void Classify(const sam::obs::JsonValue& resp, OpStats* s) {
  const sam::obs::JsonValue* code = resp.Find("code");
  const sam::obs::JsonValue* error = resp.Find("error");
  const std::string msg = error != nullptr ? error->string_value : "";
  if (code != nullptr && code->string_value == "OutOfRange" &&
      msg.find("overloaded") != std::string::npos) {
    ++s->shed;
  } else if (code != nullptr && code->string_value == "OutOfRange" &&
             msg.find("deadline") != std::string::npos) {
    ++s->timed_out;
  } else {
    ++s->failed;
  }
}

double StatNumber(const std::string& stats_json, const char* key,
                  const char* sub = nullptr) {
  auto parsed = sam::obs::ParseJson(stats_json);
  if (!parsed.ok()) return 0;
  const sam::obs::JsonValue* v = parsed.ValueOrDie().Find(key);
  if (v != nullptr && sub != nullptr) v = v->Find(sub);
  return v != nullptr ? v->number_value : 0;
}

}  // namespace

sam::Result<ServeSession> RunServeSession(
    const Inputs& in, std::shared_ptr<const sam::SamModel> sam, size_t clients,
    double seconds, size_t model_paths, uint64_t seed,
    const std::string& job_dir) {
  // Reference answers, computed before the clock starts: exact requests
  // must equal Executor::Cardinality, model requests the single-query
  // ProgressiveEstimator (the server's batched estimator is bit-identical).
  std::vector<PoolEntry> hot_pool, unique_pool;
  std::map<std::string, size_t> train_keys;
  for (const sam::Query& q : in.train) {
    ++train_keys[sam::serve::CanonicalQueryKey(q)];
  }
  std::set<std::string> pooled;
  for (const sam::Workload* w : {&in.train, &in.test}) {
    for (const sam::Query& q : *w) {
      const std::string key = sam::serve::CanonicalQueryKey(q);
      auto it = train_keys.find(key);
      const bool hot = it != train_keys.end() && it->second > 1;
      if (hot ? w != &in.train : !pooled.insert(key).second) continue;
      SAM_ASSIGN_OR_RETURN(int64_t card, in.exec->Cardinality(q));
      (hot ? hot_pool : unique_pool).push_back({QueryTail(q, "true", 0), card});
    }
  }
  const double hot_share =
      static_cast<double>(in.train.size() - train_keys.size()) /
      static_cast<double>(std::max<size_t>(1, in.train.size()));
  std::vector<std::pair<std::string, double>> model_pool;
  const sam::ProgressiveEstimator reference(sam->model(), model_paths);
  for (size_t i = 0; i < kModelQueries && i < in.test.size(); ++i) {
    SAM_ASSIGN_OR_RETURN(double est,
                         reference.EstimateCardinality(in.test[i]));
    model_pool.push_back({QueryTail(in.test[i], "model", model_paths), est});
  }

  sam::serve::ServeOptions sopts;
  sopts.queue_capacity = clients * kPipeline + 16;
  sopts.request_timeout_ms = kTimeoutMs;
  sopts.estimate_paths_default = model_paths;
  sopts.worker_threads = clients;
  sam::serve::SamServer server(in.db.get(), in.exec.get(), sam, sopts);
  SAM_RETURN_NOT_OK(server.Start());

  ServeSession out;
  out.hot_share = hot_share;
  std::mutex mu;  // Guards the merges of client counts into `out`.
  std::atomic<bool> client_error{false};
  std::atomic<bool> done{false};
  std::atomic<size_t> next_unique{0};
  const double t0 = Now();
  const double deadline = t0 + seconds;

  auto client_main = [&](size_t c) {
    auto conn = sam::serve::ServeClient::Connect("127.0.0.1", server.port());
    if (!conn.ok()) {
      client_error.store(true);
      return;
    }
    sam::serve::ServeClient& cl = conn.ValueOrDie();
    sam::Rng rng(seed * 1000003 + c);
    struct InFlight {
      double sent;
      const std::vector<PoolEntry>* pool;  // Null for model estimates.
      size_t index;
    };
    std::map<int64_t, InFlight> inflight;
    OpStats exact, model;
    uint64_t hot_attempted = 0;
    int64_t next_id = static_cast<int64_t>(c) << 32;
    while (!client_error.load()) {
      while (Now() < deadline && inflight.size() < kPipeline) {
        const int64_t id = ++next_id;
        InFlight f{0, nullptr, 0};
        if (rng.Uniform() < kModelShare && !model_pool.empty()) {
          f.index = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(model_pool.size()) - 1));
        } else if (rng.Uniform() < hot_share && !hot_pool.empty()) {
          f.pool = &hot_pool;
          f.index = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(hot_pool.size()) - 1));
          ++hot_attempted;
        } else {
          // Unique queries walk the pool once before repeating it.
          f.pool = &unique_pool;
          f.index = next_unique.fetch_add(1) % unique_pool.size();
        }
        const std::string& tail = f.pool == nullptr ? model_pool[f.index].first
                                                    : (*f.pool)[f.index].tail;
        f.sent = Now();
        if (!cl.Send(Request(id, tail)).ok()) {
          client_error.store(true);
          return;
        }
        (f.pool == nullptr ? model : exact).attempted++;
        inflight.emplace(id, f);
      }
      if (inflight.empty()) break;
      auto line = cl.ReceiveLine();
      if (!line.ok()) {
        client_error.store(true);
        return;
      }
      const double now = Now();
      auto resp = sam::obs::ParseJson(line.ValueOrDie());
      const sam::obs::JsonValue* id_v =
          resp.ok() ? resp.ValueOrDie().Find("id") : nullptr;
      auto it = id_v != nullptr
                    ? inflight.find(static_cast<int64_t>(id_v->number_value))
                    : inflight.end();
      if (it == inflight.end()) {
        client_error.store(true);
        return;
      }
      const InFlight f = it->second;
      inflight.erase(it);
      OpStats& s = f.pool == nullptr ? model : exact;
      const sam::obs::JsonValue& r = resp.ValueOrDie();
      const sam::obs::JsonValue* ok = r.Find("ok");
      if (ok == nullptr || !ok->bool_value) {
        Classify(r, &s);
        s.latency_ms.push_back(static_cast<double>(kTimeoutMs));
        continue;
      }
      const sam::obs::JsonValue* vals =
          r.Find(f.pool == nullptr ? "estimates" : "cards");
      const bool right =
          vals != nullptr && vals->is_array() &&
          vals->array_items.size() == 1 &&
          (f.pool == nullptr
               ? vals->array_items[0].number_value ==
                     model_pool[f.index].second
               : static_cast<int64_t>(vals->array_items[0].number_value) ==
                     (*f.pool)[f.index].expected);
      if (!right) ++s.wrong;
      ++s.succeeded;
      s.latency_ms.push_back((now - f.sent) * 1e3);
    }
    std::lock_guard<std::mutex> lock(mu);
    out.hot_attempted += hot_attempted;
    for (auto [from, to] :
         {std::pair{&exact, &out.exact}, {&model, &out.model}}) {
      to->attempted += from->attempted;
      to->succeeded += from->succeeded;
      to->failed += from->failed;
      to->shed += from->shed;
      to->timed_out += from->timed_out;
      to->wrong += from->wrong;
      to->latency_ms.insert(to->latency_ms.end(), from->latency_ms.begin(),
                            from->latency_ms.end());
    }
  };

  // Samples the dispatcher queue depth while the fleet runs.
  std::thread monitor([&] {
    while (!done.load()) {
      out.queue_depth_peak =
          std::max(out.queue_depth_peak,
                   StatNumber(server.StatsJson(), "queue_depth"));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  // One async generate job, submitted a third of the way in and polled.
  std::thread job([&] {
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds * kJobAt));
    auto conn = sam::serve::ServeClient::Connect("127.0.0.1", server.port());
    if (!conn.ok()) return;
    out.job_out = job_dir + "/out";
    const double start = Now();
    auto started = conn.ValueOrDie().Call(
        "{\"id\": 1, \"type\": \"generate\", \"out\": \"" +
        sam::obs::EscapeJson(out.job_out) + "\", \"work\": \"" +
        sam::obs::EscapeJson(job_dir + "/work") + "\"}");
    const sam::obs::JsonValue* job_id =
        started.ok() ? started.ValueOrDie().Find("job") : nullptr;
    if (job_id == nullptr) return;
    for (int64_t poll = 2;; ++poll) {
      auto status = conn.ValueOrDie().Call(
          "{\"id\": " + std::to_string(poll) +
          ", \"type\": \"generate_status\", \"job\": " +
          std::to_string(static_cast<int64_t>(job_id->number_value)) + "}");
      const sam::obs::JsonValue* state =
          status.ok() ? status.ValueOrDie().Find("state") : nullptr;
      if (state == nullptr) return;
      if (state->string_value != "queued" && state->string_value != "running") {
        out.job_seconds = Now() - start;
        out.job_done = state->string_value == "done";
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });

  std::vector<std::thread> fleet;
  for (size_t c = 0; c < clients; ++c) fleet.emplace_back(client_main, c);
  for (std::thread& t : fleet) t.join();
  out.seconds = Now() - t0;
  job.join();
  done.store(true);
  monitor.join();

  const std::string stats = server.StatsJson();
  out.batches = static_cast<uint64_t>(StatNumber(stats, "batches"));
  out.model_batches = static_cast<uint64_t>(StatNumber(stats, "model_batches"));
  out.cache_hits =
      static_cast<uint64_t>(StatNumber(stats, "plan_cache", "hits"));
  out.cache_misses =
      static_cast<uint64_t>(StatNumber(stats, "plan_cache", "misses"));
  out.dispatched = out.exact.attempted + out.model.attempted;
  server.Stop();
  if (client_error.load()) return sam::Status::IOError("a serve client failed");
  return out;
}

}  // namespace samdb_bench
