// bench_estimation — batched vs per-query progressive-sampling estimation.
//
// Builds a census-like database and workload in process, then measures the
// model-estimation path two ways over the same queries:
//   baseline   one ProgressiveEstimator::EstimateCardinality call per query,
//              serially — what serve, QErrorOnDatabase-style sweeps and the
//              CLI did before cross-query batching;
//   batched    the workload swept through BatchedProgressiveEstimator in
//              groups of K coalesced queries, path-blocks sharded over the
//              thread pool.
// Before timing anything it asserts the two paths agree bit-for-bit on every
// query (the batched estimator's determinism contract), so the speedup can
// never come from answering a different question.
//
// Results go to stdout and (machine-readable, for cross-PR perf tracking) to
// --json-out, default BENCH_estimation.json, through bench::WriteBenchJson:
// queries/sec per coalesced batch size and thread count, each timed phase
// with its wall and process-CPU seconds (cpu/wall is also printed).
//
// Flags:
//   --smoke         tiny sizes (CI)
//   --rows=N        census rows                     (default 4000)
//   --queries=N     workload size swept per config  (default 128; smoke 48)
//   --paths=N       trajectories per query          (default 200; smoke 64)
//   --threads=N     pool workers for the batched path (0 = hardware)
//   --min-speedup=X fail (exit 1) when the best batched/baseline ratio at
//                   >= 8 coalesced queries lands below X (default 0 =
//                   report only); the CI gate uses a conservative threshold
//   --json-out=F    output file ("" disables; default BENCH_estimation.json)

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "ar/batched_estimator.h"
#include "ar/estimator.h"
#include "ar/made.h"
#include "bench_common.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "datasets/datasets.h"
#include "engine/executor.h"
#include "linalg/kernels.h"
#include "workload/generator.h"

namespace sam {
namespace {

struct Args {
  size_t rows;
  size_t queries;
  size_t paths;
  size_t threads;  // 0 = hardware concurrency.
  double min_speedup;
  std::string json_out;
};

Args ParseArgs(int argc, char** argv) {
  const Flags flags(argc, argv, 1);
  const bool smoke = flags.GetBool("smoke");
  Args args;
  args.rows = bench::CountFlag(flags, "rows", 4000, 1);
  args.queries = bench::CountFlag(flags, "queries", smoke ? 48 : 128, 1);
  args.paths = bench::CountFlag(flags, "paths", smoke ? 64 : 200, 1);
  args.threads = bench::CountFlag(flags, "threads", 0, 0);
  args.min_speedup = bench::DoubleFlag(flags, "min-speedup", 0);
  args.json_out = flags.Get("json-out", "BENCH_estimation.json");
  bench::ExitOnUnreadFlags(flags);
  return args;
}

int Run(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);

  Database db = MakeCensusLike(args.rows, /*seed=*/7);
  auto exec = Executor::Create(&db);
  SAM_CHECK(exec.ok()) << exec.status().ToString();
  SingleRelationWorkloadOptions wopts;
  wopts.num_queries = args.queries;
  wopts.seed = 11;
  auto workload =
      GenerateSingleRelationWorkload(db, "census", *exec.ValueOrDie(), wopts);
  SAM_CHECK(workload.ok()) << workload.status().ToString();
  const Workload& queries = workload.ValueOrDie();

  auto schema = ModelSchema::Build(db, queries, bench::CensusHints(),
                                   static_cast<int64_t>(args.rows));
  SAM_CHECK(schema.ok()) << schema.status().ToString();
  MadeModel::Options mopts;
  mopts.hidden_sizes = {64, 64};
  MadeModel model(&schema.ValueOrDie(), mopts);
  model.SyncSamplerWeights();

  const size_t threads =
      args.threads > 0 ? args.threads
                       : std::max(1u, std::thread::hardware_concurrency());
  ThreadPool pool(threads);
  const char* backend = bench::BackendName(kernels::ActiveBackend());

  std::printf("bench_estimation: %zu queries x %zu paths, census rows=%zu, "
              "backend=%s, threads=%zu\n",
              queries.size(), args.paths, args.rows, backend, threads);

  // Baseline: the pre-batching caller shape — one estimator call per query,
  // serial (a per-request serve dispatch or a per-query sweep loop).
  ProgressiveEstimator baseline(&model, args.paths);
  std::vector<double> expected(queries.size());
  const bench::CpuWallTimer tb;
  for (size_t i = 0; i < queries.size(); ++i) {
    auto est = baseline.EstimateCardinality(queries[i]);
    SAM_CHECK(est.ok()) << est.status().ToString();
    expected[i] = est.ValueOrDie();
  }
  const bench::Timing baseline_t = tb.Elapsed();
  const double baseline_qps =
      static_cast<double>(queries.size()) / baseline_t.wall_s;
  std::printf("%-26s %9.1f queries/s         cpu/wall %.2f\n",
              "baseline (per-query)", baseline_qps,
              baseline_t.cpu_s / baseline_t.wall_s);

  std::vector<bench::BenchRecord> records = {
      {"threads", static_cast<double>(threads), "threads", {}},
      {"baseline_qps", baseline_qps, "queries/s", baseline_t}};
  BatchedProgressiveEstimator batched(&model);
  double gated_speedup = 0;  // Best ratio at >= 8 coalesced queries.
  for (size_t k : {size_t{1}, size_t{8}, size_t{64}}) {
    if (k > queries.size()) continue;
    std::vector<double> got(queries.size());
    const bench::CpuWallTimer t0;
    for (size_t base = 0; base < queries.size(); base += k) {
      const size_t n = std::min(k, queries.size() - base);
      const std::vector<Query> group(queries.begin() + base,
                                     queries.begin() + base + n);
      auto ests = batched.EstimateBatch(group, args.paths, &pool);
      SAM_CHECK(ests.ok()) << ests.status().ToString();
      std::copy(ests.ValueOrDie().begin(), ests.ValueOrDie().end(),
                got.begin() + base);
    }
    const bench::Timing t = t0.Elapsed();
    // Bit-identity assertion: a batched sweep that answers a different
    // question than the per-query baseline is a bug, not a speedup.
    for (size_t i = 0; i < queries.size(); ++i) {
      if (got[i] != expected[i]) {
        std::fprintf(stderr,
                     "error: batched estimate diverged at query %zu "
                     "(coalesced=%zu): batched=%.17g per-query=%.17g\n",
                     i, k, got[i], expected[i]);
        return 1;
      }
    }
    const double qps = static_cast<double>(queries.size()) / t.wall_s;
    const double speedup = qps / baseline_qps;
    if (k >= 8 && speedup > gated_speedup) gated_speedup = speedup;
    std::printf("batched (coalesced=%-3zu)    %9.1f queries/s  %5.2fx  "
                "cpu/wall %.2f\n",
                k, qps, speedup, t.cpu_s / t.wall_s);
    const std::string name = "batched_c" + std::to_string(k);
    records.push_back({name + "_qps", qps, "queries/s", t});
    records.push_back({name + "_speedup", speedup, "x", {}});
  }

  const Status written =
      bench::WriteBenchJson(args.json_out, "estimation", records);
  if (!written.ok()) {
    std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
    return 1;
  }

  if (args.min_speedup > 0 && gated_speedup < args.min_speedup) {
    std::fprintf(stderr,
                 "error: batched estimation speedup %.2fx (best at >= 8 "
                 "coalesced queries) below required %.2fx — cross-query "
                 "batching is not paying for itself\n",
                 gated_speedup, args.min_speedup);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace sam

int main(int argc, char** argv) { return sam::Run(argc, argv); }
