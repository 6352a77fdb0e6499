// Per-layer probes of the traced run. Each times one public entry point of a
// layer in isolation at the shape the workload's model uses, so a per-layer
// number moves only when that layer does.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <thread>

#include "ar/batched_estimator.h"
#include "autodiff/tensor.h"
#include "bench.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "linalg/kernels.h"
#include "sam/generation_pipeline.h"

namespace samdb_bench {
namespace {

/// Median seconds of `fn` over repeats filling ~`budget` seconds (>= 3).
template <typename Fn>
double MedianSeconds(double budget, Fn&& fn) {
  std::vector<double> t;
  const double start = Now();
  while (t.size() < 3 || (Now() - start < budget && t.size() < 1000)) {
    const double t0 = Now();
    fn();
    t.push_back(Now() - t0);
  }
  return Median(t);
}

}  // namespace

void ProbeLinalg(size_t rows, size_t hidden, MetricSet* out) {
  const sam::kernels::KernelTable& k = sam::kernels::Active();
  sam::Rng rng(17);
  std::vector<double> a(rows * hidden), b(hidden * hidden), c(rows * hidden);
  for (double& v : a) v = rng.Uniform(-1, 1);
  for (double& v : b) v = rng.Uniform(-1, 1);
  const double mm = MedianSeconds(0.2, [&] {
    k.matmul_dense(a.data(), rows, hidden, b.data(), hidden, c.data());
  });
  out->Set("linalg.matmul_dense_gflops",
           2.0 * static_cast<double>(rows * hidden * hidden) / mm / 1e9,
           "GFLOP/s");
  const double sm = MedianSeconds(0.2, [&] {
    std::copy(a.begin(), a.end(), c.begin());
    k.softmax_rows(c.data(), rows, hidden);
  });
  out->Set("linalg.softmax_rows_melem_per_s",
           static_cast<double>(rows * hidden) / sm / 1e6, "Melem/s");
}

void ProbeMade(const sam::SamModel& sam, size_t train_batch_rows,
               MetricSet* out) {
  const sam::MadeModel& model = *sam.model();
  const sam::ModelSchema& schema = sam.schema();
  const size_t ncols = schema.columns().size();
  const double fwd = MedianSeconds(0.3, [&] {
    const sam::MadeModel::MaskedWeights mw = model.BuildMaskedWeights();
    const sam::ad::Tensor input =
        sam::ad::Tensor::Zeros(train_batch_rows, schema.total_domain());
    for (size_t col = 0; col < ncols; ++col) {
      sam::ad::Tensor hidden = model.Hidden(mw, input);
      sam::ad::Tensor logits = model.ColumnLogits(mw, hidden, input, col);
    }
  });
  out->Set("autodiff.forward_ms", fwd * 1e3, "ms");

  const size_t rows = sam.options().generation_batch;
  sam::MadeModel::SamplerState state = model.InitState(rows);
  const std::vector<int32_t> codes(rows, 0);
  const double sweep = MedianSeconds(0.3, [&] {
    model.ResetState(&state, rows);
    for (size_t col = 0; col < ncols; ++col) {
      model.CondProbs(state, col);
      model.Observe(&state, col, codes);
    }
  });
  out->Set("made.cond_probs_rows_per_s", static_cast<double>(rows) / sweep,
           "rows/s");
}

void ProbeEstimator(const sam::SamModel& sam, const sam::Workload& queries,
                    size_t paths, MetricSet* out, Ledger* ledger) {
  sam::ThreadPool pool(0);
  sam::ThreadPool one(1);
  sam::BatchedProgressiveEstimator est(sam.model());
  std::vector<double> wide, serial;
  const double t_wide = MedianSeconds(0.3, [&] {
    auto r = est.EstimateBatch(queries, paths, &pool);
    ledger->Op(r.ok(), "estimator probe (pool)");
    if (r.ok()) wide = r.MoveValue();
  });
  const double t_serial = MedianSeconds(0.3, [&] {
    auto r = est.EstimateBatch(queries, paths, &one);
    ledger->Op(r.ok(), "estimator probe (1 thread)");
    if (r.ok()) serial = r.MoveValue();
  });
  ledger->Check(wide == serial,
                "batched estimates bit-identical across thread counts");
  const double path_columns = static_cast<double>(
      queries.size() * paths * sam.schema().columns().size());
  out->Set("estimator.path_columns_per_s", path_columns / t_wide,
           "path-col/s");
  out->Set("estimator.speedup_vs_1thread", t_serial / t_wide, "x");
}

void ProbePipelineSpeedup(const sam::SamModel& sam, const std::string& work,
                          MetricSet* out, Ledger* ledger) {
  double seconds[2] = {0, 0};
  uint64_t digest[2] = {0, 0};
  for (int serial = 0; serial < 2; ++serial) {
    sam::GenerationPipelineOptions opts;
    opts.out_dir = work + (serial ? "/serial_out" : "/default_out");
    opts.work_dir = opts.out_dir + ".work";
    if (serial) opts.commit_threads = 1;
    std::filesystem::remove_all(opts.out_dir);
    std::filesystem::remove_all(opts.work_dir);
    sam::GenerationPipeline pipeline(&sam, opts);
    const double t0 = Now();
    auto run = pipeline.Run();
    seconds[serial] = Now() - t0;
    ledger->Op(run.ok() && run.ValueOrDie().completed,
               "pipeline speedup probe run");
    digest[serial] = DirectoryDigest(opts.out_dir);
  }
  ledger->Check(digest[0] == digest[1] && digest[0] != 0,
                "out-of-core output byte-identical for commit_threads=1");
  out->Set("pipeline.speedup_vs_serial", seconds[1] / seconds[0], "x");
}

double MeasureEffectiveParallelism(size_t threads) {
  // The atomic sink keeps the compiler from dropping the loops.
  static std::atomic<uint64_t> sink{0};
  auto spin = [] {
    uint64_t x = 88172645463325252ULL;
    for (int i = 0; i < 40000000; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
    }
    sink.fetch_xor(x, std::memory_order_relaxed);
  };
  double t0 = Now();
  spin();
  const double one = Now() - t0;
  std::vector<std::thread> loops;
  t0 = Now();
  for (size_t i = 0; i < threads; ++i) loops.emplace_back(spin);
  for (std::thread& t : loops) t.join();
  return static_cast<double>(threads) * one / (Now() - t0);
}

}  // namespace samdb_bench
