// bench_micro_ar — kernel-level probes no other harness covers, each run
// with the kernel backend pinned to scalar and to AVX2 in one binary:
//   made.cond_probs   MADE conditional distribution of the last column on a
//                     sampler state with every other column observed (dense
//                     hidden activations, as mid-generation), rows/s;
//   kernel.matmul     square dense matmul, GFLOP/s;
//   engine.eval       census predicate evaluation (Executor::Cardinality
//                     over a 256-query workload), queries/s.
// Each number is the median of 11 timed samples (bench::MedianSeconds).
// AVX2 probes are skipped when the build or the CPU lacks AVX2. Progressive
// and batched estimation are timed by bench_estimation, DPS steps by
// samdb_bench, and workload evaluation by bench_exec_parallel.
//
// Results go to stdout and to BENCH_micro_ar.json through
// bench::WriteBenchJson. Takes no flags.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "ar/made.h"
#include "bench_common.h"
#include "common/logging.h"
#include "common/random.h"
#include "datasets/datasets.h"
#include "engine/executor.h"
#include "linalg/kernels.h"
#include "workload/generator.h"

namespace sam {
namespace {

constexpr size_t kSamples = 11;

struct CensusFixture {
  CensusFixture() {
    db = std::make_unique<Database>(MakeCensusLike(4000, 7));
    exec = Executor::Create(db.get()).MoveValue();
    SingleRelationWorkloadOptions wopts;
    wopts.num_queries = 256;
    train = GenerateSingleRelationWorkload(*db, "census", *exec, wopts)
                .MoveValue();
    schema = std::make_unique<ModelSchema>(
        ModelSchema::Build(*db, train, bench::CensusHints(), 4000).MoveValue());
    MadeModel::Options mopts;
    mopts.hidden_sizes = {64, 64};
    model = std::make_unique<MadeModel>(schema.get(), mopts);
    model->SyncSamplerWeights();
  }

  std::unique_ptr<Database> db;
  std::unique_ptr<Executor> exec;
  Workload train;
  std::unique_ptr<ModelSchema> schema;
  std::unique_ptr<MadeModel> model;
};

// Sampler state with every column but the last observed (random in-domain
// codes). A fresh InitState has pre1 == bias == 0, so timing column 0 on it
// would only exercise the zero-skip path of the matmul.
MadeModel::SamplerState ObservedState(const CensusFixture& f, size_t batch) {
  MadeModel::SamplerState s = f.model->InitState(batch);
  Rng rng(99);
  std::vector<int32_t> codes(batch);
  for (size_t col = 0; col + 1 < f.schema->num_columns(); ++col) {
    const int64_t dom =
        static_cast<int64_t>(f.schema->columns()[col].domain_size);
    for (auto& c : codes) c = static_cast<int32_t>(rng.UniformInt(0, dom - 1));
    f.model->Observe(&s, col, codes);
  }
  return s;
}

void Report(std::vector<bench::BenchRecord>* records, const std::string& metric,
            double value, const char* unit) {
  std::printf("%-36s %12.4g %s\n", metric.c_str(), value, unit);
  records->push_back({metric, value, unit, {}});
}

/// Runs every probe with the active backend; `name` tags the metrics.
void RunProbes(const CensusFixture& f, const std::string& name,
               std::vector<bench::BenchRecord>* records) {
  for (const size_t batch : {size_t{512}, size_t{2048}}) {
    const MadeModel::SamplerState s = ObservedState(f, batch);
    const size_t last_col = f.schema->num_columns() - 1;
    const double sec = bench::MedianSeconds(
        [&] { f.model->CondProbs(s, last_col); }, kSamples);
    Report(records, "made.cond_probs." + name + ".b" + std::to_string(batch),
           static_cast<double>(batch) / sec, "rows/s");
  }
  const kernels::KernelTable& table = kernels::Table(kernels::ActiveBackend());
  for (const size_t n : {size_t{64}, size_t{256}}) {
    std::vector<double> a(n * n, 1.5), b(n * n, -0.75), c(n * n);
    const double sec = bench::MedianSeconds(
        [&] { table.matmul(a.data(), n, n, b.data(), n, c.data()); }, kSamples);
    Report(records, "kernel.matmul." + name + ".n" + std::to_string(n),
           2.0 * static_cast<double>(n * n * n) / sec * 1e-9, "GFLOP/s");
  }
  int64_t checksum = 0;
  const double sec = bench::MedianSeconds(
      [&] {
        for (const Query& q : f.train) {
          auto card = f.exec->Cardinality(q);
          SAM_CHECK(card.ok()) << card.status().ToString();
          checksum ^= card.ValueOrDie();
        }
      },
      kSamples);
  Report(records, "engine.eval." + name,
         static_cast<double>(f.train.size()) / sec, "queries/s");
}

int Run(int argc, char** argv) {
  bench::ExitOnUnreadFlags(Flags(argc, argv, 1));
  const CensusFixture fixture;
  std::vector<bench::BenchRecord> records;
  const kernels::Backend saved = kernels::ActiveBackend();
  for (const kernels::Backend b :
       {kernels::Backend::kScalar, kernels::Backend::kAvx2}) {
    const std::string name = bench::BackendName(b);
    if (b == kernels::Backend::kAvx2 && !kernels::Avx2Available()) {
      std::printf("%s probes skipped: AVX2 unavailable\n", name.c_str());
      continue;
    }
    kernels::SetBackend(b);
    RunProbes(fixture, name, &records);
  }
  kernels::SetBackend(saved);
  const Status written =
      bench::WriteBenchJson("BENCH_micro_ar.json", "micro_ar", records);
  if (!written.ok()) {
    std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace sam

int main(int argc, char** argv) { return sam::Run(argc, argv); }
