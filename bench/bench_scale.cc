// bench_scale — out-of-core generation throughput under --memory-cap.
//
// Two legs, both timing GenerationPipeline::Run end to end:
//   census    single-relation generation at a loose (256 MiB) and a tight
//             (4 MiB) cap: the tight cap forces spill traffic;
//   multirel  imdb-like snowflake with a trained model and a tight 4 MiB cap
//             (partition fan-out > 1), so Group-and-Merge runs out of core.
// The pipeline's own budget high-water mark is asserted <= cap for every
// run.
//
// Results go to stdout and (machine-readable, for cross-PR perf tracking) to
// --json-out, default BENCH_scale.json, through bench::WriteBenchJson:
// rows/sec per (leg, cap) with the run's wall and process-CPU seconds, plus
// process peak RSS.
//
// Flags:
//   --smoke          tiny sizes (CI)
//   --rows=N         census rows                    (default 12000; smoke 3000)
//   --titles=N       imdb-like title rows           (default 1200; smoke 300)
//   --foj-samples=N  FOJ samples for the multirel leg
//                                                (default 16384; smoke 8192)
//   --json-out=F     output file ("" disables; default BENCH_scale.json)
//
// The working directory is a unique per-run subdirectory of the system temp
// dir and is removed on exit, so concurrent invocations never collide.

#include <sys/resource.h>

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "common/logging.h"
#include "datasets/datasets.h"
#include "engine/executor.h"
#include "sam/generation_pipeline.h"
#include "sam/sam_model.h"
#include "workload/generator.h"

namespace sam {
namespace {

struct Args {
  bool smoke;
  size_t rows;
  size_t titles;
  size_t foj_samples;
  std::string json_out;
};

Args ParseArgs(int argc, char** argv) {
  const Flags flags(argc, argv, 1);
  Args args;
  args.smoke = flags.GetBool("smoke");
  args.rows = bench::CountFlag(flags, "rows", args.smoke ? 3000 : 12000, 1);
  args.titles = bench::CountFlag(flags, "titles", args.smoke ? 300 : 1200, 1);
  args.foj_samples = bench::CountFlag(flags, "foj-samples",
                                      args.smoke ? 8192 : 16384, 1);
  args.json_out = flags.Get("json-out", "BENCH_scale.json");
  bench::ExitOnUnreadFlags(flags);
  return args;
}

double PeakRssMib() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB.
}

struct RunResult {
  double rows_per_sec = 0;
  uint64_t rows = 0;
  int64_t peak_reserved = 0;
  bench::Timing timing;
};

/// One timed pipeline run; exits the process on any pipeline error.
RunResult TimedRun(const SamModel& sam, const std::string& root,
                   const std::string& tag) {
  RunResult r;
  GenerationPipelineOptions popts;
  popts.out_dir = root + "/out_" + tag;
  popts.work_dir = root + "/work_" + tag;
  GenerationPipeline pipeline(&sam, popts);
  const bench::CpuWallTimer timer;
  auto run = pipeline.Run();
  r.timing = timer.Elapsed();
  SAM_CHECK(run.ok()) << tag << ": " << run.status().ToString();
  SAM_CHECK(run.ValueOrDie().completed) << tag;
  r.rows = run.ValueOrDie().rows_written;
  r.peak_reserved = run.ValueOrDie().peak_reserved;
  r.rows_per_sec = static_cast<double>(r.rows) / r.timing.wall_s;
  return r;
}

void CheckCap(const RunResult& r, int64_t cap, const std::string& tag) {
  SAM_CHECK(r.peak_reserved <= cap)
      << tag << ": budget peak " << r.peak_reserved << " exceeded cap " << cap;
}

int Run(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  bench::ScratchDir scratch("bench_scale");
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());

  std::printf("bench_scale: census rows=%zu, imdb titles=%zu, foj=%zu, "
              "hw threads=%zu\n",
              args.rows, args.titles, args.foj_samples, hw);

  // -- Census leg: single-relation, loose and tight cap --------------------
  std::vector<bench::BenchRecord> records;
  {
    Database db = MakeCensusLike(args.rows, /*seed=*/71);
    auto exec = Executor::Create(&db);
    SAM_CHECK(exec.ok()) << exec.status().ToString();
    SingleRelationWorkloadOptions wopts;
    wopts.num_queries = 60;
    wopts.max_filters = 2;
    wopts.seed = 5;
    auto workload = GenerateSingleRelationWorkload(db, "census",
                                                   *exec.ValueOrDie(), wopts);
    SAM_CHECK(workload.ok()) << workload.status().ToString();
    for (const int64_t cap_mib : {int64_t{256}, int64_t{4}}) {
      SamOptions options;
      options.generation_batch = 512;
      options.memory_cap_bytes = cap_mib << 20;
      auto sam = SamModel::Create(db, workload.ValueOrDie(),
                                  bench::CensusHints(),
                                  static_cast<int64_t>(args.rows), options);
      SAM_CHECK(sam.ok()) << sam.status().ToString();
      sam.ValueOrDie()->model()->SyncSamplerWeights();
      const std::string tag = "census_c" + std::to_string(cap_mib);
      const RunResult r = TimedRun(*sam.ValueOrDie(), scratch.path(), tag);
      CheckCap(r, options.memory_cap_bytes, tag);
      records.push_back({tag + "_rows_per_s", r.rows_per_sec, "rows/s",
                         r.timing});
      std::printf("census   cap=%4lld MiB  %10.0f rows/s\n",
                  static_cast<long long>(cap_mib), r.rows_per_sec);
    }
  }

  // -- Multi-relation leg: tight cap ----------------------------------------
  const int64_t multirel_cap = 4ll << 20;
  RunResult multirel;
  {
    Database db = MakeImdbLike(args.titles, /*seed=*/13);
    auto exec = Executor::Create(&db);
    SAM_CHECK(exec.ok()) << exec.status().ToString();
    MultiRelationWorkloadOptions wopts;
    wopts.num_queries = 120;
    wopts.seed = 17;
    auto workload = GenerateMultiRelationWorkload(db, *exec.ValueOrDie(), wopts);
    SAM_CHECK(workload.ok()) << workload.status().ToString();
    SamOptions options;
    options.foj_samples = args.foj_samples;
    options.generation_batch = 4096;
    options.memory_cap_bytes = multirel_cap;
    options.model.hidden_sizes = {32, 32};
    options.training.epochs = args.smoke ? 3 : 6;
    options.training.sample_paths = 4;
    auto sam = SamModel::Train(db, workload.ValueOrDie(), bench::ImdbHints(),
                               exec.ValueOrDie()->FullOuterJoinSize(), options);
    SAM_CHECK(sam.ok()) << sam.status().ToString();
    sam.ValueOrDie()->model()->SyncSamplerWeights();

    multirel = TimedRun(*sam.ValueOrDie(), scratch.path(), "multirel");
    CheckCap(multirel, multirel_cap, "multirel");
    std::printf("multirel cap=%4lld MiB  %10.0f rows/s\n",
                static_cast<long long>(multirel_cap >> 20),
                multirel.rows_per_sec);
  }

  records.push_back({"multirel_c4_rows_per_s", multirel.rows_per_sec,
                     "rows/s", multirel.timing});
  records.push_back(
      {"multirel_rows", static_cast<double>(multirel.rows), "rows", {}});
  const double peak_rss_mib = PeakRssMib();
  std::printf("peak RSS %.1f MiB\n", peak_rss_mib);
  records.push_back({"peak_rss_mib", peak_rss_mib, "MiB", {}});

  const Status written = bench::WriteBenchJson(args.json_out, "scale", records);
  if (!written.ok()) {
    std::fprintf(stderr, "error: %s\n", written.ToString().c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace sam

int main(int argc, char** argv) { return sam::Run(argc, argv); }
