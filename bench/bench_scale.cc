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
// --json-out, default BENCH_scale.json: rows/sec per (leg, cap), plus process
// peak RSS.
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

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <random>
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
  bool smoke = false;
  size_t rows = 12000;
  size_t titles = 1200;
  size_t foj_samples = 16384;
  std::string json_out = "BENCH_scale.json";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&arg](const char* prefix) -> const char* {
      const size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (arg == "--smoke") {
      args.smoke = true;
      args.rows = 3000;
      args.titles = 300;
      args.foj_samples = 8192;
    } else if (const char* v = value("--rows=")) {
      args.rows = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--titles=")) {
      args.titles = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--foj-samples=")) {
      args.foj_samples = static_cast<size_t>(std::atoll(v));
    } else if (const char* v = value("--json-out=")) {
      args.json_out = v;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", arg.c_str());
      std::exit(2);
    }
  }
  return args;
}

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

double PeakRssMib() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB.
}

/// Unique per-run working directory, removed on exit — previous versions of
/// this bench shared a fixed path, so two concurrent invocations (or a
/// crashed one's leftovers) corrupted each other's runs.
class ScratchDir {
 public:
  ScratchDir() {
    std::random_device rd;
    const auto d = std::filesystem::temp_directory_path() /
                   ("sam_bench_scale_" + std::to_string(::getpid()) + "_" +
                    std::to_string(rd() % 100000));
    std::filesystem::create_directories(d);
    path_ = d.string();
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

struct RunResult {
  double rows_per_sec = 0;
  uint64_t rows = 0;
  int64_t peak_reserved = 0;
};

/// One timed pipeline run; exits the process on any pipeline error.
RunResult TimedRun(const SamModel& sam, const std::string& root,
                   const std::string& tag) {
  RunResult r;
  GenerationPipelineOptions popts;
  popts.out_dir = root + "/out_" + tag;
  popts.work_dir = root + "/work_" + tag;
  GenerationPipeline pipeline(&sam, popts);
  const auto t0 = std::chrono::steady_clock::now();
  auto run = pipeline.Run();
  const double seconds = SecondsSince(t0);
  SAM_CHECK(run.ok()) << tag << ": " << run.status().ToString();
  SAM_CHECK(run.ValueOrDie().completed) << tag;
  r.rows = run.ValueOrDie().rows_written;
  r.peak_reserved = run.ValueOrDie().peak_reserved;
  r.rows_per_sec = static_cast<double>(r.rows) / seconds;
  return r;
}

void CheckCap(const RunResult& r, int64_t cap, const std::string& tag) {
  SAM_CHECK(r.peak_reserved <= cap)
      << tag << ": budget peak " << r.peak_reserved << " exceeded cap " << cap;
}

int Run(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  ScratchDir scratch;
  const size_t hw = std::max(1u, std::thread::hardware_concurrency());

  std::printf("bench_scale: census rows=%zu, imdb titles=%zu, foj=%zu, "
              "hw threads=%zu\n",
              args.rows, args.titles, args.foj_samples, hw);

  // -- Census leg: single-relation, loose and tight cap --------------------
  struct CensusPoint {
    int64_t cap_mib;
    double rows_per_sec;
  };
  std::vector<CensusPoint> census_points;
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
      census_points.push_back(CensusPoint{cap_mib, r.rows_per_sec});
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

  const double peak_rss_mib = PeakRssMib();
  std::printf("peak RSS %.1f MiB\n", peak_rss_mib);

  if (!args.json_out.empty()) {
    FILE* f = std::fopen(args.json_out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", args.json_out.c_str());
      return 1;
    }
    std::fprintf(f,
                 "{\"bench\": \"scale\", \"hw_threads\": %zu, "
                 "\"peak_rss_mib\": %.1f, \"census\": [",
                 hw, peak_rss_mib);
    for (size_t i = 0; i < census_points.size(); ++i) {
      std::fprintf(f, "%s{\"cap_mib\": %lld, \"rows_per_sec\": %.0f}",
                   i == 0 ? "" : ", ",
                   static_cast<long long>(census_points[i].cap_mib),
                   census_points[i].rows_per_sec);
    }
    std::fprintf(f,
                 "], \"multirel\": {\"cap_mib\": %lld, \"rows\": %llu, "
                 "\"rows_per_sec\": %.0f}}\n",
                 static_cast<long long>(multirel_cap >> 20),
                 static_cast<unsigned long long>(multirel.rows),
                 multirel.rows_per_sec);
    std::fclose(f);
    std::printf("wrote %s\n", args.json_out.c_str());
  }
  return 0;
}

}  // namespace
}  // namespace sam

int main(int argc, char** argv) { return sam::Run(argc, argv); }
