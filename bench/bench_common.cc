#include "bench_common.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <random>
#include <thread>

#include "common/random.h"
#include "common/string_util.h"
#include "datasets/datasets.h"
#include "obs/json.h"
#include "storage/artifact_io.h"
#include "workload/generator.h"

namespace sam::bench {

namespace {

template <typename T>
T OrExit(Result<T> value) {
  if (!value.ok()) {
    std::fprintf(stderr, "error: %s\n", value.status().ToString().c_str());
    std::exit(2);
  }
  return value.MoveValue();
}

double ProcessCpuSeconds() {
  struct rusage ru;
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(ru.ru_utime) + seconds(ru.ru_stime);
}

}  // namespace

BenchConfig ParseArgs(int argc, char** argv) {
  const Flags flags(argc, argv, 1);
  BenchConfig config;
  const std::string scale = flags.Get("scale", "small");
  if (scale != "small" && scale != "paper") {
    std::fprintf(stderr, "error: --scale must be small or paper\n");
    std::exit(2);
  }
  config.paper_scale = scale == "paper";
  config.seed = static_cast<uint64_t>(OrExit(flags.GetInt("seed", 1)));
  config.epochs_override = CountFlag(flags, "epochs", 0, 0);
  config.paths_override = CountFlag(flags, "paths", 0, 0);
  config.lr_override = DoubleFlag(flags, "lr", 0);
  config.repeats = static_cast<int>(CountFlag(flags, "repeats", 3, 1));
  config.threads = CountFlag(flags, "threads", 0, 0);
  config.metrics_out = flags.Get("metrics-out");
  config.trace_out = flags.Get("trace-out");
  ExitOnUnreadFlags(flags);
  return config;
}

size_t CountFlag(const Flags& flags, const std::string& key, size_t fallback,
                 int64_t min) {
  return static_cast<size_t>(
      OrExit(flags.GetCount(key, static_cast<int64_t>(fallback), min)));
}

double DoubleFlag(const Flags& flags, const std::string& key, double fallback) {
  return OrExit(flags.GetDouble(key, fallback));
}

void ExitOnUnreadFlags(const Flags& flags) {
  const std::vector<std::string> unread = flags.Unread();
  for (const std::string& key : unread) {
    std::fprintf(stderr, "error: unknown flag --%s\n", key.c_str());
  }
  if (!unread.empty()) std::exit(2);
}

CpuWallTimer::CpuWallTimer() : cpu_start_(ProcessCpuSeconds()) {}

Timing CpuWallTimer::Elapsed() const {
  return Timing{wall_.ElapsedSeconds(), ProcessCpuSeconds() - cpu_start_};
}

double MedianSeconds(const std::function<void()>& body, size_t samples) {
  constexpr double kMinSampleSeconds = 1e-2;
  Stopwatch warmup;
  body();
  const double first = warmup.ElapsedSeconds();
  const size_t calls =
      static_cast<size_t>(kMinSampleSeconds / std::max(first, 1e-9)) + 1;
  std::vector<double> per_call(std::max<size_t>(samples, 1));
  for (double& t : per_call) {
    Stopwatch watch;
    for (size_t i = 0; i < calls; ++i) body();
    t = watch.ElapsedSeconds() / static_cast<double>(calls);
  }
  std::nth_element(per_call.begin(), per_call.begin() + per_call.size() / 2,
                   per_call.end());
  return per_call[per_call.size() / 2];
}

Status WriteBenchJson(const std::string& path, const std::string& bench,
                      const std::vector<BenchRecord>& records) {
  if (path.empty()) return Status::OK();
  auto number = [](double v) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return std::string(buf);
  };
  std::string out = "{\"bench\": \"" + obs::EscapeJson(bench) +
                    "\", \"hw_threads\": " +
                    std::to_string(std::thread::hardware_concurrency()) +
                    ", \"backend\": \"" +
                    BackendName(kernels::ActiveBackend()) +
                    "\", \"records\": [";
  for (size_t i = 0; i < records.size(); ++i) {
    const BenchRecord& r = records[i];
    out += i == 0 ? "\n  " : ",\n  ";
    out += "{\"metric\": \"" + obs::EscapeJson(r.metric) +
           "\", \"value\": " + number(r.value) + ", \"unit\": \"" +
           obs::EscapeJson(r.unit) + "\"";
    if (r.timing.wall_s > 0) {
      out += ", \"wall_s\": " + number(r.timing.wall_s) +
             ", \"cpu_s\": " + number(r.timing.cpu_s);
    }
    out += "}";
  }
  out += "]}\n";
  SAM_RETURN_NOT_OK(AtomicWriteFile(path, out));
  std::printf("wrote %s\n", path.c_str());
  return Status::OK();
}

const char* BackendName(kernels::Backend backend) {
  return backend == kernels::Backend::kAvx2 ? "avx2" : "scalar";
}

ScratchDir::ScratchDir(const std::string& tag) {
  std::random_device rd;
  const auto d = std::filesystem::temp_directory_path() /
                 ("sam_" + tag + "_" + std::to_string(::getpid()) + "_" +
                  std::to_string(rd() % 100000));
  std::filesystem::create_directories(d);
  path_ = d.string();
}

ScratchDir::~ScratchDir() {
  std::error_code ec;
  std::filesystem::remove_all(path_, ec);
}

void InitObservability(const BenchConfig& config) {
  if (!config.trace_out.empty()) {
    obs::EnableTracing(true);
    obs::Tracer::Global().Reset();
  }
  if (!config.metrics_out.empty()) obs::EnableMetrics(true);
}

void FinishObservability(const BenchConfig& config) {
  if (!config.trace_out.empty()) {
    const Status st = obs::Tracer::Global().WriteChromeTrace(config.trace_out);
    if (!st.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n", st.ToString().c_str());
    } else {
      std::printf("trace written to %s\n", config.trace_out.c_str());
    }
  }
  if (!config.metrics_out.empty()) {
    const Status st =
        obs::MetricsRegistry::Global().WriteJson(config.metrics_out);
    if (!st.ok()) {
      std::fprintf(stderr, "metrics write failed: %s\n", st.ToString().c_str());
    } else {
      std::printf("metrics written to %s\n", config.metrics_out.c_str());
    }
  }
}

BenchPhase::BenchPhase(std::string name)
    : name_(std::move(name)), span_("bench/" + name_) {}

BenchPhase::~BenchPhase() {
  if (!obs::MetricsEnabled()) return;
  obs::MetricsRegistry::Global()
      .GetHistogram("bench.phase." + name_ + "_seconds")
      ->Observe(watch_.ElapsedSeconds());
}

DatasetSizes SizesFor(const BenchConfig& config) {
  if (config.paper_scale) {
    return DatasetSizes{48000, 200000, 20000, 20000, 20000, 500};
  }
  return DatasetSizes{8000, 16000, 2500, 2500, 2500, 300};
}

SchemaHints CensusHints() {
  SchemaHints hints;
  hints.numeric_columns = {"census.age", "census.education_num",
                           "census.capital_gain", "census.capital_loss",
                           "census.hours_per_week"};
  hints.numeric_bounds["census.age"] = {17, 90};
  hints.numeric_bounds["census.education_num"] = {1, 16};
  hints.numeric_bounds["census.capital_gain"] = {0, 61000};
  hints.numeric_bounds["census.capital_loss"] = {0, 10000};
  hints.numeric_bounds["census.hours_per_week"] = {1, 99};
  return hints;
}

SchemaHints DmvHints() {
  SchemaHints hints;
  hints.numeric_columns = {"dmv.valid_date"};
  hints.numeric_bounds["dmv.valid_date"] = {0, 2100};
  return hints;
}

SchemaHints ImdbHints() {
  SchemaHints hints;
  hints.numeric_columns = {"title.production_year"};
  hints.numeric_bounds["title.production_year"] = {1900, 2025};
  hints.fanout_cap = 25;
  return hints;
}

SamOptions DefaultSamOptions(const BenchConfig& config) {
  SamOptions options;
  options.model.hidden_sizes =
      config.paper_scale ? std::vector<size_t>{96, 96} : std::vector<size_t>{48, 48};
  options.model.seed = config.seed * 7919 + 13;
  options.training.epochs = config.paper_scale ? 16 : 10;
  options.training.batch_size = 64;
  options.training.learning_rate = 3e-3;
  options.training.sample_paths = 2;
  options.training.seed = config.seed * 104729 + 7;
  options.foj_samples = config.paper_scale ? 400000 : 60000;
  options.generation_seed = config.seed * 15485863 + 3;
  if (config.epochs_override > 0) options.training.epochs = config.epochs_override;
  if (config.paths_override > 0) options.training.sample_paths = config.paths_override;
  if (config.lr_override > 0) options.training.learning_rate = config.lr_override;
  return options;
}

SamOptions ImdbSamOptions(const BenchConfig& config) {
  SamOptions options = DefaultSamOptions(config);
  options.training.epochs = config.paper_scale ? 24 : 16;
  options.training.sample_paths = 4;
  if (config.epochs_override > 0) options.training.epochs = config.epochs_override;
  if (config.paths_override > 0) options.training.sample_paths = config.paths_override;
  return options;
}

Result<std::map<std::string, int64_t>> ViewSizesFor(const Executor& executor,
                                                    const Workload& workload) {
  // Collect the distinct relation sets, then evaluate the unfiltered view
  // sizes as one batch.
  std::map<std::string, int64_t> out;
  std::vector<std::string> keys;
  Workload views;
  for (const auto& q : workload) {
    std::vector<std::string> rels = q.relations;
    std::sort(rels.begin(), rels.end());
    std::string key;
    for (const auto& r : rels) {
      if (!key.empty()) key += ',';
      key += r;
    }
    if (out.count(key) != 0) continue;
    out[key] = 0;
    keys.push_back(key);
    Query unfiltered;
    unfiltered.relations = q.relations;
    views.push_back(std::move(unfiltered));
  }
  SAM_ASSIGN_OR_RETURN(std::vector<int64_t> sizes,
                       executor.ParallelCardinality(views));
  for (size_t i = 0; i < keys.size(); ++i) out[keys[i]] = sizes[i];
  return out;
}

void PrintHeader(const std::string& title, const std::vector<std::string>& cols) {
  std::printf("\n=== %s ===\n", title.c_str());
  std::printf("%-28s", "Model");
  for (const auto& c : cols) std::printf("%12s", c.c_str());
  std::printf("\n");
}

void PrintRow(const std::string& model, const MetricSummary& s, bool with_max) {
  std::printf("%-28s%12s%12s%12s%12s", model.c_str(),
              FormatMetric(s.median).c_str(), FormatMetric(s.p75).c_str(),
              FormatMetric(s.p90).c_str(), FormatMetric(s.mean).c_str());
  if (with_max) std::printf("%12s", FormatMetric(s.max).c_str());
  std::printf("\n");
  std::fflush(stdout);
}

void PrintKv(const std::string& key, const std::string& value) {
  std::printf("%-40s %s\n", (key + ":").c_str(), value.c_str());
  std::fflush(stdout);
}

Result<MetricSummary> EvaluateFidelity(const Database& generated,
                                       const Workload& workload) {
  SAM_ASSIGN_OR_RETURN(std::unique_ptr<Executor> exec,
                       Executor::Create(&generated));
  return QErrorOnDatabase(*exec, workload);
}

Result<SingleRelSetup> SetupCensus(const BenchConfig& config, size_t n_queries,
                                   double coverage_ratio) {
  SingleRelSetup setup;
  const DatasetSizes sizes = SizesFor(config);
  setup.db = std::make_unique<Database>(
      MakeCensusLike(sizes.census_rows, config.seed * 31 + 1));
  SAM_ASSIGN_OR_RETURN(setup.exec, Executor::Create(setup.db.get()));
  SingleRelationWorkloadOptions wopts;
  wopts.num_queries = n_queries;
  wopts.seed = config.seed * 37 + 2;
  wopts.coverage_ratio = coverage_ratio;
  SAM_ASSIGN_OR_RETURN(
      setup.train,
      GenerateSingleRelationWorkload(*setup.db, "census", *setup.exec, wopts));
  setup.table = "census";
  setup.hints = CensusHints();
  return setup;
}

Result<SingleRelSetup> SetupDmv(const BenchConfig& config, size_t n_queries) {
  SingleRelSetup setup;
  const DatasetSizes sizes = SizesFor(config);
  setup.db = std::make_unique<Database>(
      MakeDmvLike(sizes.dmv_rows, config.seed * 41 + 3));
  SAM_ASSIGN_OR_RETURN(setup.exec, Executor::Create(setup.db.get()));
  SingleRelationWorkloadOptions wopts;
  wopts.num_queries = n_queries;
  wopts.seed = config.seed * 43 + 4;
  SAM_ASSIGN_OR_RETURN(
      setup.train,
      GenerateSingleRelationWorkload(*setup.db, "dmv", *setup.exec, wopts));
  setup.table = "dmv";
  setup.hints = DmvHints();
  return setup;
}

Result<MultiRelSetup> SetupImdb(const BenchConfig& config, size_t n_queries) {
  MultiRelSetup setup;
  const DatasetSizes sizes = SizesFor(config);
  setup.db = std::make_unique<Database>(
      MakeImdbLike(sizes.imdb_titles, config.seed * 47 + 5));
  SAM_ASSIGN_OR_RETURN(setup.exec, Executor::Create(setup.db.get()));
  MultiRelationWorkloadOptions wopts;
  wopts.num_queries = n_queries;
  wopts.seed = config.seed * 53 + 6;
  SAM_ASSIGN_OR_RETURN(setup.train,
                       GenerateMultiRelationWorkload(*setup.db, *setup.exec, wopts));
  setup.foj_size = setup.exec->FullOuterJoinSize();
  setup.hints = ImdbHints();
  return setup;
}

Workload SampleQueries(const Workload& w, size_t n, uint64_t seed) {
  if (w.size() <= n) return w;
  Rng rng(seed);
  std::vector<size_t> idx(w.size());
  for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  rng.Shuffle(&idx);
  Workload out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) out.push_back(w[idx[i]]);
  return out;
}

}  // namespace sam::bench
