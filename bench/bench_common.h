#pragma once

// Shared infrastructure for the experiment harnesses (one binary per paper
// table/figure). Each binary accepts:
//   --scale=small|paper   dataset & workload sizes (default: small, CPU-sized)
//   --seed=<n>            master seed
// Sizes at --scale=paper approach the paper's workload counts; the default
// keeps every binary in the seconds-to-minutes range on a laptop CPU.
//
// Every harness reads all its flags before any work through `Flags`; a
// malformed flag, a count below its minimum or a flag no harness reads is
// named on stderr and the harness exits 2.

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ar/model_schema.h"
#include "common/flags.h"
#include "common/result.h"
#include "common/stopwatch.h"
#include "engine/executor.h"
#include "linalg/kernels.h"
#include "metrics/metrics.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "pgm/pgm_model.h"
#include "query/query.h"
#include "sam/sam_model.h"
#include "storage/database.h"

namespace sam::bench {

/// Parsed command line.
struct BenchConfig {
  bool paper_scale = false;
  uint64_t seed = 1;
  /// Optional overrides (0 = use the scale default).
  size_t epochs_override = 0;
  size_t paths_override = 0;
  double lr_override = 0;
  /// Repetitions for timing loops (latency/throughput benches).
  int repeats = 3;
  /// Worker threads for batched evaluation (0 = hardware concurrency).
  size_t threads = 0;
  /// Observability sinks (empty = disabled, the instrumented code stays on
  /// its relaxed-atomic fast path).
  std::string metrics_out;
  std::string trace_out;
};

/// Reads the flags above plus --epochs --paths --lr --repeats --threads
/// --metrics-out --trace-out; exits 2 on any bad or unknown flag.
BenchConfig ParseArgs(int argc, char** argv);

/// Checked flag access for harnesses with flags of their own: a malformed
/// value, or a count below `min`, is named on stderr and the harness exits 2.
size_t CountFlag(const Flags& flags, const std::string& key, size_t fallback,
                 int64_t min);
double DoubleFlag(const Flags& flags, const std::string& key, double fallback);

/// Names every flag no accessor read and exits 2 if there is one. Call once
/// all flags are read, before any work.
void ExitOnUnreadFlags(const Flags& flags);

/// Wall and process-CPU seconds of one timed region.
struct Timing {
  double wall_s = 0;
  /// User + system CPU of every thread of this process
  /// (`getrusage(RUSAGE_SELF)`). A multi-threaded region whose cpu/wall is
  /// near 1 had its threads waiting rather than computing.
  double cpu_s = 0;
};

/// \brief Stopwatch that reads process CPU time beside wall time.
class CpuWallTimer {
 public:
  CpuWallTimer();
  Timing Elapsed() const;

 private:
  Stopwatch wall_;
  double cpu_start_;
};

/// Median wall seconds of one `body()` call over `samples` timed samples.
/// An untimed first call warms up and sets how many calls one sample runs,
/// so that a sample lasts at least 10 ms even for tiny bodies.
double MedianSeconds(const std::function<void()>& body, size_t samples);

/// One flat harness result: `value` in `unit`, plus the timing of the
/// region that produced it (all zero when the value is not a timing).
struct BenchRecord {
  std::string metric;
  double value = 0;
  std::string unit;
  Timing timing;
};

/// Writes `records` to `path` as one JSON object together with the
/// machine's hardware thread count and the active kernel backend:
///   {"bench": ..., "hw_threads": N, "backend": ..., "records": [{"metric":
///     ..., "value": ..., "unit": ..., "wall_s": ..., "cpu_s": ...}, ...]}
/// `wall_s`/`cpu_s` are omitted for records without timing. An empty
/// `path` writes nothing.
Status WriteBenchJson(const std::string& path, const std::string& bench,
                      const std::vector<BenchRecord>& records);

/// "avx2" or "scalar".
const char* BackendName(kernels::Backend backend);

/// \brief Unique per-run working directory under the system temp dir,
/// removed on destruction, so concurrent runs never share files.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag);
  ~ScratchDir();

  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Turns tracing/metrics collection on per the config. Call once at the top
/// of a bench main, and `FinishObservability` before exit to flush the files.
void InitObservability(const BenchConfig& config);
void FinishObservability(const BenchConfig& config);

/// \brief RAII bench phase: a `bench/<name>` trace span plus a
/// `bench.phase.<name>_seconds` histogram sample, giving every harness a
/// per-phase breakdown when observability is enabled. No-op otherwise.
class BenchPhase {
 public:
  explicit BenchPhase(std::string name);
  ~BenchPhase();

  BenchPhase(const BenchPhase&) = delete;
  BenchPhase& operator=(const BenchPhase&) = delete;

 private:
  std::string name_;
  obs::TraceSpan span_;
  Stopwatch watch_;
};

/// Dataset sizes per scale.
struct DatasetSizes {
  size_t census_rows;
  size_t dmv_rows;
  size_t imdb_titles;
  size_t train_queries_single;  ///< Per single-relation dataset.
  size_t train_queries_multi;   ///< IMDB-like.
  size_t test_queries;
};

DatasetSizes SizesFor(const BenchConfig& config);

/// Catalog hints (numeric columns + bounds) per dataset.
SchemaHints CensusHints();
SchemaHints DmvHints();
SchemaHints ImdbHints();

/// Default SAM options tuned per scale.
SamOptions DefaultSamOptions(const BenchConfig& config);

/// SAM options for the multi-relation (IMDB) experiments: the fanout and
/// indicator virtual columns need more optimisation to converge, so the
/// defaults use more epochs and sample paths than the single-relation runs.
SamOptions ImdbSamOptions(const BenchConfig& config);

/// Computes the view-size metadata PGM needs (unfiltered join sizes for every
/// view in `workload`).
Result<std::map<std::string, int64_t>> ViewSizesFor(const Executor& executor,
                                                    const Workload& workload);

/// Prints a percentile table row in the paper's format.
void PrintHeader(const std::string& title, const std::vector<std::string>& cols);
void PrintRow(const std::string& model, const MetricSummary& s, bool with_max);
void PrintKv(const std::string& key, const std::string& value);

/// Q-Error summary of `workload` re-executed on `generated`.
Result<MetricSummary> EvaluateFidelity(const Database& generated,
                                       const Workload& workload);

/// A dataset with its executor and a labelled training workload. The
/// database is heap-allocated so the executor's pointer stays valid when the
/// setup struct moves.
struct SingleRelSetup {
  std::unique_ptr<Database> db;
  std::unique_ptr<Executor> exec;
  Workload train;
  std::string table;
  SchemaHints hints;
};

Result<SingleRelSetup> SetupCensus(const BenchConfig& config, size_t n_queries,
                                   double coverage_ratio = 1.0);
Result<SingleRelSetup> SetupDmv(const BenchConfig& config, size_t n_queries);

struct MultiRelSetup {
  std::unique_ptr<Database> db;
  std::unique_ptr<Executor> exec;
  Workload train;
  int64_t foj_size = 0;
  SchemaHints hints;
};

Result<MultiRelSetup> SetupImdb(const BenchConfig& config, size_t n_queries);

/// Uniform random sample of `n` queries (for evaluating large input
/// workloads, mirroring the paper's 1,000-query sample on IMDB).
Workload SampleQueries(const Workload& w, size_t n, uint64_t seed);

}  // namespace sam::bench
