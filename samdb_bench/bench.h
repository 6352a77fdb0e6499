#pragma once

// Shared pieces of the end-to-end benchmark harness (see README.md): the
// per-workload inputs, the metric sink, the correctness ledger and a few
// statistics helpers.

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ar/model_schema.h"
#include "engine/executor.h"
#include "query/query.h"
#include "sam/sam_model.h"
#include "storage/database.h"

namespace samdb_bench {

/// Sizes and knobs of one benchmark workload. Every workload runs every
/// phase (so every end-to-end metric exists on every workload); the sizes
/// decide which layer dominates.
struct WorkloadSpec {
  std::string name;
  bool multi_relation = false;
  size_t rows = 0;              ///< census rows or imdb titles.
  size_t train_queries = 0;
  size_t test_queries = 0;
  size_t epochs = 0;
  size_t foj_samples = 0;       ///< In-RAM FOJ samples (multi-relation).
  int64_t memory_cap_mb = 0;    ///< Out-of-core pipeline budget.
  size_t estimate_paths = 0;    ///< Progressive-sampling paths of the sweep.
  double serve_seconds = 0;     ///< Serve session length per round.
};

/// The seeded inputs of one run: original database, its executor, and the
/// labelled training and held-out test workloads.
struct Inputs {
  std::unique_ptr<sam::Database> db;
  std::unique_ptr<sam::Executor> exec;
  sam::Workload train;
  sam::Workload test;
  sam::SchemaHints hints;
  int64_t foj_size = 0;
};

/// One named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Insertion-ordered metric sink; a later Set of the same name overwrites.
class MetricSet {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// `{"name": {"value": v, "unit": "u"}, ...}` with full precision.
  std::string ToJson() const;

 private:
  std::vector<Metric> metrics_;
};

/// Correctness and failure ledger of one run. Any violated check makes the
/// run incorrect (non-zero exit); `attempted`/`failed` count operations.
class Ledger {
 public:
  void Check(bool ok, const std::string& what);
  /// Records one operation; a non-OK status is also a failed check.
  void Op(bool ok, const std::string& what);
  void AddOps(uint64_t attempted, uint64_t failed);
  /// Records an output digest. Recording a name again with another value
  /// is a violation: every round of a run must reproduce the first.
  void Digest(const std::string& name, uint64_t value);

  bool correct() const { return violations_.empty(); }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  std::string ViolationsJson() const;
  std::string DigestsJson() const;

 private:
  std::vector<std::string> violations_;
  std::vector<std::pair<std::string, uint64_t>> digests_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Median(std::vector<double> v);
/// Nearest-rank percentile, p in [0, 100].
double Percentile(std::vector<double> v, double p);

/// FNV-1a over bytes, chainable through `h`.
uint64_t Fnv1a(const void* data, size_t n, uint64_t h = 1469598103934665603ULL);
/// Digest of every regular file under `dir` (sorted by relative path; names
/// and contents both hashed). 0 when `dir` cannot be read.
uint64_t DirectoryDigest(const std::string& dir);
/// Total bytes of the regular files under `dir`.
uint64_t DirectoryBytes(const std::string& dir);

// --- layers.cc: per-layer probes and traced-run-only diagnostics ------------

/// Kernel-table throughput at the model's hidden shape (`rows` x `hidden`
/// activations times `hidden` x `hidden` weights).
void ProbeLinalg(size_t rows, size_t hidden, MetricSet* out);
/// DPS forward (masked weights + per-column Hidden/ColumnLogits) on one
/// training batch, and a CondProbs sweep at `generation_batch` rows.
void ProbeMade(const sam::SamModel& sam, size_t train_batch_rows,
               MetricSet* out);
/// Batched progressive estimation throughput in path-columns per second,
/// plus its speedup over a 1-thread pool with bit-identity checked.
void ProbeEstimator(const sam::SamModel& sam, const sam::Workload& queries,
                    size_t paths, MetricSet* out, Ledger* ledger);
/// Out-of-core pipeline with commit_threads=1 vs the default, byte-identity
/// of the published trees checked.
void ProbePipelineSpeedup(const sam::SamModel& sam, const std::string& work,
                          MetricSet* out, Ledger* ledger);
/// N busy loops vs one: the parallelism the machine actually delivers.
double MeasureEffectiveParallelism(size_t threads);

// --- serve_load.cc: closed-loop client fleet against a SamServer ------------

/// Per-operation-type accounting of a serve session.
struct OpStats {
  uint64_t attempted = 0;
  uint64_t succeeded = 0;
  uint64_t failed = 0;     ///< Error responses other than shed/timeout.
  uint64_t shed = 0;       ///< "overloaded" answers.
  uint64_t timed_out = 0;  ///< Queue-deadline answers.
  uint64_t wrong = 0;      ///< OK answers that disagree with the reference.
  /// Per-request latency in ms; a request that did not succeed counts as
  /// the request timeout, so it misses any latency limit.
  std::vector<double> latency_ms;
};

struct ServeSession {
  double seconds = 0;
  OpStats exact;
  OpStats model;
  double hot_share = 0;        ///< Training workload's repeat rate.
  uint64_t hot_attempted = 0;  ///< Exact requests drawn from them.
  double job_seconds = 0;
  bool job_done = false;
  std::string job_out;
  uint64_t batches = 0;
  uint64_t model_batches = 0;
  uint64_t dispatched = 0;  ///< Requests the dispatcher answered.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  double queue_depth_peak = 0;
};

/// Serves `sam` over `in.db` on an ephemeral localhost port and drives it
/// with `clients` pipelining connections for `seconds` (the server's executor
/// pool gets as many threads as there are clients): exact estimates whose
/// hot subset, the training workload's repeated queries, repeats at that
/// workload's repeat rate (plan-cache hits) beside unique queries (misses),
/// model estimates at `model_paths`, and one generate job submitted a third
/// of the way in and polled until it finishes. serve_load.cc says which
/// shares are derived and which are assumed.
sam::Result<ServeSession> RunServeSession(
    const Inputs& in, std::shared_ptr<const sam::SamModel> sam, size_t clients,
    double seconds, size_t model_paths, uint64_t seed,
    const std::string& job_dir);

}  // namespace samdb_bench
