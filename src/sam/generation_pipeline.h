#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "common/result.h"
#include "sam/sam_model.h"

namespace sam {

/// \brief Configuration of one out-of-core generation run.
struct GenerationPipelineOptions {
  /// Directory the generated database is published into (all-or-nothing).
  std::string out_dir;
  /// Directory for spill chunks, the staging database and checkpoints.
  /// Cleared on a fresh run; removed on success unless `keep_work_dir`.
  std::string work_dir;
  /// Resume from the newest valid checkpoint in `work_dir` instead of
  /// starting fresh. Fails with `NotFound` when none exists and
  /// `InvalidArgument` when the checkpointed configuration fingerprint does
  /// not match the current model/options.
  bool resume = false;
  /// Cooperative stop (SIGINT/SIGTERM): checked between durable steps; when
  /// set, the pipeline checkpoints and returns with `completed == false`.
  std::atomic<bool>* stop_flag = nullptr;
  /// Test knob: execute at most this many durable steps in this invocation
  /// (0 = unlimited), then checkpoint and return. Drives the
  /// kill-at-every-step resume sweep.
  uint64_t stop_after_steps = 0;
  /// Checkpoints retained in `work_dir` (0 keeps all).
  size_t checkpoint_keep = 3;
  /// Has no effect: generation is serial. Kept only because the benchmark
  /// harness still assigns it; remove it together with that assignment in a
  /// benchmark change.
  size_t commit_threads = 0;
  /// Keep spill files and checkpoints after a successful publish (debugging).
  bool keep_work_dir = false;
};

/// \brief Outcome of a pipeline invocation.
struct GenerationRunSummary {
  /// True: the database was published to `out_dir` and the work directory
  /// cleaned up. False: the run stopped early (stop flag / step budget) with
  /// a checkpoint on disk; re-run with `resume = true` to continue.
  bool completed = false;
  uint64_t steps_executed = 0;  ///< Durable steps run by *this* invocation.
  uint64_t steps_total = 0;     ///< Steps in the whole plan.
  uint64_t next_step = 0;       ///< Cursor after this invocation.
  uint64_t rows_written = 0;    ///< Across all relations so far.
  uint64_t spill_bytes = 0;     ///< Total bytes committed to spill files.
  int64_t peak_reserved = 0;    ///< High-water mark of budget reservations.
  std::string resumed_from;     ///< Checkpoint path, empty for a fresh run.
};

/// \brief Crash-safe, resumable, memory-bounded generation (the out-of-core
/// counterpart of `SamModel::Generate`).
///
/// Generation is decomposed into a deterministic sequence of durable steps —
/// sample batches, per-partition Group-and-Merge, leftover pass-2, CSV
/// assembly, publish — whose intermediates live in checksummed spill files
/// under `work_dir` and whose cross-step state lives in a
/// `GenerationCheckpoint`. Killing the process at any instant and re-running
/// with `resume = true` publishes a database byte-identical to an
/// uninterrupted run. Data-proportional memory is accounted against
/// `SamOptions::memory_cap_bytes`: tight caps raise the partition fan-out
/// and shrink spill buffers (more I/O, same output — the chunk layout is
/// fixed per configuration), and a cap below the documented per-relation
/// floor fails with a clean `InvalidArgument` instead of an OOM kill. Steps
/// run one at a time in plan order, so the spill files, checkpoints and
/// published bytes are a pure function of the model and the options. See
/// docs/GENERATION.md.
///
/// IPW, scaling and every Group-and-Merge decision come from the core in
/// `sam/group_and_merge.h`, which `SamModel::Generate` calls too; at one
/// partition both paths assign the same keys. The bytes still differ: each
/// pipeline step decodes with its own derived RNG seed, and rows stream out
/// partition-major.
class GenerationPipeline {
 public:
  /// `sam` must outlive the pipeline. Requires `use_group_and_merge` (the
  /// view-based ablation stays on the in-RAM path).
  GenerationPipeline(const SamModel* sam, GenerationPipelineOptions options);
  ~GenerationPipeline();
  GenerationPipeline(const GenerationPipeline&) = delete;
  GenerationPipeline& operator=(const GenerationPipeline&) = delete;

  /// Runs (or resumes) the pipeline until the database is published, a stop
  /// is requested, or the step budget is exhausted.
  Result<GenerationRunSummary> Run();

  /// Configuration fingerprint guarding resume (exposed for tests).
  uint64_t Fingerprint() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace sam
