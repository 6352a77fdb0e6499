#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "sam/group_and_merge.h"
#include "storage/spill.h"

namespace sam {

/// \brief Complete durable snapshot of an out-of-core generation run
/// (mirrors `TrainingCheckpoint` for the generation phase).
///
/// The pipeline is a deterministic sequence of durable steps (sample
/// batches, per-partition merges, assembly, publish); a checkpoint records
/// the step cursor plus every piece of cross-step state the pipeline
/// mutates — per-relation key counters, leaf carry, incoming virtual mass,
/// spill-chunk sequence numbers — and the manifest of spill files the
/// completed steps produced. Resuming from the snapshot replays the
/// remaining steps with the identical arithmetic, so an interrupted run's
/// published database is byte-identical to an uninterrupted one (see
/// docs/GENERATION.md for the contract).
///
/// `fingerprint` hashes the model schema, its parameters, the table layouts
/// and every generation-relevant option; the pipeline refuses to resume
/// across a mismatch with `InvalidArgument` instead of silently splicing
/// incompatible halves together.
struct GenerationCheckpoint {
  uint64_t fingerprint = 0;
  /// The run's sampling base seed (drawn once from `generation_seed`).
  uint64_t base_seed = 0;
  /// Index of the next step to execute in the deterministic step list.
  uint64_t next_step = 0;

  /// Accumulated per-relation generation state. Entries exist for every
  /// relation from run start (so indices are stable); fields stay zero until
  /// the relation is processed.
  struct RelationState {
    std::string name;
    /// Next primary key to assign (threads across partition steps).
    int64_t pk_counter = 0;
    uint64_t rows_emitted = 0;
    /// Next row-chunk sequence number for this relation.
    uint64_t row_chunk_seq = 0;
    /// Next virtual-chunk sequence number per partition (this relation as a
    /// *child*: chunks written for it by its parent's steps).
    std::vector<uint64_t> virt_chunk_seq;
    /// Σ w_scaled[s]·fraction over incoming virtuals, accumulated as the
    /// parent emits them; fixes this relation's renormalisation factor.
    double incoming_mass = 0;
    /// Leaf-relation carry, threaded across partition steps.
    LeafCarry leaf;
  };
  std::vector<RelationState> relations;

  /// Spill files the completed steps produced (relative names + exact
  /// sizes); verified against the work directory before resuming.
  std::vector<SpillFileInfo> manifest;

  /// Accounting snapshots (reporting only; not replayed). `peak_reserved`
  /// is the budget high-water mark so far.
  uint64_t rows_total = 0;
  uint64_t spill_bytes = 0;
  int64_t peak_reserved = 0;

  /// Atomic, checksummed write via the artifact layer.
  Status Save(const std::string& path) const;

  /// Validates and loads a checkpoint; any corruption (truncation, bit rot,
  /// torn write) yields a non-OK status and never a half-filled snapshot.
  static Result<GenerationCheckpoint> Load(const std::string& path);
};

/// File-name prefix of generation checkpoints.
inline constexpr char kGenerationCheckpointPrefix[] = "genckpt_";

/// Canonical file name for a step cursor, chosen so lexicographic order is
/// pipeline order: `genckpt_<next_step:08>.ckpt`.
std::string GenerationCheckpointFileName(uint64_t next_step);

/// Newest valid generation checkpoint in `dir`, with the fallback semantics
/// of `LoadLatestValidWithPrefix`: corrupt files are skipped with a warning,
/// `NotFound` when none exist, `IOError` when all are corrupt.
Result<GenerationCheckpoint> LoadLatestValidGenerationCheckpoint(
    const std::string& dir, std::string* loaded_path);

}  // namespace sam
