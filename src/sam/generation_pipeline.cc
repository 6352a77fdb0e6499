#include "sam/generation_pipeline.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "ar/training_checkpoint.h"
#include "common/hash.h"
#include "common/logging.h"
#include "common/random.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "sam/generation_checkpoint.h"
#include "sam/group_and_merge.h"
#include "storage/artifact_io.h"
#include "storage/csv.h"
#include "storage/schema_io.h"
#include "storage/spill.h"

namespace sam {

namespace {

// ---------------------------------------------------------------------------
// Deterministic hashing / seeding. Every RNG the pipeline uses is derived
// from (base_seed, step identity), never threaded across steps, so replaying
// a step from a checkpoint reproduces its bytes exactly.
// ---------------------------------------------------------------------------

uint64_t DeriveSeed(uint64_t base, const std::string& tag) {
  return Mix64(base ^ Fnv1aHash(tag));
}

// ---------------------------------------------------------------------------
// Spill-chunk naming. Zero-padded sequence numbers make lexicographic order
// equal production order; names are relative to the work directory and are
// the keys of the checkpoint manifest.
// ---------------------------------------------------------------------------

std::string FojChunkName(uint64_t batch) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "foj_%06llu.spill",
                static_cast<unsigned long long>(batch));
  return buf;
}

std::string RowChunkName(const std::string& rel, uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "_%06llu.spill",
                static_cast<unsigned long long>(seq));
  return "rows_" + rel + buf;
}

std::string VirtChunkName(const std::string& rel, size_t part, uint64_t seq) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "_p%03zu_%06llu.spill", part,
                static_cast<unsigned long long>(seq));
  return "virt_" + rel + buf;
}

std::string LeftoverChunkName(const std::string& rel, size_t part) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "_p%03zu.spill", part);
  return "left_" + rel + buf;
}

std::string SummaryChunkName(const std::string& rel, size_t part) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "_p%03zu.spill", part);
  return "gsum_" + rel + buf;
}

}  // namespace

// ---------------------------------------------------------------------------
// Impl
// ---------------------------------------------------------------------------

struct GenerationPipeline::Impl {
  struct Step {
    enum class Kind { kSample, kPartition, kPass2, kAssemble, kPublish };
    Kind kind = Kind::kSample;
    size_t rel = 0;    ///< Index into `topo` (partition/pass2) or `layouts()`.
    size_t index = 0;  ///< Batch index / partition index.
  };

  const SamModel* sam = nullptr;
  GenerationPipelineOptions opts;
  MemoryBudget budget{0};

  bool multi = false;
  std::vector<std::string> topo;  ///< Relation processing order.
  /// Group-and-Merge plan per relation, parallel to `topo` (multi-relation).
  std::vector<RelationPlan> rels;
  uint64_t k = 0;                 ///< Total sampled FOJ tuples.
  uint64_t sample_batches = 0;
  size_t partitions = 1;
  std::vector<Step> plan;
  std::unordered_map<std::string, size_t> rel_index;  ///< name -> topo index.

  GenerationCheckpoint state;
  std::string resumed_from;

  // Preamble (multi-relation): per-relation IPW-scaled base weights. A pure
  // recomputation from the spilled FOJ chunks — no RNG involved — so it is
  // rebuilt on demand after a resume rather than checkpointed.
  bool preamble_ready = false;
  std::vector<std::vector<double>> w_base;  ///< Parallel to `topo`.
  int64_t preamble_reserved = 0;

  /// Resident state of the relation whose partition steps are executing:
  /// its needed code columns and renormalised weights. Loaded once per
  /// relation (spanning its partition + pass-2 steps), released when the
  /// next relation activates.
  struct ActiveRel {
    bool valid = false;
    size_t topo_index = 0;
    const RelationPlan* rel = nullptr;
    CodeColumns resident;   ///< Needed columns only; the others stay empty.
    std::vector<double> w;  ///< Renormalised scaled weights.
    int64_t reserved = 0;
  };
  ActiveRel active;

  // Step-local output buffers, always flushed before a step completes so
  // chunk boundaries are deterministic on resume.
  struct RowBuffer {
    std::string csv;
    uint64_t rows = 0;
    int64_t reserved = 0;
  };
  struct VirtBuffer {
    std::vector<SpillVirtual> records;
    int64_t reserved = 0;
  };
  RowBuffer row_buf;
  /// Keyed by (child relation, partition); ordered for deterministic flushes.
  std::map<std::pair<std::string, size_t>, VirtBuffer> virt_bufs;

  ~Impl() {
    ClearRowBuffer();
    ClearVirtBuffers();
    DeactivateRelation();
    ReleasePreamble();
  }

  // ------------------------------------------------------------------------

  const ModelSchema& schema() const { return sam->schema(); }
  const SamOptions& options() const { return sam->options(); }

  std::string Path(const std::string& name) const {
    return opts.work_dir + "/" + name;
  }
  std::string StagingDir() const { return opts.work_dir + "/staging"; }

  GenerationCheckpoint::RelationState& RelState(const std::string& name) {
    return state.relations[rel_index.at(name)];
  }

  int64_t RowFlushBytes() const {
    const int64_t cap = budget.cap();
    if (cap <= 0) return 8ll << 20;
    return std::clamp<int64_t>(cap / 16, 64ll << 10, 8ll << 20);
  }

  size_t VirtFlushRecords(size_t buffer_count) const {
    const int64_t cap = budget.cap();
    const int64_t pool =
        cap <= 0 ? (64ll << 20) : std::max<int64_t>(cap / 8, 64ll << 10);
    const int64_t per =
        pool / static_cast<int64_t>(std::max<size_t>(buffer_count, 1));
    return static_cast<size_t>(std::max<int64_t>(
        per / static_cast<int64_t>(sizeof(SpillVirtual)), 256));
  }

  /// Partition fan-out, derived only from (k, cap) so the plan — and with it
  /// every spill-chunk name — is a pure function of the configuration.
  /// Tighter caps spread the merge-group tables over more, smaller
  /// partitions (more spill I/O, identical output).
  size_t ChoosePartitions() const {
    if (!multi) return 1;
    const int64_t cap = budget.cap();
    if (cap <= 0) return 1;
    const int64_t per_partition = std::max<int64_t>(cap / 4, 1ll << 20);
    // ~192 bytes of group-table state per virtual (key string + member slot).
    const int64_t estimate = static_cast<int64_t>(k) * 192;
    const int64_t p = estimate / per_partition + 1;
    return static_cast<size_t>(std::clamp<int64_t>(p, 1, 256));
  }

  uint64_t ComputeFingerprint() const {
    Fnv1a f;
    f.MixString("samgen-v1");
    const ModelSchema& sc = schema();
    f.MixU64(sc.num_columns());
    for (const auto& mc : sc.columns()) {
      f.MixU64(static_cast<uint64_t>(mc.kind));
      f.MixString(mc.table);
      f.MixString(mc.name);
      f.MixU64(mc.domain_size);
      f.MixU64(mc.has_null ? 1 : 0);
      f.MixU64(mc.intervalized ? 1 : 0);
      f.MixU64(mc.categories.size());
      for (double b : mc.bounds) f.MixDouble(b);
    }
    for (const auto& [name, size] : sc.table_sizes()) {
      f.MixString(name);
      f.MixI64(size);
    }
    for (const auto& layout : sam->layouts()) {
      f.MixString(layout.name);
      for (size_t c = 0; c < layout.column_names.size(); ++c) {
        f.MixString(layout.column_names[c]);
        f.MixU64(static_cast<uint64_t>(layout.column_types[c]));
      }
      f.MixString(layout.pk);
      for (const auto& fk : layout.fks) {
        f.MixString(fk.column);
        f.MixString(fk.parent_table);
        f.MixString(fk.parent_column);
      }
    }
    const SamOptions& o = options();
    f.MixU64(o.generation_batch);
    f.MixU64(o.foj_samples);
    f.MixU64(o.use_group_and_merge ? 1 : 0);
    f.MixU64(o.enforce_null_consistency ? 1 : 0);
    f.MixDouble(o.leftover_key_threshold);
    f.MixU64(o.generation_seed);
    f.MixU64(o.column_order.size());
    for (size_t v : o.column_order) f.MixU64(v);
    // The cap fixes the partition fan-out and buffer thresholds, i.e. the
    // spill layout — resuming across a cap change would splice two layouts.
    f.MixI64(o.memory_cap_bytes);
    // Model parameters: different weights sample different tuples.
    for (const auto& t : sam->model()->params()) {
      const Matrix& m = t.value();
      f.MixU64(m.rows());
      f.MixU64(m.cols());
      f.Mix(m.data(), m.rows() * m.cols() * sizeof(double));
    }
    return f.hash();
  }

  void BuildPlan() {
    plan.clear();
    for (uint64_t b = 0; b < sample_batches; ++b) {
      plan.push_back(Step{Step::Kind::kSample, 0, static_cast<size_t>(b)});
    }
    if (multi) {
      for (size_t r = 0; r < topo.size(); ++r) {
        for (size_t p = 0; p < partitions; ++p) {
          plan.push_back(Step{Step::Kind::kPartition, r, p});
        }
        if (rels[r].keyed) plan.push_back(Step{Step::Kind::kPass2, r, 0});
      }
    }
    for (size_t t = 0; t < sam->layouts().size(); ++t) {
      plan.push_back(Step{Step::Kind::kAssemble, t, 0});
    }
    plan.push_back(Step{Step::Kind::kPublish, 0, 0});
  }

  // -- Manifest -------------------------------------------------------------

  Status RecordChunk(const std::string& name) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(Path(name), ec);
    if (ec) {
      return Status::IOError("cannot stat freshly-written spill chunk '" +
                             Path(name) + "': " + ec.message());
    }
    const uint64_t bytes = static_cast<uint64_t>(size);
    for (auto& f : state.manifest) {
      if (f.name == name) {
        // A replayed step rewrote its chunk (byte-identical by construction).
        state.spill_bytes += bytes - f.bytes;
        f.bytes = bytes;
        return Status::OK();
      }
    }
    state.manifest.push_back(SpillFileInfo{name, bytes});
    state.spill_bytes += bytes;
    return Status::OK();
  }

  bool HasManifest(const std::string& name) const {
    for (const auto& f : state.manifest) {
      if (f.name == name) return true;
    }
    return false;
  }

  // -- Initialisation -------------------------------------------------------

  Status Init() {
    namespace fs = std::filesystem;
    if (opts.out_dir.empty() || opts.work_dir.empty()) {
      return Status::InvalidArgument(
          "generation pipeline needs both an output and a work directory");
    }
    const SamOptions& o = options();
    SAM_RETURN_NOT_OK(ValidateSamOptions(o));
    budget = MemoryBudget(o.memory_cap_bytes);

    multi = schema().multi_relation();
    if (multi && !o.use_group_and_merge) {
      return Status::NotImplemented(
          "the out-of-core pipeline requires Group-and-Merge; the view-based "
          "ablation only runs on the in-RAM SamModel::Generate path");
    }
    if (multi) {
      SAM_ASSIGN_OR_RETURN(rels, PlanRelations(*sam));
      for (const auto& rel : rels) topo.push_back(rel.name);
      k = o.foj_samples;
    } else {
      if (sam->layouts().size() != 1) {
        return Status::Internal("single-relation schema with " +
                                std::to_string(sam->layouts().size()) +
                                " layouts");
      }
      topo = {sam->layouts()[0].name};
      k = static_cast<uint64_t>(schema().table_size(topo[0]));
    }
    rel_index.clear();
    for (size_t i = 0; i < topo.size(); ++i) rel_index[topo[i]] = i;
    sample_batches = (k + o.generation_batch - 1) / o.generation_batch;
    partitions = ChoosePartitions();
    BuildPlan();

    const uint64_t fingerprint = ComputeFingerprint();
    if (opts.resume) {
      SAM_ASSIGN_OR_RETURN(state, LoadLatestValidGenerationCheckpoint(
                                      opts.work_dir, &resumed_from));
      if (state.fingerprint != fingerprint) {
        return Status::InvalidArgument(
            "generation checkpoint '" + resumed_from +
            "' was written by a different model/configuration (fingerprint "
            "mismatch); refusing to resume");
      }
      if (state.next_step > plan.size() ||
          state.relations.size() != topo.size()) {
        return Status::InvalidArgument("generation checkpoint '" +
                                       resumed_from +
                                       "' does not match the current plan");
      }
      for (size_t i = 0; i < topo.size(); ++i) {
        if (state.relations[i].name != topo[i] ||
            state.relations[i].virt_chunk_seq.size() != partitions) {
          return Status::InvalidArgument(
              "generation checkpoint '" + resumed_from +
              "' does not match the current relation plan");
        }
      }
      SAM_RETURN_NOT_OK(VerifySpillManifest(opts.work_dir, state.manifest));
      obs::MetricsRegistry::Global()
          .GetCounter("sam.generate.resume_events")
          ->Add(1);
      SAM_LOG(Info) << "resuming generation from " << resumed_from
                    << " at step " << state.next_step << "/" << plan.size();
      return Status::OK();
    }

    // Fresh run: the work directory is pipeline-owned scratch — clear stale
    // remains of earlier runs so chunk reads cannot mix configurations.
    std::error_code ec;
    fs::remove_all(opts.work_dir, ec);
    ec.clear();
    fs::create_directories(opts.work_dir, ec);
    if (ec) {
      return Status::IOError("cannot create work directory '" + opts.work_dir +
                             "': " + ec.message());
    }
    state = GenerationCheckpoint{};
    state.fingerprint = fingerprint;
    Rng rng(o.generation_seed);
    state.base_seed = rng.engine()();
    for (const auto& rel : topo) {
      GenerationCheckpoint::RelationState rs;
      rs.name = rel;
      rs.virt_chunk_seq.assign(partitions, 0);
      state.relations.push_back(std::move(rs));
    }
    return Status::OK();
  }

  // -- Preamble -------------------------------------------------------------

  void ReleasePreamble() {
    if (preamble_reserved > 0) budget.Release(preamble_reserved);
    preamble_reserved = 0;
    preamble_ready = false;
    w_base.clear();
  }

  Status EnsurePreamble() {
    if (!multi || preamble_ready) return Status::OK();
    obs::TraceSpan span("generate/pipeline/preamble");
    const int64_t bytes =
        static_cast<int64_t>(topo.size()) * static_cast<int64_t>(k) * 8;
    SAM_RETURN_NOT_OK(budget.Reserve(bytes, "per-relation weight arrays"));
    preamble_reserved = bytes;
    w_base.assign(topo.size(), std::vector<double>(k, 0.0));

    const size_t batch = options().generation_batch;
    for (uint64_t b = 0; b < sample_batches; ++b) {
      SAM_ASSIGN_OR_RETURN(FojChunk chunk,
                           FojChunk::Load(Path(FojChunkName(b))));
      ScopedReservation res(&budget);
      SAM_RETURN_NOT_OK(res.Acquire(
          FojChunk::BytesFor(chunk.rows, chunk.codes.size()),
          "FOJ chunk buffer"));
      const uint64_t start = b * batch;
      for (size_t r = 0; r < rels.size(); ++r) {
        for (uint64_t i = 0; i < chunk.rows; ++i) {
          w_base[r][start + i] = rels[r].ipw.Weight(chunk.codes, i);
        }
      }
    }
    for (size_t r = 0; r < rels.size(); ++r) {
      double sum = 0.0;
      for (double v : w_base[r]) sum += v;
      SAM_RETURN_NOT_OK(ScaleToTableSize(rels[r], sum, &w_base[r]));
    }
    preamble_ready = true;
    return Status::OK();
  }

  // -- Active relation ------------------------------------------------------

  void DeactivateRelation() {
    if (!active.valid) return;
    if (active.reserved > 0) budget.Release(active.reserved);
    active = ActiveRel{};
  }

  Status ActivateRelation(size_t topo_index) {
    if (active.valid && active.topo_index == topo_index) return Status::OK();
    DeactivateRelation();
    SAM_RETURN_NOT_OK(EnsurePreamble());

    ActiveRel rc;
    rc.topo_index = topo_index;
    rc.rel = &rels[topo_index];
    const RelationPlan& rel = *rc.rel;
    // The columns this relation decodes and groups by, plus its children's
    // group-key columns (which route child virtuals to partitions).
    std::unordered_set<size_t> needed(rel.group_cols.begin(),
                                      rel.group_cols.end());
    for (const auto& oc : rel.columns) {
      if (oc.kind == RelationPlan::OutputColumn::Kind::kContent) {
        needed.insert(oc.model_col);
      }
    }
    for (size_t child : rel.children) {
      needed.insert(rels[child].group_cols.begin(),
                    rels[child].group_cols.end());
    }

    // The relation's resident working set — its needed code columns plus the
    // weight array — is the irreducible per-relation memory floor.
    const int64_t bytes =
        static_cast<int64_t>(needed.size()) * static_cast<int64_t>(k) * 4 +
        static_cast<int64_t>(k) * 8;
    SAM_RETURN_NOT_OK(budget.Reserve(
        bytes, "resident code columns + weight array for relation '" +
                   rel.name + "' (the per-relation floor)"));
    rc.reserved = bytes;
    auto fail = [&](Status st) {
      budget.Release(rc.reserved);
      return st;
    };

    rc.resident.resize(schema().num_columns());
    for (size_t c : needed) rc.resident[c].resize(k);
    const size_t batch = options().generation_batch;
    for (uint64_t b = 0; b < sample_batches; ++b) {
      auto loaded = FojChunk::Load(Path(FojChunkName(b)));
      if (!loaded.ok()) return fail(loaded.status());
      FojChunk chunk = loaded.MoveValue();
      ScopedReservation res(&budget);
      Status st = res.Acquire(
          FojChunk::BytesFor(chunk.rows, chunk.codes.size()),
          "FOJ chunk buffer");
      if (!st.ok()) return fail(st);
      const uint64_t start = b * batch;
      for (size_t c : needed) {
        if (c >= chunk.codes.size()) {
          return fail(Status::Internal("FOJ chunk " + FojChunkName(b) +
                                       " is missing column " +
                                       std::to_string(c)));
        }
        std::copy(chunk.codes[c].begin(), chunk.codes[c].end(),
                  rc.resident[c].begin() + start);
      }
    }

    // Re-apply the scaling step against the incoming virtual mass.
    rc.w = w_base[topo_index];
    double incoming = 0.0;
    if (rel.name == schema().root()) {
      for (double v : rc.w) incoming += v;
    } else {
      incoming = state.relations[topo_index].incoming_mass;
    }
    const Status scaled = ScaleToTableSize(rel, incoming, &rc.w);
    if (!scaled.ok()) return fail(scaled);

    rc.valid = true;
    active = std::move(rc);
    return Status::OK();
  }

  // -- Row emission ---------------------------------------------------------

  void ClearRowBuffer() {
    if (row_buf.reserved > 0) budget.Release(row_buf.reserved);
    row_buf = RowBuffer{};
  }

  Status FlushRowChunk(const std::string& rel) {
    if (row_buf.rows == 0) {
      ClearRowBuffer();
      return Status::OK();
    }
    auto& rs = RelState(rel);
    const std::string name = RowChunkName(rel, rs.row_chunk_seq);
    RowChunk chunk;
    chunk.rows = row_buf.rows;
    chunk.csv = std::move(row_buf.csv);
    SAM_RETURN_NOT_OK(chunk.Save(Path(name)));
    SAM_RETURN_NOT_OK(RecordChunk(name));
    rs.row_chunk_seq++;
    ClearRowBuffer();
    return Status::OK();
  }

  Status AppendRow(const std::string& rel, const std::vector<Value>& row) {
    AppendCsvRow(row, &row_buf.csv);
    row_buf.rows++;
    RelState(rel).rows_emitted++;
    // Reserve buffer growth in 64 KiB slabs (per-byte reservations would
    // dominate the profile).
    const int64_t slab = 64ll << 10;
    while (row_buf.reserved < static_cast<int64_t>(row_buf.csv.size())) {
      SAM_RETURN_NOT_OK(
          budget.Reserve(slab, "row buffer for relation '" + rel + "'"));
      row_buf.reserved += slab;
    }
    if (static_cast<int64_t>(row_buf.csv.size()) >= RowFlushBytes()) {
      SAM_RETURN_NOT_OK(FlushRowChunk(rel));
    }
    return Status::OK();
  }

  // -- Child virtuals -------------------------------------------------------

  void ClearVirtBuffers() {
    for (auto& [key, buf] : virt_bufs) {
      if (buf.reserved > 0) budget.Release(buf.reserved);
    }
    virt_bufs.clear();
  }

  Status FlushVirtBuffer(const std::string& child, size_t part) {
    auto it = virt_bufs.find({child, part});
    if (it == virt_bufs.end()) return Status::OK();
    VirtBuffer& buf = it->second;
    if (!buf.records.empty()) {
      auto& cs = RelState(child);
      const std::string name =
          VirtChunkName(child, part, cs.virt_chunk_seq[part]);
      VirtualChunk chunk;
      chunk.records = std::move(buf.records);
      SAM_RETURN_NOT_OK(chunk.Save(Path(name)));
      SAM_RETURN_NOT_OK(RecordChunk(name));
      cs.virt_chunk_seq[part]++;
    }
    if (buf.reserved > 0) budget.Release(buf.reserved);
    virt_bufs.erase(it);
    return Status::OK();
  }

  Status FlushAllVirtBuffers() {
    while (!virt_bufs.empty()) {
      const auto key = virt_bufs.begin()->first;
      SAM_RETURN_NOT_OK(FlushVirtBuffer(key.first, key.second));
    }
    return Status::OK();
  }

  Status EmitChildVirtual(size_t child, uint32_t sample, double fraction,
                          int64_t fk) {
    const size_t c = active.rel->children[child];
    const RelationPlan& child_rel = rels[c];
    const size_t part =
        Fnv1aHash(GroupKey(fk, sample, child_rel.group_cols, active.resident)) %
        partitions;
    VirtBuffer& buf = virt_bufs[{child_rel.name, part}];
    buf.records.push_back(SpillVirtual{sample, fraction, fk});
    state.relations[c].incoming_mass += w_base[c][sample] * fraction;
    const int64_t slab = 16ll << 10;
    while (buf.reserved < static_cast<int64_t>(buf.records.size() *
                                               sizeof(SpillVirtual))) {
      SAM_RETURN_NOT_OK(budget.Reserve(
          slab, "virtual-sample buffer for relation '" + child_rel.name + "'"));
      buf.reserved += slab;
    }
    if (buf.records.size() >=
        VirtFlushRecords(active.rel->children.size() * partitions)) {
      SAM_RETURN_NOT_OK(FlushVirtBuffer(child_rel.name, part));
    }
    return Status::OK();
  }

  /// Hands the Group-and-Merge core's output for the active relation to the
  /// row buffer (decoded with the step's RNG) and the child spill buffers.
  struct Sink final : MergeSink {
    Sink(Impl* impl, Rng* rng) : impl(impl), rng(rng) {}
    Status EmitRow(uint32_t sample, int64_t pk, int64_t fk) override {
      const RelationPlan& rel = *impl->active.rel;
      return impl->AppendRow(rel.name,
                             rel.DecodeRow(impl->schema(), impl->active.resident,
                                           sample, pk, fk, rng));
    }
    Status EmitChildVirtual(size_t child, uint32_t sample, double fraction,
                            int64_t pk) override {
      return impl->EmitChildVirtual(child, sample, fraction, pk);
    }
    Impl* impl;
    Rng* rng;
  };

  // -- Sample steps ---------------------------------------------------------

  Status ExecSample(size_t batch_index) {
    obs::TraceSpan span("generate/pipeline/sample");
    const size_t batch = options().generation_batch;
    const uint64_t start = static_cast<uint64_t>(batch_index) * batch;
    const size_t rows =
        static_cast<size_t>(std::min<uint64_t>(batch, k - start));
    ScopedReservation res(&budget);
    SAM_RETURN_NOT_OK(res.Acquire(
        FojChunk::BytesFor(rows, schema().num_columns()), "sample batch codes"));
    SamModel::FojSample foj =
        sam->SampleFojBatch(state.base_seed, batch_index, rows);

    if (multi) {
      FojChunk chunk;
      chunk.batch_index = batch_index;
      chunk.rows = rows;
      chunk.codes = std::move(foj.codes);
      SAM_RETURN_NOT_OK(chunk.Save(Path(FojChunkName(batch_index))));
      return RecordChunk(FojChunkName(batch_index));
    }
    // Single relation (Alg 1): decode the batch straight to one CSV row
    // chunk; no weighting or key assignment applies.
    return DecodeSingleRelationBatch(batch_index, rows, foj);
  }

  Status DecodeSingleRelationBatch(size_t batch_index, size_t rows,
                                   const SamModel::FojSample& foj) {
    const SamModel::TableLayout& layout = sam->layouts()[0];
    Rng rng(DeriveSeed(state.base_seed, "decode|" + layout.name + "|batch|" +
                                            std::to_string(batch_index)));
    std::vector<const ModelColumn*> cols;
    std::vector<size_t> col_idx;
    for (const auto& cname : layout.column_names) {
      const int col =
          schema().FindColumn(ModelColumnKind::kContent, layout.name, cname);
      if (col < 0) {
        return Status::Internal("generated column missing from model: " +
                                cname);
      }
      cols.push_back(&schema().columns()[static_cast<size_t>(col)]);
      col_idx.push_back(static_cast<size_t>(col));
    }
    std::vector<Value> row(cols.size(), Value::Null());
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < cols.size(); ++c) {
        row[c] =
            schema().DecodeContent(*cols[c], foj.codes[col_idx[c]][r], &rng);
      }
      SAM_RETURN_NOT_OK(AppendRow(layout.name, row));
    }
    // One durable row chunk per sample batch.
    return FlushRowChunk(layout.name);
  }

  // -- Partition steps (Group-and-Merge) ------------------------------------

  /// This partition's virtual samples, reserved from the budget as they
  /// load (chunk by chunk for spilled virtuals).
  Result<std::vector<SpillVirtual>> GatherVirtuals(size_t part,
                                                   ScopedReservation* res) {
    const RelationPlan& rel = *active.rel;
    std::vector<SpillVirtual> virtuals;
    if (rel.name == schema().root()) {
      // Root virtuals are implicit: every positively-weighted sample at
      // fraction 1 with no parent key; partitioned by its own group key.
      for (uint64_t s = 0; s < k; ++s) {
        if (active.w[s] <= 0.0) continue;
        if (partitions > 1) {
          const std::string key = GroupKey(-1, static_cast<uint32_t>(s),
                                           rel.group_cols, active.resident);
          if (Fnv1aHash(key) % partitions != part) continue;
        }
        virtuals.push_back(SpillVirtual{static_cast<uint32_t>(s), 1.0, -1});
      }
      SAM_RETURN_NOT_OK(res->Acquire(VirtualChunk::BytesFor(virtuals.size()),
                                     "root virtual samples"));
      return virtuals;
    }
    const auto& rs = RelState(rel.name);
    for (uint64_t seq = 0; seq < rs.virt_chunk_seq[part]; ++seq) {
      const std::string name = VirtChunkName(rel.name, part, seq);
      SAM_ASSIGN_OR_RETURN(VirtualChunk chunk, VirtualChunk::Load(Path(name)));
      SAM_RETURN_NOT_OK(
          res->Acquire(VirtualChunk::BytesFor(chunk.records.size()),
                       "virtual samples for relation '" + rel.name + "'"));
      virtuals.insert(virtuals.end(), chunk.records.begin(),
                      chunk.records.end());
    }
    return virtuals;
  }

  /// Pass 1 of Group-and-Merge on one partition. A keyed relation spills its
  /// leftover sets for pass 2 and its group digests for the top-up; a leaf
  /// threads its carry across partitions through the checkpoint.
  Status ExecPartition(size_t rel_i, size_t part) {
    obs::TraceSpan span("generate/pipeline/partition");
    SAM_RETURN_NOT_OK(ActivateRelation(rel_i));
    const RelationPlan& rel = *active.rel;
    auto& rs = RelState(rel.name);
    ScopedReservation virt_res(&budget);
    ScopedReservation group_res(&budget);
    std::vector<MergeGroup> groups;
    {
      SAM_ASSIGN_OR_RETURN(std::vector<SpillVirtual> virtuals,
                           GatherVirtuals(part, &virt_res));
      // ~96 bytes of group state per virtual (key strings + member slots),
      // reserved up front so a pathological partition fails cleanly instead
      // of OOMing.
      SAM_RETURN_NOT_OK(group_res.Acquire(
          static_cast<int64_t>(virtuals.size()) * 96,
          "merge-group table for relation '" + rel.name + "' partition " +
              std::to_string(part)));
      groups = BuildGroups(virtuals, active.w, rel.group_cols, active.resident);
    }

    Rng rng(DeriveSeed(state.base_seed, "decode|" + rel.name + "|part|" +
                                            std::to_string(part)));
    Sink sink(this, &rng);
    if (!rel.keyed) {
      SAM_RETURN_NOT_OK(EmitLeafGroups(groups, part + 1 == partitions,
                                       options().leftover_key_threshold,
                                       &rs.leaf, &sink));
    } else {
      LeftoverChunk leftover;
      GroupSummaryChunk summary;
      SAM_RETURN_NOT_OK(MergeGroups(rel, groups, active.w, &rs.pk_counter,
                                    &sink, &leftover.sets, &summary.groups));
      if (!leftover.sets.empty()) {
        const std::string name = LeftoverChunkName(rel.name, part);
        SAM_RETURN_NOT_OK(leftover.Save(Path(name)));
        SAM_RETURN_NOT_OK(RecordChunk(name));
      }
      if (!summary.groups.empty()) {
        const std::string name = SummaryChunkName(rel.name, part);
        SAM_RETURN_NOT_OK(summary.Save(Path(name)));
        SAM_RETURN_NOT_OK(RecordChunk(name));
      }
    }
    SAM_RETURN_NOT_OK(FlushRowChunk(rel.name));
    return FlushAllVirtBuffers();
  }

  // -- Pass 2: global leftover assignment + shortfall top-up ----------------

  Status ExecPass2(size_t rel_i) {
    obs::TraceSpan span("generate/pipeline/pass2");
    SAM_RETURN_NOT_OK(ActivateRelation(rel_i));
    const RelationPlan& rel = *active.rel;
    auto& rs = RelState(rel.name);
    Rng rng(DeriveSeed(state.base_seed, "decode|" + rel.name + "|pass2"));
    Sink sink(this, &rng);

    // Every partition's leftover sets, in position order (partition, then
    // index within the chunk).
    std::vector<LeftoverSet> leftovers;
    ScopedReservation res(&budget);
    for (size_t p = 0; p < partitions; ++p) {
      const std::string name = LeftoverChunkName(rel.name, p);
      if (!HasManifest(name)) continue;
      SAM_ASSIGN_OR_RETURN(LeftoverChunk chunk,
                           LeftoverChunk::Load(Path(name)));
      int64_t bytes = 0;
      for (const auto& s : chunk.sets) {
        bytes += 48 + static_cast<int64_t>(s.members.size()) * 16;
      }
      SAM_RETURN_NOT_OK(res.Acquire(
          bytes, "leftover merge sets for relation '" + rel.name + "'"));
      for (auto& set : chunk.sets) leftovers.push_back(std::move(set));
    }
    SAM_RETURN_NOT_OK(AssignLeftovers(rel, std::move(leftovers), active.w,
                                      &rs.pk_counter, &sink));

    if (rs.pk_counter < rel.size) {
      // The group digests pass 1 spilled are read only when pass 2 ran dry.
      std::vector<GroupSummary> summaries;
      ScopedReservation heavy_res(&budget);
      for (size_t p = 0; p < partitions; ++p) {
        const std::string name = SummaryChunkName(rel.name, p);
        if (!HasManifest(name)) continue;
        SAM_ASSIGN_OR_RETURN(GroupSummaryChunk chunk,
                             GroupSummaryChunk::Load(Path(name)));
        SAM_RETURN_NOT_OK(heavy_res.Acquire(
            static_cast<int64_t>(chunk.groups.size()) * 48,
            "group summaries for relation '" + rel.name + "'"));
        summaries.insert(summaries.end(), chunk.groups.begin(),
                         chunk.groups.end());
      }
      SAM_RETURN_NOT_OK(
          TopUp(rel, std::move(summaries), &rs.pk_counter, &sink));
    }
    SAM_RETURN_NOT_OK(FlushRowChunk(rel.name));
    return FlushAllVirtBuffers();
  }

  // -- Assembly + publish ---------------------------------------------------

  Status ExecAssemble(size_t table_i) {
    obs::TraceSpan span("generate/pipeline/assemble");
    DeactivateRelation();  // Assembly needs no resident columns or weights.
    ReleasePreamble();
    const SamModel::TableLayout& layout = sam->layouts()[table_i];
    namespace fs = std::filesystem;
    std::error_code ec;
    fs::create_directories(StagingDir(), ec);
    if (ec) {
      return Status::IOError("cannot create staging dir '" + StagingDir() +
                             "': " + ec.message());
    }
    SAM_ASSIGN_OR_RETURN(
        AtomicFileWriter writer,
        AtomicFileWriter::Open(StagingDir() + "/" + layout.name + ".csv"));
    std::string header;
    AppendCsvHeader(layout.column_names, &header);
    SAM_RETURN_NOT_OK(writer.Append(header));
    // Stream every row chunk through one fixed-size buffer: assembly memory
    // no longer scales with chunk (let alone table) size. Each chunk's
    // chained payload CRC is verified before Commit(), so bit rot still
    // surfaces as an IOError with nothing published.
    const int64_t buf_bytes =
        budget.cap() > 0
            ? std::clamp<int64_t>(budget.cap() / 16, 64ll << 10, 1ll << 20)
            : (1ll << 20);
    ScopedReservation res(&budget);
    SAM_RETURN_NOT_OK(res.Acquire(buf_bytes, "row chunk stream buffer"));
    std::string buf(static_cast<size_t>(buf_bytes), '\0');
    const auto& rs = RelState(layout.name);
    for (uint64_t seq = 0; seq < rs.row_chunk_seq; ++seq) {
      SAM_ASSIGN_OR_RETURN(
          RowChunkReader reader,
          RowChunkReader::Open(Path(RowChunkName(layout.name, seq))));
      while (reader.csv_remaining() > 0) {
        SAM_ASSIGN_OR_RETURN(size_t got,
                             reader.ReadCsv(buf.data(), buf.size()));
        if (got == 0) break;
        SAM_RETURN_NOT_OK(writer.Append(buf.data(), got));
      }
      SAM_RETURN_NOT_OK(reader.Finish());
    }
    SAM_RETURN_NOT_OK(writer.Commit());
    if (obs::MetricsEnabled()) {
      auto& reg = obs::MetricsRegistry::Global();
      reg.GetGauge("sam.generate.rows." + layout.name)
          ->Set(static_cast<double>(rs.rows_emitted));
      reg.GetGauge("sam.generate.target_rows." + layout.name)
          ->Set(static_cast<double>(schema().table_size(layout.name)));
    }
    return Status::OK();
  }

  Status ExecPublish() {
    obs::TraceSpan span("generate/pipeline/publish");
    namespace fs = std::filesystem;
    if (fs::exists(StagingDir())) {
      // Schema file (same format as SaveSchema), then the all-or-nothing
      // swap.
      std::string schema_text;
      for (const auto& layout : sam->layouts()) {
        schema_text += "table " + layout.name + "\n";
        for (size_t c = 0; c < layout.column_names.size(); ++c) {
          schema_text += "column " + layout.column_names[c] + " " +
                         ColumnTypeToString(layout.column_types[c]) + "\n";
        }
        if (!layout.pk.empty()) schema_text += "pk " + layout.pk + "\n";
        for (const auto& fk : layout.fks) {
          schema_text += "fk " + fk.column + " " + fk.parent_table + " " +
                         fk.parent_column + "\n";
        }
      }
      SAM_RETURN_NOT_OK(
          AtomicWriteFile(StagingDir() + "/schema.txt", schema_text));
      return PromoteStagingDir(StagingDir(), opts.out_dir);
    }
    if (fs::exists(opts.out_dir)) {
      // Replayed publish (crash between the swap and the final checkpoint):
      // the database is already live.
      return Status::OK();
    }
    return Status::IOError("publish step found neither staging dir '" +
                           StagingDir() + "' nor published output '" +
                           opts.out_dir + "'");
  }

  // -- Checkpointing / driver ----------------------------------------------

  Status SaveCheckpoint() {
    state.peak_reserved = std::max(state.peak_reserved, budget.peak());
    state.rows_total = 0;
    for (const auto& rs : state.relations) state.rows_total += rs.rows_emitted;
    SAM_RETURN_NOT_OK(
        state.Save(Path(GenerationCheckpointFileName(state.next_step))));
    obs::MetricsRegistry::Global()
        .GetCounter("sam.generate.checkpoints")
        ->Add(1);
    PruneCheckpointsWithPrefix(opts.work_dir, kGenerationCheckpointPrefix,
                               opts.checkpoint_keep);
    return Status::OK();
  }

  bool StopRequested() const {
    return opts.stop_flag != nullptr &&
           opts.stop_flag->load(std::memory_order_relaxed);
  }

  Status ExecStep(const Step& s) {
    switch (s.kind) {
      case Step::Kind::kSample:
        return ExecSample(s.index);
      case Step::Kind::kPartition:
        return ExecPartition(s.rel, s.index);
      case Step::Kind::kPass2:
        return ExecPass2(s.rel);
      case Step::Kind::kAssemble:
        return ExecAssemble(s.rel);
      case Step::Kind::kPublish:
        return ExecPublish();
    }
    return Status::Internal("unknown pipeline step kind");
  }

  Result<GenerationRunSummary> Run() {
    SAM_RETURN_NOT_OK(Init());
    GenerationRunSummary summary;
    summary.steps_total = plan.size();
    summary.resumed_from = resumed_from;

    uint64_t since_checkpoint = 0;
    const uint64_t every =
        static_cast<uint64_t>(options().generation_checkpoint_every);
    while (state.next_step < plan.size()) {
      if (StopRequested() ||
          (opts.stop_after_steps > 0 &&
           summary.steps_executed >= opts.stop_after_steps)) {
        SAM_RETURN_NOT_OK(SaveCheckpoint());
        FillSummary(&summary, /*completed=*/false);
        SAM_LOG(Info) << "generation stopped at step " << state.next_step
                      << "/" << plan.size() << " (checkpoint saved)";
        return summary;
      }
      SAM_RETURN_NOT_OK(ExecStep(plan[state.next_step]));
      state.next_step++;
      summary.steps_executed++;
      since_checkpoint++;
      if (state.next_step < plan.size() && since_checkpoint >= every) {
        SAM_RETURN_NOT_OK(SaveCheckpoint());
        since_checkpoint = 0;
      }
    }

    DeactivateRelation();
    ReleasePreamble();
    FillSummary(&summary, /*completed=*/true);
    if (opts.keep_work_dir) {
      SAM_RETURN_NOT_OK(SaveCheckpoint());
    } else {
      std::error_code ec;
      std::filesystem::remove_all(opts.work_dir, ec);  // Best effort.
    }
    return summary;
  }

  void FillSummary(GenerationRunSummary* summary, bool completed) {
    summary->completed = completed;
    summary->next_step = state.next_step;
    summary->rows_written = 0;
    for (const auto& rs : state.relations) {
      summary->rows_written += rs.rows_emitted;
    }
    summary->spill_bytes = state.spill_bytes;
    summary->peak_reserved = std::max(state.peak_reserved, budget.peak());
  }
};

// ---------------------------------------------------------------------------

GenerationPipeline::GenerationPipeline(const SamModel* sam,
                                       GenerationPipelineOptions options)
    : impl_(std::make_unique<Impl>()) {
  impl_->sam = sam;
  impl_->opts = std::move(options);
}

GenerationPipeline::~GenerationPipeline() = default;

Result<GenerationRunSummary> GenerationPipeline::Run() { return impl_->Run(); }

uint64_t GenerationPipeline::Fingerprint() const {
  return impl_->ComputeFingerprint();
}

}  // namespace sam
