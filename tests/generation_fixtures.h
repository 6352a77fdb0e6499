// Shared fixtures of the generation tests: the chain and imdb_like models,
// the out-of-core pipeline driver and the published-tree byte oracle.

#pragma once

#include <atomic>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/hash.h"
#include "datasets/datasets.h"
#include "engine/executor.h"
#include "sam/generation_pipeline.h"
#include "sam/sam_model.h"
#include "workload/generator.h"

namespace sam {
namespace testing_fixtures {

inline std::string TempDir(const std::string& name) {
  const auto dir = std::filesystem::temp_directory_path() / name;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

/// Reads every regular file under `dir` into a map keyed by relative path —
/// the byte-identity oracle for the resume and fault sweeps.
inline std::map<std::string, std::string> ReadTree(const std::string& dir) {
  std::map<std::string, std::string> out;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    std::ifstream in(e.path(), std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    out[std::filesystem::relative(e.path(), dir).string()] = ss.str();
  }
  return out;
}

/// FNV-1a over (relative path, bytes) of every file under `dir`, in path
/// order: a known-answer digest of a published database.
inline uint64_t TreeDigest(const std::string& dir) {
  Fnv1a f;
  for (const auto& [name, bytes] : ReadTree(dir)) {
    f.MixString(name).MixString(bytes);
  }
  return f.hash();
}

inline Predicate Eq(const std::string& table, const std::string& col,
                    const char* v) {
  return Predicate{table, col, PredOp::kEq, Value(std::string(v)), {}};
}

/// Literal workload defining the chain schema's column domains.
inline Workload ChainWorkload() {
  Workload w;
  auto add = [&](std::vector<std::string> rels, Predicate p, int64_t card) {
    Query q;
    q.relations = std::move(rels);
    q.predicates = {std::move(p)};
    q.cardinality = card;
    w.push_back(std::move(q));
  };
  add({"A"}, Eq("A", "a", "m"), 1);
  add({"A"}, Eq("A", "a", "n"), 1);
  add({"A", "B"}, Eq("B", "b", "p"), 2);
  add({"A", "B"}, Eq("B", "b", "q"), 1);
  add({"A", "B", "C"}, Eq("C", "c", "u"), 2);
  add({"A", "B", "C"}, Eq("C", "c", "v"), 1);
  return w;
}

/// Briefly trained chain model: an *untrained* model's random indicators
/// give absent-child samples the heaviest IPW weights, which can starve a
/// child relation of incoming virtual mass (the in-RAM path fails the same
/// way) — a few DPS epochs teach the true indicator/fanout correlations.
/// Small FOJ sample and batch so the plan has enough steps to sweep.
inline std::unique_ptr<SamModel> MakeChainModel(const Database& db,
                                                SamOptions options) {
  options.foj_samples = options.foj_samples == 100000 ? 64 : options.foj_samples;
  options.generation_batch =
      options.generation_batch == 1024 ? 16 : options.generation_batch;
  options.model.hidden_sizes = {16, 16};
  options.training.epochs = 12;
  options.training.batch_size = 8;
  auto sam = SamModel::Train(db, ChainWorkload(), SchemaHints{}, 4, options);
  SAM_CHECK_OK(sam.status());
  sam.ValueOrDie()->model()->SyncSamplerWeights();
  return sam.MoveValue();
}

/// Multi-batch chain fixture: enough FOJ samples for a partition fan-out of
/// 2 under the cap, but a large batch so the whole plan stays below ~20
/// steps and a kill-at-every-step sweep is affordable.
inline std::unique_ptr<SamModel> MakePartitionedChainModel(const Database& db) {
  SamOptions opt;
  opt.foj_samples = 8192;
  opt.generation_batch = 2048;       // 4 sample steps.
  opt.memory_cap_bytes = 4ll << 20;  // Partition fan-out 2.
  return MakeChainModel(db, opt);
}

/// A small imdb_like snowflake (title plus five single-FK children) and its
/// labelled training workload.
struct ImdbFixture {
  Database db;
  Workload train;
  SchemaHints hints;
  int64_t foj_size = 0;

  ImdbFixture() : db(MakeImdbLike(300, 77)) {
    auto exec = Executor::Create(&db).MoveValue();
    MultiRelationWorkloadOptions wopts;
    wopts.num_queries = 120;
    train = GenerateMultiRelationWorkload(db, *exec, wopts).MoveValue();
    hints.numeric_columns = {"title.production_year"};
    hints.numeric_bounds["title.production_year"] = {1900, 2025};
    foj_size = exec->FullOuterJoinSize();
  }

  /// Two DPS epochs on a small MADE; 8192 FOJ samples in 2048-row batches,
  /// so a 3 MiB cap splits every relation into 2 partitions.
  std::unique_ptr<SamModel> Train(SamOptions options) const {
    options.model.hidden_sizes = {16, 16};
    options.training.epochs = 2;
    options.training.batch_size = 32;
    options.foj_samples = 8192;
    options.generation_batch = 2048;
    auto sam = SamModel::Train(db, train, hints, foj_size, options);
    SAM_CHECK_OK(sam.status());
    sam.ValueOrDie()->model()->SyncSamplerWeights();
    return sam.MoveValue();
  }
};

inline Result<GenerationRunSummary> RunPipeline(
    const SamModel& sam, const std::string& out, const std::string& work,
    bool resume, uint64_t stop_after_steps = 0,
    std::atomic<bool>* stop_flag = nullptr) {
  GenerationPipelineOptions o;
  o.out_dir = out;
  o.work_dir = work;
  o.resume = resume;
  o.stop_after_steps = stop_after_steps;
  o.stop_flag = stop_flag;
  GenerationPipeline p(&sam, o);
  return p.Run();
}

}  // namespace testing_fixtures
}  // namespace sam
