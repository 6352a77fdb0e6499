// Data-parallel DPS training: every step's batch is split into fixed-size
// shards that run forward and Backward on tapes of their own, and the
// gradients are summed in shard order. These tests pin the two contracts of
// that design: trained parameters do not depend on the pool size, and the
// forward pass and the RNG consumption order match the single-tape trainer
// the sharding replaced.

#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <vector>

#include "ar/dps_trainer.h"
#include "ar/made.h"
#include "ar/training_checkpoint.h"
#include "common/hash.h"
#include "common/thread_pool.h"
#include "datasets/datasets.h"
#include "engine/executor.h"
#include "workload/generator.h"

namespace sam {
namespace {

struct Fixture {
  Database db;
  Workload train;
  ModelSchema schema;
};

Fixture CensusFixture(size_t queries) {
  Fixture f;
  f.db = MakeCensusLike(400, 5);
  auto exec = Executor::Create(&f.db).MoveValue();
  SingleRelationWorkloadOptions wopts;
  wopts.num_queries = queries;
  wopts.seed = 3;
  f.train =
      GenerateSingleRelationWorkload(f.db, "census", *exec, wopts).MoveValue();
  f.schema = ModelSchema::Build(f.db, f.train, SchemaHints{}, 400).MoveValue();
  return f;
}

/// imdb_like with fanout and indicator columns, so the shards exercise the
/// fanout scaling and the multi-relation masks.
Fixture ImdbFixture() {
  Fixture f;
  f.db = MakeImdbLike(120, 4);
  auto exec = Executor::Create(&f.db).MoveValue();
  MultiRelationWorkloadOptions wopts;
  wopts.num_queries = 100;
  f.train = GenerateMultiRelationWorkload(f.db, *exec, wopts).MoveValue();
  SchemaHints hints;
  hints.fanout_cap = 8;
  f.schema = ModelSchema::Build(f.db, f.train, hints, exec->FullOuterJoinSize())
                 .MoveValue();
  return f;
}

MadeModel::Options ModelOptions() {
  MadeModel::Options o;
  o.hidden_sizes = {16, 16};
  o.residual = true;
  return o;
}

/// Trains a fresh model on `pool` (null: the trainer's own pool) and returns
/// its parameters.
std::vector<Matrix> TrainOn(const Fixture& f, DpsOptions options,
                            ThreadPool* pool) {
  options.pool = pool;
  MadeModel model(&f.schema, ModelOptions());
  auto stats = TrainDps(&model, f.train, options);
  EXPECT_TRUE(stats.ok()) << stats.status().ToString();
  std::vector<Matrix> params;
  for (const auto& p : model.params()) params.push_back(p.value());
  return params;
}

void ExpectSameParams(const std::vector<Matrix>& a,
                      const std::vector<Matrix>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t k = 0; k < a.size(); ++k) {
    ASSERT_EQ(a[k].size(), b[k].size()) << "parameter " << k;
    for (size_t i = 0; i < a[k].size(); ++i) {
      ASSERT_EQ(a[k].data()[i], b[k].data()[i])
          << "parameter " << k << " entry " << i;
    }
  }
}

/// Batch 64 over 100 queries: a full step of four shards, then a step of
/// 36 queries whose last shard is partial.
void ExpectIdenticalAcrossPools(const Fixture& f) {
  DpsOptions o;
  o.epochs = 2;
  o.batch_size = 64;
  ThreadPool one(1);
  const std::vector<Matrix> serial = TrainOn(f, o, &one);
  for (size_t threads : {2, 3, 4}) {
    SCOPED_TRACE(::testing::Message() << threads << " threads");
    ThreadPool pool(threads);
    ExpectSameParams(serial, TrainOn(f, o, &pool));
  }
  SCOPED_TRACE("default pool");
  ExpectSameParams(serial, TrainOn(f, o, nullptr));
}

TEST(DpsShardTest, ParamsIdenticalAcrossPoolSizesOnCensus) {
  ExpectIdenticalAcrossPools(CensusFixture(100));
}

TEST(DpsShardTest, ParamsIdenticalAcrossPoolSizesOnImdb) {
  const Fixture f = ImdbFixture();
  bool has_fanout = false;
  bool has_indicator = false;
  for (const ModelColumn& c : f.schema.columns()) {
    has_fanout = has_fanout || c.kind == ModelColumnKind::kFanout;
    has_indicator = has_indicator || c.kind == ModelColumnKind::kIndicator;
  }
  ASSERT_TRUE(has_fanout && has_indicator);
  ExpectIdenticalAcrossPools(f);
}

TEST(DpsShardTest, OneStepMatchesSingleTapeLossAndRngConsumption) {
  // One step of 60 queries in four shards (16, 16, 16, 12). The expected
  // values were recorded with the single-tape trainer the shards replaced:
  // the loss may differ only in summation order, and the Gumbel uniforms
  // must be drawn from the trainer's Rng in the same order, so its state
  // after training is the same string.
  constexpr double kSingleTapeLoss = 1.3018518425142351;
  constexpr size_t kRngStateBytes = 6348;
  constexpr uint64_t kRngStateFnv = 0x67babe4658b14e30ull;

  const Fixture f = CensusFixture(60);
  const auto dir = std::filesystem::temp_directory_path() / "sam_dps_shard_one_step";
  std::filesystem::remove_all(dir);
  DpsOptions o;
  o.epochs = 1;
  o.batch_size = 64;
  o.checkpoint_dir = dir.string();
  MadeModel model(&f.schema, ModelOptions());
  auto stats = TrainDps(&model, f.train, o);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_EQ(stats.ValueOrDie().size(), 1u);
  const double loss = stats.ValueOrDie()[0].mean_loss;
  EXPECT_LE(std::fabs(loss - kSingleTapeLoss), 1e-12 * kSingleTapeLoss)
      << "loss " << loss;

  auto ckpt = LoadLatestValidCheckpoint(o.checkpoint_dir, nullptr);
  ASSERT_TRUE(ckpt.ok()) << ckpt.status().ToString();
  const std::string& rng_state = ckpt.ValueOrDie().rng_state;
  EXPECT_EQ(rng_state.size(), kRngStateBytes);
  EXPECT_EQ(Fnv1a().MixString(rng_state).hash(), kRngStateFnv);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace sam
