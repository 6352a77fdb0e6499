// Parallel FOJ sampling (§4.2 "embarrassingly parallel"): correctness and
// determinism of the sharded sampler.

#include <gtest/gtest.h>

#include "datasets/datasets.h"
#include "engine/executor.h"
#include "sam/sam_model.h"
#include "workload/generator.h"

namespace sam {
namespace {

std::unique_ptr<SamModel> MakeModel(const Database& db, const Executor& exec,
                                    const SamOptions& options) {
  MultiRelationWorkloadOptions wopts;
  wopts.num_queries = 50;
  auto train = GenerateMultiRelationWorkload(db, exec, wopts).MoveValue();
  SchemaHints hints;
  auto sam =
      SamModel::Create(db, train, hints, exec.FullOuterJoinSize(), options)
          .MoveValue();
  sam->model()->SyncSamplerWeights();
  return sam;
}

// `SampleFoj(k, rng)` must equal, column by column, the concatenation of
// `SampleFojBatch(base_seed, i, rows)` for its batches in order: the serial
// reference the out-of-core pipeline samples with.
void ExpectEqualsSerialBatches(size_t k, size_t generation_batch) {
  Database db = MakeImdbLike(200, 5);
  auto exec = Executor::Create(&db).MoveValue();
  SamOptions options;
  options.generation_batch = generation_batch;
  auto sam = MakeModel(db, *exec, options);

  Rng rng(7);
  const auto par = sam->SampleFoj(k, &rng);
  const uint64_t base_seed = Rng(7).engine()();
  std::vector<std::vector<int32_t>> serial(sam->schema().num_columns());
  for (size_t i = 0, start = 0; start < k; ++i, start += generation_batch) {
    const auto batch = sam->SampleFojBatch(
        base_seed, i, std::min(generation_batch, k - start));
    for (size_t c = 0; c < serial.size(); ++c) {
      serial[c].insert(serial[c].end(), batch.codes[c].begin(),
                       batch.codes[c].end());
    }
  }
  ASSERT_EQ(par.count, k);
  ASSERT_EQ(par.codes.size(), serial.size());
  for (size_t c = 0; c < serial.size(); ++c) {
    EXPECT_EQ(par.codes[c], serial[c]) << "column " << c;
  }
}

TEST(ParallelSamplingTest, ShardedSamplerIsDeterministic) {
  Database db = MakeImdbLike(200, 3);
  auto exec = Executor::Create(&db).MoveValue();
  SamOptions options;
  options.generation_batch = 128;
  auto sam = MakeModel(db, *exec, options);

  Rng rng1(42), rng2(42);
  const auto a = sam->SampleFoj(1000, &rng1);
  const auto b = sam->SampleFoj(1000, &rng2);
  ASSERT_EQ(a.count, b.count);
  for (size_t c = 0; c < a.codes.size(); ++c) {
    EXPECT_EQ(a.codes[c], b.codes[c]) << "column " << c;
  }
}

TEST(ParallelSamplingTest, ParallelIsBitIdenticalToSequential) {
  ExpectEqualsSerialBatches(/*k=*/4096, /*generation_batch=*/256);
}

TEST(ParallelSamplingTest, PartialLastBatchIsBitIdenticalToSequential) {
  ExpectEqualsSerialBatches(/*k=*/4000, /*generation_batch=*/256);
}

TEST(ParallelSamplingTest, SubBatchSampleIsBitIdenticalToSequential) {
  ExpectEqualsSerialBatches(/*k=*/100, /*generation_batch=*/256);
}

TEST(ParallelSamplingTest, GenerationWorksWithParallelSampler) {
  Database db = MakeImdbLike(250, 7);
  auto exec = Executor::Create(&db).MoveValue();
  MultiRelationWorkloadOptions wopts;
  wopts.num_queries = 120;
  auto train = GenerateMultiRelationWorkload(db, *exec, wopts).MoveValue();
  SamOptions options;
  options.foj_samples = 3000;
  options.training.epochs = 2;
  auto sam =
      SamModel::Train(db, train, SchemaHints{}, exec->FullOuterJoinSize(), options)
          .MoveValue();
  auto gen = sam->Generate();
  ASSERT_TRUE(gen.ok()) << gen.status().ToString();
  EXPECT_TRUE(gen.ValueOrDie().ValidateIntegrity().ok());
  EXPECT_EQ(gen.ValueOrDie().FindTable("title")->num_rows(),
            db.FindTable("title")->num_rows());
}

}  // namespace
}  // namespace sam
