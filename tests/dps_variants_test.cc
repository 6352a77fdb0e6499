// Tests for the optional training/model variants (ResMADE residual
// connections, Gumbel temperature annealing, learning-rate decay) and for the
// trainer's incremental tape state against the dense reference forward.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "ar/dps_trainer.h"
#include "common/logging.h"
#include "ar/estimator.h"
#include "autodiff/ops.h"
#include "ar/made.h"
#include "datasets/datasets.h"
#include "engine/executor.h"
#include "metrics/metrics.h"
#include "workload/generator.h"

namespace sam {
namespace {

struct Env {
  Database db;
  std::unique_ptr<Executor> exec;
  Workload train;
  ModelSchema schema;
};

Env MakeEnv() {
  Env s;
  s.db = MakeCensusLike(800, 311);
  s.exec = Executor::Create(&s.db).MoveValue();
  SingleRelationWorkloadOptions wopts;
  wopts.num_queries = 200;
  wopts.max_filters = 2;
  wopts.seed = 7;
  s.train =
      GenerateSingleRelationWorkload(s.db, "census", *s.exec, wopts).MoveValue();
  SchemaHints hints;
  hints.numeric_columns = {"census.age", "census.education_num",
                           "census.capital_gain", "census.capital_loss",
                           "census.hours_per_week"};
  hints.numeric_bounds["census.age"] = {17, 90};
  hints.numeric_bounds["census.education_num"] = {1, 16};
  hints.numeric_bounds["census.capital_gain"] = {0, 61000};
  hints.numeric_bounds["census.capital_loss"] = {0, 10000};
  hints.numeric_bounds["census.hours_per_week"] = {1, 99};
  s.schema = ModelSchema::Build(s.db, s.train, hints, 800).MoveValue();
  return s;
}

TEST(ResMadeTest, ResidualModelPreservesAutoregressiveProperty) {
  Env s = MakeEnv();
  MadeModel::Options opts;
  opts.hidden_sizes = {24, 24, 24};
  opts.residual = true;
  MadeModel model(&s.schema, opts);
  model.SyncSamplerWeights();

  // P(col 0) must not change when a later column's input is observed.
  MadeModel::SamplerState a = model.InitState(1);
  const Matrix p_before = model.CondProbs(a, 0);
  model.Observe(&a, 1, {0});  // Feed column 1 (later than 0).
  const Matrix p_after = model.CondProbs(a, 0);
  for (size_t j = 0; j < p_before.cols(); ++j) {
    EXPECT_DOUBLE_EQ(p_before(0, j), p_after(0, j));
  }
}

TEST(ResMadeTest, DensePathMatchesSamplerPathWithResiduals) {
  Env s = MakeEnv();
  MadeModel::Options opts;
  opts.hidden_sizes = {16, 16};
  opts.residual = true;
  opts.seed = 5;
  MadeModel model(&s.schema, opts);
  model.SyncSamplerWeights();

  ad::NoGradGuard guard;
  const auto mw = model.BuildMaskedWeights();
  Matrix in(1, s.schema.total_domain());
  in(0, s.schema.columns()[0].offset) = 1.0;  // Column 0 = code 0.
  ad::Tensor t = ad::Tensor::Constant(in);
  ad::Tensor logits = model.ColumnLogits(mw, model.Hidden(mw, t), t, 1);
  ad::Tensor dense = ad::Softmax(logits);

  MadeModel::SamplerState st = model.InitState(1);
  model.Observe(&st, 0, {0});
  const Matrix fast = model.CondProbs(st, 1);
  for (size_t j = 0; j < fast.cols(); ++j) {
    EXPECT_NEAR(dense.value()(0, j), fast(0, j), 1e-10);
  }
}

// Feeds fixed one-hot samples through the trainer's incremental tape state
// and through the dense reference (a full one-hot input per column). The
// per-column logits must be bit-identical; parameter gradients of a
// squared-sum loss over all logits may differ only in summation order.
void ExpectTapeMatchesDense(const ModelSchema& schema,
                            const MadeModel::Options& opts) {
  SCOPED_TRACE(::testing::Message() << "residual=" << opts.residual
                                    << " direct=" << opts.direct_connections);
  MadeModel model(&schema, opts);
  const size_t batch = 9;
  const size_t n = schema.num_columns();
  Rng rng(opts.seed + 101);
  std::vector<Matrix> samples;
  for (const ModelColumn& c : schema.columns()) {
    Matrix m(batch, c.domain_size);
    for (size_t r = 0; r < batch; ++r) {
      m(r, static_cast<size_t>(rng.UniformInt(0, c.domain_size - 1))) = 1.0;
    }
    samples.push_back(std::move(m));
  }
  auto grads_of = [&](const std::vector<ad::Tensor>& logits,
                      const MadeModel::MaskedWeights& mw) {
    ad::Tensor loss = ad::SumAll(ad::Mul(logits[0], logits[0]));
    for (size_t col = 1; col < n; ++col) {
      loss = ad::Add(loss, ad::SumAll(ad::Mul(logits[col], logits[col])));
    }
    loss.Backward();
    model.ReduceGradients({mw});
    std::vector<Matrix> grads;
    for (const ad::Tensor& p : model.params()) grads.push_back(p.grad());
    return grads;
  };

  // Each path has leaves of its own; ReduceGradients carries their
  // gradients into the parameters.
  std::vector<ad::Tensor> tape_logits;
  const auto tape_mw = model.BuildMaskedWeights();
  {
    const auto& mw = tape_mw;
    MadeModel::TapeState state = model.InitTape(batch);
    for (size_t col = 0; col < n; ++col) {
      tape_logits.push_back(model.TapeLogits(mw, state, col));
      model.TapeObserve(mw, &state, col, ad::Tensor::Constant(samples[col]));
    }
  }
  const std::vector<Matrix> tape_grads = grads_of(tape_logits, tape_mw);

  std::vector<ad::Tensor> dense_logits;
  const auto dense_mw = model.BuildMaskedWeights();
  {
    const auto& mw = dense_mw;
    Matrix input(batch, schema.total_domain());
    for (size_t col = 0; col < n; ++col) {
      const ad::Tensor in = ad::Tensor::Constant(input);
      dense_logits.push_back(
          model.ColumnLogits(mw, model.Hidden(mw, in), in, col));
      const size_t off = schema.columns()[col].offset;
      for (size_t r = 0; r < batch; ++r) {
        for (size_t j = 0; j < samples[col].cols(); ++j) {
          input(r, off + j) = samples[col](r, j);
        }
      }
    }
  }
  const std::vector<Matrix> dense_grads = grads_of(dense_logits, dense_mw);

  for (size_t col = 0; col < n; ++col) {
    const Matrix& a = tape_logits[col].value();
    const Matrix& b = dense_logits[col].value();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_EQ(a.data()[i], b.data()[i]) << "column " << col << " entry " << i;
    }
  }
  ASSERT_EQ(tape_grads.size(), dense_grads.size());
  for (size_t k = 0; k < tape_grads.size(); ++k) {
    const Matrix& a = tape_grads[k];
    const Matrix& b = dense_grads[k];
    ASSERT_EQ(a.size(), b.size()) << "parameter " << k;
    // Relative to the tensor's largest gradient: entries that cancel to ~0
    // have no meaningful element-wise relative error.
    double scale = 0;
    for (size_t i = 0; i < b.size(); ++i) {
      scale = std::max(scale, std::fabs(b.data()[i]));
    }
    ASSERT_GT(scale, 0.0) << "parameter " << k << " got no gradient";
    for (size_t i = 0; i < a.size(); ++i) {
      ASSERT_LE(std::fabs(a.data()[i] - b.data()[i]), 1e-12 * scale)
          << "parameter " << k << " entry " << i;
    }
  }
}

TEST(TapeStateTest, MatchesDenseReferenceOnCensus) {
  Env s = MakeEnv();
  for (const bool residual : {false, true}) {
    for (const bool direct : {true, false}) {
      MadeModel::Options opts;
      opts.hidden_sizes = {16, 16, 16};
      opts.residual = residual;
      opts.direct_connections = direct;
      opts.seed = 11;
      ExpectTapeMatchesDense(s.schema, opts);
    }
  }
}

TEST(TapeStateTest, MatchesDenseReferenceOnImdbWithFanoutAndIndicators) {
  Database db = MakeImdbLike(120, 4);
  auto exec = Executor::Create(&db).MoveValue();
  MultiRelationWorkloadOptions wopts;
  wopts.num_queries = 30;
  Workload train = GenerateMultiRelationWorkload(db, *exec, wopts).MoveValue();
  SchemaHints hints;
  hints.fanout_cap = 8;
  const ModelSchema schema =
      ModelSchema::Build(db, train, hints, exec->FullOuterJoinSize()).MoveValue();
  bool has_fanout = false;
  bool has_indicator = false;
  for (const ModelColumn& c : schema.columns()) {
    has_fanout = has_fanout || c.kind == ModelColumnKind::kFanout;
    has_indicator = has_indicator || c.kind == ModelColumnKind::kIndicator;
  }
  ASSERT_TRUE(has_fanout && has_indicator);
  MadeModel::Options opts;
  opts.hidden_sizes = {16, 16};
  opts.residual = true;
  opts.seed = 4;
  ExpectTapeMatchesDense(schema, opts);
}

TEST(ResMadeTest, ResidualModelTrains) {
  Env s = MakeEnv();
  MadeModel::Options opts;
  opts.hidden_sizes = {24, 24, 24};
  opts.residual = true;
  MadeModel model(&s.schema, opts);
  DpsOptions dopts;
  dopts.epochs = 8;
  auto stats = TrainDps(&model, s.train, dopts).MoveValue();
  EXPECT_LT(stats.back().mean_loss, stats.front().mean_loss);
}

TEST(DpsVariantsTest, TauAnnealingRunsAndLearns) {
  Env s = MakeEnv();
  MadeModel model(&s.schema, MadeModel::Options{{24, 24}, false, true, 1.0, 1});
  DpsOptions dopts;
  dopts.epochs = 10;
  dopts.gumbel_tau = 2.0;
  dopts.gumbel_tau_final = 0.3;
  auto stats = TrainDps(&model, s.train, dopts).MoveValue();
  ASSERT_EQ(stats.size(), 10u);
  EXPECT_LT(stats.back().mean_loss, stats.front().mean_loss);
}

TEST(DpsVariantsTest, LrDecayDoesNotBreakTraining) {
  Env s = MakeEnv();
  MadeModel model(&s.schema, MadeModel::Options{{24, 24}, false, true, 1.0, 2});
  DpsOptions dopts;
  dopts.epochs = 6;
  dopts.learning_rate = 5e-3;
  dopts.lr_decay = 0.7;
  auto stats = TrainDps(&model, s.train, dopts).MoveValue();
  EXPECT_LT(stats.back().mean_loss, stats.front().mean_loss);
}

TEST(DpsVariantsTest, VariantsReachComparableQuality) {
  Env s = MakeEnv();

  auto train_and_eval = [&](MadeModel::Options mopts, DpsOptions dopts) {
    MadeModel model(&s.schema, mopts);
    SAM_CHECK(TrainDps(&model, s.train, dopts).ok());
    ProgressiveEstimator est(&model, 300);
    std::vector<double> qerrors;
    for (size_t i = 0; i < 60; ++i) {
      const double e = est.EstimateCardinality(s.train[i]).MoveValue();
      qerrors.push_back(QError(e, static_cast<double>(s.train[i].cardinality)));
    }
    return Summarize(std::move(qerrors)).median;
  };

  MadeModel::Options base;
  base.hidden_sizes = {24, 24};
  DpsOptions dbase;
  dbase.epochs = 12;
  const double plain = train_and_eval(base, dbase);

  MadeModel::Options res = base;
  res.residual = true;
  DpsOptions danneal = dbase;
  danneal.gumbel_tau = 1.5;
  danneal.gumbel_tau_final = 0.5;
  const double fancy = train_and_eval(res, danneal);

  // Both configurations must reach a sane fidelity; neither may diverge.
  EXPECT_LT(plain, 4.0);
  EXPECT_LT(fancy, 4.0);
}

}  // namespace
}  // namespace sam
