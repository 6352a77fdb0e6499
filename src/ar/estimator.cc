#include "ar/estimator.h"

#include <cmath>

#include "common/hash.h"
#include "common/logging.h"
#include "common/random.h"
#include "obs/metrics_registry.h"

namespace sam {

uint64_t ProgressiveStreamKey(const CompiledQuery& cq) {
  Fnv1a h;
  for (const auto& allow : cq.allow) {
    // Length-prefix each mask so (empty, 0b1) and (0b1, empty) differ.
    h.MixU64(allow.size());
    h.Mix(allow.data(), allow.size());
  }
  h.Mix(cq.scale_fanout.data(), cq.scale_fanout.size());
  return h.hash();
}

int32_t SampleTrajectoryStep(const ModelColumn& mc,
                             const std::vector<uint8_t>& allow,
                             bool scale_fanout, const double* pr, double u,
                             double* weights, double* sel,
                             obs::Counter* dead_fanout) {
  int64_t pick;
  if (!allow.empty()) {
    // One pass builds the masked sampling weights while accumulating the
    // in-range mass; if that mass is zero the path is dead (selectivity 0)
    // and any in-range value keeps the trajectory well-defined.
    double p_in = 0.0;
    bool any = false;
    for (size_t j = 0; j < mc.domain_size; ++j) {
      if (allow[j]) {
        p_in += pr[j];
        weights[j] = pr[j];
        any = any || pr[j] > 0.0;
      } else {
        weights[j] = 0.0;
      }
    }
    *sel *= p_in;
    if (!any) {
      for (size_t j = 0; j < mc.domain_size; ++j) {
        weights[j] = allow[j] ? 1.0 : 0.0;
      }
    }
    pick = CategoricalFromUniform(weights, mc.domain_size, u);
    if (pick < 0) pick = 0;  // Fully-empty mask: arbitrary placeholder.
  } else {
    // Unconstrained: sample straight from the probability row.
    pick = CategoricalFromUniform(pr, mc.domain_size, u);
    if (pick < 0) pick = 0;
  }
  const int32_t code = static_cast<int32_t>(pick);
  if (mc.kind == ModelColumnKind::kFanout && scale_fanout) {
    // Guard the division: FanoutValueOf is code+1 > 0 for every valid code
    // today, but a corrupt or future re-mapped code must not turn the whole
    // estimate into inf/NaN — kill just this path and count it.
    const int64_t fv = mc.FanoutValueOf(code);
    if (fv <= 0) {
      dead_fanout->Add(1);
      *sel = 0.0;
    } else {
      *sel /= static_cast<double>(fv);
    }
  }
  return code;
}

Result<double> ProgressiveEstimator::EstimateCardinality(const Query& q) const {
  if (paths_ == 0) {
    // EstimateCompiled would average over zero trajectories and return NaN.
    return Status::InvalidArgument(
        "ProgressiveEstimator needs at least one sample path");
  }
  SAM_ASSIGN_OR_RETURN(CompiledQuery cq, model_->schema().Compile(q));
  return EstimateCompiled(cq);
}

double ProgressiveEstimator::EstimateCompiled(const CompiledQuery& cq) const {
  SAM_CHECK(paths_ > 0) << "zero sample paths would yield a 0/0 NaN estimate";
  static obs::Counter* queries =
      obs::MetricsRegistry::Global().GetCounter("sam.estimator.queries");
  static obs::Counter* paths_run =
      obs::MetricsRegistry::Global().GetCounter("sam.estimator.paths");
  static obs::Counter* dead_fanout = obs::MetricsRegistry::Global().GetCounter(
      "sam.estimator.dead_fanout_paths");
  queries->Add(1);
  paths_run->Add(paths_);
  const ModelSchema& schema = model_->schema();
  const size_t n_cols = schema.num_columns();
  const size_t batch = paths_;
  const uint64_t stream = ProgressiveStreamKey(cq);

  MadeModel::SamplerState state = model_->InitState(batch);
  std::vector<double> path_sel(batch, 1.0);
  std::vector<int32_t> codes(batch);
  std::vector<double> weights;

  for (size_t col = 0; col < n_cols; ++col) {
    const ModelColumn& mc = schema.columns()[col];
    const Matrix& probs = model_->CondProbs(state, col);
    const auto& allow = cq.allow[col];
    const bool scale = cq.scale_fanout[col] != 0;
    // Scratch sized once per column; the per-path loop only overwrites it
    // (the old per-row assign() re-filled the vector batch times per column).
    if (!allow.empty()) weights.resize(mc.domain_size);
    for (size_t r = 0; r < batch; ++r) {
      const double u = CounterUniform(seed_, stream, r, col);
      codes[r] = SampleTrajectoryStep(mc, allow, scale, probs.row(r), u,
                                      weights.data(), &path_sel[r],
                                      dead_fanout);
    }
    model_->Observe(&state, col, codes);
  }

  double mean_sel = 0.0;
  for (double s : path_sel) mean_sel += s;
  mean_sel /= static_cast<double>(batch);
  return mean_sel * static_cast<double>(schema.foj_size());
}

}  // namespace sam
