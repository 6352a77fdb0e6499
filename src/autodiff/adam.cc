#include "autodiff/adam.h"

#include <cmath>

#include "common/logging.h"

namespace sam::ad {

AdamOptimizer::AdamOptimizer(std::vector<Tensor> params, Options options)
    : params_(std::move(params)), options_(options) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const auto& p : params_) {
    SAM_CHECK(p.requires_grad()) << "AdamOptimizer given a non-trainable tensor";
    m_.emplace_back(p.rows(), p.cols());
    v_.emplace_back(p.rows(), p.cols());
  }
}

double AdamOptimizer::Step() {
  ++t_;
  double sq = 0.0;
  for (auto& p : params_) {
    if (p.grad().size() != p.value().size()) continue;
    const double* g = p.grad().data();
    for (size_t i = 0; i < p.grad().size(); ++i) sq += g[i] * g[i];
  }
  const double norm = std::sqrt(sq);
  // Optional global norm clipping across all parameters.
  if (options_.clip_norm > 0.0 && norm > options_.clip_norm) {
    const double scale = options_.clip_norm / norm;
    for (auto& p : params_) {
      if (p.grad().size() != p.value().size()) continue;
      double* g = p.node()->grad.data();
      for (size_t i = 0; i < p.grad().size(); ++i) g[i] *= scale;
    }
  }

  const double bc1 = 1.0 - std::pow(options_.beta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(options_.beta2, static_cast<double>(t_));
  for (size_t k = 0; k < params_.size(); ++k) {
    Tensor& p = params_[k];
    if (p.grad().size() != p.value().size()) continue;  // Never touched.
    double* w = p.mutable_value().data();
    const double* g = p.grad().data();
    double* m = m_[k].data();
    double* v = v_[k].data();
    for (size_t i = 0; i < p.value().size(); ++i) {
      m[i] = options_.beta1 * m[i] + (1.0 - options_.beta1) * g[i];
      v[i] = options_.beta2 * v[i] + (1.0 - options_.beta2) * g[i] * g[i];
      const double mhat = m[i] / bc1;
      const double vhat = v[i] / bc2;
      w[i] -= options_.lr * mhat / (std::sqrt(vhat) + options_.eps);
    }
  }
  return norm;
}

void AdamOptimizer::ZeroGrad() {
  for (auto& p : params_) p.ZeroGrad();
}

Status AdamOptimizer::RestoreState(int64_t step_count, std::vector<Matrix> m,
                                   std::vector<Matrix> v) {
  if (step_count < 0) {
    return Status::InvalidArgument("Adam step count must be non-negative");
  }
  if (m.size() != params_.size() || v.size() != params_.size()) {
    return Status::InvalidArgument(
        "Adam state has " + std::to_string(m.size()) + "/" +
        std::to_string(v.size()) + " moment matrices, optimiser has " +
        std::to_string(params_.size()) + " parameters");
  }
  for (size_t k = 0; k < params_.size(); ++k) {
    if (m[k].rows() != params_[k].rows() || m[k].cols() != params_[k].cols() ||
        v[k].rows() != params_[k].rows() || v[k].cols() != params_[k].cols()) {
      return Status::InvalidArgument("Adam moment shape mismatch at parameter " +
                                     std::to_string(k));
    }
  }
  t_ = step_count;
  m_ = std::move(m);
  v_ = std::move(v);
  return Status::OK();
}

}  // namespace sam::ad
