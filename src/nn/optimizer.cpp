#include "nn/optimizer.hpp"

#include <cmath>

namespace gp::nn {

Adam::Adam(std::vector<Parameter*> params, double lr, double beta1, double beta2, double eps,
           double weight_decay)
    : params_(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps),
      weight_decay_(weight_decay) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Parameter* p : params_) {
    m_.emplace_back(p->value.rows(), p->value.cols());
    v_.emplace_back(p->value.rows(), p->value.cols());
  }
}

void Adam::step() {
  ++step_count_;
  const double bias1 = 1.0 - std::pow(beta1_, static_cast<double>(step_count_));
  const double bias2 = 1.0 - std::pow(beta2_, static_cast<double>(step_count_));
  for (std::size_t k = 0; k < params_.size(); ++k) {
    Parameter& p = *params_[k];
    for (std::size_t i = 0; i < p.value.numel(); ++i) {
      const double g = p.grad.vec()[i] + weight_decay_ * p.value.vec()[i];
      m_[k].vec()[i] = static_cast<float>(beta1_ * m_[k].vec()[i] + (1.0 - beta1_) * g);
      v_[k].vec()[i] = static_cast<float>(beta2_ * v_[k].vec()[i] + (1.0 - beta2_) * g * g);
      const double m_hat = m_[k].vec()[i] / bias1;
      const double v_hat = v_[k].vec()[i] / bias2;
      p.value.vec()[i] -= static_cast<float>(lr_ * m_hat / (std::sqrt(v_hat) + eps_));
    }
    p.grad.zero();
  }
}

}  // namespace gp::nn
