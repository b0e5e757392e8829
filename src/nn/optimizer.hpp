// Adam, the first-order optimiser every trainer uses.
#pragma once

#include <vector>

#include "nn/layers.hpp"

namespace gp::nn {

/// step() applies the accumulated gradients, then clears them.
class Adam {
 public:
  Adam(std::vector<Parameter*> params, double lr = 1e-3, double beta1 = 0.9,
       double beta2 = 0.999, double eps = 1e-8, double weight_decay = 0.0);
  void step();

  void set_lr(double lr) { lr_ = lr; }
  double lr() const { return lr_; }

 private:
  std::vector<Parameter*> params_;
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  double weight_decay_;
  long step_count_ = 0;
  std::vector<Tensor> m_;
  std::vector<Tensor> v_;
};

}  // namespace gp::nn
