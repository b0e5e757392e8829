#include "system/cross_validate.hpp"

#include <cmath>

#include "common/error.hpp"
#include "eval/splits.hpp"

namespace gp {

CrossValidationResult cross_validate(const Dataset& dataset, const GesturePrintConfig& config,
                                     std::size_t k, std::uint64_t seed, exec::ExecContext& ctx) {
  check_arg(k >= 2, "cross-validation needs k >= 2");

  Rng rng(seed, 0x853c49e6748fea9bULL);
  std::vector<int> strata;
  strata.reserve(dataset.samples.size());
  const int num_users = static_cast<int>(dataset.num_users());
  for (const auto& s : dataset.samples) strata.push_back(s.gesture * num_users + s.user);
  const std::vector<Split> folds = stratified_kfold(strata, k, rng);

  // Folds are fully independent (each trains its own system from a seed
  // derived from the fold index), so they parallelise without changing any
  // per-fold number. Inside a fold the nested training/inference parallel
  // calls run inline — the fold level already saturates the pool.
  CrossValidationResult result;
  result.folds.resize(folds.size());
  ctx.parallel_for(0, folds.size(), /*grain=*/1, [&](std::size_t i) {
    GesturePrintConfig fold_config = config;
    fold_config.seed = config.seed + i + 1;
    GesturePrintSystem system(fold_config);
    system.fit(dataset, folds[i].train, ctx);
    result.folds[i] = system.evaluate(dataset, folds[i].test);
  });

  double gra_acc = 0.0;
  double uia_acc = 0.0;
  double eer_acc = 0.0;
  for (const auto& fold : result.folds) {
    gra_acc += fold.gra;
    uia_acc += fold.uia;
    eer_acc += fold.user_roc.eer();
  }
  const double n = static_cast<double>(result.folds.size());
  result.mean_gra = gra_acc / n;
  result.mean_uia = uia_acc / n;
  result.mean_eer = eer_acc / n;

  double gra_var = 0.0;
  double uia_var = 0.0;
  for (const auto& fold : result.folds) {
    gra_var += (fold.gra - result.mean_gra) * (fold.gra - result.mean_gra);
    uia_var += (fold.uia - result.mean_uia) * (fold.uia - result.mean_uia);
  }
  result.std_gra = std::sqrt(gra_var / n);
  result.std_uia = std::sqrt(uia_var / n);
  return result;
}

}  // namespace gp
