#include "system/gestureprint.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <numeric>
#include <sstream>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common/error.hpp"
#include "common/fnv.hpp"
#include "common/logging.hpp"
#include "common/math_utils.hpp"
#include "common/serialize.hpp"
#include "eval/metrics.hpp"
#include "faults/selfheal.hpp"
#include "nn/loss.hpp"
#include "nn/serialize_nn.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gp {

namespace {

/// Canonical FNV-1a (common/fnv.hpp) over a byte blob — the model-file
/// integrity checksum.
std::uint64_t blob_digest(const std::string& blob) { return fnv::hash_string(blob); }

/// GP_ABSTAIN_MARGIN override for the config field (empty/unset: keep).
double env_abstain_margin(double fallback) {
  const char* v = std::getenv("GP_ABSTAIN_MARGIN");
  if (v == nullptr || *v == '\0') return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(v, &end);
  if (end == v || parsed < 0.0 || parsed > 1.0) {
    log_warn() << "ignoring invalid GP_ABSTAIN_MARGIN='" << v << "' (want a value in [0,1])";
    return fallback;
  }
  return parsed;
}

}  // namespace

double top2_margin(const std::vector<double>& probabilities) {
  if (probabilities.size() < 2) return 1.0;
  double top1 = -1.0;
  double top2 = -1.0;
  for (const double p : probabilities) {
    if (p > top1) {
      top2 = top1;
      top1 = p;
    } else if (p > top2) {
      top2 = p;
    }
  }
  return top1 - top2;
}

bool should_abstain(const std::vector<double>& probabilities, double margin) {
  if (margin <= 0.0) return false;
  return top2_margin(probabilities) < margin;
}

bool refuse_segment(bool empty, SegmentQuality quality, bool refuse_degraded) {
  return empty || (refuse_degraded && quality != SegmentQuality::kGood);
}

GesturePrintSystem::GesturePrintSystem(GesturePrintConfig config)
    : config_(std::move(config)), rng_(config_.seed, 0xB5297A4D3F2C1E05ULL) {
  config_.abstain_margin = env_abstain_margin(config_.abstain_margin);
}

GesIDNet& GesturePrintSystem::gesture_model() {
  check(gesture_model_ != nullptr, "system not fitted");
  return *gesture_model_;
}

/// One model's training run within a phase. Every rng_ value it needs is
/// drawn when the job is made, so the jobs may run in any order, on any lane.
struct GesturePrintSystem::TrainJob {
  GesIDNet* model = nullptr;
  std::vector<std::size_t> indices;
  LabelKind kind = LabelKind::kGesture;
  Rng prep_rng;
  TrainConfig tc;
  double train_accuracy = 0.0;
};

void GesturePrintSystem::train_jobs(const Dataset& dataset, std::vector<TrainJob>& jobs,
                                    exec::ExecContext& ctx) {
  if (jobs.empty()) return;
  // Longest first by training rows × epochs, so the lane that draws the
  // longest job starts it at once.
  std::vector<std::size_t> cost(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    cost[j] = prepared_size(jobs[j].indices.size(), config_.prep) * jobs[j].tc.epochs;
  }
  std::vector<std::size_t> order(jobs.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return cost[a] > cost[b]; });
  // No lane count finishes before the longest job does, and every lane
  // holds one more training working set: stop at ceil(total / longest).
  const std::size_t longest = std::max<std::size_t>(cost[order.front()], 1);
  const std::size_t total = std::accumulate(cost.begin(), cost.end(), std::size_t{0});
  const std::size_t lanes =
      std::clamp<std::size_t>((total + longest - 1) / longest, 1, ctx.threads());

  // Kernels inside a lane run inline, and inline kernels are bitwise those
  // of any thread count: the models are the serial loop's.
  std::atomic<std::size_t> next{0};
  ctx.run_chunks(lanes, [&](std::size_t) {
    for (std::size_t i = next++; i < order.size(); i = next++) {
      TrainJob& job = jobs[order[i]];
      const LabeledSamples train =
          prepare_subset(dataset, job.indices, job.kind, config_.prep, job.prep_rng);
      job.train_accuracy = train_classifier(*job.model, train, job.tc, ctx).train_accuracy;
    }
  });
#if defined(__GLIBC__)
  // Each lane freed its working set into its own malloc arena, which keeps
  // the pages resident (and every forked cluster worker inherits them).
  if (lanes > 1) malloc_trim(0);
#endif
}

void GesturePrintSystem::fit(const Dataset& dataset, std::span<const std::size_t> train_indices,
                             exec::ExecContext& ctx) {
  GP_SPAN("system.fit");
  check_arg(!train_indices.empty(), "fit with empty training set");
  num_gestures_ = dataset.num_gestures();
  num_users_ = dataset.num_users();
  check_arg(num_gestures_ >= 2 && num_users_ >= 2, "need >= 2 gestures and users");

  // Every rng_ draw happens here, serially and in model order: the
  // construction Rng, the prep fork, then the training seed.
  std::vector<TrainJob> jobs;
  const auto add_job = [&](std::unique_ptr<GesIDNet>& slot, std::size_t classes,
                           std::vector<std::size_t> indices, LabelKind kind) -> TrainJob& {
    GesIDNetConfig net = config_.network;
    net.num_classes = classes;
    Rng init = rng_.fork();
    slot = std::make_unique<GesIDNet>(net, init);
    TrainJob& job = jobs.emplace_back(
        TrainJob{slot.get(), std::move(indices), kind, rng_.fork(), config_.training});
    job.tc.seed = rng_();
    return job;
  };

  const std::vector<std::size_t> all(train_indices.begin(), train_indices.end());
  add_job(gesture_model_, num_gestures_, all, LabelKind::kGesture);
  user_models_.clear();
  if (config_.mode == IdentificationMode::kParallel) {
    user_models_.resize(1);
    add_job(user_models_.front(), num_users_, all, LabelKind::kUser);
  } else {
    // Serialized: one ID model per gesture, trained on that gesture's samples.
    user_models_.resize(num_gestures_);
    for (std::size_t g = 0; g < num_gestures_; ++g) {
      std::vector<std::size_t> gesture_indices;
      for (std::size_t idx : train_indices) {
        if (dataset.samples[idx].gesture == static_cast<int>(g)) gesture_indices.push_back(idx);
      }
      if (gesture_indices.empty()) continue;  // gesture absent from training
      TrainJob& job = add_job(user_models_[g], num_users_, std::move(gesture_indices),
                              LabelKind::kUser);
      // Each per-gesture model sees only 1/num_gestures of the data, so a
      // budget that trains the recognition model leaves these undertrained.
      // Compensate with more epochs and smaller batches (total serialized-ID
      // compute stays ~2x one full model pass).
      if (prepared_size(job.indices.size(), config_.prep) < 500) {
        job.tc.epochs = std::min<std::size_t>(job.tc.epochs * 2, 24);
        job.tc.batch_size = 16;
      }
    }
  }
  train_jobs(dataset, jobs, ctx);
  log_debug() << "gesture model train acc " << jobs.front().train_accuracy;
}

namespace {

// Parameters plus buffers: the full persistent state of one model.
std::vector<nn::Parameter*> full_state(GesIDNet& model) {
  std::vector<nn::Parameter*> state = model.parameters();
  const auto buffers = model.buffers();
  state.insert(state.end(), buffers.begin(), buffers.end());
  return state;
}

}  // namespace

void GesturePrintSystem::fine_tune(const Dataset& dataset,
                                   std::span<const std::size_t> indices, std::size_t epochs,
                                   double lr, exec::ExecContext& ctx) {
  check(fitted(), "fine_tune before fit");
  check_arg(!indices.empty(), "fine_tune with no samples");
  check_arg(dataset.num_gestures() == num_gestures_ && dataset.num_users() == num_users_,
            "fine_tune label space mismatch");

  TrainConfig tc = config_.training;
  tc.epochs = epochs;
  tc.lr = lr;
  tc.seed = rng_();

  std::vector<TrainJob> jobs;
  jobs.push_back({gesture_model_.get(), {indices.begin(), indices.end()}, LabelKind::kGesture,
                  rng_.fork(), tc});
  add_user_adapt_jobs(dataset, indices, tc, jobs);
  train_jobs(dataset, jobs, ctx);
}

void GesturePrintSystem::add_user_adapt_jobs(const Dataset& dataset,
                                             std::span<const std::size_t> indices,
                                             const TrainConfig& tc, std::vector<TrainJob>& jobs) {
  if (config_.mode == IdentificationMode::kParallel) {
    jobs.push_back({user_models_.front().get(), {indices.begin(), indices.end()},
                    LabelKind::kUser, rng_.fork(), tc});
    return;
  }
  for (std::size_t g = 0; g < num_gestures_; ++g) {
    GesIDNet* model = user_model(g);
    if (model == nullptr) continue;
    std::vector<std::size_t> gesture_indices;
    for (std::size_t idx : indices) {
      if (dataset.samples[idx].gesture == static_cast<int>(g)) gesture_indices.push_back(idx);
    }
    // Per-gesture adaptation needs at least a minibatch worth of samples.
    if (gesture_indices.size() < 4) continue;
    jobs.push_back({model, std::move(gesture_indices), LabelKind::kUser, rng_.fork(), tc});
  }
}

int GesturePrintSystem::widen_users(std::uint64_t seed) {
  check(fitted(), "widen_users before fit");
  check(!gesture_model_->fused(), "widen_users on a fused (inference-only) system");
  const int new_user = static_cast<int>(num_users_);
  ++num_users_;
  // Derive per-model init seeds from the caller's seed, not from rng_: the
  // existing fit/load/classify draw sequence must stay untouched so the
  // pre-enrollment paths remain bitwise identical.
  for (std::size_t g = 0; g < user_models_.size(); ++g) {
    if (user_models_[g] == nullptr) continue;
    user_models_[g] = user_models_[g]->widen_head(num_users_, exec::child_seed(seed, g));
  }
  return new_user;
}

void GesturePrintSystem::fine_tune_user_heads(const Dataset& dataset,
                                              std::span<const std::size_t> indices,
                                              std::size_t epochs, double lr,
                                              exec::ExecContext& ctx) {
  check(fitted(), "fine_tune_user_heads before fit");
  check_arg(!indices.empty(), "fine_tune_user_heads with no samples");
  check_arg(dataset.num_gestures() == num_gestures_ && dataset.num_users() == num_users_,
            "fine_tune_user_heads label space mismatch");

  TrainConfig tc = config_.training;
  tc.epochs = epochs;
  tc.lr = lr;
  tc.seed = rng_();
  tc.head_only = true;  // frozen trunk: the whole point of the enroll path
  std::vector<TrainJob> jobs;
  add_user_adapt_jobs(dataset, indices, tc, jobs);
  train_jobs(dataset, jobs, ctx);
}

void GesturePrintSystem::fuse_for_inference(nn::QuantMode mode) {
  check(fitted(), "fuse_for_inference before fit");
  gesture_model_->fuse_for_inference(mode);
  for (auto& model : user_models_) {
    if (model != nullptr) model->fuse_for_inference(mode);
  }
}

void GesturePrintSystem::save(const std::string& path) {
  check(fitted(), "save before fit");
  check(!gesture_model_->fused(), "save on a fused (inference-only) system");
  // Serialize into memory first so a whole-payload checksum trailer can be
  // appended: load() verifies it before parsing, turning silent bit rot
  // into a typed, quarantinable SerializationError.
  std::ostringstream buf(std::ios::binary);
  {
    // f32 state only: int8 tables are derived from it at fuse time
    // (DESIGN.md §11.2). GPS2 files also stored the tables; load() refuses
    // them at this tag.
    BinaryWriter writer(buf, "GPS3");
    writer.write_u8(config_.mode == IdentificationMode::kSerialized ? 1 : 0);
    writer.write_u32(static_cast<std::uint32_t>(num_gestures_));
    writer.write_u32(static_cast<std::uint32_t>(num_users_));
    nn::save_parameters(buf, full_state(*gesture_model_));
    writer.write_u32(static_cast<std::uint32_t>(user_models_.size()));
    for (auto& model : user_models_) {
      writer.write_u8(model != nullptr ? 1 : 0);
      if (model != nullptr) nn::save_parameters(buf, full_state(*model));
    }
  }
  const std::string blob = buf.str();
  const std::uint64_t digest = blob_digest(blob);

  // Transient write failures (flaky storage) are retried with backoff.
  faults::with_retries(faults::RetryPolicy{}, [&] {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) throw Error("cannot open system file for writing: " + path);
    out.write(blob.data(), static_cast<std::streamsize>(blob.size()));
    for (int i = 0; i < 8; ++i) {
      out.put(static_cast<char>((digest >> (8 * i)) & 0xFF));
    }
    if (!out) throw Error("short write while saving system file: " + path);
    return true;
  });
}

void GesturePrintSystem::load(const std::string& path) {
  std::string blob;
  {
    std::ifstream file(path, std::ios::binary);
    if (!file) throw Error("cannot open system file for reading: " + path);
    std::ostringstream buf;
    buf << file.rdbuf();
    blob = buf.str();
  }
  if (blob.size() < 8) {
    throw SerializationError("system file truncated (no checksum trailer): " + path);
  }
  std::uint64_t stored = 0;
  for (int i = 0; i < 8; ++i) {
    stored |= static_cast<std::uint64_t>(
                  static_cast<unsigned char>(blob[blob.size() - 8 + i]))
              << (8 * i);
  }
  blob.resize(blob.size() - 8);
  if (blob_digest(blob) != stored) {
    throw SerializationError("system file checksum mismatch (bit rot or truncation): " +
                             path);
  }

  std::istringstream in(blob, std::ios::binary);
  BinaryReader reader(in, "GPS3");
  const bool serialized = reader.read_u8() == 1;
  if (serialized != (config_.mode == IdentificationMode::kSerialized)) {
    throw SerializationError("identification mode mismatch while loading system");
  }
  num_gestures_ = reader.read_u32();
  num_users_ = reader.read_u32();

  GesIDNetConfig gnet = config_.network;
  gnet.num_classes = num_gestures_;
  Rng ginit = rng_.fork();
  gesture_model_ = std::make_unique<GesIDNet>(gnet, ginit);
  nn::load_parameters(in, full_state(*gesture_model_));

  GesIDNetConfig unet = config_.network;
  unet.num_classes = num_users_;
  const std::uint32_t model_count = reader.read_u32();
  user_models_.clear();
  user_models_.resize(model_count);
  for (std::uint32_t g = 0; g < model_count; ++g) {
    if (reader.read_u8() == 0) continue;
    Rng uinit = rng_.fork();
    user_models_[g] = std::make_unique<GesIDNet>(unet, uinit);
    nn::load_parameters(in, full_state(*user_models_[g]));
  }
}

bool GesturePrintSystem::try_load(const std::string& path) {
  // Missing file is the ordinary cold-start case: no warning, no retry.
  std::error_code ec;
  if (!std::filesystem::exists(path, ec)) return false;

  try {
    // Transient open/read failures retry with backoff; corruption
    // (SerializationError) escapes immediately — re-reading rotten bytes
    // cannot heal them.
    faults::with_retries(faults::RetryPolicy{}, [&] {
      load(path);
      return true;
    });
    return true;
  } catch (const SerializationError& e) {
    const std::string moved = faults::quarantine_file(path);
    GP_COUNTER_ADD("gp.system.model_quarantined", 1);
    log_warn() << "quarantined corrupt system file " << path << " -> "
               << (moved.empty() ? std::string("<rename failed>") : moved)
               << " (" << e.what() << "); refit and re-save";
  } catch (const Error& e) {
    log_warn() << "cannot load system file " << path << ": " << e.what();
  }
  // Failure leaves the system unfitted so the caller's refit path is
  // unambiguous (a half-loaded model must never classify).
  gesture_model_.reset();
  user_models_.clear();
  return false;
}

InferenceResult GesturePrintSystem::classify(const GestureCloud& cloud) {
  GP_SPAN("system.classify");
  GP_COUNTER_ADD("gp.system.classifications", 1);
  check(fitted(), "classify before fit");

  // Quality gate (graceful degradation, DESIGN.md §7), before any rng_
  // draw. Degraded clouds are refused only when the abstention gate is
  // armed, so at abstain_margin == 0 answers are bitwise those of older
  // builds; an empty cloud has nothing to featurize and is always refused.
  if (refuse_segment(cloud.points.empty(), cloud.quality,
                     /*refuse_degraded=*/config_.abstain_margin > 0.0)) {
    GP_COUNTER_ADD("gp.system.abstained.quality", 1);
    InferenceResult refused;
    refused.gesture = kAbstain;
    refused.user = kAbstain;
    refused.abstained = true;
    refused.gesture_margin = 0.0;
    refused.user_margin = 0.0;
    return refused;
  }

  // Featurize `rounds` stochastic resamplings of the cloud (test-time
  // augmentation) and decide them as a batch of one segment.
  const std::size_t rounds = std::max<std::size_t>(1, config_.eval_rounds);
  std::vector<FeaturizedSample> variants;
  variants.reserve(rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    Rng feat_rng = rng_.fork();
    variants.push_back(featurize(cloud, config_.prep.features, feat_rng));
  }
  decide_batch(*this, variants, {&rounds, 1}, config_.abstain_margin, classify_scratch_,
               classify_decisions_, exec::ExecContext::global());
  InferenceResult& result = classify_decisions_[0];
  if (result.gesture == kAbstain) GP_COUNTER_ADD("gp.system.abstained.gesture", 1);
  else if (result.user == kAbstain) GP_COUNTER_ADD("gp.system.abstained.user", 1);
  return std::move(result);
}

namespace {

/// One head of one segment: the TTA average of softmax rows
/// [begin, begin + count) of `probs` into `posterior` (double, rounds in
/// order), its argmax and top-2 margin. Returns whether the margin gate fires.
bool decide_head(const nn::Tensor& probs, std::size_t begin, std::size_t count, double margin,
                 std::vector<double>& posterior, int& label, double& top2) {
  posterior.assign(probs.cols(), 0.0);
  for (std::size_t r = 0; r < count; ++r) {
    for (std::size_t c = 0; c < probs.cols(); ++c) {
      posterior[c] += probs.at(begin + r, c) / static_cast<double>(count);
    }
  }
  label = static_cast<int>(argmax(posterior));
  top2 = top2_margin(posterior);
  return should_abstain(posterior, margin);
}

}  // namespace

void decide_batch(GesturePrintSystem& system, std::span<const FeaturizedSample> rows,
                  std::span<const std::size_t> variant_counts, double margin,
                  DecisionScratch& scratch, mem::SlotVector<InferenceResult>& out,
                  exec::ExecContext& ctx) {
  const std::size_t n = variant_counts.size();
  out.clear();
  std::vector<std::size_t>& row_begin = scratch.row_begin;
  row_begin.resize(n);
  std::exclusive_scan(variant_counts.begin(), variant_counts.end(), row_begin.begin(),
                      std::size_t{0});
  check_arg(n > 0 && row_begin.back() + variant_counts.back() == rows.size(),
            "decide_batch row count mismatch");

  // Gesture pass: every segment's TTA variants in one forward.
  predict_logits_into(system.gesture_model(), rows, scratch.logits, scratch.lanes, ctx);
  nn::softmax_into(scratch.logits, scratch.probs);

  // Per segment: gesture answer and gate, then route the survivors. An
  // ambiguous gesture abstains on both heads — serialized routing would
  // pick the wrong ID model.
  const bool parallel = system.config().mode == IdentificationMode::kParallel;
  const std::size_t route_count = parallel ? 1 : system.num_gestures();
  std::vector<std::vector<std::size_t>>& by_model = scratch.by_model;
  if (by_model.size() < route_count) by_model.resize(route_count);
  for (auto& members : by_model) members.clear();
  for (std::size_t k = 0; k < n; ++k) {
    InferenceResult& d = out.emplace_back();
    d.abstained = decide_head(scratch.probs, row_begin[k], variant_counts[k], margin,
                              d.gesture_probabilities, d.gesture, d.gesture_margin);
    d.user = d.abstained ? kAbstain : -1;
    d.user_margin = 1.0;  // no ID model ran
    d.user_probabilities.clear();
    if (d.abstained) {
      d.gesture = kAbstain;
      continue;
    }
    const std::size_t route = parallel ? 0 : static_cast<std::size_t>(d.gesture);
    if (route < route_count && system.user_model(route) != nullptr) {
      by_model[route].push_back(k);
    }
  }

  // User-ID passes: one forward per routed model, ascending model index.
  for (std::size_t model_idx = 0; model_idx < route_count; ++model_idx) {
    const std::vector<std::size_t>& members = by_model[model_idx];
    if (members.empty()) continue;
    // A model every segment routes to reads the gesture pass's rows as is.
    std::span<const FeaturizedSample> user_rows = rows;
    if (members.size() < n) {
      scratch.group_rows.clear();
      for (const std::size_t k : members) {
        for (const auto& sample : rows.subspan(row_begin[k], variant_counts[k])) {
          scratch.group_rows.emplace_back() = sample;
        }
      }
      user_rows = scratch.group_rows.span();
    }
    predict_logits_into(*system.user_model(model_idx), user_rows, scratch.logits, scratch.lanes,
                        ctx);
    nn::softmax_into(scratch.logits, scratch.probs);
    std::size_t begin = 0;
    for (const std::size_t k : members) {
      InferenceResult& d = out[k];
      if (decide_head(scratch.probs, begin, variant_counts[k], margin, d.user_probabilities,
                      d.user, d.user_margin)) {
        d.user = kAbstain;
        d.abstained = true;
      }
      begin += variant_counts[k];
    }
  }
}

SystemEvaluation GesturePrintSystem::evaluate(const Dataset& dataset,
                                              std::span<const std::size_t> test_indices) {
  GP_SPAN("system.evaluate");
  check(fitted(), "evaluate before fit");
  check_arg(!test_indices.empty(), "evaluate with no samples");
  for (const std::size_t idx : test_indices) {
    check_arg(idx < dataset.samples.size(), "test index out of range");
  }

  // Featurize `eval_rounds` stochastic resamplings per sample (test-time
  // augmentation; one rng_ fork per round, samples in order), stored
  // sample-major so each sample is one decide_batch segment.
  const std::size_t n = test_indices.size();
  const std::size_t rounds = std::max<std::size_t>(1, config_.eval_rounds);
  std::vector<FeaturizedSample> rows(n * rounds);
  for (std::size_t r = 0; r < rounds; ++r) {
    Rng feat_rng = rng_.fork();
    for (std::size_t i = 0; i < n; ++i) {
      rows[i * rounds + r] =
          featurize(dataset.samples[test_indices[i]].cloud, config_.prep.features, feat_rng);
    }
  }
  // Closed set: margin 0 never abstains. A sample routed to a null user
  // model keeps user -1 and no user posterior: a miss, as in serve.
  const std::vector<std::size_t> counts(n, rounds);
  decide_batch(*this, rows, counts, /*margin=*/0.0, classify_scratch_, classify_decisions_,
               exec::ExecContext::global());

  std::vector<int> truth_gesture(n);
  std::vector<int> truth_user(n);
  std::vector<int> gpred(n);
  std::vector<int> upred(n);
  std::vector<std::vector<double>> gprobs(n);
  std::vector<std::vector<double>> uprobs(n);
  for (std::size_t i = 0; i < n; ++i) {
    const GestureSample& sample = dataset.samples[test_indices[i]];
    const InferenceResult& d = classify_decisions_[i];
    truth_gesture[i] = sample.gesture;
    truth_user[i] = sample.user;
    gpred[i] = d.gesture;
    upred[i] = d.user;
    gprobs[i] = d.gesture_probabilities;
    uprobs[i] = d.user_probabilities;
    uprobs[i].resize(num_users_, 0.0);  // a miss scores every user 0
  }

  SystemEvaluation eval;
  const ConfusionMatrix gesture_confusion = build_confusion(truth_gesture, gpred, num_gestures_);
  eval.gra = gesture_confusion.accuracy();
  eval.grf1 = gesture_confusion.macro_f1();
  eval.grauc = macro_auc(gprobs, truth_gesture);
  const ConfusionMatrix user_confusion = build_confusion(truth_user, upred, num_users_);
  eval.uia = user_confusion.accuracy();
  eval.uif1 = user_confusion.macro_f1();
  eval.uiauc = macro_auc(uprobs, truth_user);
  eval.user_roc = roc_from_probabilities(uprobs, truth_user);
  return eval;
}

SystemEvaluation GesturePrintSystem::evaluate_dataset(const Dataset& dataset) {
  return evaluate(dataset, all_indices(dataset));
}

}  // namespace gp
