// GesturePrint end-to-end system (Fig. 4): trains the GesIDNet recognition
// model plus user-identification models, and classifies gesture clouds into
// (gesture, user) pairs.
//
// Identification modes (§IV-C):
//  * serialized (default): one user-ID model per gesture; at runtime the
//    recognised gesture selects which ID model scores the cloud.
//  * parallel: a single user-ID model trained across all gestures.
#pragma once

#include <memory>
#include <span>

#include "common/mem.hpp"
#include "datasets/prep.hpp"
#include "eval/roc.hpp"
#include "gesidnet/gesidnet.hpp"
#include "gesidnet/trainer.hpp"

namespace gp {

enum class IdentificationMode { kSerialized, kParallel };

/// Label value returned by classify() when the system abstains: the
/// posterior margin fell below the calibrated abstention margin, or the
/// cloud failed its quality guards. Distinct from -1 ("no model ran").
inline constexpr int kAbstain = -2;

/// Top-1 minus top-2 posterior probability — the abstention-gate statistic.
/// Returns 1.0 for distributions with fewer than two classes.
double top2_margin(const std::vector<double>& probabilities);

/// The abstention gate: true when the margin of `probabilities` is below
/// `margin` (a non-positive margin disables the gate). Monotone in
/// `margin`: raising it can only turn answers into abstentions.
bool should_abstain(const std::vector<double>& probabilities, double margin);

/// The quality gate (DESIGN.md §7.2), checked before featurization: refuses
/// an empty segment, and a degraded one (not kGood) when `refuse_degraded`.
/// Serve always sets it; classify() only when the margin gate is armed.
bool refuse_segment(bool empty, SegmentQuality quality, bool refuse_degraded);

struct GesturePrintConfig {
  GesIDNetConfig network;          ///< num_classes is set per model internally
  TrainConfig training;
  PrepConfig prep{FeatureConfig{}, AugmentationParams{0.02, 2}, true};
  IdentificationMode mode = IdentificationMode::kSerialized;
  /// Test-time augmentation: logits are averaged over this many stochastic
  /// featurizations (cloud resampling) per sample. Inference is cheap next
  /// to training, and averaging removes resampling variance.
  std::size_t eval_rounds = 3;
  std::uint64_t seed = 99;
  /// Confidence-gated abstention (coverage/risk trade-off): classify()
  /// returns kAbstain when the top-1/top-2 posterior margin falls below
  /// this value, instead of silently misclassifying a degraded capture.
  /// 0 disables the gate (the clean-capture default — bitwise-identical
  /// behaviour to a build without the gate). The GP_ABSTAIN_MARGIN
  /// environment variable, when set, overrides this field.
  double abstain_margin = 0.0;
};

/// Result of classifying one gesture sample.
struct InferenceResult {
  int gesture = -1;             ///< class id, or kAbstain
  int user = -1;                ///< class id, or kAbstain
  std::vector<double> gesture_probabilities;
  std::vector<double> user_probabilities;
  bool abstained = false;       ///< any gate fired (margin or quality)
  double gesture_margin = 1.0;  ///< top-1 minus top-2 gesture posterior
  double user_margin = 1.0;     ///< top-1 minus top-2 user posterior
};

/// Aggregate evaluation metrics matching Table II's columns.
struct SystemEvaluation {
  double gra = 0.0;    ///< gesture recognition accuracy
  double grf1 = 0.0;
  double grauc = 0.0;
  double uia = 0.0;    ///< user identification accuracy
  double uif1 = 0.0;
  double uiauc = 0.0;
  RocCurve user_roc;   ///< for Fig. 10 (EER via user_roc.eer())
};

/// Working set of decide_batch(), reused across calls (keeps capacity).
struct DecisionScratch {
  std::vector<std::size_t> row_begin;              ///< first row per segment
  std::vector<std::vector<std::size_t>> by_model;  ///< routed segments per ID model
  mem::SlotVector<FeaturizedSample> group_rows;    ///< user-pass row table
  std::vector<InferLane> lanes;                    ///< one per exec lane
  nn::Tensor logits;
  nn::Tensor probs;
};

class GesturePrintSystem {
 public:
  explicit GesturePrintSystem(GesturePrintConfig config = {});

  /// Trains recognition + identification models on the selected samples.
  /// The models are independent jobs and train concurrently on the lanes
  /// of `ctx` (DESIGN.md §4); the saved bytes are those of a serial fit.
  void fit(const Dataset& dataset, std::span<const std::size_t> train_indices,
           exec::ExecContext& ctx = exec::ExecContext::global());

  /// Continues training the already-fitted models on additional samples —
  /// the §VII-2 mitigation: adapt to a new environment with a few local
  /// recordings instead of retraining from scratch. Label spaces must match
  /// the original fit.
  void fine_tune(const Dataset& dataset, std::span<const std::size_t> indices,
                 std::size_t epochs, double lr = 5e-4,
                 exec::ExecContext& ctx = exec::ExecContext::global());

  /// Grows the user label space by one (gp::enroll): every user-ID model is
  /// replaced by its widened copy (GesIDNet::widen_head) — existing users'
  /// decision boundaries are copied exactly, the new class row starts at a
  /// `seed`-derived init. The gesture model is untouched. Requires an
  /// unfused fitted system; returns the new user's class id.
  int widen_users(std::uint64_t seed);

  /// Head-only fine-tune of the user-ID models (frozen PointNet++ trunk,
  /// TrainConfig::head_only): the enrollment path trains just the widened
  /// heads on replayed + newly-buffered samples. `dataset` must carry the
  /// (already widened) user label space; the gesture model is not trained.
  void fine_tune_user_heads(const Dataset& dataset, std::span<const std::size_t> indices,
                            std::size_t epochs, double lr = 5e-4,
                            exec::ExecContext& ctx = exec::ExecContext::global());

  /// Persists every trained model (weights + batch-norm statistics). The
  /// file carries a whole-payload FNV-1a checksum trailer so bit rot is
  /// *detected* on load instead of silently perturbing weights.
  void save(const std::string& path);
  /// Restores a system saved with save(); the network configuration must
  /// match the one this system was constructed with. Throws
  /// SerializationError on checksum mismatch or malformed content.
  void load(const std::string& path);
  /// Self-healing load (DESIGN.md §7): retries transient IO errors with
  /// backoff; on a corrupt file, quarantines it aside (".quarantine"
  /// suffix), logs one warning, and returns false so the caller can refit
  /// and re-save instead of aborting. Returns false (without warning) when
  /// the file simply does not exist. The system is left unfitted on
  /// failure.
  bool try_load(const std::string& path);

  /// Classifies one preprocessed gesture cloud (runtime path): the quality
  /// gate, then `eval_rounds` featurizations through decide_batch().
  InferenceResult classify(const GestureCloud& cloud);

  /// Batch evaluation over the selected test samples: `eval_rounds`
  /// featurizations per sample, decided in one decide_batch() call. Closed
  /// set (margin 0, whatever abstain_margin says); a sample routed to a
  /// null user model is a user miss.
  SystemEvaluation evaluate(const Dataset& dataset, std::span<const std::size_t> test_indices);

  /// evaluate() over every sample of a differently-generated dataset
  /// (cross-distance / cross-environment studies). Label spaces must match
  /// the fit dataset.
  SystemEvaluation evaluate_dataset(const Dataset& dataset);

  bool fitted() const { return gesture_model_ != nullptr; }
  std::size_t num_gestures() const { return num_gestures_; }
  std::size_t num_users() const { return num_users_; }
  GesIDNet& gesture_model();
  const GesturePrintConfig& config() const { return config_; }

  /// Serve-layer accessors: the user-ID model routed to for gesture `g`
  /// (serialized mode; index 0 in parallel mode). nullptr when that gesture
  /// had no training data or `g` is out of range.
  std::size_t num_user_models() const { return user_models_.size(); }
  GesIDNet* user_model(std::size_t g) {
    return g < user_models_.size() ? user_models_[g].get() : nullptr;
  }

  /// Irreversibly fuses every trained model into its inference-only form
  /// (GesIDNet::fuse_for_inference). Afterwards the system can classify but
  /// not fit/fine_tune/save — gp::serve calls this on the private system
  /// copy inside each ModelSnapshot, never on a caller's live system.
  /// QuantMode::kInt8 selects the symmetric int8 inference kernel
  /// (nn/quant.hpp), quantizing each model's BN fold here.
  void fuse_for_inference(nn::QuantMode mode = nn::QuantMode::kOff);

 private:
  /// One model's training run within a phase (defined in the .cpp).
  struct TrainJob;
  /// Runs prepare_subset + train_classifier for every job, longest first,
  /// on min(ctx.threads(), ceil(total cost / longest cost)) lanes (cost =
  /// training rows × epochs). Inline with one lane inside a region.
  void train_jobs(const Dataset& dataset, std::vector<TrainJob>& jobs, exec::ExecContext& ctx);
  /// fine_tune tail: one job per user-ID model that `indices` adapts, with
  /// one rng_ fork each, in model order.
  void add_user_adapt_jobs(const Dataset& dataset, std::span<const std::size_t> indices,
                           const TrainConfig& tc, std::vector<TrainJob>& jobs);

  GesturePrintConfig config_;
  std::size_t num_gestures_ = 0;
  std::size_t num_users_ = 0;
  Rng rng_;
  std::unique_ptr<GesIDNet> gesture_model_;
  /// Serialized mode: index = gesture id; parallel mode: single entry.
  std::vector<std::unique_ptr<GesIDNet>> user_models_;
  /// classify()'s and evaluate()'s decide_batch working set and answers.
  DecisionScratch classify_scratch_;
  mem::SlotVector<InferenceResult> classify_decisions_;
};

/// The runtime decision path (Fig. 4, §IV-C) of classify() (a batch of one),
/// evaluate() (a batch of the test set, margin 0) and the serve batcher.
/// `rows` holds N segments' TTA variants back to back, `variant_counts[k]`
/// ≥ 1 for segment k. One gesture forward, a double TTA average + margin
/// gate per segment, routing (parallel → model 0, serialized → model
/// `gesture`, none if null), one forward per routed user model in
/// ascending index, the same gate on the user head. Each
/// forward shards its rows across the lanes of `ctx` (predict_logits_into).
/// Answers depend neither on batch composition nor on the lane count. `out`
/// gets N answers in recycled slots, so their probability buffers keep
/// capacity across calls; once warm, a call allocates nothing.
void decide_batch(GesturePrintSystem& system, std::span<const FeaturizedSample> rows,
                  std::span<const std::size_t> variant_counts, double margin,
                  DecisionScratch& scratch, mem::SlotVector<InferenceResult>& out,
                  exec::ExecContext& ctx);

}  // namespace gp
