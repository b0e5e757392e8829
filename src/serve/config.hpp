// gp::serve — concurrent streaming-inference serving layer (DESIGN.md §8).
//
// Turns the offline radar→pipeline→GesIDNet stack into a request path: many
// independent per-client streaming sessions, sharded across gp::exec
// workers, feeding completed gesture segments into deadline-bounded
// micro-batches that run through one fused batched GesIDNet forward pass.
// Admission control (bounded per-shard ingress queues + typed load-shed
// rejections) keeps the server degrading gracefully instead of
// queue-collapsing under overload, and a ModelRegistry hot-swaps
// checksum-verified .gpsy models RCU-style without pausing the stream.
//
// Determinism contract: every per-session output is a pure function of that
// session's delivered frame sequence and (serve seed, session id, segment
// ordinal) — never of GP_THREADS, the shard count, or which other sessions'
// segments shared its micro-batch (per-sample batch-composition independence
// of the inference stack; see nn/fused.hpp). tests/test_serve.cpp pins this
// bitwise across GP_THREADS ∈ {1,4} × shards ∈ {1,4}.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "faults/faults.hpp"
#include "health/health.hpp"
#include "pipeline/preprocessor.hpp"
#include "system/gestureprint.hpp"

namespace gp::serve {

/// Online-enrollment knobs (gp::enroll, DESIGN.md §13). Disabled by default:
/// with `enabled == false` the serve path performs no biometric extraction,
/// no novelty gating and no buffering — bitwise identical to a build without
/// the enrollment layer.
struct EnrollConfig {
  /// Master switch (GP_ENROLL=0/1). Off keeps the serve path byte-identical
  /// to the pre-enrollment goldens.
  bool enabled = false;
  /// Segments a candidate must accumulate before the head-only fine-tune
  /// fires. GP_ENROLL_K.
  std::size_t k_segments = 6;
  /// Bound on concurrently tracked enrollment candidates; admitting one
  /// more evicts the weakest (fewest observations, oldest id on ties).
  /// GP_ENROLL_MAX_CANDIDATES.
  std::size_t max_candidates = 4;
  /// Per-candidate segment buffer bound; a full buffer evicts its oldest
  /// segment (typed, counted) before admitting the new one.
  std::size_t buffer_cap = 16;
  /// Candidate clustering radius in the z-scored biometric space: a novel
  /// segment joins the nearest candidate centroid within this distance,
  /// otherwise it founds a new candidate.
  double candidate_radius = 3.5;
};

/// Serving-layer knobs. Every field has a GP_SERVE_* environment override
/// (applied by from_env; invalid values warn and keep the base value).
struct ServeConfig {
  /// Session shards; sessions map to shard (session_id % shards) and shards
  /// drain in parallel on gp::exec. GP_SERVE_SHARDS.
  std::size_t shards = 2;
  /// Micro-batch flush threshold in segments. GP_SERVE_BATCH_MAX.
  std::size_t batch_max = 16;
  /// Deadline half of the batching policy: a pending segment older than
  /// this forces a flush even below batch_max. GP_SERVE_BATCH_WAIT_US.
  std::uint64_t batch_wait_us = 2000;
  /// Bounded per-shard ingress queue capacity in frames; a full queue sheds
  /// new frames with a typed rejection. GP_SERVE_QUEUE_CAP.
  std::size_t queue_cap = 256;
  /// Base seed of the per-session featurization RNG tree:
  /// child_seed(child_seed(seed, session_id), ordinal) — pure, so results
  /// are shard- and thread-invariant.
  std::uint64_t seed = 0x5E12FEEDULL;
  /// Per-session fault injection (GP_FAULTS soak): every session streams
  /// through its own FaultInjector whose seed is derived from the session
  /// id, so degraded links are modelled per client.
  std::optional<faults::FaultConfig> session_faults;
  /// Streaming segmentation + cleaning parameters for every session's
  /// GestureSegmenter/Preprocessor (the offline stack's defaults).
  PreprocessorParams preprocess;
  /// System configuration the served models were trained with (prep chain,
  /// eval_rounds TTA, abstention margin, network shape).
  GesturePrintConfig system;
  /// Health/SLO monitoring (gp::health, DESIGN.md §10). Default-on; never
  /// feeds back into results — health on/off is bitwise-invisible to
  /// ServeResult streams. GP_HEALTH / GP_HEALTH_WINDOW_TICKS / GP_SLO /
  /// GP_FLIGHTREC.
  health::HealthConfig health;
  /// Quantization mode models are fused with at publish time (nn/quant.hpp,
  /// DESIGN.md §11): kInt8 serves the symmetric int8 kernel, kOff the f32
  /// fused baseline. Callers pass this to ModelRegistry::publish*; each
  /// snapshot records the mode it was fused with. GP_QUANT (int8|off).
  nn::QuantMode quant = nn::QuantMode::kOff;
  /// Online enrollment (gp::enroll). GP_ENROLL / GP_ENROLL_K /
  /// GP_ENROLL_MAX_CANDIDATES.
  EnrollConfig enroll;

  /// Applies GP_SERVE_SHARDS / GP_SERVE_BATCH_MAX / GP_SERVE_BATCH_WAIT_US /
  /// GP_SERVE_QUEUE_CAP / GP_QUANT / GP_FAULTS plus the GP_HEALTH* / GP_SLO /
  /// GP_FLIGHTREC health overrides on top of `base` (the overload without
  /// arguments starts from the defaults).
  static ServeConfig from_env(ServeConfig base);
  static ServeConfig from_env();
};

/// Typed admission verdict for one pushed frame (the load-shed vocabulary;
/// rejections are counted in gp.serve.* obs counters, never thrown).
enum class Admission {
  kAccepted = 0,
  kRejectedQueueFull,  ///< shard ingress queue at queue_cap; frame shed
  /// Cluster-level shed (gp::cluster, DESIGN.md §12): every worker process
  /// that could own the session is down and respawn is disabled — there is
  /// no capacity left to route to, so the frame is rejected typed instead
  /// of queued forever.
  kRejectedNoWorker,
};

const char* admission_name(Admission a);

/// One classified (or typed-rejected) gesture segment.
struct ServeResult {
  std::uint64_t session_id = 0;
  std::uint64_t segment_ordinal = 0;  ///< per-session completed-segment index
  /// Causal trace id minted at segment completion: FNV-1a over (session_id,
  /// ordinal). A pure function of the stream — identical with health on or
  /// off — that keys the per-request stage breakdown in gp::health.
  std::uint64_t request_id = 0;
  int gesture = -1;                   ///< class id, or kAbstain
  int user = -1;                      ///< class id, or kAbstain
  bool abstained = false;             ///< a margin gate fired or a refusal (any kind)
  bool quality_rejected = false;      ///< segment failed preprocessing guards
  /// Open-set novelty gate fired (GP_ENROLL only): the biometric descriptor
  /// was too far from every enrolled gallery sample, so the user answer was
  /// withheld and the segment routed into an enrollment buffer. Never set
  /// when enrollment is disabled.
  bool novelty_rejected = false;
  double gesture_margin = 0.0;
  double user_margin = 0.0;
  std::uint64_t model_version = 0;    ///< snapshot that answered (hot-swap audit)
};

}  // namespace gp::serve
