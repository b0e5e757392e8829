// gp::faults coverage (DESIGN.md §7): seed-deterministic fault schedules
// (replayable on any thread count), one no-throw + accounting test per
// fault family, severity monotonicity via common random numbers, the
// graceful-degradation guards (SegmentQuality, abstention gate), the
// gap-aware segmenter, and artifact bit corruption.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>
#include <type_traits>
#include <vector>

#include "datasets/catalog.hpp"
#include "datasets/dataset.hpp"
#include "exec/exec.hpp"
#include "faults/faults.hpp"
#include "faults/selfheal.hpp"
#include "kinematics/gesture_spec.hpp"
#include "kinematics/performer.hpp"
#include "obs/metrics.hpp"
#include "pipeline/preprocessor.hpp"
#include "pipeline/segmentation.hpp"
#include "radar/sensor.hpp"
#include "system/gestureprint.hpp"
#include "testkit/oracle.hpp"

namespace gp {
namespace {

/// A deterministic continuous recording shared by the injector tests:
/// user 1 performs three gestures with natural pauses. Frame indices are
/// contiguous from 0 (the generator's contract), which the plan keys on.
const FrameSequence& test_stream() {
  static const FrameSequence frames = [] {
    DatasetScale scale;
    scale.max_users = 2;
    scale.reps = 2;
    DatasetSpec spec = gestureprint_spec(1, scale);
    spec.gestures.resize(5);
    return generate_recording(spec, 1, {0, 2, 4}, 424242).frames;
  }();
  return frames;
}

// ---- schedule determinism -------------------------------------------------

TEST(FaultPlan, DigestIsPureFunctionOfConfig) {
  const faults::FaultConfig config = faults::FaultConfig::mixed(0.7, 1234);
  faults::FaultPlan a(config);
  faults::FaultPlan b(config);
  EXPECT_EQ(a.schedule_digest(500), b.schedule_digest(500));

  faults::FaultConfig reseeded = config;
  reseeded.seed = 1235;
  faults::FaultPlan c(reseeded);
  EXPECT_NE(a.schedule_digest(500), c.schedule_digest(500));
}

TEST(FaultPlan, LazyExtensionMatchesEagerBuild) {
  const faults::FaultConfig config = faults::FaultConfig::mixed(0.5, 77);
  faults::FaultPlan eager(config, 400);
  faults::FaultPlan lazy(config);
  // Query out of order; the lazily-extended schedule must be identical
  // (the Gilbert–Elliott chain state marches sequentially regardless).
  (void)lazy.at(399);
  (void)lazy.at(10);
  EXPECT_EQ(eager.schedule_digest(400), lazy.schedule_digest(400));
}

TEST(FaultPlan, ReplayIsThreadCountInvariant) {
  // The acceptance oracle for GP_THREADS ∈ {1, 4}: the delivered stream is
  // bitwise identical no matter how many workers replay the plan, because
  // the schedule is a pure function of (config, frame index).
  const faults::FaultConfig config = faults::FaultConfig::mixed(0.6, 99);
  const FrameSequence& frames = test_stream();

  faults::FaultInjector reference(config);
  const std::uint64_t want = testkit::exact_digest(reference.apply_sequence(frames));

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    exec::ExecContext ctx(threads);
    const std::vector<std::uint64_t> digests =
        ctx.parallel_map<std::uint64_t>(8, 1, [&](std::size_t) {
          faults::FaultInjector injector(config);
          return testkit::exact_digest(injector.apply_sequence(frames));
        });
    for (const std::uint64_t d : digests) EXPECT_EQ(d, want);
  }
}

// ---- one test per fault family --------------------------------------------

/// Applies `config` to the shared stream and checks (a) nothing throws,
/// (b) the injector's local tallies match the plan totals, and (c) the
/// gp.faults.* obs counters advanced by exactly the same amounts.
void run_family(const faults::FaultConfig& config) {
  const FrameSequence& frames = test_stream();
  const std::uint64_t dropped0 = obs::counter("gp.faults.frames_dropped").value();
  const std::uint64_t truncated0 = obs::counter("gp.faults.frames_truncated").value();
  const std::uint64_t ghosts0 = obs::counter("gp.faults.ghost_points").value();
  const std::uint64_t jittered0 = obs::counter("gp.faults.frames_jittered").value();

  faults::FaultInjector injector(config);
  FrameSequence delivered;
  ASSERT_NO_THROW(delivered = injector.apply_sequence(frames));

  const faults::FaultPlan::Totals totals = injector.plan().totals(frames.size());
  const faults::FaultInjector::Counts& counts = injector.counts();
  EXPECT_EQ(counts.frames_seen, frames.size());
  EXPECT_EQ(counts.frames_dropped, totals.drops);
  EXPECT_EQ(counts.frames_truncated, totals.truncated);
  EXPECT_EQ(counts.ghost_points, totals.ghost_points);
  EXPECT_EQ(counts.frames_jittered, totals.jittered);
  // Reorder swaps need a delivered successor, so the realised count can
  // fall short of the planned flags but never exceed them.
  EXPECT_LE(counts.frames_reordered, totals.reordered);
  EXPECT_EQ(delivered.size() + counts.frames_dropped, frames.size());

  if (obs::metrics_enabled()) {
    EXPECT_EQ(obs::counter("gp.faults.frames_dropped").value() - dropped0,
              counts.frames_dropped);
    EXPECT_EQ(obs::counter("gp.faults.frames_truncated").value() - truncated0,
              counts.frames_truncated);
    EXPECT_EQ(obs::counter("gp.faults.ghost_points").value() - ghosts0,
              counts.ghost_points);
    EXPECT_EQ(obs::counter("gp.faults.frames_jittered").value() - jittered0,
              counts.frames_jittered);
  }
}

TEST(FaultFamilies, FrameDrop) {
  run_family(faults::FaultConfig::preset(faults::FaultKind::kFrameDrop, 0.7));
}

TEST(FaultFamilies, BurstDrop) {
  const faults::FaultConfig config =
      faults::FaultConfig::preset(faults::FaultKind::kBurstDrop, 0.8);
  run_family(config);
  // Bursty loss must actually cluster: at this severity there must exist a
  // run of >= 3 consecutive planned drops somewhere in the schedule.
  faults::FaultPlan plan(config, 2000);
  std::size_t longest = 0;
  std::size_t run = 0;
  for (std::size_t i = 0; i < 2000; ++i) {
    run = plan.at(i).drop ? run + 1 : 0;
    longest = std::max(longest, run);
  }
  EXPECT_GE(longest, 3u);
}

TEST(FaultFamilies, DutyCycle) {
  const faults::FaultConfig config =
      faults::FaultConfig::preset(faults::FaultKind::kDutyCycle, 1.0);
  run_family(config);
  // Full severity: the first half of every 40-frame period is dark.
  faults::FaultPlan plan(config, 80);
  EXPECT_TRUE(plan.at(0).drop);
  EXPECT_TRUE(plan.at(19).drop);
  EXPECT_FALSE(plan.at(20).drop);
  EXPECT_FALSE(plan.at(39).drop);
  EXPECT_TRUE(plan.at(40).drop);
}

TEST(FaultFamilies, Interference) {
  const faults::FaultConfig config =
      faults::FaultConfig::preset(faults::FaultKind::kInterference, 0.8);
  run_family(config);
  faults::FaultInjector injector(config);
  const FrameSequence delivered = injector.apply_sequence(test_stream());
  EXPECT_GT(injector.counts().ghost_points, 0u);
  // Ghost points land inside the sensing volume, not at infinity.
  for (const FrameCloud& frame : delivered) {
    for (const RadarPoint& p : frame.points) {
      EXPECT_LT(std::abs(p.position.x), 10.0);
      EXPECT_LT(std::abs(p.position.y), 10.0);
    }
  }
}

TEST(FaultFamilies, Truncation) {
  const faults::FaultConfig config =
      faults::FaultConfig::preset(faults::FaultKind::kTruncation, 0.9);
  run_family(config);
  faults::FaultInjector injector(config);
  (void)injector.apply_sequence(test_stream());
  EXPECT_GT(injector.counts().points_removed, 0u);
}

TEST(FaultFamilies, Jitter) {
  const faults::FaultConfig config =
      faults::FaultConfig::preset(faults::FaultKind::kJitter, 0.8);
  run_family(config);
  faults::FaultInjector injector(config);
  const FrameSequence delivered = injector.apply_sequence(test_stream());
  // Timestamps moved but frame payloads are untouched by the jitter family.
  std::size_t moved = 0;
  for (const FrameCloud& frame : delivered) {
    const FrameCloud& original = test_stream()[static_cast<std::size_t>(frame.frame_index)];
    if (frame.timestamp != original.timestamp) ++moved;
    EXPECT_EQ(frame.points.size(), original.points.size());
  }
  EXPECT_GT(moved, 0u);
}

// ---- off path & monotonicity ----------------------------------------------

TEST(FaultInjector, DisabledConfigIsBitwiseIdentity) {
  faults::FaultInjector off{faults::FaultConfig{}};
  const FrameSequence& frames = test_stream();
  const FrameSequence out = off.apply_sequence(frames);
  EXPECT_EQ(testkit::exact_digest(out), testkit::exact_digest(frames));
  EXPECT_EQ(off.counts().frames_seen, 0u);  // off path does no accounting

  // Severity 0 of every preset is the identity too.
  for (const faults::FaultKind kind : faults::all_fault_kinds()) {
    faults::FaultInjector zero(faults::FaultConfig::preset(kind, 0.0));
    EXPECT_EQ(testkit::exact_digest(zero.apply_sequence(frames)),
              testkit::exact_digest(frames))
        << faults::fault_kind_name(kind);
  }
}

TEST(FaultInjector, SeverityIsMonotoneUnderCommonRandomNumbers) {
  // The per-frame uniforms are shared across severities, so raising the
  // severity can only lose more frames / more points.
  const FrameSequence& frames = test_stream();
  std::size_t last_delivered = frames.size() + 1;
  for (const double severity : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    faults::FaultInjector injector(
        faults::FaultConfig::preset(faults::FaultKind::kFrameDrop, severity));
    const std::size_t delivered = injector.apply_sequence(frames).size();
    EXPECT_LE(delivered, last_delivered);
    last_delivered = delivered;
  }

  std::size_t last_points = 0;
  bool first = true;
  for (const double severity : {0.0, 0.25, 0.5, 0.75, 1.0}) {
    faults::FaultInjector injector(
        faults::FaultConfig::preset(faults::FaultKind::kTruncation, severity));
    std::size_t points = 0;
    for (const FrameCloud& f : injector.apply_sequence(frames)) points += f.points.size();
    if (!first) {
      EXPECT_LE(points, last_points);
    }
    last_points = points;
    first = false;
  }
}

TEST(FaultyRadarSensor, ZeroSeverityMatchesPlainSensor) {
  Rng profile_rng(7);
  const UserProfile user = UserProfile::sample(0, profile_rng);
  const GesturePerformer performer(user, PerformanceConfig{});
  Rng rep(10);
  const SceneSequence scene = performer.perform(asl_gesture_set()[0], rep);

  const RadarSensor plain;
  faults::FaultyRadarSensor faulty(RadarSensor{}, faults::FaultConfig{});
  Rng obs_a(21);
  Rng obs_b(21);
  EXPECT_EQ(testkit::exact_digest(plain.observe(scene, obs_a)),
            testkit::exact_digest(faulty.observe(scene, obs_b)));
}

// ---- spec parsing ----------------------------------------------------------

TEST(FaultConfigSpec, ParsesKeyValueList) {
  const faults::FaultConfig config =
      faults::FaultConfig::from_spec("drop=0.2,ghost=0.3,trunc=0.1,seed=7");
  EXPECT_DOUBLE_EQ(config.drop_prob, 0.2);
  EXPECT_DOUBLE_EQ(config.interference_prob, 0.3);
  EXPECT_DOUBLE_EQ(config.truncation_prob, 0.1);
  EXPECT_EQ(config.seed, 7u);
  EXPECT_TRUE(config.enabled());
}

TEST(FaultConfigSpec, RejectsMalformedSpecs) {
  EXPECT_THROW(faults::FaultConfig::from_spec("drop"), InvalidArgument);
  EXPECT_THROW(faults::FaultConfig::from_spec("nope=1"), InvalidArgument);
  EXPECT_THROW(faults::FaultConfig::from_spec("drop=abc"), InvalidArgument);
  EXPECT_THROW(faults::FaultConfig::from_spec("drop=0.1x"), InvalidArgument);
}

// ---- graceful degradation guards ------------------------------------------

TEST(SegmentQuality, GuardsAssignTypedVerdicts) {
  PreprocessorParams params;
  params.min_points = 8;
  params.min_frames = 2;
  const Preprocessor preprocessor(params);

  GestureCloud empty;
  EXPECT_EQ(preprocessor.assess(empty), SegmentQuality::kEmpty);

  GestureCloud sparse;
  sparse.points.resize(3);
  sparse.num_frames = 10;
  EXPECT_EQ(preprocessor.assess(sparse), SegmentQuality::kTooFewPoints);

  GestureCloud brief;
  brief.points.resize(20);
  brief.num_frames = 1;
  EXPECT_EQ(preprocessor.assess(brief), SegmentQuality::kTooShort);

  GestureCloud good;
  good.points.resize(20);
  good.num_frames = 10;
  EXPECT_EQ(preprocessor.assess(good), SegmentQuality::kGood);

  EXPECT_STREQ(segment_quality_name(SegmentQuality::kEmpty), "empty");
  EXPECT_STREQ(segment_quality_name(SegmentQuality::kGood), "good");
}

TEST(AbstentionGate, MarginIsMonotone) {
  // Raising the margin can only turn answers into abstentions, never the
  // reverse — the calibration knob is safe to sweep upward.
  const std::vector<std::vector<double>> posteriors = {
      {0.5, 0.3, 0.2}, {0.34, 0.33, 0.33}, {0.9, 0.05, 0.05}, {0.55, 0.45}};
  for (const auto& p : posteriors) {
    bool prev = false;
    for (double margin = 0.0; margin <= 1.0; margin += 0.05) {
      const bool abstain = should_abstain(p, margin);
      EXPECT_TRUE(!prev || abstain) << "gate un-fired as margin grew";
      prev = abstain;
    }
  }
  EXPECT_FALSE(should_abstain({0.9, 0.1}, 0.0));  // 0 disables the gate
  EXPECT_DOUBLE_EQ(top2_margin({0.5, 0.3, 0.2}), 0.2);
  EXPECT_DOUBLE_EQ(top2_margin({1.0}), 1.0);
}

// classify() at the default margin 0 refuses an empty cloud the way serve
// does — a typed kAbstain, no throw, and no featurization RNG draw — while a
// degraded but non-empty cloud still gets an answer (serve refuses it: the
// one intended policy difference between the two callers).
TEST(AbstentionGate, ClassifyRefusesEmptyCloudAtMarginZero) {
  DatasetScale scale;
  scale.max_users = 2;
  scale.reps = 3;
  DatasetSpec spec = gestureprint_spec(1, scale);
  spec.gestures.resize(2);
  const Dataset dataset = generate_dataset(spec);
  GesturePrintConfig config;
  config.training.epochs = 1;
  config.training.batch_size = 8;
  config.prep.augmentation.copies = 1;
  config.abstain_margin = 0.0;
  std::vector<std::size_t> all(dataset.samples.size());
  for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
  GesturePrintSystem trained(config);
  trained.fit(dataset, all);
  const std::string path = testing::TempDir() + "gp_faults_empty_cloud.gpsy";
  trained.save(path);

  GesturePrintSystem system(config);
  GesturePrintSystem twin(config);  // never sees the empty cloud
  ASSERT_TRUE(system.try_load(path));
  ASSERT_TRUE(twin.try_load(path));
  ASSERT_EQ(system.config().abstain_margin, 0.0);

  InferenceResult refused;
  ASSERT_NO_THROW(refused = system.classify(GestureCloud{}));
  EXPECT_EQ(refused.gesture, kAbstain);
  EXPECT_EQ(refused.user, kAbstain);
  EXPECT_TRUE(refused.abstained);
  EXPECT_EQ(refused.gesture_margin, 0.0);
  EXPECT_EQ(refused.user_margin, 0.0);
  EXPECT_TRUE(refused.gesture_probabilities.empty());

  // The refusal drew nothing from the system RNG: the next answer matches
  // the twin's bitwise.
  GestureCloud brief = dataset.samples[0].cloud;
  ASSERT_FALSE(brief.points.empty());
  brief.quality = SegmentQuality::kTooShort;
  const InferenceResult answered = system.classify(brief);
  const InferenceResult reference = twin.classify(brief);
  EXPECT_GE(answered.gesture, 0);
  EXPECT_FALSE(answered.abstained);
  EXPECT_EQ(answered.gesture, reference.gesture);
  EXPECT_EQ(answered.user, reference.user);
  EXPECT_EQ(answered.gesture_probabilities, reference.gesture_probabilities);
  EXPECT_EQ(answered.user_probabilities, reference.user_probabilities);

  // The policy bool: serve (true) refuses that degraded cloud, classify() at
  // margin 0 (false) does not; an empty segment is refused either way.
  EXPECT_TRUE(refuse_segment(false, SegmentQuality::kTooShort, true));
  EXPECT_FALSE(refuse_segment(false, SegmentQuality::kTooShort, false));
  EXPECT_TRUE(refuse_segment(true, SegmentQuality::kGood, false));
}

// ---- gap-aware segmentation -----------------------------------------------

/// Builds a frame with `count` points at y=1 m (above any static threshold
/// when count is large) and the given stream index.
FrameCloud synthetic_frame(int index, std::size_t count) {
  FrameCloud frame;
  frame.frame_index = index;
  frame.timestamp = index * 0.1;
  for (std::size_t i = 0; i < count; ++i) {
    RadarPoint p;
    p.position = {0.0, 1.0, 0.0};
    p.frame = index;
    frame.points.push_back(p);
  }
  return frame;
}

TEST(GestureSegmenter, GapClosesOpenGestureInsteadOfBridging) {
  SegmentationParams params;
  params.max_gap_frames = 5;
  GestureSegmenter segmenter(params);
  int index = 0;
  // Background, then sustained motion...
  for (int i = 0; i < 30; ++i) segmenter.push(synthetic_frame(index++, 1));
  for (int i = 0; i < 8; ++i) segmenter.push(synthetic_frame(index++, 40));
  // ...then the sensor goes dark for 50 frames mid-gesture.
  index += 50;
  for (int i = 0; i < 8; ++i) segmenter.push(synthetic_frame(index++, 40));
  for (int i = 0; i < 10; ++i) segmenter.push(synthetic_frame(index++, 1));
  segmenter.finish();

  const std::vector<GestureSegment> segments = segmenter.take_segments();
  // Without gap handling the pre- and post-gap motion would merge into one
  // segment; with it, the dropout yields two.
  ASSERT_EQ(segments.size(), 2u);
  EXPECT_LE(segments[0].frames.size(), 9u);
  EXPECT_LE(segments[1].frames.size(), 9u);
}

TEST(GestureSegmenter, FinishFlushesTrailingSegment) {
  GestureSegmenter segmenter;
  int index = 0;
  for (int i = 0; i < 30; ++i) segmenter.push(synthetic_frame(index++, 1));
  // The stream ends while the gesture is still in progress (9 motion
  // frames: enough to cross F_Thr = 8, not enough to go static again).
  for (int i = 0; i < 9; ++i) segmenter.push(synthetic_frame(index++, 40));
  EXPECT_TRUE(segmenter.take_segments().empty());
  segmenter.finish();
  const std::vector<GestureSegment> segments = segmenter.take_segments();
  ASSERT_EQ(segments.size(), 1u);
  EXPECT_GE(segments[0].frames.size(), 4u);
  // finish() is idempotent.
  segmenter.finish();
  EXPECT_TRUE(segmenter.take_segments().empty());
}

TEST(GestureSegmenter, ContiguousStreamsUnaffectedByGapLogic) {
  // gap == 0 streams must behave exactly as before the gap-aware change:
  // the same input yields the same segments for any max_gap_frames.
  SegmentationParams tight;
  tight.max_gap_frames = 1;
  SegmentationParams loose;
  loose.max_gap_frames = 1000;

  const FrameSequence& frames = test_stream();
  const std::vector<GestureSegment> a = GestureSegmenter::segment_all(frames, tight);
  const std::vector<GestureSegment> b = GestureSegmenter::segment_all(frames, loose);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start_frame, b[i].start_frame);
    EXPECT_EQ(a[i].end_frame, b[i].end_frame);
  }
}

// ---- artifact bit corruption ----------------------------------------------

TEST(BitCorruption, FlipsAreSeedDeterministicAndLandInPayload) {
  std::string blob(256, '\0');
  for (std::size_t i = 0; i < blob.size(); ++i) blob[i] = static_cast<char>(i);
  std::string a = blob;
  std::string b = blob;
  faults::flip_bits(a, 16, 42);
  faults::flip_bits(b, 16, 42);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, blob);
  // The tag/version prefix is spared so corruption exercises the payload
  // decoders, not only the magic check.
  EXPECT_EQ(a.substr(0, 5), blob.substr(0, 5));

  std::string c = blob;
  faults::flip_bits(c, 16, 43);
  EXPECT_NE(a, c);

  std::string tiny(4, 'x');
  faults::flip_bits(tiny, 8, 1);  // shorter than the offset: no-op
  EXPECT_EQ(tiny, std::string(4, 'x'));
}

// ---- retry policy ----------------------------------------------------------

TEST(WithRetries, RetriesTransientErrorsButNotCorruption) {
  int calls = 0;
  const int got = faults::with_retries(faults::RetryPolicy{3, 0.01}, [&] {
    if (++calls < 3) throw Error("transient");
    return 41 + 1;
  });
  EXPECT_EQ(got, 42);
  EXPECT_EQ(calls, 3);

  calls = 0;
  EXPECT_THROW(faults::with_retries(faults::RetryPolicy{5, 0.01},
                                    [&]() -> int {
                                      ++calls;
                                      throw SerializationError("rotten");
                                    }),
               SerializationError);
  EXPECT_EQ(calls, 1);  // corruption is not transient: exactly one attempt

  calls = 0;
  EXPECT_THROW(faults::with_retries(faults::RetryPolicy{2, 0.01},
                                    [&]() -> int {
                                      ++calls;
                                      throw Error("always down");
                                    }),
               Error);
  EXPECT_EQ(calls, 2);  // budget respected
}

TEST(WithRetries, DeadlineBudgetStopsRetriesWithTypedTimeout) {
  // A huge backoff against a 1 ms total budget: the pre-sleep check fires
  // before the first retry, so exactly one attempt runs and the failure is
  // typed TimeoutError (not the transient error it wraps).
  faults::RetryPolicy tight;
  tight.attempts = 10;
  tight.base_backoff_ms = 10'000.0;
  tight.deadline_ms = 1;
  int calls = 0;
  try {
    faults::with_retries(tight, [&]() -> int {
      ++calls;
      throw Error("transient");
    });
    FAIL() << "expected TimeoutError";
  } catch (const TimeoutError& e) {
    EXPECT_NE(std::string(e.what()).find("transient"), std::string::npos)
        << "timeout must carry the last underlying error";
  }
  EXPECT_EQ(calls, 1);

  // TimeoutError stays a gp::Error: callers with a plain catch keep working.
  static_assert(std::is_base_of_v<Error, TimeoutError>);
}

TEST(WithRetries, DeadlineBudgetDoesNotChangeOtherPolicies) {
  // deadline_ms = 0 (the default) must behave exactly as before the budget
  // existed: all attempts are consumed and the last error propagates as-is.
  faults::RetryPolicy unlimited;
  unlimited.attempts = 3;
  unlimited.base_backoff_ms = 0.01;
  int calls = 0;
  EXPECT_THROW(faults::with_retries(unlimited,
                                    [&]() -> int {
                                      ++calls;
                                      throw Error("always down");
                                    }),
               Error);
  EXPECT_EQ(calls, 3);

  // A generous budget never fires for a quickly-succeeding retry chain.
  faults::RetryPolicy roomy;
  roomy.attempts = 4;
  roomy.base_backoff_ms = 0.01;
  roomy.deadline_ms = 60'000;
  calls = 0;
  EXPECT_EQ(faults::with_retries(roomy,
                                 [&] {
                                   if (++calls < 3) throw Error("transient");
                                   return 7;
                                 }),
            7);
  EXPECT_EQ(calls, 3);

  // SerializationError still escapes on attempt one even with a budget set:
  // corruption is deterministic and must never burn retry/deadline budget.
  calls = 0;
  EXPECT_THROW(faults::with_retries(roomy,
                                    [&]() -> int {
                                      ++calls;
                                      throw SerializationError("rotten");
                                    }),
               SerializationError);
  EXPECT_EQ(calls, 1);
}

}  // namespace
}  // namespace gp
