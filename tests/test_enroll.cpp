// gp::enroll tests (DESIGN.md §13): candidate clustering bitwise invariant
// to GP_THREADS × shard count, typed buffer eviction, the K-threshold →
// head-only fine-tune → zero-drop hot-swap publish path and its counted
// failure exit, disabled-path identity, and a GP_FAULTS mixed soak with zero
// uncaught exceptions.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <vector>

#include "common/error.hpp"
#include "datasets/catalog.hpp"
#include "enroll/enroll.hpp"
#include "eval/splits.hpp"
#include "exec/exec.hpp"
#include "faults/faults.hpp"
#include "gesidnet/trainer.hpp"
#include "serve/server.hpp"
#include "system/gestureprint.hpp"
#include "system/open_set.hpp"

namespace gp {
namespace {

/// Shared world: one small trained + saved system, its training split (the
/// enrollment calibration set), genuine client streams, and a *newcomer*
/// stream from a disjoint cohort (different user_seed → different body and
/// habits) the open-set gate should reject.
struct EnrollWorld {
  GesturePrintConfig config;
  std::string model_path;
  DatasetSpec spec;
  Dataset dataset;
  std::vector<std::size_t> train;
  std::vector<ContinuousRecording> genuine;   ///< enrolled performers
  ContinuousRecording newcomer;               ///< unseen performer
};

const EnrollWorld& world() {
  static const EnrollWorld* w = [] {
    auto* out = new EnrollWorld();
    DatasetScale scale;
    scale.max_users = 3;
    scale.reps = 8;
    out->spec = gestureprint_spec(1, scale);
    out->spec.gestures.resize(3);
    out->dataset = generate_dataset(out->spec);

    out->config.training.epochs = 6;
    out->config.training.batch_size = 16;
    out->config.prep.augmentation.copies = 2;
    out->config.abstain_margin = 0.0;  // identity answered for every segment

    GesturePrintSystem system(out->config);
    Rng split_rng(3, 1);
    out->train = stratified_split(out->dataset.gesture_labels(), 0.2, split_rng).train;
    system.fit(out->dataset, out->train);
    out->model_path = testing::TempDir() + "gp_enroll_model.gpsy";
    system.save(out->model_path);

    const std::vector<std::vector<int>> scripts{{0, 2, 1}, {1, 0, 2}};
    for (std::size_t s = 0; s < scripts.size(); ++s) {
      out->genuine.push_back(
          generate_recording(out->spec, s % out->spec.num_users, scripts[s], 0xE9E11 + s));
    }
    DatasetSpec stranger = out->spec;
    stranger.user_seed = 987654;  // a body the system never saw
    out->newcomer =
        generate_recording(stranger, 0, {0, 1, 2, 0, 2, 1, 0, 1}, 0x57A6E);
    return out;
  }();
  return *w;
}

serve::ServeConfig base_config(std::size_t shards, bool enroll_enabled) {
  serve::ServeConfig sc;
  sc.system = world().config;
  sc.shards = shards;
  sc.batch_wait_us = 0;  // flush every pump: deterministic batching for tests
  sc.enroll.enabled = enroll_enabled;
  sc.enroll.k_segments = 3;
  return sc;
}

enroll::EnrollmentServiceConfig service_config(const serve::ServeConfig& sc,
                                               const std::string& publish_dir) {
  enroll::EnrollmentServiceConfig ec;
  ec.admission = sc.enroll;
  ec.base_model_path = world().model_path;
  ec.publish_dir = publish_dir;
  ec.fine_tune_epochs = 2;
  return ec;
}

/// Streams sessions {1..genuine} plus the newcomer as the last session id,
/// interleaved frame-by-frame, with `hook` armed. Returns results in flush
/// order (the hot-swap audit needs it); sort at the call site if needed.
std::vector<serve::ServeResult> run_enroll_stream(const serve::ServeConfig& sc,
                                                  serve::ModelRegistry& registry,
                                                  serve::EnrollmentHook* hook,
                                                  exec::ExecContext& ctx,
                                                  std::uint64_t* ticks = nullptr) {
  serve::Server server(sc, registry, ctx);
  if (hook != nullptr) server.set_enrollment_hook(hook);
  std::vector<const FrameSequence*> streams;
  for (const ContinuousRecording& r : world().genuine) streams.push_back(&r.frames);
  streams.push_back(&world().newcomer.frames);
  std::size_t max_frames = 0;
  for (const FrameSequence* f : streams) max_frames = std::max(max_frames, f->size());

  std::vector<serve::ServeResult> results;
  for (std::size_t f = 0; f < max_frames; ++f) {
    for (std::size_t i = 0; i < streams.size(); ++i) {
      if (f >= streams[i]->size()) continue;
      EXPECT_EQ(server.push_frame(i + 1, (*streams[i])[f]), serve::Admission::kAccepted);
    }
    for (serve::ServeResult& r : server.pump()) results.push_back(std::move(r));
  }
  for (serve::ServeResult& r : server.drain()) results.push_back(std::move(r));
  if (ticks != nullptr) *ticks = server.ticks();
  return results;
}

std::vector<serve::ServeResult> sorted_by_stream(std::vector<serve::ServeResult> results) {
  std::sort(results.begin(), results.end(), [](const auto& a, const auto& b) {
    return a.session_id != b.session_id ? a.session_id < b.session_id
                                        : a.segment_ordinal < b.segment_ordinal;
  });
  return results;
}

enroll::EnrollObservation make_obs(std::uint64_t session, std::uint64_t ordinal,
                                   double x, int gesture = 0) {
  enroll::EnrollObservation obs;
  obs.session_id = session;
  obs.ordinal = ordinal;
  obs.gesture = gesture;
  obs.normalized.fill(x);
  obs.raw.fill(x);
  return obs;
}

// ---- EnrollmentBuffer unit battery ----------------------------------------

// A full candidate buffer evicts its *oldest* segment, typed; the table at
// cap evicts the *weakest* candidate (fewest live segments), typed. Nothing
// grows unbounded under an adversarial stream.
TEST(EnrollBuffer, TypedEvictionAtBothBounds) {
  enroll::EnrollmentBuffer::Config config;
  config.max_candidates = 2;
  config.buffer_cap = 3;
  config.candidate_radius = 1.0;
  enroll::EnrollmentBuffer buffer(config);

  // Fill candidate A past its cap: oldest segment out, typed.
  for (std::uint64_t i = 0; i < 3; ++i) {
    const auto outcome = buffer.admit(make_obs(1, i, 0.0));
    EXPECT_EQ(outcome.eviction, enroll::Eviction::kNone);
  }
  const auto overflow = buffer.admit(make_obs(1, 3, 0.0));
  EXPECT_EQ(overflow.eviction, enroll::Eviction::kSegmentOldest);
  ASSERT_EQ(buffer.candidates().size(), 1u);
  EXPECT_EQ(buffer.candidates()[0].segments.size(), 3u);
  EXPECT_EQ(buffer.candidates()[0].segments.front().ordinal, 1u);  // oldest gone

  // Two more candidates: the third founding evicts the weakest (B, 1 live
  // segment vs A's 3).
  const auto b = buffer.admit(make_obs(2, 0, 10.0));
  EXPECT_TRUE(b.founded);
  const auto c = buffer.admit(make_obs(3, 0, 20.0));
  EXPECT_TRUE(c.founded);
  EXPECT_EQ(c.eviction, enroll::Eviction::kCandidateWeakest);
  ASSERT_EQ(buffer.candidates().size(), 2u);
  EXPECT_EQ(buffer.candidates()[0].id, 1u);  // A survived
  EXPECT_EQ(buffer.candidates()[1].id, c.candidate_id);

  const auto& stats = buffer.stats();
  EXPECT_EQ(stats.admitted, 6u);
  EXPECT_EQ(stats.founded, 3u);
  EXPECT_EQ(stats.evicted_segments, 2u);  // 1 oldest + B's only segment
  EXPECT_EQ(stats.evicted_candidates, 1u);
}

// Nearby observations join the same candidate (running-mean centroid);
// distant ones found a new one.
TEST(EnrollBuffer, NearestCentroidAssignmentWithinRadius) {
  enroll::EnrollmentBuffer::Config config;
  config.candidate_radius = 2.0;
  enroll::EnrollmentBuffer buffer(config);
  const auto a0 = buffer.admit(make_obs(1, 0, 0.0));
  const auto a1 = buffer.admit(make_obs(1, 1, 0.1));
  const auto b0 = buffer.admit(make_obs(2, 0, 5.0));
  EXPECT_TRUE(a0.founded);
  EXPECT_FALSE(a1.founded);
  EXPECT_EQ(a1.candidate_id, a0.candidate_id);
  EXPECT_TRUE(b0.founded);
  ASSERT_EQ(buffer.candidates().size(), 2u);
  // Running mean: centroid tracks the admitted observations.
  EXPECT_DOUBLE_EQ(buffer.candidates()[0].centroid[0], 0.05);
}

// ---- BiometricGallery -------------------------------------------------------

// Incremental enrollment under the frozen calibration: a descriptor that was
// novel stops being novel once enrolled; the threshold and the z-statistics
// (and with them every other sample's novelty) never move.
TEST(BiometricGallery, EnrollSampleShrinksNoveltyWithoutMovingCalibration) {
  Rng rng(0x6A11E24, 9);
  std::vector<BiometricStats> raw;
  std::vector<int> gestures;
  for (int i = 0; i < 16; ++i) {
    BiometricStats s{};
    for (std::size_t d = 0; d < kBiometricDims; ++d) s[d] = rng.uniform(1.0, 2.0);
    raw.push_back(s);
    gestures.push_back(i % 2);
  }
  BiometricGallery gallery;
  gallery.calibrate(raw, gestures);
  ASSERT_TRUE(gallery.calibrated());

  BiometricStats outsider{};
  for (std::size_t d = 0; d < kBiometricDims; ++d) outsider[d] = 5.0;
  const double before = gallery.novelty(0, outsider);
  EXPECT_FALSE(gallery.accepts(before));

  const double threshold = gallery.threshold();
  const double peer = gallery.novelty(0, raw[0]);
  // Enrollment lands K segments, not one: the k-NN novelty average needs a
  // small cluster of the newcomer's own samples before it can anchor them.
  for (int k = 0; k < 3; ++k) {
    BiometricStats jittered = outsider;
    for (std::size_t d = 0; d < kBiometricDims; ++d) jittered[d] += 0.01 * k;
    gallery.enroll_sample(0, jittered);
  }
  EXPECT_EQ(gallery.threshold(), threshold);       // calibration frozen
  EXPECT_EQ(gallery.novelty(0, raw[0]), peer);     // existing geometry intact
  const double after = gallery.novelty(0, outsider);
  EXPECT_LT(after, before);
  EXPECT_TRUE(gallery.accepts(after));  // their own samples now anchor them
}

// ---- the serve-integrated battery ------------------------------------------

void expect_results_bitwise_equal(const std::vector<serve::ServeResult>& a,
                                  const std::vector<serve::ServeResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].session_id, b[i].session_id);
    EXPECT_EQ(a[i].segment_ordinal, b[i].segment_ordinal);
    EXPECT_EQ(a[i].gesture, b[i].gesture);
    EXPECT_EQ(a[i].user, b[i].user);
    EXPECT_EQ(a[i].abstained, b[i].abstained);
    EXPECT_EQ(a[i].quality_rejected, b[i].quality_rejected);
    EXPECT_EQ(a[i].novelty_rejected, b[i].novelty_rejected);
    EXPECT_EQ(a[i].gesture_margin, b[i].gesture_margin);  // bitwise doubles
    EXPECT_EQ(a[i].user_margin, b[i].user_margin);
  }
}

/// Digest of the candidate-buffer state for cross-run comparison: ids,
/// centroids (bitwise), and the exact (session, ordinal) evidence lists.
std::string buffer_digest(const enroll::EnrollmentBuffer& buffer) {
  std::ostringstream out;
  out.precision(17);
  for (const enroll::Candidate& c : buffer.candidates()) {
    out << "candidate " << c.id << " admitted=" << c.admitted << " centroid=[";
    for (double v : c.centroid) out << v << ",";
    out << "] segments=";
    for (const enroll::EnrollObservation& obs : c.segments) {
      out << "(" << obs.session_id << "," << obs.ordinal << "," << obs.gesture << ")";
    }
    out << "\n";
  }
  const auto& stats = buffer.stats();
  out << "admitted=" << stats.admitted << " founded=" << stats.founded
      << " evicted_seg=" << stats.evicted_segments
      << " evicted_cand=" << stats.evicted_candidates << "\n";
  return out.str();
}

// Candidate clustering is a pure function of the per-session streams: the
// buffered candidate state (and the gated results) must be bitwise identical
// for GP_THREADS in {1,4} × shards in {1,4}. K is set above the stream's
// rejection count so no fine-tune fires — this pins the admission layer
// alone.
TEST(Enroll, CandidateClusteringDeterministicAcrossThreadsAndShards) {
  serve::ModelRegistry registry(world().config);
  ASSERT_TRUE(registry.publish_file(world().model_path).has_value());

  std::vector<serve::ServeResult> ref_results;
  std::string ref_digest;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
      exec::ExecContext ctx(threads);
      serve::ServeConfig sc = base_config(shards, /*enroll_enabled=*/true);
      sc.enroll.k_segments = 1000;  // admission only, never trigger
      enroll::EnrollmentService service(service_config(sc, testing::TempDir()), registry);
      service.calibrate(world().dataset, world().train);
      auto results = sorted_by_stream(run_enroll_stream(sc, registry, &service, ctx));
      const std::string digest = buffer_digest(service.buffer());
      ASSERT_GT(service.stats().novelty_rejections, 0u)
          << "the newcomer stream never tripped the gate — the battery is inert";
      if (ref_digest.empty()) {
        ref_results = std::move(results);
        ref_digest = digest;
      } else {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " shards=" + std::to_string(shards));
        expect_results_bitwise_equal(ref_results, results);
        EXPECT_EQ(ref_digest, digest);
      }
    }
  }
}

// With enrollment disabled (GP_ENROLL=0 semantics: default EnrollConfig),
// results are bitwise identical whether or not a hook is armed, and segments
// carry no biometric payload — the pre-enrollment serve path is untouched.
TEST(Enroll, DisabledPathIsBitwiseIdentical) {
  serve::ModelRegistry registry(world().config);
  ASSERT_TRUE(registry.publish_file(world().model_path).has_value());
  exec::ExecContext ctx(2);

  const serve::ServeConfig off = base_config(2, /*enroll_enabled=*/false);
  const auto plain = sorted_by_stream(run_enroll_stream(off, registry, nullptr, ctx));

  // Armed hook, disabled config: gate() must never be consulted (the
  // sessions layer populated no biometrics), so the results cannot move.
  enroll::EnrollmentService service(service_config(off, testing::TempDir()), registry);
  service.calibrate(world().dataset, world().train);
  const auto armed = sorted_by_stream(run_enroll_stream(off, registry, &service, ctx));
  expect_results_bitwise_equal(plain, armed);
  EXPECT_EQ(service.stats().novelty_rejections, 0u);
  EXPECT_EQ(service.buffer().total_segments(), 0u);
  for (const serve::ServeResult& r : plain) EXPECT_FALSE(r.novelty_rejected);

  // Enabled enrollment gates only the *user* decision: the recognition half
  // (gesture + margin) of every result is bitwise unchanged.
  serve::ServeConfig on = base_config(2, /*enroll_enabled=*/true);
  on.enroll.k_segments = 1000;
  enroll::EnrollmentService gated(service_config(on, testing::TempDir()), registry);
  gated.calibrate(world().dataset, world().train);
  const auto with = sorted_by_stream(run_enroll_stream(on, registry, &gated, ctx));
  ASSERT_EQ(plain.size(), with.size());
  for (std::size_t i = 0; i < plain.size(); ++i) {
    EXPECT_EQ(plain[i].gesture, with[i].gesture);
    EXPECT_EQ(plain[i].gesture_margin, with[i].gesture_margin);
    if (!with[i].novelty_rejected) {
      EXPECT_EQ(plain[i].user, with[i].user);
      EXPECT_EQ(plain[i].user_margin, with[i].user_margin);
    } else {
      EXPECT_EQ(with[i].user, kAbstain);
      EXPECT_TRUE(with[i].abstained);
    }
  }
}

// The tentpole end to end: the newcomer's rejected segments accumulate to K,
// a head-only fine-tune widens the user head, and the new .gpsy goes live
// through the registry hot-swap — with zero dropped ticks (result count
// matches the enrollment-free run), a monotonic audited model_version flip,
// and an EnrolledUser audit record.
TEST(Enroll, KThresholdFineTunesAndHotSwapsLosslessly) {
  serve::ModelRegistry registry(world().config);
  ASSERT_TRUE(registry.publish_file(world().model_path).has_value());
  ASSERT_EQ(registry.version(), 1u);
  exec::ExecContext ctx(2);

  // Reference: same streams, no enrollment — pins the expected result count.
  const serve::ServeConfig off = base_config(2, /*enroll_enabled=*/false);
  const std::size_t expected = run_enroll_stream(off, registry, nullptr, ctx).size();

  serve::ServeConfig sc = base_config(2, /*enroll_enabled=*/true);
  // One unknown person is streaming; biometric descriptors are gesture-
  // dependent, so a wide radius folds all their segments into one candidate.
  sc.enroll.candidate_radius = 1e6;
  const std::string publish_dir = testing::TempDir() + "gp_enroll_pub";
  std::filesystem::create_directories(publish_dir);
  enroll::EnrollmentService service(service_config(sc, publish_dir), registry);
  service.calibrate(world().dataset, world().train);

  std::uint64_t ticks = 0;
  const auto results = run_enroll_stream(sc, registry, &service, ctx, &ticks);
  EXPECT_EQ(results.size(), expected) << "enrollment dropped results mid-swap";

  const enroll::EnrollmentService::Stats stats = service.stats();
  ASSERT_GE(stats.novelty_rejections, sc.enroll.k_segments)
      << "the newcomer stream never accumulated K rejections";
  ASSERT_GE(stats.fine_tunes_started, 1u);
  ASSERT_GE(stats.users_enrolled, 1u);
  EXPECT_EQ(stats.fine_tunes_failed, 0u);
  EXPECT_GT(registry.version(), 1u);  // the widened head went live
  EXPECT_EQ(stats.last_publish_version, registry.version());

  // Audit trail: the record names the published version and consumed
  // candidate; the served snapshot grew by the enrolled users.
  const auto enrolled = service.enrolled();
  ASSERT_EQ(enrolled.size(), stats.users_enrolled);
  EXPECT_EQ(enrolled.front().user_id, static_cast<int>(world().spec.num_users));
  EXPECT_GE(enrolled.front().model_version, 2u);
  EXPECT_GT(enrolled.front().tick, 0u);
  ASSERT_NE(registry.current(), nullptr);
  EXPECT_EQ(registry.current()->num_users(),
            world().spec.num_users + stats.users_enrolled);

  // Version flip audited in flush order: monotonic, both generations served.
  std::uint64_t last = 0;
  bool saw_base = false, saw_enrolled_version = false;
  for (const serve::ServeResult& r : results) {
    EXPECT_GE(r.model_version, last);
    last = r.model_version;
    saw_base = saw_base || r.model_version == 1;
    saw_enrolled_version = saw_enrolled_version || r.model_version > 1;
  }
  EXPECT_TRUE(saw_base);
  EXPECT_TRUE(saw_enrolled_version) << "no segment was answered by the widened head";

  // The enrolled person's biometrics joined the gallery: replaying their
  // stream now passes the gate (their own samples anchor the novelty score).
  serve::Server replay_server(sc, registry, ctx);
  replay_server.set_enrollment_hook(&service);
  const std::uint64_t rejections_before_replay = service.stats().novelty_rejections;
  for (const FrameCloud& frame : world().newcomer.frames) {
    (void)replay_server.push_frame(99, frame);
    (void)replay_server.pump();
  }
  (void)replay_server.drain();
  EXPECT_LT(service.stats().novelty_rejections - rejections_before_replay,
            sc.enroll.k_segments)
      << "the enrolled person still trips the gate often enough to re-enroll";
}

// The failure exit: every fine-tune fails at its first step (the base model
// file does not exist). Each failure is counted, the candidate's evidence is
// consumed anyway, nothing is published, and serving never stops — the
// result count matches the enrollment-free run.
TEST(Enroll, FailedFineTuneConsumesEvidenceAndKeepsServing) {
  serve::ModelRegistry registry(world().config);
  ASSERT_TRUE(registry.publish_file(world().model_path).has_value());
  ASSERT_EQ(registry.version(), 1u);
  exec::ExecContext ctx(2);

  const serve::ServeConfig off = base_config(2, /*enroll_enabled=*/false);
  const std::size_t expected = run_enroll_stream(off, registry, nullptr, ctx).size();

  serve::ServeConfig sc = base_config(2, /*enroll_enabled=*/true);
  sc.enroll.candidate_radius = 1e6;  // one candidate at a time
  const std::string publish_dir = testing::TempDir() + "gp_enroll_fail_pub";
  std::filesystem::create_directories(publish_dir);
  enroll::EnrollmentServiceConfig ec = service_config(sc, publish_dir);
  ec.base_model_path = publish_dir + "/no_such_model.gpsy";
  enroll::EnrollmentService service(ec, registry);
  service.calibrate(world().dataset, world().train);

  const auto results = run_enroll_stream(sc, registry, &service, ctx);
  EXPECT_EQ(results.size(), expected) << "a failed fine-tune dropped results";

  const enroll::EnrollmentService::Stats stats = service.stats();
  ASSERT_GE(stats.fine_tunes_started, 1u);
  EXPECT_EQ(stats.fine_tunes_failed, stats.fine_tunes_started);
  EXPECT_EQ(stats.users_enrolled, 0u);
  EXPECT_TRUE(service.enrolled().empty());
  EXPECT_EQ(registry.version(), 1u);
  EXPECT_EQ(stats.last_publish_version, 0u);

  // Candidate 1 was the first to reach K and its evidence is gone; every
  // candidate ever founded was either consumed by a fine-tune or is live.
  const enroll::EnrollmentBuffer& buffer = service.buffer();
  EXPECT_EQ(buffer.find(1), nullptr);
  EXPECT_EQ(buffer.stats().founded, stats.fine_tunes_started + buffer.candidates().size());
  for (const enroll::Candidate& c : buffer.candidates()) {
    EXPECT_LT(c.segments.size(), sc.enroll.k_segments);
  }
}

// GP_FAULTS mixed soak with enrollment armed: severely degraded links feed
// the gate garbage-adjacent segments; the contract is typed answers and
// deterministic candidate state — zero uncaught exceptions.
TEST(Enroll, FaultStormSoakZeroUncaughtExceptions) {
  serve::ModelRegistry registry(world().config);
  ASSERT_TRUE(registry.publish_file(world().model_path).has_value());
  exec::ExecContext ctx(2);

  serve::ServeConfig sc = base_config(2, /*enroll_enabled=*/true);
  sc.enroll.k_segments = 1000;  // admission-layer soak
  sc.session_faults = faults::FaultConfig::mixed(1.0);

  enroll::EnrollmentService service(service_config(sc, testing::TempDir()), registry);
  service.calibrate(world().dataset, world().train);
  std::vector<serve::ServeResult> results;
  ASSERT_NO_THROW(results = sorted_by_stream(run_enroll_stream(sc, registry, &service, ctx)));
  for (const serve::ServeResult& r : results) {
    EXPECT_TRUE(r.gesture >= 0 || r.gesture == kAbstain);
    EXPECT_TRUE(r.user >= 0 || r.user == kAbstain);
  }
  const std::string digest = buffer_digest(service.buffer());

  enroll::EnrollmentService again_service(service_config(sc, testing::TempDir()), registry);
  again_service.calibrate(world().dataset, world().train);
  std::vector<serve::ServeResult> again;
  ASSERT_NO_THROW(again =
                      sorted_by_stream(run_enroll_stream(sc, registry, &again_service, ctx)));
  expect_results_bitwise_equal(results, again);
  EXPECT_EQ(digest, buffer_digest(again_service.buffer()));
}

// widen_users + fine_tune_user_heads primitives: the widened system
// round-trips through .gpsy (num_users is read from the file), keeps
// existing users' decision boundaries bitwise, and trains head-only.
TEST(Enroll, WidenedHeadRoundTripsAndPreservesKnownUsers) {
  GesturePrintSystem system(world().config);
  ASSERT_TRUE(system.try_load(world().model_path));
  const std::size_t base_users = system.num_users();

  // Pre-widen answers on a few held-out clouds.
  std::vector<InferenceResult> before;
  for (std::size_t i = 0; i < 4; ++i) {
    before.push_back(system.classify(world().dataset.samples[i * 5].cloud));
  }

  const int new_user = system.widen_users(/*seed=*/0x51DE);
  EXPECT_EQ(new_user, static_cast<int>(base_users));
  EXPECT_EQ(system.num_users(), base_users + 1);
  for (std::size_t i = 0; i < before.size(); ++i) {
    const InferenceResult after = system.classify(world().dataset.samples[i * 5].cloud);
    EXPECT_EQ(after.gesture, before[i].gesture);  // gesture model untouched
    EXPECT_EQ(after.user, before[i].user) << "widening moved a known user's answer";
  }

  const std::string path = testing::TempDir() + "gp_enroll_widened.gpsy";
  system.save(path);
  GesturePrintSystem restored(world().config);
  ASSERT_TRUE(restored.try_load(path));
  EXPECT_EQ(restored.num_users(), base_users + 1);
  for (std::size_t i = 0; i < before.size(); ++i) {
    const InferenceResult a = system.classify(world().dataset.samples[i * 5].cloud);
    const InferenceResult b = restored.classify(world().dataset.samples[i * 5].cloud);
    EXPECT_EQ(a.gesture, b.gesture);
    EXPECT_EQ(a.user, b.user);
  }
}

}  // namespace
}  // namespace gp
