// End-to-end system tests: GesturePrintSystem training/eval in both
// identification modes, classify() runtime path, multi-person separation
// (Fig. 15 logic), and the walker scene generator.
//
// These are integration tests over the whole stack, so they use small
// datasets and loose-but-meaningful accuracy bars.
#include <gtest/gtest.h>

#include "datasets/catalog.hpp"
#include "eval/splits.hpp"
#include "system/gestureprint.hpp"
#include "system/multi_person.hpp"

namespace gp {
namespace {

Dataset small_dataset(int env = 1, std::size_t users = 3, std::size_t gestures = 3,
                      std::size_t reps = 8) {
  DatasetScale scale;
  scale.max_users = users;
  scale.reps = reps;
  DatasetSpec spec = gestureprint_spec(env, scale);
  spec.gestures.resize(gestures);
  return generate_dataset(spec);
}

GesturePrintConfig quick_config() {
  GesturePrintConfig config;
  config.training.epochs = 6;
  config.training.batch_size = 16;
  config.prep.augmentation.copies = 2;
  return config;
}

Split split_by_pair(const Dataset& dataset, std::uint64_t seed = 77) {
  Rng rng(seed, 1);
  std::vector<int> strata;
  const int num_users = static_cast<int>(dataset.num_users());
  for (const auto& s : dataset.samples) strata.push_back(s.gesture * num_users + s.user);
  return stratified_split(strata, 0.2, rng);
}

TEST(System, SerializedModeLearnsBothTasks) {
  const Dataset dataset = small_dataset(1, 3, 3, 14);
  const Split split = split_by_pair(dataset);

  GesturePrintConfig config = quick_config();
  config.training.epochs = 8;
  GesturePrintSystem system(config);
  EXPECT_FALSE(system.fitted());
  system.fit(dataset, split.train);
  EXPECT_TRUE(system.fitted());

  const SystemEvaluation eval = system.evaluate(dataset, split.test);
  EXPECT_GT(eval.gra, 0.8);
  EXPECT_GT(eval.uia, 0.6);  // 3-user chance = 0.33
  EXPECT_GT(eval.grauc, 0.9);
  EXPECT_GT(eval.uiauc, 0.75);
  EXPECT_GT(eval.grf1, 0.75);
  EXPECT_LT(eval.user_roc.eer(), 0.35);
}

TEST(System, ParallelModeAlsoWorks) {
  const Dataset dataset = small_dataset(1, 3, 3, 12);
  const Split split = split_by_pair(dataset);

  GesturePrintConfig config = quick_config();
  config.mode = IdentificationMode::kParallel;
  config.training.epochs = 8;
  GesturePrintSystem system(config);
  system.fit(dataset, split.train);
  const SystemEvaluation eval = system.evaluate(dataset, split.test);
  EXPECT_GT(eval.gra, 0.8);
  EXPECT_GT(eval.uia, 0.55);
}

TEST(System, ClassifyReturnsValidDistributions) {
  const Dataset dataset = small_dataset();
  const Split split = split_by_pair(dataset);
  GesturePrintSystem system(quick_config());
  system.fit(dataset, split.train);

  const GestureSample& sample = dataset.samples[split.test.front()];
  const InferenceResult result = system.classify(sample.cloud);
  ASSERT_EQ(result.gesture_probabilities.size(), dataset.num_gestures());
  ASSERT_EQ(result.user_probabilities.size(), dataset.num_users());
  double gsum = 0.0;
  for (double p : result.gesture_probabilities) gsum += p;
  EXPECT_NEAR(gsum, 1.0, 1e-5);
  EXPECT_GE(result.gesture, 0);
  EXPECT_LT(result.gesture, static_cast<int>(dataset.num_gestures()));
  EXPECT_GE(result.user, 0);
  EXPECT_LT(result.user, static_cast<int>(dataset.num_users()));
}

TEST(System, EvaluateBeforeFitThrows) {
  const Dataset dataset = small_dataset(1, 2, 2, 4);
  GesturePrintSystem system(quick_config());
  const auto idx = std::vector<std::size_t>{0, 1};
  EXPECT_THROW(system.evaluate(dataset, idx), Error);
}

TEST(System, CrossDatasetEvaluationRuns) {
  // Train in the meeting room, evaluate on the office set (cross-env path).
  const Dataset meeting = small_dataset(1);
  const Dataset office = small_dataset(0);
  GesturePrintSystem system(quick_config());
  system.fit(meeting, split_by_pair(meeting).train);
  const SystemEvaluation eval = system.evaluate_dataset(office);
  // Degraded but far above chance for recognition.
  EXPECT_GT(eval.gra, 0.5);
}

// evaluate() is closed-set: the configured abstention margin must not reach
// it. One saved system, loaded with margin 0 and 0.9, evaluates identically.
TEST(System, EvaluateIgnoresTheAbstentionMargin) {
  const Dataset dataset = small_dataset();
  const Split split = split_by_pair(dataset);
  const std::string path = testing::TempDir() + "gp_system_closed_set.gpsy";
  GesturePrintSystem trained(quick_config());
  trained.fit(dataset, split.train);
  trained.save(path);

  SystemEvaluation evals[2];
  for (int k = 0; k < 2; ++k) {
    GesturePrintConfig config = quick_config();
    config.abstain_margin = k == 0 ? 0.0 : 0.9;
    GesturePrintSystem system(config);
    system.load(path);
    evals[k] = system.evaluate(dataset, split.test);
    if (k == 1) {  // the 0.9 gate does fire on this model
      bool abstained = false;
      for (std::size_t idx : split.test) {
        abstained |= system.classify(dataset.samples[idx].cloud).abstained;
      }
      EXPECT_TRUE(abstained);
    }
  }
  EXPECT_EQ(evals[0].gra, evals[1].gra);
  EXPECT_EQ(evals[0].grf1, evals[1].grf1);
  EXPECT_EQ(evals[0].grauc, evals[1].grauc);
  EXPECT_EQ(evals[0].uia, evals[1].uia);
  EXPECT_EQ(evals[0].uif1, evals[1].uif1);
  EXPECT_EQ(evals[0].uiauc, evals[1].uiauc);
  ASSERT_EQ(evals[0].user_roc.points.size(), evals[1].user_roc.points.size());
  for (std::size_t i = 0; i < evals[0].user_roc.points.size(); ++i) {
    EXPECT_EQ(evals[0].user_roc.points[i].threshold, evals[1].user_roc.points[i].threshold);
    EXPECT_EQ(evals[0].user_roc.points[i].fpr, evals[1].user_roc.points[i].fpr);
    EXPECT_EQ(evals[0].user_roc.points[i].tpr, evals[1].user_roc.points[i].tpr);
  }
}

TEST(MultiPerson, MergeScenesCombinesReflectors) {
  SceneSequence a(3);
  SceneSequence b(2);
  for (auto& f : a) f.reflectors.resize(2);
  for (auto& f : b) f.reflectors.resize(3);
  const SceneSequence merged = merge_scenes(a, b);
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].reflectors.size(), 5u);
  EXPECT_EQ(merged[2].reflectors.size(), 2u);
}

TEST(MultiPerson, WalkerSceneMovesAcrossFrames) {
  Rng rng(1);
  WalkerConfig config;
  const SceneSequence scene = make_walker_scene(config, rng);
  ASSERT_EQ(scene.size(), static_cast<std::size_t>(config.num_frames));
  // The torso drifts by velocity * time.
  const Vec3 start = scene.front().reflectors.front().position;
  const Vec3 end = scene.back().reflectors.front().position;
  EXPECT_NEAR(end.x - start.x, config.velocity.x * 3.9, 0.15);
  // Walker reflectors carry non-zero Doppler (so clutter removal keeps them
  // — which is exactly why DBSCAN-based separation matters).
  EXPECT_GT(scene[5].reflectors.front().velocity.norm(), 0.3);
}

TEST(MultiPerson, SeparationIsolatesUserFromWalker) {
  // User gestures at 1.2 m while someone walks past 2+ m away laterally:
  // the main cluster must be the user's.
  Rng rng(2);
  const UserProfile user = UserProfile::sample(0, rng);
  PerformanceConfig perf;
  const GesturePerformer performer(user, perf);
  Rng rep(3);
  SceneSequence gesture_scene = performer.perform(asl_gesture_set()[0], rep);

  WalkerConfig walker;
  walker.start = Vec3(2.5, 3.4, 0.0);
  walker.velocity = Vec3(-0.7, 0.0, 0.0);
  walker.num_frames = static_cast<int>(gesture_scene.size());
  const SceneSequence walker_scene = make_walker_scene(walker, rng);

  const SceneSequence merged = merge_scenes(gesture_scene, walker_scene);
  const RadarSensor sensor;
  const FrameSequence frames = sensor.observe(merged, rng);

  const Vec3 user_position(0.0, 1.2, 0.0);
  const SeparationResult result = analyze_separation(aggregate(frames), user_position);
  EXPECT_GE(result.num_clusters, 2u);
  EXPECT_GT(result.centroid_gap, 1.0);
  // A long walk can out-point the gesture, so size-based selection is not
  // guaranteed here — but the work-zone policy must find the user cluster.
  EXPECT_LT(result.zone_cluster_distance, 0.8);
  EXPECT_GT(result.zone_cluster_size, 30u);
}

TEST(MultiPerson, SecondGesturerSeparatedWhenFarEnough) {
  // Two people gesturing 2.5 m apart (well beyond D_max = 1 m): DBSCAN must
  // keep them in distinct clusters.
  Rng rng(4);
  const UserProfile user_a = UserProfile::sample(0, rng);
  const UserProfile user_b = UserProfile::sample(1, rng);
  PerformanceConfig perf_a;
  PerformanceConfig perf_b;
  perf_b.lateral = 2.5;
  const GesturePerformer pa(user_a, perf_a);
  const GesturePerformer pb(user_b, perf_b);
  Rng rep(5);
  const SceneSequence merged =
      merge_scenes(pa.perform(asl_gesture_set()[0], rep), pb.perform(asl_gesture_set()[4], rep));

  const RadarSensor sensor;
  const FrameSequence frames = sensor.observe(merged, rng);
  const SeparationResult result = analyze_separation(aggregate(frames), Vec3(0.0, 1.2, 0.0));
  EXPECT_GE(result.num_clusters, 2u);
  EXPECT_GT(result.main_cluster_fraction, 0.3);
}

}  // namespace
}  // namespace gp
