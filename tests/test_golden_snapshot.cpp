// Golden-snapshot regression over the radar→pipeline→GesIDNet stack.
//
// One deterministic mini-pipeline is pushed end to end — radar config,
// kinematic scene, full FMCW chain, fast geometric backend, segmentation,
// featurization, dataset synthesis, trained-net logits — and each stage's
// quantised digest + summary stats are compared against the committed
// goldens under tests/golden/. On drift the diff names the FIRST divergent
// stage (the stage where a refactor started bending the physics) and shows
// per-stat old→new deltas.
//
// Update workflow: run this binary with --update-golden (or
// GP_UPDATE_GOLDEN=1), review the printed diff, commit the regenerated
// files. GP_GOLDEN_DIR overrides the golden directory (defaults to the
// source-tree tests/golden via the GP_GOLDEN_DEFAULT_DIR compile def).
//
// Also pinned here: the *schemas* of the machine-readable artifacts
// (REPORT_*.json from obs, the obs::BenchDoc shape every BENCH_*.json
// shares, the health snapshot) — value drift is invisible,
// added/removed/retyped fields are not.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "datasets/catalog.hpp"
#include "datasets/dataset.hpp"
#include "datasets/prep.hpp"
#include "exec/exec.hpp"
#include "gesidnet/gesidnet.hpp"
#include "gesidnet/trainer.hpp"
#include "health/health.hpp"
#include "health/slo.hpp"
#include "kinematics/gesture_spec.hpp"
#include "kinematics/performer.hpp"
#include "obs/bench_json.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "pipeline/preprocessor.hpp"
#include "radar/fast_backend.hpp"
#include "radar/frontend.hpp"
#include "testkit/golden.hpp"
#include "testkit/snapshot.hpp"

namespace gp {
namespace {

testkit::GoldenConfig g_golden;  // initialised in main()

// ---- the pinned mini-pipeline ---------------------------------------------

DatasetSpec small_spec() {
  DatasetScale scale;
  scale.max_users = 3;
  scale.reps = 2;
  DatasetSpec spec = gestureprint_spec(0, scale);
  spec.gestures.resize(3);
  return spec;
}

GesIDNetConfig tiny_config(int num_classes) {
  GesIDNetConfig config;
  config.num_classes = num_classes;
  config.sa1_centroids = 8;
  config.sa1_scales = {{0.3, 4, {8, 12}}, {0.6, 6, {12, 16}}};
  config.sa2_centroids = 4;
  config.sa2_scales = {{0.5, 3, {16, 20}}};
  config.level1_mlp = {24, 32};
  config.level2_mlp = {32, 40};
  config.head1_hidden = 16;
  config.head2_hidden = 16;
  return config;
}

/// Builds the full pipeline snapshot. All randomness comes from fixed
/// (seed, stream) Rngs; `ctx` carries the thread count, which must not
/// change a single bit (asserted by SnapshotIsThreadCountInvariant).
/// `fast_config` is a parameter so the first-divergent-stage test can
/// perturb one radar constant and watch exactly one stage drift.
testkit::Snapshot build_pipeline_snapshot(exec::ExecContext& ctx,
                                          const FastBackendConfig& fast_config = {}) {
  testkit::Snapshot snap;

  const RadarConfig radar;  // paper §VI-A IWR1443 defaults
  snap.add(testkit::summarize_radar_config("radar.config", radar));

  Rng user_rng(2024, 1);
  const UserProfile user = UserProfile::sample(0, user_rng);
  const GesturePerformer performer(user, PerformanceConfig{});
  const std::vector<GestureSpec> gestures = asl_gesture_set();
  Rng scene_rng(2024, 2);
  const SceneSequence scene = performer.perform(gestures.front(), scene_rng);
  snap.add(testkit::summarize_scene("kinematics.scene", scene));

  Rng full_rng(2024, 3);
  const FrameSequence full_frames = process_scene(radar, scene, full_rng);
  snap.add(testkit::summarize_frames("radar.full_chain", full_frames));

  Rng fast_rng(2024, 4);
  const FrameSequence fast_frames = fast_process_scene(radar, fast_config, scene, fast_rng);
  snap.add(testkit::summarize_frames("radar.fast_backend", fast_frames));

  const Preprocessor preprocessor;
  const GestureCloud cloud = preprocessor.process_segment(full_frames);
  snap.add(testkit::summarize_gesture_cloud("pipeline.segment", cloud));

  Rng feat_rng(2024, 5);
  const FeaturizedSample features = featurize(cloud, FeatureConfig{}, feat_rng);
  snap.add(testkit::summarize_features("pipeline.featurize", features));

  const Dataset dataset = generate_dataset(small_spec(), ctx);
  snap.add(testkit::summarize_dataset("datasets.synthesis", dataset));

  Rng prep_rng(2024, 6);
  const LabeledSamples labeled = prepare_subset(dataset, all_indices(dataset),
                                                LabelKind::kGesture, PrepConfig{}, prep_rng);
  TrainConfig train_config;
  train_config.epochs = 1;
  train_config.batch_size = 8;
  train_config.seed = 7;
  Rng net_rng(2024, 7);
  GesIDNet model(tiny_config(static_cast<int>(dataset.num_gestures())), net_rng);
  train_classifier(model, labeled, train_config, ctx);
  const nn::Tensor logits = predict_logits(model, labeled.samples, train_config.batch_size, ctx);
  snap.add(testkit::summarize_tensor("gesidnet.logits", logits));

  return snap;
}

TEST(GoldenSnapshot, PipelineMatchesGolden) {
  exec::ExecContext ctx(4);
  const testkit::Snapshot snap = build_pipeline_snapshot(ctx);
  const testkit::GoldenOutcome outcome = testkit::check_golden(g_golden, "pipeline", snap);
  if (outcome.updated) std::cout << outcome.message;
  EXPECT_TRUE(outcome.ok) << outcome.message;
}

// The acceptance bar from the gp::exec contract: the snapshot — including
// parallel dataset synthesis and parallel training — is bitwise identical
// for GP_THREADS in {1, 4, 8}.
TEST(GoldenSnapshot, SnapshotIsThreadCountInvariant) {
  exec::ExecContext t1(1), t4(4), t8(8);
  const std::string s1 = testkit::to_text(build_pipeline_snapshot(t1));
  const std::string s4 = testkit::to_text(build_pipeline_snapshot(t4));
  const std::string s8 = testkit::to_text(build_pipeline_snapshot(t8));
  EXPECT_EQ(s1, s4);
  EXPECT_EQ(s1, s8);
}

// Perturb one radar constant (the fast backend's reference SNR) and verify
// the diff machinery pins the drift on exactly that stage: everything
// upstream matches, radar.fast_backend is named as first divergent, and the
// report carries usable stat deltas.
TEST(GoldenSnapshot, PerturbedRadarConstantNamesFirstDivergentStage) {
  exec::ExecContext ctx(2);
  const testkit::Snapshot baseline = build_pipeline_snapshot(ctx);
  FastBackendConfig perturbed;
  perturbed.snr_ref_db += 3.0;
  const testkit::Snapshot drifted = build_pipeline_snapshot(ctx, perturbed);

  const testkit::SnapshotDiff diff = testkit::diff_snapshots(baseline, drifted);
  ASSERT_FALSE(diff.identical());
  EXPECT_EQ(diff.first_divergent_stage, "radar.fast_backend");
  ASSERT_EQ(diff.drifted.size(), 1u);  // only the perturbed stage moves
  EXPECT_NE(diff.report().find("radar.fast_backend"), std::string::npos);
  EXPECT_NE(diff.report().find("mean_snr_db"), std::string::npos);
}

TEST(GoldenSnapshot, TextRoundTripIsLossless) {
  exec::ExecContext ctx(2);
  const testkit::Snapshot snap = build_pipeline_snapshot(ctx);
  const testkit::Snapshot reparsed = testkit::parse_text(testkit::to_text(snap));
  EXPECT_TRUE(testkit::diff_snapshots(snap, reparsed).identical());
  EXPECT_EQ(testkit::to_text(snap), testkit::to_text(reparsed));
}

// ---- machine-readable artifact schemas ------------------------------------

TEST(GoldenSnapshot, RunReportSchemaMatchesGolden) {
  obs::set_metrics_enabled(true);
  // The report lists every metric and stage registered so far in the
  // process. Run the pinned pipeline here, so the schema does not depend
  // on which tests ran before this one.
  exec::ExecContext ctx(4);
  (void)build_pipeline_snapshot(ctx);
  // Touch one counter, one histogram and one stage so every report section
  // has at least one exemplar row for the schema walk to descend into.
  GP_COUNTER_ADD("gp.golden.exemplar", 1);
  obs::histogram("gp.golden.exemplar_ms").observe(1.0);
  // Serve-layer exemplars: counter/gauge/histogram names are JSON object
  // keys in the report, so touching every gp.serve.* metric the serving
  // stack emits pins those key paths in the schema golden.
  GP_COUNTER_ADD("gp.serve.frames", 1);
  GP_COUNTER_ADD("gp.serve.segments", 1);
  GP_COUNTER_ADD("gp.serve.batches", 1);
  GP_COUNTER_ADD("gp.serve.batches.quant", 1);
  GP_COUNTER_ADD("gp.serve.rejected.queue_full", 1);
  GP_COUNTER_ADD("gp.serve.rejected.quality", 1);
  GP_COUNTER_ADD("gp.serve.no_model", 1);
  GP_COUNTER_ADD("gp.serve.model.swaps", 1);
  GP_COUNTER_ADD("gp.serve.model.load_failures", 1);
  obs::gauge("gp.serve.model.version").set(1.0);
  obs::gauge("gp.serve.model.quant").set(0.0);
  obs::gauge("gp.serve.sessions").set(1.0);
  obs::gauge("gp.serve.pending_segments").set(0.0);
  obs::histogram("gp.serve.batch.size").observe(1.0);
  obs::histogram("gp.serve.batch.latency_us").observe(100.0);
  // Health-section exemplars (gp::health, DESIGN.md §10): the monitor's
  // close_tick publishes these; touching them by name pins the health
  // metric key paths in the report schema.
  GP_COUNTER_ADD("gp.health.ticks", 1);
  GP_COUNTER_ADD("gp.health.requests", 1);
  GP_COUNTER_ADD("gp.health.slo.breaches", 1);
  GP_COUNTER_ADD("gp.health.verdict.flips", 1);
  GP_COUNTER_ADD("gp.health.flightrec.events", 1);
  obs::gauge("gp.health.verdict").set(0.0);
  obs::gauge("gp.health.p99_us").set(100.0);
  obs::gauge("gp.health.shed_rate").set(0.0);
  // gp.mem.* needs no touching here: write_run_report_json calls
  // obs::publish_mem_metrics(), which registers every bridged counter and
  // gauge (pool hit/miss, arena blocks/recycled/high-water) by name — their
  // key paths are pinned below like any other metric.
  std::ostringstream out;
  obs::write_run_report_json(out, "golden");
  const obs::json::Value doc = obs::json::parse(out.str());

  testkit::Snapshot snap;
  snap.add(testkit::summarize_json_schema("obs.report_schema", doc));
  const testkit::GoldenOutcome outcome =
      testkit::check_golden(g_golden, "report_schema", snap);
  if (outcome.updated) std::cout << outcome.message;
  EXPECT_TRUE(outcome.ok) << outcome.message;
}

TEST(GoldenSnapshot, BenchDocSchemaMatchesGolden) {
  // Every BENCH_*.json is an obs::BenchDoc: one exemplar metric pins the
  // header and the {value, unit} metric shape, values arbitrary.
  obs::BenchDoc doc("golden", 4);
  doc.add("stage.p50_ms", "ms", 1.5);

  testkit::Snapshot snap;
  snap.add(testkit::summarize_json_schema("bench.doc_schema", obs::json::parse(doc.json())));
  const testkit::GoldenOutcome outcome =
      testkit::check_golden(g_golden, "bench_schemas", snap);
  if (outcome.updated) std::cout << outcome.message;
  EXPECT_TRUE(outcome.ok) << outcome.message;
}

TEST(GoldenSnapshot, HealthJsonSchemasMatchGolden) {
  obs::set_metrics_enabled(true);
  // Exemplar health snapshot: a HealthMonitor driven through one loaded
  // tick so every optional section (slo verdict, exemplar, version mix) is
  // populated and its key paths land in the schema.
  health::HealthConfig config;
  config.flightrec = false;
  config.slo = health::SloSpec::parse("p99_ms<5,shed_rate<0.05,window=4t");
  health::HealthMonitor monitor(config, /*batch_max=*/8);
  health::EventCounts counts;
  counts.frames_admitted = 2;
  counts.frames_rejected = 1;
  counts.segments = 1;
  counts.abstained = 1;
  counts.batches = 1;
  health::RequestSample sample;
  sample.request_id = 42;
  sample.session_id = 1;
  sample.ordinal = 0;
  sample.total_us = 900;
  sample.stage_us[static_cast<std::size_t>(health::Stage::kForward)] = 900;
  monitor.record_request(sample, /*model_version=*/3);
  monitor.record_batch(1, 3);
  monitor.close_tick(1, counts);
  const std::string snapshot_json = monitor.snapshot().to_json();

  testkit::Snapshot snap;
  snap.add(testkit::summarize_json_schema("health.snapshot_schema",
                                          obs::json::parse(snapshot_json)));
  const testkit::GoldenOutcome outcome =
      testkit::check_golden(g_golden, "bench_health_schema", snap);
  if (outcome.updated) std::cout << outcome.message;
  EXPECT_TRUE(outcome.ok) << outcome.message;
}

}  // namespace
}  // namespace gp

#ifndef GP_GOLDEN_DEFAULT_DIR
#define GP_GOLDEN_DEFAULT_DIR ""
#endif

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  gp::g_golden = gp::testkit::golden_config_from_env(argc, argv, GP_GOLDEN_DEFAULT_DIR);
  if (gp::g_golden.update) {
    std::cout << "golden update mode: regenerating " << gp::g_golden.dir << "/*.golden\n";
  }
  return RUN_ALL_TESTS();
}
