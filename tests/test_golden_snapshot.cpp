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
// (REPORT_*.json from obs, BENCH_latency_stages.json / BENCH_parallel.json
// from the bench harness) — value drift is invisible, added/removed/retyped
// fields are not.
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
  GP_COUNTER_ADD("gp.serve.shed.stale", 1);
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

TEST(GoldenSnapshot, BenchJsonSchemasMatchGolden) {
  obs::set_metrics_enabled(true);
  obs::Histogram& h = obs::histogram("gp.golden.bench_ms");
  for (int i = 1; i <= 8; ++i) h.observe(0.5 * i);
  obs::StageSnapshot stage;
  stage.name = "golden.stage";
  stage.histogram = h.snapshot();
  stage.min_depth = 0;

  // Serve-tick exemplar rows (bench/sec6b5_latency.cpp): the cold/steady
  // memory profile of the zero-copy frame path, values arbitrary.
  obs::ServeTickProfile cold;
  cold.phase = "cold";
  cold.ticks = 142;
  cold.p50_ms = 0.01;
  cold.p95_ms = 0.5;
  cold.p99_ms = 9.0;
  cold.allocs_per_tick = 180.0;
  obs::ServeTickProfile steady = cold;
  steady.phase = "steady";
  steady.allocs_per_tick = 0.0;

  const std::string latency = obs::latency_stages_json(
      8, {{"preprocessing", h.snapshot()}, {"end_to_end", h.snapshot()}}, {stage},
      {cold, steady});
  const std::string parallel = obs::parallel_sweep_json(
      8, {1, 2, 4}, {{"gemm_kernel", {10.0, 6.0, 4.0}}, {"train_epoch", {20.0, 12.0, 8.0}}});

  testkit::Snapshot snap;
  snap.add(testkit::summarize_json_schema("bench.latency_stages_schema",
                                          obs::json::parse(latency)));
  snap.add(testkit::summarize_json_schema("bench.parallel_schema",
                                          obs::json::parse(parallel)));
  const testkit::GoldenOutcome outcome =
      testkit::check_golden(g_golden, "bench_schemas", snap);
  if (outcome.updated) std::cout << outcome.message;
  EXPECT_TRUE(outcome.ok) << outcome.message;
}

TEST(GoldenSnapshot, FaultSweepSchemaMatchesGolden) {
  // Exemplar BENCH_faults.json (bench/fault_sweep.cpp): two families, two
  // severities, values arbitrary — only the key-path set is pinned.
  obs::FaultSweepRow row;
  row.severity = 0.5;
  row.frames_in = 100;
  row.frames_delivered = 80;
  row.frames_dropped = 20;
  row.ghost_points = 7;
  row.points_removed = 13;
  row.segments = 5;
  row.classified = 4;
  row.abstained = 1;
  row.correct = 3;
  const std::string faults = obs::fault_sweep_json(
      0.1, {0.0, 0.5},
      {{"frame_drop", {obs::FaultSweepRow{}, row}}, {"mixed", {row}}});

  testkit::Snapshot snap;
  snap.add(testkit::summarize_json_schema("bench.faults_schema",
                                          obs::json::parse(faults)));
  const testkit::GoldenOutcome outcome =
      testkit::check_golden(g_golden, "bench_faults_schema", snap);
  if (outcome.updated) std::cout << outcome.message;
  EXPECT_TRUE(outcome.ok) << outcome.message;
}

TEST(GoldenSnapshot, ServeBenchSchemaMatchesGolden) {
  // Exemplar BENCH_serve.json (bench/serve_bench.cpp): the key-path set of
  // the serving-throughput artifact, values arbitrary.
  obs::ServeBaselineRow baseline;
  baseline.sessions = 8;
  baseline.segments = 45;
  baseline.ms = 330.0;
  obs::ServeSweepCell cell;
  cell.sessions = 8;
  cell.batch_max = 8;
  cell.quant = "int8";
  cell.segments = 45;
  cell.results = 45;
  cell.batches = 41;
  cell.abstained = 2;
  cell.ms = 104.0;
  cell.speedup = 3.17;
  obs::ServeQuantSummary quant;
  quant.measured = true;
  quant.f32_forward_ms = 12.0;
  quant.int8_forward_ms = 10.0;
  quant.forward_speedup = 1.2;
  quant.serve_speedup = 1.1;
  quant.argmax_mismatches = 0;
  const std::string serve = obs::serve_bench_json(
      {1, 8}, {1, 8}, {baseline}, {obs::ServeSweepCell{}, cell}, quant);

  testkit::Snapshot snap;
  snap.add(testkit::summarize_json_schema("bench.serve_schema",
                                          obs::json::parse(serve)));
  const testkit::GoldenOutcome outcome =
      testkit::check_golden(g_golden, "bench_serve_schema", snap);
  if (outcome.updated) std::cout << outcome.message;
  EXPECT_TRUE(outcome.ok) << outcome.message;
}

TEST(GoldenSnapshot, GemmBenchSchemaMatchesGolden) {
  // Exemplar BENCH_gemm.json (bench/gemm_bench.cpp): blocked-kernel vs
  // naive-reference rows plus the int8 fused-layer row, values arbitrary.
  obs::GemmBenchRow mm;
  mm.kernel = "matmul";
  mm.m = 64;
  mm.k = 96;
  mm.n = 128;
  mm.ref_ms = 4.0;
  mm.opt_ms = 1.0;
  mm.speedup = 4.0;
  mm.gflops = 1.5;
  mm.check = "bitwise";
  obs::GemmBenchRow bt = mm;
  bt.kernel = "matmul_bt";
  bt.check = "band";
  const std::string gemm = obs::gemm_bench_json(1, {mm, bt});

  testkit::Snapshot snap;
  snap.add(testkit::summarize_json_schema("bench.gemm_schema",
                                          obs::json::parse(gemm)));
  const testkit::GoldenOutcome outcome =
      testkit::check_golden(g_golden, "bench_gemm_schema", snap);
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

  // Exemplar BENCH_health.json (bench/health_bench.cpp): values arbitrary,
  // only the key-path set is pinned.
  obs::HealthBenchRow off;
  off.mode = "off";
  off.ticks = 40;
  off.results = 36;
  off.p50_us = 52.0;
  off.p95_us = 410.0;
  off.p99_us = 2200.0;
  obs::HealthBenchRow on = off;
  on.mode = "on";
  on.p50_us = 52.5;
  const std::string bench = obs::health_bench_json(5, 40, {off, on}, 0.9, true,
                                                   "healthy", 0, 17);

  testkit::Snapshot snap;
  snap.add(testkit::summarize_json_schema("health.snapshot_schema",
                                          obs::json::parse(snapshot_json)));
  snap.add(testkit::summarize_json_schema("bench.health_schema",
                                          obs::json::parse(bench)));
  const testkit::GoldenOutcome outcome =
      testkit::check_golden(g_golden, "bench_health_schema", snap);
  if (outcome.updated) std::cout << outcome.message;
  EXPECT_TRUE(outcome.ok) << outcome.message;
}

TEST(GoldenSnapshot, ClusterBenchSchemaMatchesGolden) {
  // Exemplar BENCH_cluster.json (bench/cluster_bench.cpp): the key-path set
  // of the crash-tolerance artifact, values arbitrary.
  obs::ClusterSweepCell cell;
  cell.workers = 2;
  cell.frames = 540;
  cell.results = 9;
  cell.rpc_calls = 730;
  cell.rpc_attempts = 730;
  cell.checkpoints = 22;
  cell.ms = 880.0;
  cell.bitwise_vs_single = true;
  obs::ClusterFailoverSummary failover;
  failover.measured = true;
  failover.workers = 2;
  failover.evictions = 1;
  failover.migrations = 2;
  failover.respawns = 1;
  failover.results = 9;
  failover.shed = 0;
  failover.ms = 950.0;
  failover.bitwise_identical = true;
  const std::string bench =
      obs::cluster_bench_json(3, {1, 2, 3}, {obs::ClusterSweepCell{}, cell}, failover);

  testkit::Snapshot snap;
  snap.add(testkit::summarize_json_schema("bench.cluster_schema",
                                          obs::json::parse(bench)));
  const testkit::GoldenOutcome outcome =
      testkit::check_golden(g_golden, "bench_cluster_schema", snap);
  if (outcome.updated) std::cout << outcome.message;
  EXPECT_TRUE(outcome.ok) << outcome.message;
}

TEST(GoldenSnapshot, EnrollBenchSchemaMatchesGolden) {
  // Exemplar BENCH_enroll.json (bench/enroll_bench.cpp): the key-path set of
  // the enrollment-as-a-service artifact, values arbitrary.
  obs::EnrollOpenSetRow before;
  before.phase = "before";
  before.eer = 0.21;
  before.threshold = 2.4;
  before.genuine_accept = 0.95;
  before.newcomer_reject = 0.88;
  obs::EnrollOpenSetRow after = before;
  after.phase = "after";
  after.eer = 0.04;
  after.newcomer_reject = 0.1;
  obs::EnrollServeSummary serve;
  serve.ticks = 160;
  serve.results = 9;
  serve.expected_results = 9;
  serve.novelty_rejections = 6;
  serve.candidates_founded = 1;
  serve.fine_tunes = 1;
  serve.users_enrolled = 1;
  serve.published_version = 2;
  obs::EnrollLatencySummary to_live;
  to_live.count = 1;
  to_live.p50_ms = 850.0;
  to_live.p95_ms = 850.0;
  to_live.p99_ms = 850.0;
  const std::string bench = obs::enroll_bench_json(4, 4, {before, after}, serve, to_live);

  testkit::Snapshot snap;
  snap.add(testkit::summarize_json_schema("bench.enroll_schema",
                                          obs::json::parse(bench)));
  const testkit::GoldenOutcome outcome =
      testkit::check_golden(g_golden, "bench_enroll_schema", snap);
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
