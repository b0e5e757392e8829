// gp::health tests (DESIGN.md §10): GP_SLO spec parsing + verdict
// hysteresis, the rolling tick-window SLI aggregator, and the serve-level
// acceptance bar from ISSUE 7 — bitwise-identical ServeResults with health
// on or off across thread counts, a seeded fault storm flipping the verdict
// degraded and back with hysteresis, a p99 exemplar naming the injected
// slow stage, the flight-recorder dump parsing back in order, and the
// steady-tick zero-alloc invariant holding with health fully enabled.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/mem.hpp"
#include "datasets/catalog.hpp"
#include "eval/splits.hpp"
#include "exec/exec.hpp"
#include "faults/faults.hpp"
#include "health/flightrec.hpp"
#include "health/health.hpp"
#include "health/slo.hpp"
#include "obs/json.hpp"
#include "serve/server.hpp"
#include "system/gestureprint.hpp"

namespace gp {
namespace {

// ---- GP_SLO spec grammar --------------------------------------------------

TEST(Slo, ParseAndRoundTrip) {
  const health::SloSpec spec = health::SloSpec::parse(
      "p99_ms<5, shed_rate<0.05, batch_occupancy>0.1,"
      "window=256t, degraded_after=3, unhealthy_after=10, healthy_after=4");
  ASSERT_EQ(spec.clauses.size(), 3u);
  EXPECT_EQ(spec.clauses[0].metric, health::SliMetric::kP99Ms);
  EXPECT_TRUE(spec.clauses[0].upper_bound);
  EXPECT_EQ(spec.clauses[0].threshold, 5.0);
  EXPECT_EQ(spec.clauses[1].metric, health::SliMetric::kShedRate);
  EXPECT_EQ(spec.clauses[2].metric, health::SliMetric::kBatchOccupancy);
  EXPECT_FALSE(spec.clauses[2].upper_bound);  // '>' = lower bound
  EXPECT_EQ(spec.window_ticks, 256u);
  EXPECT_EQ(spec.degraded_after, 3u);
  EXPECT_EQ(spec.unhealthy_after, 10u);
  EXPECT_EQ(spec.healthy_after, 4u);

  // Canonical form is a fixed point: parse(to_string()) round-trips.
  const health::SloSpec reparsed = health::SloSpec::parse(spec.to_string());
  EXPECT_EQ(reparsed.to_string(), spec.to_string());
}

TEST(Slo, ParseRejectsMalformedSpecs) {
  EXPECT_THROW((void)health::SloSpec::parse(""), InvalidArgument);
  EXPECT_THROW((void)health::SloSpec::parse("window=64t"), InvalidArgument);  // no clause
  EXPECT_THROW((void)health::SloSpec::parse("bogus_metric<1"), InvalidArgument);
  EXPECT_THROW((void)health::SloSpec::parse("p99_ms<"), InvalidArgument);
  EXPECT_THROW((void)health::SloSpec::parse("p99_ms<nope"), InvalidArgument);
  EXPECT_THROW((void)health::SloSpec::parse("p99_ms<-1"), InvalidArgument);
  EXPECT_THROW((void)health::SloSpec::parse("p99_ms<5,window=64"), InvalidArgument);  // no 't'
  EXPECT_THROW((void)health::SloSpec::parse("p99_ms<5,frobnicate=3"), InvalidArgument);
  EXPECT_THROW((void)health::SloSpec::parse("p99_ms<5,degraded_after=0"), InvalidArgument);
  // Hysteresis ordering: degraded must come before unhealthy.
  EXPECT_THROW((void)health::SloSpec::parse("p99_ms<5,degraded_after=5,unhealthy_after=2"),
               InvalidArgument);
}

TEST(Slo, VerdictTrackerHysteresis) {
  health::SloSpec spec;
  spec.degraded_after = 2;
  spec.unhealthy_after = 4;
  spec.healthy_after = 2;
  health::VerdictTracker tracker(spec);
  EXPECT_EQ(tracker.verdict(), health::Verdict::kHealthy);

  // One breach is noise; the second flips healthy → degraded.
  EXPECT_FALSE(tracker.evaluate(true));
  EXPECT_EQ(tracker.verdict(), health::Verdict::kHealthy);
  EXPECT_TRUE(tracker.evaluate(true));
  EXPECT_EQ(tracker.verdict(), health::Verdict::kDegraded);
  EXPECT_EQ(tracker.flips(), 1u);

  // The flip consumed the streak: degraded → unhealthy needs
  // unhealthy_after *fresh* breaches, not unhealthy_after − degraded_after.
  EXPECT_FALSE(tracker.evaluate(true));
  EXPECT_FALSE(tracker.evaluate(true));
  EXPECT_FALSE(tracker.evaluate(true));
  EXPECT_TRUE(tracker.evaluate(true));
  EXPECT_EQ(tracker.verdict(), health::Verdict::kUnhealthy);

  // Recovery needs healthy_after *consecutive* clean windows: a breach in
  // the middle resets the clean streak.
  EXPECT_FALSE(tracker.evaluate(false));
  EXPECT_FALSE(tracker.evaluate(true));
  EXPECT_FALSE(tracker.evaluate(false));
  EXPECT_TRUE(tracker.evaluate(false));
  EXPECT_EQ(tracker.verdict(), health::Verdict::kHealthy);
  EXPECT_EQ(tracker.flips(), 3u);
}

TEST(Slo, VerdictCanJumpStraightToUnhealthy) {
  health::SloSpec spec;
  spec.degraded_after = 1;
  spec.unhealthy_after = 1;  // one windowful bad enough to skip degraded
  spec.healthy_after = 1;
  health::VerdictTracker tracker(spec);
  EXPECT_TRUE(tracker.evaluate(true));
  EXPECT_EQ(tracker.verdict(), health::Verdict::kUnhealthy);
  EXPECT_TRUE(tracker.evaluate(false));
  EXPECT_EQ(tracker.verdict(), health::Verdict::kHealthy);
}

// ---- tick ring / window aggregation ---------------------------------------

TEST(Health, LatencyBucketsAreMonotonic) {
  EXPECT_EQ(health::latency_bucket(0), 0u);
  EXPECT_EQ(health::latency_bucket(1), 1u);
  EXPECT_EQ(health::latency_bucket(2), 2u);
  EXPECT_EQ(health::latency_bucket(3), 2u);
  std::size_t prev = 0;
  for (std::uint64_t us = 0; us < (1ULL << 20); us = us * 2 + 1) {
    const std::size_t b = health::latency_bucket(us);
    EXPECT_GE(b, prev);
    EXPECT_LT(b, health::kLatencyBuckets);
    prev = b;
  }
  // Saturation: absurd latencies land in the last bucket, never out of range.
  EXPECT_EQ(health::latency_bucket(~0ULL), health::kLatencyBuckets - 1);
}

health::RequestSample make_sample(std::uint64_t session, std::uint64_t ordinal,
                                  std::uint64_t total_us) {
  health::RequestSample s;
  s.request_id = session * 1000 + ordinal;
  s.session_id = session;
  s.ordinal = ordinal;
  s.total_us = total_us;
  s.stage_us[static_cast<std::size_t>(health::Stage::kForward)] = total_us;
  return s;
}

// Drives a HealthMonitor directly through two ticks and checks the rolling
// window: counts, rates (zero-denominator rates are 0), occupancy, version
// mix, eviction when cells leave the window, and the verdict lifecycle.
TEST(Health, WindowAggregationAndVerdictLifecycle) {
  health::HealthConfig config;
  config.flightrec = false;
  config.slo = health::SloSpec::parse(
      "abstain_rate<0.2,window=2t,degraded_after=1,unhealthy_after=8,healthy_after=2");
  health::HealthMonitor monitor(config, /*batch_max=*/8);
  ASSERT_TRUE(monitor.enabled());

  // Fresh monitor: every rate must be 0 (no division by a zero denominator).
  {
    const health::HealthSnapshot snap = monitor.snapshot();
    EXPECT_EQ(snap.slo_window.ticks, 0u);
    EXPECT_EQ(snap.slo_window.shed_rate, 0.0);
    EXPECT_EQ(snap.slo_window.abstain_rate, 0.0);
    EXPECT_EQ(snap.slo_window.batch_occupancy, 0.0);
    EXPECT_FALSE(snap.has_exemplar);
  }

  // Tick 1: 4 admitted + 1 rejected, 4 results (1 abstain, 1 quality
  // reject), one 4-segment batch from model version 7.
  health::EventCounts tick1;
  tick1.frames_admitted = 4;
  tick1.frames_rejected = 1;
  tick1.segments = 4;
  tick1.abstained = 1;
  tick1.quality_rejected = 1;
  tick1.batches = 1;
  monitor.record_request(make_sample(1, 0, 100), 7);
  monitor.record_request(make_sample(1, 1, 200), 7);
  monitor.record_request(make_sample(2, 0, 400), 7);
  monitor.record_request(make_sample(2, 1, 800), 7);
  monitor.record_batch(4, 7);
  monitor.close_tick(1, tick1);

  {
    const health::HealthSnapshot snap = monitor.snapshot();
    EXPECT_EQ(snap.ticks_closed, 1u);
    EXPECT_EQ(snap.slo_window.ticks, 1u);
    EXPECT_EQ(snap.slo_window.counts.frames_admitted, 4u);
    EXPECT_EQ(snap.slo_window.counts.frames_rejected, 1u);
    EXPECT_EQ(snap.slo_window.counts.segments, 4u);
    EXPECT_EQ(snap.slo_window.counts.abstained, 1u);
    EXPECT_EQ(snap.slo_window.counts.quality_rejected, 1u);
    EXPECT_EQ(snap.slo_window.counts.batches, 1u);
    EXPECT_DOUBLE_EQ(snap.slo_window.shed_rate, 1.0 / 5.0);
    EXPECT_DOUBLE_EQ(snap.slo_window.abstain_rate, 0.25);
    EXPECT_DOUBLE_EQ(snap.slo_window.batch_occupancy, 4.0 / 8.0);
    ASSERT_EQ(snap.slo_window.version_mix.size(), 1u);
    EXPECT_EQ(snap.slo_window.version_mix[0].version, 7u);
    EXPECT_EQ(snap.slo_window.version_mix[0].count, 4u);
    // Power-of-two buckets: the median of {100,200,400,800} interpolates
    // somewhere inside [64µs, 512µs] — ±2x resolution by design.
    EXPECT_GE(snap.slo_window.p50_ms, 0.064);
    EXPECT_LE(snap.slo_window.p50_ms, 0.512);
    // Exemplar: the slowest request of the window.
    ASSERT_TRUE(snap.has_exemplar);
    EXPECT_EQ(snap.exemplar.sample.total_us, 800u);
    EXPECT_EQ(snap.exemplar.sample.session_id, 2u);
    // abstain_rate 0.25 >= 0.2 with degraded_after=1: degraded immediately.
    EXPECT_EQ(snap.verdict, health::Verdict::kDegraded);
    EXPECT_EQ(snap.verdict_flips, 1u);
    EXPECT_GE(snap.breaches_total, 1u);
  }

  // Tick 2 is empty — but the 2-tick window still holds tick 1, so the
  // abstain clause still breaches. Ticks 3–4 evict it; two clean
  // evaluations recover the verdict.
  monitor.close_tick(2, {});
  EXPECT_EQ(monitor.verdict(), health::Verdict::kDegraded);
  monitor.close_tick(3, {});
  EXPECT_EQ(monitor.verdict(), health::Verdict::kDegraded);  // clean streak 1
  monitor.close_tick(4, {});
  EXPECT_EQ(monitor.verdict(), health::Verdict::kHealthy);
  EXPECT_EQ(monitor.verdict_flips(), 2u);

  const health::HealthSnapshot snap = monitor.snapshot();
  EXPECT_EQ(snap.slo_window.ticks, 2u);
  EXPECT_EQ(snap.slo_window.counts.segments, 0u);  // tick 1 left the window
  EXPECT_EQ(snap.slo_window.abstain_rate, 0.0);
}

TEST(Health, DisabledMonitorIsInert) {
  health::HealthConfig config;
  config.enabled = false;
  health::HealthMonitor monitor(config, 8);
  EXPECT_FALSE(monitor.enabled());
  health::EventCounts counts;
  counts.frames_admitted = 1;
  counts.segments = 1;
  counts.batches = 1;
  monitor.record_request(make_sample(1, 0, 100), 1);
  monitor.record_batch(1, 1);
  monitor.close_tick(1, counts);
  EXPECT_EQ(monitor.ticks_closed(), 0u);
  const health::HealthSnapshot snap = monitor.snapshot();
  EXPECT_FALSE(snap.enabled);
  EXPECT_EQ(snap.slo_window.counts.segments, 0u);
}

// ---- flight recorder ------------------------------------------------------

void string_sink(void* ctx, const char* data, std::size_t len) {
  static_cast<std::string*>(ctx)->append(data, len);
}

TEST(FlightRec, DumpParsesBackInOrderAcrossWrap) {
  health::FlightRecorder rec(64);
  // 100 marks into a 64-slot ring: the dump must hold exactly the newest 64
  // in recording order.
  for (std::uint64_t i = 0; i < 100; ++i) {
    rec.record(health::EventKind::kMark, /*tick=*/i, /*a=*/i, /*b=*/2 * i, /*c=*/3 * i);
  }
  EXPECT_EQ(rec.total(), 100u);
  EXPECT_EQ(rec.capacity(), 64u);

  std::ostringstream out;
  rec.dump_json(out);
  const obs::json::Value doc = obs::json::parse(out.str());
  const obs::json::Value& fr = doc.at("flight_recorder");
  EXPECT_EQ(fr.at("capacity").num, 64.0);
  EXPECT_EQ(fr.at("total").num, 100.0);
  const obs::json::Value& events = fr.at("events");
  ASSERT_TRUE(events.is_array());
  ASSERT_EQ(events.arr.size(), 64u);
  double prev_ns = 0.0;
  for (std::size_t i = 0; i < events.arr.size(); ++i) {
    const obs::json::Value& ev = events.arr[i];
    EXPECT_EQ(ev.at("kind").str, "mark");
    // Oldest surviving mark is #36 (100 − 64); order is recording order.
    EXPECT_EQ(ev.at("a").num, static_cast<double>(36 + i));
    EXPECT_EQ(ev.at("b").num, 2.0 * (36 + i));
    EXPECT_GE(ev.at("ns").num, prev_ns);  // single-threaded: ns non-decreasing
    prev_ns = ev.at("ns").num;
  }

  // snapshot() agrees with the dump.
  const std::vector<health::FlightEvent> snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 64u);
  EXPECT_EQ(snap.front().a, 36u);
  EXPECT_EQ(snap.back().a, 99u);

  // The async-signal-safe sink path emits byte-identical JSON.
  std::string sunk;
  rec.dump_with_sink(&string_sink, &sunk);
  EXPECT_EQ(sunk, out.str());

  // Disabled recorder records nothing (one branch, no cursor motion).
  rec.set_enabled(false);
  rec.record(health::EventKind::kMark, 0, 12345);
  EXPECT_EQ(rec.total(), 100u);
}

// ---- serve-level acceptance bar -------------------------------------------

/// Shared world (test_serve idiom): one small trained system + per-session
/// recordings, built once for the binary.
struct HealthWorld {
  GesturePrintConfig config;
  std::string model_path;
  DatasetSpec spec;
  std::vector<ContinuousRecording> streams;
};

const HealthWorld& world() {
  static const HealthWorld* w = [] {
    auto* out = new HealthWorld();
    DatasetScale scale;
    scale.max_users = 3;
    scale.reps = 6;
    out->spec = gestureprint_spec(1, scale);
    out->spec.gestures.resize(3);
    const Dataset dataset = generate_dataset(out->spec);

    out->config.training.epochs = 4;
    out->config.training.batch_size = 16;
    out->config.prep.augmentation.copies = 2;
    out->config.abstain_margin = 0.05;

    GesturePrintSystem system(out->config);
    Rng split_rng(3, 1);
    system.fit(dataset, stratified_split(dataset.gesture_labels(), 0.2, split_rng).train);
    out->model_path = testing::TempDir() + "gp_health_model.gpsy";
    system.save(out->model_path);

    const std::vector<std::vector<int>> scripts{{0, 2, 1}, {1, 0, 2}, {2, 1, 0}};
    for (std::size_t s = 0; s < scripts.size(); ++s) {
      out->streams.push_back(generate_recording(out->spec, s % out->spec.num_users,
                                                scripts[s], 0x4EA17 + s));
    }
    return out;
  }();
  return *w;
}

serve::ServeConfig base_config() {
  serve::ServeConfig sc;
  sc.system = world().config;
  sc.shards = 2;
  sc.batch_wait_us = 0;  // flush every pump: deterministic batching
  return sc;
}

/// Interleaves every stream frame-by-frame through a fresh Server; returns
/// results sorted by (session, ordinal).
std::vector<serve::ServeResult> run_stream(const serve::ServeConfig& sc,
                                           serve::ModelRegistry& registry,
                                           exec::ExecContext& ctx) {
  serve::Server server(sc, registry, ctx);
  const auto& streams = world().streams;
  std::size_t max_frames = 0;
  for (const ContinuousRecording& r : streams) {
    max_frames = std::max(max_frames, r.frames.size());
  }
  std::vector<serve::ServeResult> results;
  for (std::size_t f = 0; f < max_frames; ++f) {
    for (std::size_t i = 0; i < streams.size(); ++i) {
      if (f >= streams[i].frames.size()) continue;
      EXPECT_EQ(server.push_frame(static_cast<std::uint64_t>(i + 1), streams[i].frames[f]),
                serve::Admission::kAccepted);
    }
    for (serve::ServeResult& r : server.pump()) results.push_back(std::move(r));
  }
  for (serve::ServeResult& r : server.drain()) results.push_back(std::move(r));
  std::sort(results.begin(), results.end(), [](const auto& a, const auto& b) {
    return a.session_id != b.session_id ? a.session_id < b.session_id
                                        : a.segment_ordinal < b.segment_ordinal;
  });
  return results;
}

void expect_bitwise_equal(const std::vector<serve::ServeResult>& a,
                          const std::vector<serve::ServeResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].session_id, b[i].session_id);
    EXPECT_EQ(a[i].segment_ordinal, b[i].segment_ordinal);
    EXPECT_EQ(a[i].request_id, b[i].request_id);  // pure fn of the stream
    EXPECT_EQ(a[i].gesture, b[i].gesture);
    EXPECT_EQ(a[i].user, b[i].user);
    EXPECT_EQ(a[i].abstained, b[i].abstained);
    EXPECT_EQ(a[i].quality_rejected, b[i].quality_rejected);
    EXPECT_EQ(a[i].gesture_margin, b[i].gesture_margin);  // bitwise doubles
    EXPECT_EQ(a[i].user_margin, b[i].user_margin);
    EXPECT_EQ(a[i].model_version, b[i].model_version);
  }
}

// THE acceptance bar: health observes the serve stack, it never feeds
// results. ServeResults must be bitwise identical with health fully off vs
// fully on (SLO + flight recorder), for GP_THREADS in {1, 4}.
TEST(HealthServe, ResultsBitwiseIdenticalHealthOnOff) {
  serve::ModelRegistry registry(world().config);
  ASSERT_TRUE(registry.publish_file(world().model_path).has_value());

  serve::ServeConfig off = base_config();
  off.health.enabled = false;
  off.health.flightrec = false;
  serve::ServeConfig on = base_config();
  on.health.enabled = true;
  on.health.flightrec = true;
  on.health.slo = health::SloSpec::parse("p99_ms<1000,shed_rate<0.5,window=64t");

  std::vector<serve::ServeResult> reference;
  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    for (const serve::ServeConfig* sc : {&off, &on}) {
      exec::ExecContext ctx(threads);
      auto results = run_stream(*sc, registry, ctx);
      ASSERT_GE(results.size(), world().streams.size());
      for (const serve::ServeResult& r : results) {
        EXPECT_NE(r.request_id, 0u);  // RequestId minted for every result
      }
      if (reference.empty()) {
        reference = std::move(results);
      } else {
        SCOPED_TRACE("threads=" + std::to_string(threads) +
                     " health=" + (sc->health.enabled ? "on" : "off"));
        expect_bitwise_equal(reference, results);
      }
    }
  }
}

// A seeded fault storm (every session behind a severity-1.0 degraded link)
// must flip the verdict healthy → degraded via the fault_rate clause, and
// quiet ticks must recover it healthy → with hysteresis, not instantly.
TEST(HealthServe, FaultStormFlipsVerdictAndRecoversWithHysteresis) {
  serve::ModelRegistry registry(world().config);
  ASSERT_TRUE(registry.publish_file(world().model_path).has_value());

  serve::ServeConfig sc = base_config();
  sc.session_faults = faults::FaultConfig::mixed(1.0);
  sc.health.slo = health::SloSpec::parse(
      "fault_rate<0.01,window=16t,degraded_after=2,unhealthy_after=1000,healthy_after=3");
  exec::ExecContext ctx(2);
  serve::Server server(sc, registry, ctx);

  // Storm phase: stream everything through the degraded links.
  const auto& streams = world().streams;
  std::size_t max_frames = 0;
  for (const ContinuousRecording& r : streams) {
    max_frames = std::max(max_frames, r.frames.size());
  }
  for (std::size_t f = 0; f < max_frames; ++f) {
    for (std::size_t i = 0; i < streams.size(); ++i) {
      if (f >= streams[i].frames.size()) continue;
      (void)server.push_frame(static_cast<std::uint64_t>(i + 1), streams[i].frames[f]);
    }
    (void)server.pump();
  }
  {
    const health::HealthSnapshot snap = server.health_snapshot();
    EXPECT_GT(snap.slo_window.counts.fault_drops, 0u) << "storm produced no fault drops";
    EXPECT_GT(snap.slo_window.fault_rate, 0.0);
    EXPECT_EQ(snap.verdict, health::Verdict::kDegraded);
    EXPECT_EQ(snap.verdict_flips, 1u);
    EXPECT_GE(snap.breaches_total, 2u);
  }

  // One quiet tick is not enough: the 16-tick window still holds storm
  // cells, so the clause still breaches — that is the hysteresis.
  (void)server.pump();
  EXPECT_EQ(server.health().verdict(), health::Verdict::kDegraded);

  // Quiet ticks drain the window (fault_rate has a zero denominator → 0),
  // then healthy_after clean evaluations recover the verdict.
  std::size_t quiet = 1;
  for (; quiet < 64 && server.health().verdict() != health::Verdict::kHealthy; ++quiet) {
    (void)server.pump();
  }
  EXPECT_EQ(server.health().verdict(), health::Verdict::kHealthy);
  EXPECT_GE(quiet, sc.health.slo->healthy_after);  // never an instant flip
  EXPECT_EQ(server.health().verdict_flips(), 2u);
}

// The debug_slow_stage hook inflates the *recorded* breakdown of every
// request (results untouched — covered by the bitwise test above); the p99
// exemplar must name that stage in the snapshot and the Chrome trace.
TEST(HealthServe, ExemplarNamesInjectedSlowStage) {
  serve::ModelRegistry registry(world().config);
  ASSERT_TRUE(registry.publish_file(world().model_path).has_value());

  serve::ServeConfig sc = base_config();
  sc.health.slo = health::SloSpec::parse("p99_ms<1000,window=64t");
  sc.health.debug_slow_stage = static_cast<int>(health::Stage::kForward);
  sc.health.debug_slow_us = 7'000'000;  // 7 s: dwarfs every real stage
  exec::ExecContext ctx(2);
  serve::Server server(sc, registry, ctx);

  const auto& streams = world().streams;
  std::size_t max_frames = 0;
  for (const ContinuousRecording& r : streams) {
    max_frames = std::max(max_frames, r.frames.size());
  }
  std::size_t results = 0;
  for (std::size_t f = 0; f < max_frames; ++f) {
    for (std::size_t i = 0; i < streams.size(); ++i) {
      if (f >= streams[i].frames.size()) continue;
      (void)server.push_frame(static_cast<std::uint64_t>(i + 1), streams[i].frames[f]);
    }
    results += server.pump().size();
  }
  results += server.drain().size();
  ASSERT_GT(results, 0u);

  const health::HealthSnapshot snap = server.health_snapshot();
  ASSERT_TRUE(snap.has_exemplar);
  EXPECT_EQ(snap.exemplar.sample.slowest_stage(), health::Stage::kForward);
  EXPECT_GE(snap.exemplar.sample.stage_us[static_cast<std::size_t>(health::Stage::kForward)],
            sc.health.debug_slow_us);
  EXPECT_NE(snap.exemplar.sample.request_id, 0u);
  EXPECT_STREQ(health::stage_name(snap.exemplar.sample.slowest_stage()), "forward");

  // The snapshot JSON names the stage...
  EXPECT_NE(snap.to_json().find("\"slowest_stage\": \"forward\""), std::string::npos);

  // ...and the exemplar Chrome trace carries a req.forward span whose
  // duration is the inflated stage time.
  const std::string trace = server.health().exemplar_trace_json();
  EXPECT_NE(trace.find("\"req.forward\""), std::string::npos);
  const obs::json::Value doc = obs::json::parse(trace);
  const obs::json::Value& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  bool found_slow_forward = false;
  for (const obs::json::Value& ev : events.arr) {
    if (ev.at("ph").str != "X") continue;
    if (ev.at("name").str == "req.forward" &&
        ev.at("dur").num >= static_cast<double>(sc.health.debug_slow_us)) {
      found_slow_forward = true;
    }
  }
  EXPECT_TRUE(found_slow_forward);
}

// health_snapshot() JSON parses back with the documented section shape.
TEST(HealthServe, SnapshotJsonParsesBack) {
  serve::ModelRegistry registry(world().config);
  ASSERT_TRUE(registry.publish_file(world().model_path).has_value());

  serve::ServeConfig sc = base_config();
  sc.health.slo = health::SloSpec::parse("p99_ms<1000,abstain_rate<0.9,window=32t");
  exec::ExecContext ctx(1);
  serve::Server server(sc, registry, ctx);
  for (std::size_t f = 0; f < world().streams[0].frames.size(); ++f) {
    (void)server.push_frame(1, world().streams[0].frames[f]);
    (void)server.pump();
  }
  (void)server.drain();

  const health::HealthSnapshot snap = server.health_snapshot();
  const obs::json::Value doc = obs::json::parse(snap.to_json());
  const obs::json::Value& h = doc.at("health");
  EXPECT_TRUE(h.at("enabled").boolean);
  EXPECT_EQ(h.at("ticks_closed").num, static_cast<double>(snap.ticks_closed));
  const obs::json::Value& slo = h.at("slo");
  EXPECT_TRUE(slo.at("present").boolean);
  EXPECT_EQ(slo.at("verdict").str, health::verdict_name(snap.verdict));
  // Round-trip: the emitted spec string re-parses to the same canonical form.
  EXPECT_EQ(health::SloSpec::parse(slo.at("spec").str).to_string(), slo.at("spec").str);
  const obs::json::Value& windows = h.at("windows");
  ASSERT_TRUE(windows.is_array());
  ASSERT_EQ(windows.arr.size(), 4u);  // slo + 1s/10s/60s
  EXPECT_EQ(windows.arr[0].at("window").str, "slo");
  EXPECT_EQ(windows.arr[1].at("window").str, "1s");
  for (const obs::json::Value& w : windows.arr) {
    EXPECT_TRUE(w.at("p99_ms").is_number());
    EXPECT_TRUE(w.at("fault_rate").is_number());
    EXPECT_TRUE(w.at("version_mix").is_array());
  }
  EXPECT_TRUE(h.at("exemplar").at("present").boolean);
  EXPECT_TRUE(h.at("flightrec_events").is_number());
}

// The gp::mem steady-tick invariant (PR 6) must survive health fully
// enabled: rings preallocate, close_tick folds cells without touching the
// heap, and quiet ticks record no flight events.
TEST(HealthServe, ServeSteadyTickZeroAllocWithHealthEnabled) {
  serve::ModelRegistry registry(world().config);
  ASSERT_TRUE(registry.publish_file(world().model_path).has_value());

  serve::ServeConfig sc = base_config();
  sc.health.enabled = true;
  sc.health.flightrec = true;
  sc.health.slo = health::SloSpec::parse("p99_ms<1000,shed_rate<0.9,window=32t");
  exec::ExecContext ctx(1);  // single-threaded: the counter is process-global
  serve::Server server(sc, registry, ctx);

  const FrameSequence& frames = world().streams[0].frames;
  constexpr std::uint64_t kSessions = 2;

  // Warm-up: one full pass so every pool, arena, ring, and cached metric
  // handle reaches steady-state capacity.
  for (const FrameCloud& frame : frames) {
    for (std::uint64_t id = 1; id <= kSessions; ++id) {
      ASSERT_EQ(server.push_frame(id, frame), serve::Admission::kAccepted);
    }
    (void)server.pump();
  }

  // Steady ticks: replay the opening frames — gesture onset re-enters but
  // nothing completes. With health on this still must not allocate.
  const std::size_t quiet_ticks = std::min<std::size_t>(8, frames.size());
  const std::uint64_t ticks_before = server.health().ticks_closed();
  mem::AllocCounter counter;
  for (std::size_t f = 0; f < quiet_ticks; ++f) {
    for (std::uint64_t id = 1; id <= kSessions; ++id) {
      (void)server.push_frame(id, frames[f]);
    }
    const std::vector<serve::ServeResult> results = server.pump();
    ASSERT_TRUE(results.empty()) << "tick " << f << " completed a segment; "
                                    "the quiet-tick premise broke";
  }
  EXPECT_EQ(counter.allocations(), 0u)
      << "health-enabled steady tick touched the heap (" << counter.bytes() << " bytes)";
  EXPECT_EQ(server.health().ticks_closed(), ticks_before + quiet_ticks);
}

}  // namespace
}  // namespace gp
