// gp::obs tests: metric exactness under thread contention, span nesting,
// trace export well-formedness (the emitted JSON is parsed back with the
// in-tree parser), the BENCH_*.json document (obs::BenchDoc) round trip and
// its refusals, disabled-mode overhead sanity, and the determinism
// contract (instrumentation must never perturb model numerics).
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "gesidnet/batch.hpp"
#include "gesidnet/gesidnet.hpp"
#include "gesidnet/trainer.hpp"
#include "common/error.hpp"
#include "exec/exec.hpp"
#include "nn/tensor.hpp"
#include "obs/bench_json.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gp {
namespace {

/// Restores the global metrics/trace switches on scope exit so tests can
/// toggle them freely without leaking state into other tests.
struct ObsSwitchGuard {
  bool metrics = obs::metrics_enabled();
  bool trace = obs::trace_enabled();
  ~ObsSwitchGuard() {
    obs::set_metrics_enabled(metrics);
    obs::set_trace_enabled(trace);
  }
};

// ----------------------------------------------------------------- metrics

TEST(ObsMetrics, CounterExactUnderContention) {
  ObsSwitchGuard guard;
  obs::set_metrics_enabled(true);
  obs::Counter& counter = obs::counter("gp.test.contended_counter");
  counter.reset();

  constexpr int kThreads = 8;
  constexpr std::uint64_t kPerThread = 100000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) counter.add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.value(), kThreads * kPerThread);
}

TEST(ObsMetrics, HistogramExactMomentsUnderContention) {
  ObsSwitchGuard guard;
  obs::set_metrics_enabled(true);
  obs::Histogram& hist = obs::histogram("gp.test.contended_histogram");
  hist.reset();

  // Every thread observes the same integer-valued sequence: count, sum, min
  // and max all have exact expected values regardless of interleaving
  // (integer-valued doubles sum exactly at these magnitudes).
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist] {
      for (int i = 0; i < kPerThread; ++i) hist.observe(static_cast<double>(1 + i % 100));
    });
  }
  for (auto& thread : threads) thread.join();

  const obs::HistogramSnapshot snap = hist.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_DOUBLE_EQ(snap.min, 1.0);
  EXPECT_DOUBLE_EQ(snap.max, 100.0);
  // Per thread: 200 full cycles of 1..100 -> 200 * 5050.
  EXPECT_DOUBLE_EQ(snap.sum, static_cast<double>(kThreads) * 200.0 * 5050.0);

  std::uint64_t bucket_total = 0;
  for (const std::uint64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, snap.count);
}

TEST(ObsMetrics, QuantileWithinBucketResolution) {
  ObsSwitchGuard guard;
  obs::set_metrics_enabled(true);
  obs::Histogram& hist = obs::histogram("gp.test.quantile_histogram");
  hist.reset();

  for (int i = 1; i <= 1000; ++i) hist.observe(static_cast<double>(i));
  const obs::HistogramSnapshot snap = hist.snapshot();

  // Geometric buckets with growth 1.2 bound the relative error by ~20%.
  EXPECT_NEAR(snap.quantile(0.5), 500.0, 0.2 * 500.0);
  EXPECT_NEAR(snap.quantile(0.95), 950.0, 0.2 * 950.0);
  EXPECT_NEAR(snap.quantile(0.99), 990.0, 0.2 * 990.0);
  // Estimates are clamped to the observed range.
  EXPECT_GE(snap.quantile(0.0), snap.min);
  EXPECT_LE(snap.quantile(1.0), snap.max);
}

TEST(ObsMetrics, DisabledRecordingIsDropped) {
  ObsSwitchGuard guard;
  obs::Counter& counter = obs::counter("gp.test.disabled_counter");
  counter.reset();
  obs::set_metrics_enabled(false);
  counter.add(42);
  obs::set_metrics_enabled(true);
  EXPECT_EQ(counter.value(), 0u);
  counter.add(1);
  EXPECT_EQ(counter.value(), 1u);
}

TEST(ObsMetrics, RegistryJsonParsesBack) {
  ObsSwitchGuard guard;
  obs::set_metrics_enabled(true);
  obs::counter("gp.test.json_counter").add(3);
  obs::gauge("gp.test.json_gauge").set(2.5);
  obs::histogram("gp.test.json_histogram").observe(1.25);

  std::ostringstream out;
  obs::Registry::global().to_json(out, 2);
  const obs::json::Value doc = obs::json::parse(out.str());
  ASSERT_TRUE(doc.is_object());
  const obs::json::Value& counters = doc.at("counters");
  ASSERT_TRUE(counters.is_object());
  ASSERT_NE(counters.find("gp.test.json_counter"), nullptr);
  EXPECT_GE(counters.at("gp.test.json_counter").num, 3.0);
  const obs::json::Value& hist = doc.at("histograms").at("gp.test.json_histogram");
  EXPECT_GE(hist.at("count").num, 1.0);
  EXPECT_GT(hist.at("p50").num, 0.0);
}

// ---------------------------------------------------------- bench document

TEST(ObsBenchDoc, JsonParsesBackWithHeaderAndMetricsInOrder) {
  obs::BenchDoc doc("unit", 3);
  const std::vector<std::tuple<std::string, std::string, double>> metrics{
      {"s8.b8.int8.ms", "ms", 0.1},
      {"a.count", "count", 12345678901.0},
      {"bitwise", "bool", 1.0},
      {"tiny", "ratio", -2.2250738585072014e-308},
      {"odd \"name\"", "x", 1.0 / 3.0},
  };
  for (const auto& [name, unit, value] : metrics) doc.add(name, unit, value);

  const obs::json::Value parsed = obs::json::parse(doc.json());
  ASSERT_TRUE(parsed.is_object());
  ASSERT_EQ(parsed.obj.size(), 3u);  // header and metrics, nothing else
  EXPECT_EQ(parsed.at("bench").str, "unit");
  const obs::json::Value& host = parsed.at("host");
  EXPECT_EQ(host.at("cores").num,
            static_cast<double>(std::max(1u, std::thread::hardware_concurrency())));
  EXPECT_EQ(host.at("threads").num, 3.0);

  const obs::json::Value& rows = parsed.at("metrics");
  ASSERT_EQ(rows.obj.size(), metrics.size());
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto& [name, unit, value] = metrics[i];
    EXPECT_EQ(rows.obj[i].first, name);
    EXPECT_EQ(rows.obj[i].second.at("unit").str, unit);
    EXPECT_EQ(rows.obj[i].second.at("value").num, value) << name;
  }
}

TEST(ObsBenchDoc, RefusesDuplicateAndNonFiniteMetrics) {
  obs::BenchDoc doc("unit", 1);
  doc.add("ms", "ms", 1.0);
  EXPECT_THROW(doc.add("ms", "ms", 2.0), InvalidArgument);
  EXPECT_THROW(doc.add("nan", "ms", std::nan("")), InvalidArgument);
  EXPECT_THROW(doc.add("inf", "ms", std::numeric_limits<double>::infinity()), InvalidArgument);
  EXPECT_THROW(doc.add("ninf", "ms", -std::numeric_limits<double>::infinity()),
               InvalidArgument);
  EXPECT_THROW(doc.add("unitless", "", 1.0), InvalidArgument);
  EXPECT_EQ(obs::json::parse(doc.json()).at("metrics").obj.size(), 1u);
}

TEST(ObsBenchDoc, WriteLandsInDirAndFailsLoudlyUnderAFile) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("gp_bench_doc_" + std::to_string(static_cast<long long>(::getpid())));
  std::filesystem::create_directories(dir);
  obs::BenchDoc doc("unit", 1);
  doc.add("ms", "ms", 1.0);

  const std::string path = doc.write(dir.string());
  EXPECT_EQ(path, (dir / "BENCH_unit.json").string());
  std::ifstream in(path, std::ios::binary);
  const std::string written((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
  EXPECT_EQ(written, doc.json());

  // A regular file where the directory should be: nothing can be written,
  // and write() must say so instead of claiming success.
  const std::filesystem::path file = dir / "not_a_dir";
  std::ofstream(file) << "x";
  try {
    doc.write(file.string());
    ADD_FAILURE() << "write() under a regular file did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find(file.string()), std::string::npos) << e.what();
  }
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------------- spans

TEST(ObsTrace, SpanNestingDepthsAndContainment) {
  ObsSwitchGuard guard;
  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);
  obs::clear_trace();

  {
    GP_SPAN("test.outer");
    {
      GP_SPAN("test.middle");
      {
        GP_SPAN("test.inner");
      }
    }
  }

  const std::vector<obs::TraceEvent> events = obs::collect_trace_events();
  const obs::TraceEvent* outer = nullptr;
  const obs::TraceEvent* middle = nullptr;
  const obs::TraceEvent* inner = nullptr;
  for (const auto& e : events) {
    if (std::string(e.name) == "test.outer") outer = &e;
    if (std::string(e.name) == "test.middle") middle = &e;
    if (std::string(e.name) == "test.inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(middle, nullptr);
  ASSERT_NE(inner, nullptr);

  EXPECT_EQ(outer->depth, 0);
  EXPECT_EQ(middle->depth, 1);
  EXPECT_EQ(inner->depth, 2);
  EXPECT_EQ(outer->tid, middle->tid);
  EXPECT_EQ(middle->tid, inner->tid);

  // Children are contained within their parents.
  EXPECT_GE(middle->start_ns, outer->start_ns);
  EXPECT_LE(middle->start_ns + middle->duration_ns, outer->start_ns + outer->duration_ns);
  EXPECT_GE(inner->start_ns, middle->start_ns);
  EXPECT_LE(inner->start_ns + inner->duration_ns, middle->start_ns + middle->duration_ns);
}

TEST(ObsTrace, SpansFromWorkerThreadsKeepTheirOwnBuffers) {
  ObsSwitchGuard guard;
  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);
  obs::clear_trace();

  constexpr int kThreads = 8;
  constexpr int kSpansEach = 50;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansEach; ++i) {
        GP_SPAN("test.worker_span");
      }
    });
  }
  for (auto& thread : threads) thread.join();

  // Events survive thread exit; all of them are collectable afterwards.
  std::size_t worker_events = 0;
  for (const auto& e : obs::collect_trace_events()) {
    if (std::string(e.name) == "test.worker_span") ++worker_events;
  }
  EXPECT_EQ(worker_events, static_cast<std::size_t>(kThreads) * kSpansEach);
}

TEST(ObsTrace, StageStatsRecordMinDepthAndDurations) {
  ObsSwitchGuard guard;
  obs::set_metrics_enabled(true);
  {
    GP_SPAN("test.stage_depth_outer");
    GP_SPAN("test.stage_depth_inner");
  }
  bool outer_seen = false;
  bool inner_seen = false;
  for (const auto& s : obs::stage_snapshots()) {
    if (s.name == "test.stage_depth_outer") {
      outer_seen = true;
      EXPECT_EQ(s.min_depth, 0);
      EXPECT_GE(s.histogram.count, 1u);
    }
    if (s.name == "test.stage_depth_inner") {
      inner_seen = true;
      EXPECT_EQ(s.min_depth, 1);
    }
  }
  EXPECT_TRUE(outer_seen);
  EXPECT_TRUE(inner_seen);
}

// Work fanned out to the pool nests under the span that fanned it out: a
// worker's spans open at the submitting thread's depth + 1, exactly like
// the caller's own share of the region, so lane spans never register as
// top-level (min-depth-0) stages beside their parent.
TEST(ObsTrace, PoolSpansNestUnderTheSubmittingSpan) {
  ObsSwitchGuard guard;
  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);
  obs::clear_trace();

  exec::ExecContext ctx(2);
  std::atomic<int> arrived{0};
  {
    GP_SPAN("test.pool_submit");
    // Each chunk waits for the other, so the worker must run one of them.
    ctx.run_chunks(2, [&arrived](std::size_t) {
      GP_SPAN("test.pool_lane");
      arrived.fetch_add(1);
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (arrived.load() < 2 && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
    });
  }
  ASSERT_EQ(arrived.load(), 2);

  std::vector<int> lane_tids;
  for (const auto& e : obs::collect_trace_events()) {
    if (std::string(e.name) == "test.pool_submit") {
      EXPECT_EQ(e.depth, 0);
    }
    if (std::string(e.name) == "test.pool_lane") {
      EXPECT_EQ(e.depth, 2) << "tid " << e.tid;  // submit 0 > exec.work 1 > lane 2
      lane_tids.push_back(e.tid);
    }
  }
  ASSERT_EQ(lane_tids.size(), 2u);
  EXPECT_NE(lane_tids[0], lane_tids[1]) << "both chunks ran on one thread";
  for (const auto& stage : obs::stage_snapshots()) {
    if (stage.name == "test.pool_lane") {
      EXPECT_EQ(stage.min_depth, 2);
    }
  }
  EXPECT_EQ(obs::span_depth(), 0);  // the caller's depth is restored
}

TEST(ObsTrace, ChromeTraceJsonIsWellFormed) {
  ObsSwitchGuard guard;
  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);
  obs::clear_trace();
  {
    GP_SPAN("test.export_outer");
    GP_SPAN("test.export_inner");
  }

  std::ostringstream out;
  obs::write_chrome_trace(out);
  const obs::json::Value doc = obs::json::parse(out.str());
  ASSERT_TRUE(doc.is_object());
  const obs::json::Value& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  ASSERT_GE(events.arr.size(), 2u);
  std::size_t span_events = 0;
  std::size_t metadata_events = 0;
  for (const auto& e : events.arr) {
    ASSERT_TRUE(e.is_object());
    EXPECT_TRUE(e.at("name").is_string());
    if (e.at("ph").str == "M") {
      // Process/thread-name metadata: args carries the label, no timestamps.
      EXPECT_TRUE(e.at("args").is_object());
      ++metadata_events;
      continue;
    }
    EXPECT_EQ(e.at("ph").str, "X");
    EXPECT_TRUE(e.at("ts").is_number());
    EXPECT_TRUE(e.at("dur").is_number());
    EXPECT_GE(e.at("dur").num, 0.0);
    EXPECT_TRUE(e.at("tid").is_number());
    ++span_events;
  }
  EXPECT_GE(span_events, 2u);
  EXPECT_GE(metadata_events, 1u);  // at least the process_name event
}

TEST(ObsTrace, ThreadNameMetadataAppearsInExport) {
  ObsSwitchGuard guard;
  obs::set_trace_enabled(true);
  obs::clear_trace();
  obs::set_thread_name("test.main");
  {
    GP_SPAN("test.named_thread");
  }

  std::ostringstream out;
  obs::write_chrome_trace(out);
  const obs::json::Value doc = obs::json::parse(out.str());
  const obs::json::Value& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());
  bool saw_name = false;
  for (const auto& e : events.arr) {
    if (e.at("ph").str != "M" || e.at("name").str != "thread_name") continue;
    if (e.at("args").at("name").str == "test.main") saw_name = true;
  }
  EXPECT_TRUE(saw_name);

  const auto names = obs::thread_names();
  bool listed = false;
  for (const auto& [tid, name] : names) {
    if (name == "test.main") listed = true;
  }
  EXPECT_TRUE(listed);
}

TEST(ObsTrace, RingBufferBoundsMemory) {
  ObsSwitchGuard guard;
  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);
  obs::clear_trace();
  const std::size_t cap = obs::trace_buffer_capacity();
  for (std::size_t i = 0; i < cap + 1000; ++i) {
    GP_SPAN("test.ring_overflow");
  }
  std::size_t count = 0;
  for (const auto& e : obs::collect_trace_events()) {
    if (std::string(e.name) == "test.ring_overflow") ++count;
  }
  EXPECT_EQ(count, cap);  // oldest events were overwritten, newest kept
}

// ---------------------------------------------------------------- overhead

TEST(ObsOverhead, DisabledSpanIsCheap) {
  ObsSwitchGuard guard;
  obs::set_metrics_enabled(false);
  obs::set_trace_enabled(false);

  constexpr int kIters = 1000000;
  const auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < kIters; ++i) {
    GP_SPAN("test.disabled_span");
  }
  const double ns_per_span =
      static_cast<double>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                              std::chrono::steady_clock::now() - t0)
                              .count()) /
      kIters;
  // Real cost is a few ns (one predicted branch); the bound is generous to
  // stay robust under sanitizers and loaded CI machines.
  EXPECT_LT(ns_per_span, 500.0);

  // Nothing was recorded while disabled.
  for (const auto& s : obs::stage_snapshots()) {
    if (s.name == "test.disabled_span") {
      EXPECT_EQ(s.histogram.count, 0u);
    }
  }
}

// ------------------------------------------------------------- determinism

FeaturizedSample synthetic_sample(Rng& rng, std::size_t num_points) {
  FeaturizedSample s;
  s.num_points = num_points;
  s.dims = 7;
  s.positions.reserve(num_points * 3);
  s.features.reserve(num_points * s.dims);
  for (std::size_t p = 0; p < num_points; ++p) {
    for (int d = 0; d < 3; ++d) {
      s.positions.push_back(static_cast<float>(rng.gaussian(0.0, 0.2)));
    }
    for (std::size_t d = 0; d < s.dims; ++d) {
      s.features.push_back(static_cast<float>(rng.gaussian(0.0, 1.0)));
    }
  }
  return s;
}

nn::Tensor train_and_predict_tiny() {
  Rng data_rng(99, 7);
  LabeledSamples data;
  for (int i = 0; i < 12; ++i) {
    data.samples.push_back(synthetic_sample(data_rng, 24));
    data.labels.push_back(i % 2);
  }

  GesIDNetConfig config;
  config.num_classes = 2;
  config.sa1_centroids = 8;
  config.sa2_centroids = 4;
  Rng init_rng(123, 5);
  GesIDNet model(config, init_rng);

  TrainConfig tc;
  tc.epochs = 1;
  tc.batch_size = 4;
  tc.seed = 11;
  train_classifier(model, data, tc);
  return predict_logits(model, data.samples, 6);
}

TEST(ObsDeterminism, TracingDoesNotPerturbLogits) {
  ObsSwitchGuard guard;

  obs::set_metrics_enabled(false);
  obs::set_trace_enabled(false);
  const nn::Tensor plain = train_and_predict_tiny();

  obs::set_metrics_enabled(true);
  obs::set_trace_enabled(true);
  const nn::Tensor traced = train_and_predict_tiny();

  ASSERT_EQ(plain.rows(), traced.rows());
  ASSERT_EQ(plain.cols(), traced.cols());
  for (std::size_t i = 0; i < plain.rows(); ++i) {
    for (std::size_t j = 0; j < plain.cols(); ++j) {
      EXPECT_EQ(plain.at(i, j), traced.at(i, j)) << "logit (" << i << "," << j << ")";
    }
  }
}

}  // namespace
}  // namespace gp
