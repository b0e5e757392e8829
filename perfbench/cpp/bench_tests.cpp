// The benchmark's own tests: the percentile helper, seed purity of the
// workload inputs, and the offline trigger-frame map against the ordinals a
// serve::Server emits.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "inputs.hpp"
#include "serve/registry.hpp"
#include "serve/server.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace pb {
namespace {

Sizes tiny() {
  Sizes s;
  s.pool = 4;
  return s;
}

std::vector<double> ramp(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Percentile, TailKeepsTenSamplesBeyond) {
  for (std::size_t n = 21; n <= 3000; ++n) {
    const std::size_t idx = tail_index(n, 99.0);
    EXPECT_GE(n - 1 - idx, kTailBeyond) << "n=" << n;
    // The highest such percentile: one rank further leaves fewer than ten.
    if (idx < rank_index(n, 99.0)) {
      EXPECT_LT(n - 2 - idx, kTailBeyond) << "n=" << n;
    }
  }
}

TEST(Percentile, ReportsP99OnceTheSampleSupportsIt) {
  const Quantile q = tail(ramp(1000));
  EXPECT_DOUBLE_EQ(q.percentile, 99.0);
  EXPECT_DOUBLE_EQ(q.value, 990.0);  // ten samples (991..1000) lie beyond
  EXPECT_EQ(q.n, 1000u);

  const Quantile small = tail(ramp(500));
  EXPECT_DOUBLE_EQ(small.value, 490.0);
  EXPECT_DOUBLE_EQ(small.percentile, 98.0);
}

TEST(Percentile, TooFewSamplesFallBackToTheMedian) {
  const Quantile q = tail(ramp(20));
  EXPECT_DOUBLE_EQ(q.value, median(ramp(20)).value);
  EXPECT_DOUBLE_EQ(median(ramp(3)).value, 2.0);
  EXPECT_DOUBLE_EQ(median(ramp(3)).percentile, 50.0);
}

TEST(Inputs, PureFunctionOfTheSeed) {
  const Inputs a = make_inputs(7, tiny());
  const Inputs b = make_inputs(7, tiny());
  const Inputs c = make_inputs(8, tiny());
  EXPECT_EQ(a.frame_digest, b.frame_digest);
  EXPECT_EQ(a.frame_digest, frame_digest(a.streams));
  EXPECT_NE(a.frame_digest, c.frame_digest);
}

TEST(TriggerMap, PrefixMapIsTheFullMapCutAtThePrefix) {
  const Inputs in = make_inputs(3, tiny());
  const Stream& s = in.streams[0];
  ASSERT_GE(s.expected.size(), 2u);
  const std::size_t prefix = s.expected[0].trigger + 1;
  const std::vector<Expected> cut = trigger_map(s.recording, 0, prefix);
  ASSERT_EQ(cut.size(), 1u);
  EXPECT_EQ(cut[0].trigger, s.expected[0].trigger);
  EXPECT_EQ(cut[0].start_frame, s.expected[0].start_frame);
}

TEST(TriggerMap, MidStreamStartScoresTruthAtTheRecordingPosition) {
  const Inputs in = make_inputs(3, tiny());
  const Stream& s = in.streams[1];
  // Start the push just before the second gesture's motion: the first
  // segment pushed is that gesture.
  const std::size_t first = s.recording.truth_spans[1].first - 5;
  const std::vector<Expected> map = trigger_map(s.recording, first, s.recording.frames.size());
  ASSERT_FALSE(map.empty());
  EXPECT_EQ(map[0].gesture, s.recording.gestures[1]);
  EXPECT_LT(map[0].start_frame, 10u);  // counted from the first pushed frame
}

// Serve segmentation is a pure function of the frame sequence, so the
// offline map predicts both the ordinals a Server emits and the pump that
// emits each one. With no model published, every segment still gets a
// typed no-model answer, so no training is needed here.
TEST(TriggerMap, MatchesServerOrdinalsOnOneSession) {
  const Inputs in = make_inputs(5, tiny());
  // Whole streams (the closed loops) and streams joined mid-way (live).
  for (const std::size_t first : {std::size_t{0}, std::size_t{23}})
  for (const Stream& s : in.streams) {
    const std::vector<Expected> expected =
        trigger_map(s.recording, first, s.recording.frames.size());
    gp::serve::ServeConfig sc;
    sc.system = in.config;
    sc.batch_max = 1;  // every completed segment flushes in its own pump
    gp::serve::ModelRegistry registry(in.config);
    gp::serve::Server server(sc, registry);
    std::vector<std::size_t> emitted_after;  // pushed frame whose pump emitted ordinal i
    for (std::size_t f = 0; first + f < s.recording.frames.size(); ++f) {
      ASSERT_EQ(server.push_frame(42, s.recording.frames[first + f]),
                gp::serve::Admission::kAccepted);
      for (const gp::serve::ServeResult& r : server.pump()) {
        ASSERT_EQ(r.segment_ordinal, emitted_after.size());
        emitted_after.push_back(f);
      }
    }
    for (const gp::serve::ServeResult& r : server.drain()) {
      ASSERT_EQ(r.segment_ordinal, emitted_after.size());
      emitted_after.push_back(s.recording.frames.size() - first);
    }
    ASSERT_EQ(emitted_after.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(emitted_after[i], expected[i].trigger) << "ordinal " << i << " first " << first;
    }
  }
}

// A window longer than every stream: the live generator must stop at the
// stream's end, and every expected answer must have a trigger frame it
// pushes (the end-of-stream flush is not a frame).
TEST(LivePlans, NeverPushPastTheEndOfTheStream) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const Inputs in = make_inputs(seed, tiny());
    const std::vector<SessionPlan> plans = live_plans(in, 60.0);
    ASSERT_FALSE(plans.empty());
    for (const SessionPlan& p : plans) {
      EXPECT_LE(p.first + p.prefix, in.streams[p.stream].recording.frames.size())
          << "seed " << seed << " session " << p.session_id;
      ASSERT_FALSE(p.expected.empty());
      EXPECT_LT(p.expected.back().trigger, p.prefix) << "seed " << seed;
    }
  }
}

}  // namespace
}  // namespace pb
