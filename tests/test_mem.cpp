// gp::mem tests (DESIGN.md §9): arena/pool/slot-vector primitives, the
// allocation-counting verification hooks, the GP_POISON_RESIZE debug mode,
// and the zero-copy frame path's acceptance invariants — warm pipeline
// scratch paths allocate nothing and produce bitwise-identical outputs, and
// a steady-state serve tick (frames in, shards drained, no segment
// completing) performs zero heap allocations end to end.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/mem.hpp"
#include "datasets/catalog.hpp"
#include "eval/splits.hpp"
#include "exec/exec.hpp"
#include "nn/quant.hpp"
#include "nn/tensor.hpp"
#include "pipeline/preprocessor.hpp"
#include "serve/server.hpp"
#include "system/gestureprint.hpp"

namespace gp {
namespace {

// ------------------------------------------------------------- primitives

TEST(Mem, ArenaBumpResetAndHighWater) {
  mem::Arena arena(4096);
  const std::span<double> a = arena.allocate_span<double>(16);
  ASSERT_EQ(a.size(), 16u);
  for (std::size_t i = 0; i < a.size(); ++i) a[i] = static_cast<double>(i);

  const std::span<const double> copy =
      arena.copy_span<double>(std::span<const double>(a.data(), a.size()));
  ASSERT_EQ(copy.size(), a.size());
  EXPECT_NE(copy.data(), a.data());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(copy[i], a[i]);

  const std::size_t used = arena.bytes_used();
  EXPECT_GE(used, 32 * sizeof(double));
  arena.reset();
  EXPECT_EQ(arena.bytes_used(), 0u);
  EXPECT_GE(arena.high_water(), used);

  // Post-reset allocations reuse the existing block: no growth, no heap.
  const std::size_t blocks = arena.block_count();
  mem::AllocCounter counter;
  (void)arena.allocate_span<double>(16);
  EXPECT_EQ(counter.allocations(), 0u);
  EXPECT_EQ(arena.block_count(), blocks);
}

TEST(Mem, ArenaAlignsAndHandlesOversizedRequests) {
  mem::Arena arena(256);
  (void)arena.allocate(1, 1);  // misalign the bump cursor
  void* p = arena.allocate(sizeof(double), alignof(double));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % alignof(double), 0u);

  // A request larger than the block size gets its own dedicated block.
  void* big = arena.allocate(4096);
  ASSERT_NE(big, nullptr);
  std::memset(big, 0xAB, 4096);  // the whole span must be writable
  EXPECT_GE(arena.block_count(), 2u);
}

TEST(Mem, ArenaSpansStableAcrossGrowth) {
  mem::Arena arena(128);
  const std::span<std::uint32_t> first = arena.allocate_span<std::uint32_t>(8);
  for (std::size_t i = 0; i < first.size(); ++i) first[i] = 0xC0FFEE00u + i;
  for (int i = 0; i < 64; ++i) (void)arena.allocate(64);  // force new blocks
  for (std::size_t i = 0; i < first.size(); ++i) EXPECT_EQ(first[i], 0xC0FFEE00u + i);
}

TEST(Mem, SlotVectorClearKeepsNestedCapacity) {
  mem::SlotVector<std::vector<int>> sv;
  sv.emplace_back().assign(100, 7);
  const int* warm_data = sv[0].data();
  sv.clear();
  EXPECT_TRUE(sv.empty());
  EXPECT_EQ(sv.slots(), 1u);  // the slot (and its buffer) survived

  mem::AllocCounter counter;
  std::vector<int>& again = sv.emplace_back();
  EXPECT_EQ(again.data(), warm_data);  // same warm buffer handed back
  again.assign(50, 3);                 // fits in retained capacity
  EXPECT_EQ(counter.allocations(), 0u);
  ASSERT_EQ(sv.size(), 1u);
  EXPECT_EQ(sv.back().size(), 50u);
}

TEST(Mem, PoolRecyclesWarmObjectsAndCounts) {
  const mem::MemCounters before = mem::mem_counters();
  mem::Pool<std::vector<int>> pool;
  {
    mem::PoolPtr<std::vector<int>> p = pool.acquire();  // miss: fresh object
    p->assign(64, 1);
  }  // handle destruction recycles into the pool
  EXPECT_EQ(pool.idle(), 1u);

  mem::PoolPtr<std::vector<int>> warm = pool.acquire();  // hit: warm object
  EXPECT_GE(warm->capacity(), 64u);
  EXPECT_EQ(pool.idle(), 0u);

  const mem::MemCounters after = mem::mem_counters();
  EXPECT_EQ(after.pool_misses - before.pool_misses, 1u);
  EXPECT_EQ(after.pool_hits - before.pool_hits, 1u);
}

// ---------------------------------------------------- verification hooks

// A new/delete pair the optimizer can see is legally elidable at -O3, so
// these escape the allocation through volatile globals to force it real.
volatile std::size_t g_alloc_n = 257;
void* volatile g_alloc_sink = nullptr;

TEST(Mem, AllocCounterSeesNewAndDelete) {
  mem::AllocCounter counter;
  auto* raw = new std::uint64_t[g_alloc_n];
  g_alloc_sink = raw;
  delete[] raw;
  EXPECT_GE(counter.allocations(), 1u);
  EXPECT_GE(counter.frees(), 1u);
  EXPECT_GE(counter.bytes(), 257 * sizeof(std::uint64_t));

  counter.reset();
  EXPECT_EQ(counter.allocations(), 0u);
}

TEST(Mem, AssertNoAllocPassesQuietScope) {
  double sink = 0.0;
  {
    GP_ASSERT_NO_ALLOC("quiet-scope");
    for (int i = 0; i < 100; ++i) sink += static_cast<double>(i);
  }
  EXPECT_EQ(sink, 4950.0);
}

using MemDeathTest = ::testing::Test;

TEST(MemDeathTest, AssertNoAllocAbortsOnAllocation) {
  EXPECT_DEATH(
      {
        GP_ASSERT_NO_ALLOC("hot-scope");
        auto* raw = new std::uint64_t[g_alloc_n];
        g_alloc_sink = raw;
        delete[] raw;
      },
      "GP_ASSERT_NO_ALLOC violated in 'hot-scope'");
}

// ------------------------------------------------------------ shared world

/// One small trained + saved system and a continuous stream, built once for
/// the whole binary (training dominates this file's runtime).
struct MemWorld {
  GesturePrintConfig config;
  std::string model_path;
  DatasetSpec spec;
  ContinuousRecording stream;
  std::vector<GestureCloud> clouds;  ///< preprocessed gestures from `stream`
};

const MemWorld& world() {
  static const MemWorld* w = [] {
    auto* out = new MemWorld();
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
    system.fit(dataset,
               stratified_split(dataset.gesture_labels(), 0.2, split_rng).train);
    out->model_path = testing::TempDir() + "gp_mem_model.gpsy";
    system.save(out->model_path);

    out->stream = generate_recording(out->spec, 0, {0, 2, 1}, 0x4E11);
    out->clouds = Preprocessor().process(out->stream.frames);
    return out;
  }();
  return *w;
}

void expect_samples_bitwise_equal(const FeaturizedSample& a, const FeaturizedSample& b) {
  ASSERT_EQ(a.num_points, b.num_points);
  ASSERT_EQ(a.dims, b.dims);
  ASSERT_EQ(a.positions.size(), b.positions.size());
  ASSERT_EQ(a.features.size(), b.features.size());
  for (std::size_t i = 0; i < a.positions.size(); ++i) EXPECT_EQ(a.positions[i], b.positions[i]);
  for (std::size_t i = 0; i < a.features.size(); ++i) EXPECT_EQ(a.features[i], b.features[i]);
}

// ----------------------------------------------- warm pipeline scratch path

// featurize_into must reproduce featurize() bit for bit (same RNG draw
// order) and, once its scratch is warm, allocate nothing.
TEST(Mem, FeaturizeIntoBitwiseIdenticalAndZeroAllocWarm) {
  ASSERT_FALSE(world().clouds.empty());
  const GestureCloud& cloud = world().clouds.front();
  const FeatureConfig& fc = world().config.prep.features;

  Rng ref_rng = exec::child_rng(0xFEA7u, 0);
  const FeaturizedSample reference = featurize(cloud, fc, ref_rng);

  FeaturizeScratch scratch;
  FeaturizedSample out;
  Rng rng = exec::child_rng(0xFEA7u, 0);
  featurize_into(cloud, fc, rng, scratch, out);
  expect_samples_bitwise_equal(reference, out);

  // Warm pass: same inputs, zero heap traffic.
  Rng warm_rng = exec::child_rng(0xFEA7u, 0);
  mem::AllocCounter counter;
  featurize_into(cloud, fc, warm_rng, scratch, out);
  EXPECT_EQ(counter.allocations(), 0u);
  expect_samples_bitwise_equal(reference, out);
}

TEST(Mem, ProcessSegmentIntoBitwiseIdenticalAndZeroAllocWarm) {
  const Preprocessor preprocessor;
  const FrameSequence& frames = world().stream.frames;
  const GestureCloud reference = preprocessor.process_segment(frames);

  Preprocessor::Scratch scratch;
  GestureCloud out;
  preprocessor.process_segment_into(std::span<const FrameCloud>(frames), out, scratch);

  const auto expect_match = [&] {
    ASSERT_EQ(out.points.size(), reference.points.size());
    if (!reference.points.empty()) {
      EXPECT_EQ(std::memcmp(out.points.data(), reference.points.data(),
                            reference.points.size() * sizeof(RadarPoint)),
                0);
    }
    EXPECT_EQ(out.num_frames, reference.num_frames);
    EXPECT_EQ(out.first_frame, reference.first_frame);
    EXPECT_EQ(out.duration_s, reference.duration_s);
    EXPECT_EQ(out.quality, reference.quality);
  };
  expect_match();

  mem::AllocCounter counter;
  preprocessor.process_segment_into(std::span<const FrameCloud>(frames), out, scratch);
  EXPECT_EQ(counter.allocations(), 0u);
  expect_match();
}

// --------------------------------------------------------- poison resize

// Tensor::resize contents are documented unspecified; the debug mode must
// poison every cell so stale readers fail loudly.
TEST(Mem, PoisonResizeFillsWithNaN) {
  ASSERT_FALSE(mem::poison_resize_enabled());  // tests run unpoisoned by default
  nn::Tensor t(3, 3);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c) t.at(r, c) = 1.0;

  mem::set_poison_resize(true);
  t.resize(2, 4);
  mem::set_poison_resize(false);
  for (std::size_t r = 0; r < t.rows(); ++r) {
    for (std::size_t c = 0; c < t.cols(); ++c) {
      EXPECT_TRUE(std::isnan(t.at(r, c))) << "cell (" << r << "," << c << ") not poisoned";
    }
  }
}

/// Streams the shared recording through a fresh server, three interleaved
/// sessions, and returns every result in completion order.
std::vector<serve::ServeResult> run_serve_stream(serve::ModelRegistry& registry,
                                                 exec::ExecContext& ctx) {
  serve::ServeConfig sc;
  sc.system = world().config;
  sc.shards = 2;
  sc.batch_wait_us = 0;
  serve::Server server(sc, registry, ctx);

  std::vector<serve::ServeResult> results;
  for (const FrameCloud& frame : world().stream.frames) {
    for (std::uint64_t id = 1; id <= 3; ++id) (void)server.push_frame(id, frame);
    for (serve::ServeResult& r : server.pump()) results.push_back(std::move(r));
  }
  for (serve::ServeResult& r : server.drain()) results.push_back(std::move(r));
  return results;
}

// Regression for the resize-reuse audit: no caller on the serve hot path may
// read cells left over from a previous tenant of a recycled buffer. Poisoned
// and unpoisoned runs must answer bit for bit the same — any stale read
// would surface as NaN-propagated garbage.
TEST(Mem, PoisonResizeLeavesServeAnswersIdentical) {
  serve::ModelRegistry registry(world().config);
  ASSERT_TRUE(registry.publish_file(world().model_path).has_value());
  exec::ExecContext ctx(2);

  const std::vector<serve::ServeResult> clean = run_serve_stream(registry, ctx);
  mem::set_poison_resize(true);
  const std::vector<serve::ServeResult> poisoned = run_serve_stream(registry, ctx);
  mem::set_poison_resize(false);

  ASSERT_FALSE(clean.empty());
  ASSERT_EQ(clean.size(), poisoned.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(clean[i].session_id, poisoned[i].session_id);
    EXPECT_EQ(clean[i].segment_ordinal, poisoned[i].segment_ordinal);
    EXPECT_EQ(clean[i].gesture, poisoned[i].gesture);
    EXPECT_EQ(clean[i].user, poisoned[i].user);
    EXPECT_EQ(clean[i].abstained, poisoned[i].abstained);
    EXPECT_EQ(clean[i].gesture_margin, poisoned[i].gesture_margin);  // bitwise
    EXPECT_EQ(clean[i].user_margin, poisoned[i].user_margin);
  }
}

// ------------------------------------------------- steady-state serve tick

// THE acceptance invariant of the zero-copy frame path: once the server is
// warm, a tick that admits frames and drains shards without completing a
// segment (the overwhelmingly common tick in deployment) touches the heap
// zero times — frame points land in the shard arena, segmenter rings and
// scratch reuse their capacity, and the empty batcher poll returns an
// empty (non-allocating) result vector.
void run_steady_tick_zero_alloc(nn::QuantMode quant) {
  serve::ModelRegistry registry(world().config);
  ASSERT_TRUE(registry.publish_file(world().model_path, quant).has_value());
  serve::ServeConfig sc;
  sc.system = world().config;
  sc.shards = 2;
  sc.batch_wait_us = 0;
  exec::ExecContext ctx(1);  // single-threaded: the counter is process-global
  serve::Server server(sc, registry, ctx);

  const FrameSequence& frames = world().stream.frames;
  constexpr std::uint64_t kSessions = 2;

  // Warm-up: one full pass. Segments complete, batches flush, every pool,
  // arena, ring, and cached metric handle reaches steady-state capacity.
  for (const FrameCloud& frame : frames) {
    for (std::uint64_t id = 1; id <= kSessions; ++id) {
      ASSERT_EQ(server.push_frame(id, frame), serve::Admission::kAccepted);
    }
    (void)server.pump();
  }

  // Steady ticks: replay the stream's opening frames — the segmenter
  // re-enters gesture onset but nothing completes, so no featurize, no
  // flush. This must be allocation-free.
  const std::size_t quiet_ticks = std::min<std::size_t>(8, frames.size());
  const std::uint64_t segments_before = server.batch_stats().segments;
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
      << "steady-state serve tick touched the heap (" << counter.bytes() << " bytes)";
  EXPECT_EQ(server.batch_stats().segments, segments_before);
}

TEST(Mem, ServeSteadyTickZeroAlloc) {
  run_steady_tick_zero_alloc(nn::QuantMode::kOff);
}

// The int8 fused path keeps the same allocation profile: its quantized
// activation/accumulator scratch rows come from the lanes' warm workspaces
// (see nn/fused.hpp), so a warm quantized server's quiet tick is just as
// heap-silent as the f32 one.
TEST(Mem, ServeSteadyTickZeroAllocQuantized) {
  run_steady_tick_zero_alloc(nn::QuantMode::kInt8);
}

// A working tick's forward: decide_batch on a fused snapshot — several
// segments of 3 TTA rows, the gesture pass and every routed user pass,
// sharded over 1 and 4 exec lanes — touches the heap zero times once its
// DecisionScratch (lane workspaces included) and answer slots are warm.
/// `quant` fuses the loaded system first; nullopt keeps the layered
/// (unfused) forward that classify() and offline evaluation run.
void run_decide_batch_zero_alloc(std::optional<nn::QuantMode> quant) {
  GesturePrintSystem system(world().config);
  ASSERT_TRUE(system.try_load(world().model_path));
  if (quant.has_value()) system.fuse_for_inference(*quant);

  std::vector<FeaturizedSample> rows;
  std::vector<std::size_t> counts;
  for (std::size_t k = 0; k < world().clouds.size(); ++k) {
    counts.push_back(3);
    for (std::size_t r = 0; r < 3; ++r) {
      Rng rng = exec::child_rng(0xA110Cu + k, r);
      rows.push_back(featurize(world().clouds[k], world().config.prep.features, rng));
    }
  }
  ASSERT_GE(counts.size(), 3u) << "the stream should hold several gestures";

  for (const std::size_t threads : {1, 4}) {
    exec::ExecContext ctx(threads);
    DecisionScratch scratch;
    mem::SlotVector<InferenceResult> out;
    decide_batch(system, rows, counts, 0.0, scratch, out, ctx);  // warm
    std::size_t user_answers = 0;
    for (const InferenceResult& d : out) user_answers += d.user >= 0;
    ASSERT_GT(user_answers, 0u) << "no user pass ran";
    {
      GP_ASSERT_NO_ALLOC("warm decide_batch");
      decide_batch(system, rows, counts, 0.0, scratch, out, ctx);
    }
    EXPECT_EQ(out.size(), counts.size());
  }
}

TEST(Mem, DecideBatchZeroAllocWarm) { run_decide_batch_zero_alloc(nn::QuantMode::kOff); }

TEST(Mem, DecideBatchZeroAllocWarmQuantized) {
  run_decide_batch_zero_alloc(nn::QuantMode::kInt8);
}

// The layered path: Linear's transposed weight, batch-norm's per-channel
// constants and the ball-query buffers all come from the lane workspaces.
TEST(Mem, DecideBatchZeroAllocWarmLayered) { run_decide_batch_zero_alloc(std::nullopt); }

}  // namespace
}  // namespace gp
