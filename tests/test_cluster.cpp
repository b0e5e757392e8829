// gp::cluster tests (DESIGN.md §12): checksummed wire protocol hardening,
// mid-gesture segmenter/session state round-trips, multi-process serving
// equivalence across worker counts, and the chaos acceptance bar — bit-flip
// and truncation link faults plus SIGKILL'd workers mid-stream must produce
// typed rejections, worker evictions, and migrated sessions whose final
// results are bitwise identical to a fault-free single-worker run.
#include <gtest/gtest.h>

#include <signal.h>
#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <sstream>
#include <thread>
#include <vector>

#include "cluster/cluster.hpp"
#include "cluster/wire.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "datasets/catalog.hpp"
#include "datasets/dataset.hpp"
#include "eval/splits.hpp"
#include "health/flightrec.hpp"
#include "pipeline/segmentation.hpp"
#include "serve/server.hpp"
#include "system/gestureprint.hpp"

namespace gp {
namespace {

// ----------------------------------------------------------------- fixture

/// Shared world: one small trained + saved system and a few client streams,
/// built once for the whole binary (training dominates this file's runtime).
struct ClusterWorld {
  GesturePrintConfig config;
  std::string model_path;
  DatasetSpec spec;
  std::vector<ContinuousRecording> streams;  ///< per-session recordings
};

const ClusterWorld& world() {
  static const ClusterWorld* w = [] {
    auto* out = new ClusterWorld();
    DatasetScale scale;
    scale.max_users = 3;
    scale.reps = 8;
    out->spec = gestureprint_spec(1, scale);
    out->spec.gestures.resize(3);
    const Dataset dataset = generate_dataset(out->spec);

    out->config.training.epochs = 6;
    out->config.training.batch_size = 16;
    out->config.prep.augmentation.copies = 2;
    out->config.abstain_margin = 0.05;

    GesturePrintSystem system(out->config);
    Rng split_rng(3, 1);
    system.fit(dataset,
               stratified_split(dataset.gesture_labels(), 0.2, split_rng).train);
    out->model_path = testing::TempDir() + "gp_cluster_model.gpsy";
    system.save(out->model_path);

    const std::vector<std::vector<int>> scripts{{0, 2, 1}, {1, 0, 2}, {2, 1, 0}};
    for (std::size_t s = 0; s < scripts.size(); ++s) {
      out->streams.push_back(generate_recording(out->spec, s % out->spec.num_users,
                                                scripts[s], 0xC105 + s));
    }
    return out;
  }();
  return *w;
}

cluster::ClusterConfig base_config(std::size_t workers) {
  cluster::ClusterConfig cc;
  cc.workers = workers;
  cc.model_path = world().model_path;
  cc.serve.system = world().config;
  cc.serve.shards = 1;
  cc.checkpoint_every = 8;
  return cc;
}

const std::vector<std::uint64_t> kSessions{7, 1001, 424242};

/// Streams every recording frame-by-frame (interleaved) through a Cluster,
/// optionally SIGKILLing the owner of kSessions[0] at frame `kill_at`.
/// Returns all results sorted by (session, ordinal).
std::vector<serve::ServeResult> run_cluster(cluster::Cluster& cluster,
                                            std::size_t kill_at = SIZE_MAX) {
  const auto& streams = world().streams;
  std::size_t max_frames = 0;
  for (const auto& s : streams) max_frames = std::max(max_frames, s.frames.size());
  std::vector<serve::ServeResult> results;
  for (std::size_t f = 0; f < max_frames; ++f) {
    if (f == kill_at) {
      const std::size_t owner = cluster.owner_slot(kSessions[0]);
      EXPECT_NE(owner, static_cast<std::size_t>(-1)) << "victim session unowned";
      const pid_t pid = cluster.worker_pid(owner);
      EXPECT_GT(pid, 0);
      if (pid > 0) {
        EXPECT_EQ(::kill(pid, SIGKILL), 0);
      }
    }
    for (std::size_t i = 0; i < kSessions.size(); ++i) {
      if (f >= streams[i].frames.size()) continue;
      const serve::Admission verdict =
          cluster.push_frame(kSessions[i], streams[i].frames[f]);
      EXPECT_EQ(verdict, serve::Admission::kAccepted);
    }
    for (serve::ServeResult& r : cluster.pump()) results.push_back(std::move(r));
  }
  for (serve::ServeResult& r : cluster.drain()) results.push_back(std::move(r));
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
    EXPECT_EQ(a[i].session_id, b[i].session_id) << "row " << i;
    EXPECT_EQ(a[i].segment_ordinal, b[i].segment_ordinal) << "row " << i;
    EXPECT_EQ(a[i].request_id, b[i].request_id) << "row " << i;
    EXPECT_EQ(a[i].gesture, b[i].gesture) << "row " << i;
    EXPECT_EQ(a[i].user, b[i].user) << "row " << i;
    EXPECT_EQ(a[i].abstained, b[i].abstained) << "row " << i;
    EXPECT_EQ(a[i].quality_rejected, b[i].quality_rejected) << "row " << i;
    EXPECT_EQ(a[i].gesture_margin, b[i].gesture_margin) << "row " << i;  // bitwise
    EXPECT_EQ(a[i].user_margin, b[i].user_margin) << "row " << i;
  }
}

/// The fault-free single-worker reference every chaos run must match.
const std::vector<serve::ServeResult>& reference_results() {
  static const std::vector<serve::ServeResult>* ref = [] {
    cluster::Cluster c(base_config(1));
    return new std::vector<serve::ServeResult>(run_cluster(c));
  }();
  return *ref;
}

// ------------------------------------------------------------ wire protocol

TEST(ClusterWire, MessageRoundTrip) {
  cluster::Message msg;
  msg.type = cluster::MsgType::kTick;
  msg.seq = 0x0123456789ABCDEFULL;
  msg.payload = std::string("hello\0world", 11);
  const std::string bytes = cluster::encode_message(msg);
  const cluster::Message back = cluster::decode_message(bytes);
  EXPECT_EQ(back.type, msg.type);
  EXPECT_EQ(back.seq, msg.seq);
  EXPECT_EQ(back.payload, msg.payload);
}

TEST(ClusterWire, FrameAndResultsRoundTrip) {
  const FrameCloud& frame = world().streams[0].frames[3];
  const std::string fp = cluster::encode_wire_frame(99, frame);
  const cluster::WireFrame wf = cluster::decode_wire_frame(fp);
  EXPECT_EQ(wf.session_id, 99u);
  EXPECT_EQ(wf.frame.frame_index, frame.frame_index);
  EXPECT_EQ(wf.frame.timestamp, frame.timestamp);
  ASSERT_EQ(wf.frame.points.size(), frame.points.size());
  for (std::size_t i = 0; i < frame.points.size(); ++i) {
    EXPECT_EQ(wf.frame.points[i].position.x, frame.points[i].position.x);
    EXPECT_EQ(wf.frame.points[i].velocity, frame.points[i].velocity);
    EXPECT_EQ(wf.frame.points[i].snr_db, frame.points[i].snr_db);
    EXPECT_EQ(wf.frame.points[i].frame, frame.points[i].frame);
  }

  std::vector<serve::ServeResult> results(2);
  results[0].session_id = 7;
  results[0].segment_ordinal = 3;
  results[0].request_id = 0xFEED;
  results[0].gesture = 2;
  results[0].user = 1;
  results[0].gesture_margin = 0.25;
  results[0].user_margin = -0.5;
  results[0].model_version = 42;
  results[1].session_id = 8;
  results[1].abstained = true;
  results[1].quality_rejected = true;
  const std::string rp = cluster::encode_wire_results(results);
  const std::vector<serve::ServeResult> back = cluster::decode_wire_results(rp);
  ASSERT_EQ(back.size(), 2u);
  EXPECT_EQ(back[0].session_id, 7u);
  EXPECT_EQ(back[0].segment_ordinal, 3u);
  EXPECT_EQ(back[0].request_id, 0xFEEDu);
  EXPECT_EQ(back[0].gesture, 2);
  EXPECT_EQ(back[0].user, 1);
  EXPECT_EQ(back[0].gesture_margin, 0.25);
  EXPECT_EQ(back[0].user_margin, -0.5);
  EXPECT_EQ(back[0].model_version, 42u);
  EXPECT_TRUE(back[1].abstained);
  EXPECT_TRUE(back[1].quality_rejected);
}

/// A canonical kTick request: two frame rows of two sessions, one checkpoint.
cluster::TickRequest canonical_tick_request() {
  cluster::TickRequest tick;
  tick.op = cluster::TickOp::kPump;
  tick.frames.push_back(cluster::encode_wire_frame(5, world().streams[0].frames[0]));
  tick.frames.push_back(cluster::encode_wire_frame(6, world().streams[1].frames[0]));
  tick.checkpoints = {5};
  return tick;
}

/// A canonical kTickReply: one verdict per row, one result, one state blob.
cluster::TickReply canonical_tick_reply() {
  cluster::TickReply reply;
  reply.verdicts = {serve::Admission::kAccepted, serve::Admission::kRejectedQueueFull};
  reply.results.resize(1);
  reply.results[0].session_id = 5;
  reply.results[0].segment_ordinal = 1;
  reply.results[0].gesture = 2;
  reply.results[0].gesture_margin = 0.375;
  reply.states.emplace_back(5, std::string("\x00GPSS", 5));
  return reply;
}

/// One canonical envelope of each message the router and workers exchange
/// on a tick.
std::vector<std::string> canonical_envelopes() {
  cluster::Message request;
  request.type = cluster::MsgType::kTick;
  request.seq = 17;
  request.payload = cluster::encode_tick_request(canonical_tick_request());
  cluster::Message reply;
  reply.type = cluster::MsgType::kTickReply;
  reply.seq = 17;
  reply.payload = cluster::encode_tick_reply(canonical_tick_reply());
  return {cluster::encode_message(request), cluster::encode_message(reply)};
}

TEST(ClusterWire, TickRequestAndReplyRoundTrip) {
  const cluster::TickRequest tick = canonical_tick_request();
  const cluster::TickRequest back =
      cluster::decode_tick_request(cluster::encode_tick_request(tick));
  EXPECT_EQ(back.op, cluster::TickOp::kPump);
  EXPECT_EQ(back.frames, tick.frames);
  EXPECT_EQ(back.checkpoints, tick.checkpoints);
  EXPECT_EQ(cluster::decode_wire_frame(back.frames[1]).session_id, 6u);

  const cluster::TickReply reply = canonical_tick_reply();
  const cluster::TickReply got = cluster::decode_tick_reply(cluster::encode_tick_reply(reply));
  EXPECT_EQ(got.verdicts, reply.verdicts);
  ASSERT_EQ(got.results.size(), 1u);
  EXPECT_EQ(got.results[0].session_id, 5u);
  EXPECT_EQ(got.results[0].segment_ordinal, 1u);
  EXPECT_EQ(got.results[0].gesture, 2);
  EXPECT_EQ(got.results[0].gesture_margin, 0.375);
  EXPECT_EQ(got.states, reply.states);

  const cluster::TickRequest empty =
      cluster::decode_tick_request(cluster::encode_tick_request({}));
  EXPECT_TRUE(empty.frames.empty());
  EXPECT_TRUE(empty.checkpoints.empty());
}

TEST(ClusterWire, ControlPayloadRoundTrips) {
  EXPECT_EQ(cluster::decode_ack(cluster::encode_ack(3)), 3u);
  EXPECT_EQ(cluster::decode_u64(cluster::encode_u64(0xDEADBEEFCAFEULL)),
            0xDEADBEEFCAFEULL);
  const auto [sid, blob] =
      cluster::decode_state(cluster::encode_state(12, std::string("\x00\x01gp", 4)));
  EXPECT_EQ(sid, 12u);
  EXPECT_EQ(blob, std::string("\x00\x01gp", 4));
  EXPECT_EQ(cluster::decode_text(cluster::encode_text("boom")), "boom");
}

// Every single-bit flip anywhere in the envelope must surface as a typed
// SerializationError — the FNV checksum covers the payload *and* the
// type/seq header words, so no corruption can silently alter routing or
// defeat the worker's duplicate suppression.
TEST(ClusterWire, EverySingleBitFlipIsRejectedTyped) {
  for (const std::string& bytes : canonical_envelopes()) {
    SCOPED_TRACE("message " + std::string(cluster::msg_type_name(
                                  cluster::decode_message(bytes).type)));
    for (std::size_t byte = 0; byte < bytes.size(); ++byte) {
      for (int bit = 0; bit < 8; ++bit) {
        std::string corrupt = bytes;
        corrupt[byte] = static_cast<char>(corrupt[byte] ^ (1 << bit));
        EXPECT_THROW(cluster::decode_message(corrupt), SerializationError)
            << "byte " << byte << " bit " << bit << " slipped through";
      }
    }
  }
}

TEST(ClusterWire, EveryTruncationIsRejectedTyped) {
  for (const std::string& bytes : canonical_envelopes()) {
    for (std::size_t keep = 0; keep < bytes.size(); ++keep) {
      EXPECT_THROW(cluster::decode_message(bytes.substr(0, keep)), SerializationError)
          << "truncation to " << keep << " bytes slipped through";
    }
  }
}

TEST(ClusterWire, PayloadDecodersRejectCrossedTags) {
  // Feeding a frame payload to the results decoder (and vice versa) is a
  // typed error via the inner payload tags, not a garbage decode.
  const std::string frame_payload =
      cluster::encode_wire_frame(1, world().streams[0].frames[0]);
  const std::string results_payload = cluster::encode_wire_results({});
  EXPECT_THROW(cluster::decode_wire_results(frame_payload), SerializationError);
  EXPECT_THROW(cluster::decode_wire_frame(results_payload), SerializationError);
  EXPECT_THROW(cluster::decode_ack(cluster::encode_wire_results({})), SerializationError);
  const std::string tick_payload = cluster::encode_tick_request(canonical_tick_request());
  const std::string reply_payload = cluster::encode_tick_reply(canonical_tick_reply());
  EXPECT_THROW(cluster::decode_tick_reply(tick_payload), SerializationError);
  EXPECT_THROW(cluster::decode_tick_request(reply_payload), SerializationError);
  EXPECT_THROW(cluster::decode_tick_request(frame_payload), SerializationError);
  EXPECT_THROW(cluster::decode_wire_frame(tick_payload), SerializationError);
}

// -------------------------------------------------- state round-trips (§12)

/// Reference: all segments of `frames` from one uninterrupted segmenter.
std::vector<GestureSegment> segment_uninterrupted(const FrameSequence& frames) {
  GestureSegmenter seg;
  std::vector<GestureSegment> out;
  for (const FrameCloud& f : frames) {
    seg.push(f);
    for (GestureSegment& s : seg.take_segments()) out.push_back(std::move(s));
  }
  seg.finish();
  for (GestureSegment& s : seg.take_segments()) out.push_back(std::move(s));
  return out;
}

void expect_segments_equal(const std::vector<GestureSegment>& a,
                           const std::vector<GestureSegment>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].start_frame, b[i].start_frame) << "segment " << i;
    EXPECT_EQ(a[i].end_frame, b[i].end_frame) << "segment " << i;
    ASSERT_EQ(a[i].frames.size(), b[i].frames.size()) << "segment " << i;
    for (std::size_t f = 0; f < a[i].frames.size(); ++f) {
      EXPECT_EQ(a[i].frames[f].frame_index, b[i].frames[f].frame_index);
      EXPECT_EQ(a[i].frames[f].timestamp, b[i].frames[f].timestamp);  // bitwise
      ASSERT_EQ(a[i].frames[f].points.size(), b[i].frames[f].points.size());
      for (std::size_t p = 0; p < a[i].frames[f].points.size(); ++p) {
        EXPECT_EQ(a[i].frames[f].points[p].position.x, b[i].frames[f].points[p].position.x);
        EXPECT_EQ(a[i].frames[f].points[p].position.y, b[i].frames[f].points[p].position.y);
        EXPECT_EQ(a[i].frames[f].points[p].position.z, b[i].frames[f].points[p].position.z);
        EXPECT_EQ(a[i].frames[f].points[p].velocity, b[i].frames[f].points[p].velocity);
      }
    }
  }
}

// Save mid-stream (including mid-gesture split points), restore into a
// fresh segmenter, finish the stream: the combined segment list must be
// bitwise identical to the uninterrupted run. This is the foundation the
// cluster's session-handoff determinism stands on.
TEST(ClusterStateRoundTrip, SegmenterResumesBitwiseAtManySplitPoints) {
  const FrameSequence& frames = world().streams[0].frames;
  const std::vector<GestureSegment> reference = segment_uninterrupted(frames);
  ASSERT_FALSE(reference.empty());
  // Split points: stream fractions plus one pinned *inside* a truth span
  // (mid-gesture — the hard case: an open gesture must survive the hop).
  std::vector<std::size_t> splits{frames.size() / 4, frames.size() / 2,
                                  (3 * frames.size()) / 4};
  const auto& spans = world().streams[0].truth_spans;
  ASSERT_FALSE(spans.empty());
  splits.push_back((spans[0].first + spans[0].second) / 2);
  for (const std::size_t split : splits) {
    std::vector<GestureSegment> combined;
    GestureSegmenter a;
    for (std::size_t f = 0; f < split; ++f) {
      a.push(frames[f]);
      for (GestureSegment& s : a.take_segments()) combined.push_back(std::move(s));
    }
    std::ostringstream blob(std::ios::binary);
    {
      BinaryWriter w(blob, "GPSG");
      a.save_state(w);
    }
    GestureSegmenter b;
    {
      std::istringstream in(blob.str(), std::ios::binary);
      BinaryReader r(in, "GPSG");
      b.load_state(r);
    }
    for (std::size_t f = split; f < frames.size(); ++f) {
      b.push(frames[f]);
      for (GestureSegment& s : b.take_segments()) combined.push_back(std::move(s));
    }
    b.finish();
    for (GestureSegment& s : b.take_segments()) combined.push_back(std::move(s));
    SCOPED_TRACE("split at frame " + std::to_string(split));
    expect_segments_equal(reference, combined);
  }
}

TEST(ClusterStateRoundTrip, SegmenterSaveRequiresDrainedCompletedStore) {
  const FrameSequence& frames = world().streams[0].frames;
  GestureSegmenter seg;
  for (const FrameCloud& f : frames) seg.push(f);
  seg.finish();
  ASSERT_GT(seg.completed_count(), 0u);  // undrained on purpose
  std::ostringstream blob(std::ios::binary);
  BinaryWriter w(blob, "GPSG");
  EXPECT_THROW(seg.save_state(w), Error);
}

TEST(ClusterStateRoundTrip, SegmenterLoadRejectsParamsMismatch) {
  GestureSegmenter a;  // default params
  std::ostringstream blob(std::ios::binary);
  {
    BinaryWriter w(blob, "GPSG");
    a.save_state(w);
  }
  SegmentationParams other;
  other.detection_window += 1;
  GestureSegmenter b(other);
  std::istringstream in(blob.str(), std::ios::binary);
  BinaryReader r(in, "GPSG");
  EXPECT_THROW(b.load_state(r), SerializationError);
}

// Server-level handoff: export a live session mid-stream, restore it into a
// *fresh* server, finish the stream there — the migrated session's results
// (ordinals, ids, margins) must be bitwise those of the uninterrupted run.
TEST(ClusterStateRoundTrip, ServerSessionExportRestoreResumesBitwise) {
  serve::ServeConfig sc;
  sc.system = world().config;
  sc.shards = 1;
  sc.batch_wait_us = 0;
  serve::ModelRegistry registry(sc.system);
  ASSERT_TRUE(registry.publish_file(world().model_path, sc.quant).has_value());
  const std::uint64_t sid = 77;
  const FrameSequence& frames = world().streams[1].frames;

  std::vector<serve::ServeResult> reference;
  {
    serve::Server server(sc, registry);
    for (const FrameCloud& f : frames) {
      ASSERT_EQ(server.push_frame(sid, f), serve::Admission::kAccepted);
      for (auto& r : server.pump()) reference.push_back(std::move(r));
    }
    for (auto& r : server.drain()) reference.push_back(std::move(r));
  }
  ASSERT_FALSE(reference.empty());

  const std::size_t split = frames.size() / 2;
  std::vector<serve::ServeResult> migrated;
  std::string blob;
  {
    serve::Server first(sc, registry);
    for (std::size_t f = 0; f < split; ++f) {
      ASSERT_EQ(first.push_frame(sid, frames[f]), serve::Admission::kAccepted);
      for (auto& r : first.pump()) migrated.push_back(std::move(r));
    }
    std::ostringstream out(std::ios::binary);
    ASSERT_TRUE(first.export_session(sid, out));
    blob = out.str();
  }
  {
    serve::Server second(sc, registry);
    std::istringstream in(blob, std::ios::binary);
    second.restore_session(sid, in);
    for (std::size_t f = split; f < frames.size(); ++f) {
      ASSERT_EQ(second.push_frame(sid, frames[f]), serve::Admission::kAccepted);
      for (auto& r : second.pump()) migrated.push_back(std::move(r));
    }
    for (auto& r : second.drain()) migrated.push_back(std::move(r));
  }
  expect_bitwise_equal(reference, migrated);
}

TEST(ClusterStateRoundTrip, SessionRestoreRejectsWrongId) {
  serve::ServeConfig sc;
  sc.system = world().config;
  sc.shards = 1;
  serve::ModelRegistry registry(sc.system);
  serve::Server server(sc, registry);
  ASSERT_EQ(server.push_frame(5, world().streams[0].frames[0]),
            serve::Admission::kAccepted);
  server.pump();
  std::ostringstream out(std::ios::binary);
  ASSERT_TRUE(server.export_session(5, out));
  EXPECT_FALSE(server.export_session(999, out));  // unknown session

  serve::Server other(sc, registry);
  std::istringstream in(out.str(), std::ios::binary);
  EXPECT_THROW(other.restore_session(6, in), SerializationError);
}

// -------------------------------------------------------- cluster serving

// The cluster's per-session results must be bitwise invariant to the worker
// count: routing decides only *where* a session is computed, never what it
// computes.
TEST(ClusterServe, ResultsInvariantToWorkerCount) {
  const auto& ref = reference_results();
  ASSERT_FALSE(ref.empty());
  for (const std::size_t workers : {2, 3}) {
    cluster::Cluster c(base_config(workers));
    SCOPED_TRACE("workers=" + std::to_string(workers));
    expect_bitwise_equal(ref, run_cluster(c));
    EXPECT_EQ(c.stats().workers_evicted, 0u);
    EXPECT_EQ(c.verdict(), health::Verdict::kHealthy);
  }
}

TEST(ClusterServe, SpreadsSessionsAndCountsFrames) {
  cluster::Cluster c(base_config(3));
  const auto results = run_cluster(c);
  EXPECT_FALSE(results.empty());
  const cluster::Cluster::Stats stats = c.stats();
  EXPECT_GT(stats.frames_accepted, 0u);
  EXPECT_EQ(stats.frames_shed_no_worker, 0u);
  EXPECT_GT(stats.checkpoints, 0u);  // checkpoint_every=8 must have fired
  EXPECT_EQ(stats.results, results.size());
  std::vector<std::size_t> owners;
  for (const std::uint64_t sid : kSessions) owners.push_back(c.owner_slot(sid));
  for (const std::size_t owner : owners) ASSERT_LT(owner, 3u);
}

// The router batches: admission makes no RPC, and each tick is exactly one
// request per live worker — frames, pump and due checkpoints included.
TEST(ClusterServe, OneRequestPerWorkerPerTick) {
  cluster::Cluster c(base_config(3));
  const auto& streams = world().streams;
  std::size_t max_frames = 0;
  for (const auto& st : streams) max_frames = std::max(max_frames, st.frames.size());
  std::size_t push_rpcs = 0;
  std::size_t off_ticks = 0;
  for (std::size_t f = 0; f < max_frames; ++f) {
    const std::uint64_t before = c.stats().rpc_calls;
    for (std::size_t i = 0; i < kSessions.size(); ++i) {
      if (f < streams[i].frames.size()) c.push_frame(kSessions[i], streams[i].frames[f]);
    }
    push_rpcs += c.stats().rpc_calls - before;
    const std::size_t alive = c.workers_alive();
    const std::uint64_t before_pump = c.stats().rpc_calls;
    c.pump();
    if (c.stats().rpc_calls != before_pump + alive) ++off_ticks;
  }
  EXPECT_EQ(push_rpcs, 0u) << "push_frame made RPCs";
  EXPECT_EQ(off_ticks, 0u) << "ticks that did not make one RPC per live worker";
  const std::uint64_t before_drain = c.stats().rpc_calls;
  c.drain();
  EXPECT_EQ(c.stats().rpc_calls, before_drain + c.workers_alive());
  const cluster::Cluster::Stats stats = c.stats();
  EXPECT_GT(stats.checkpoints, 0u);  // checkpoint_every=8, folded into ticks
  EXPECT_EQ(stats.workers_evicted, 0u);
  EXPECT_EQ(stats.rpc_attempts, stats.rpc_calls);  // fault-free: no retries
}

// Worker-side queue-full rejections under batching: frames pushed with no
// pump in between get exactly the verdicts a plain Server gives them (the
// outbound batch ships frames-only at queue_cap × shards), the end-of-stream
// answers match bitwise, and only accepted frames enter the replay buffer.
TEST(ClusterServe, QueueFullAdmissionMatchesServer) {
  const FrameSequence& frames = world().streams[0].frames;
  const auto& spans = world().streams[0].truth_spans;
  ASSERT_FALSE(spans.empty());
  cluster::ClusterConfig cc = base_config(1);
  // Small enough to overflow twice, large enough to admit the first gesture
  // whole, so the drained answers are not empty.
  cc.serve.queue_cap = spans[0].second + 8;
  cc.checkpoint_every = 1000;  // keep every accepted frame in the replay buffer
  const std::size_t n = 2 * cc.serve.queue_cap + 5;
  ASSERT_GE(frames.size(), n);

  serve::ServeConfig sc = cc.serve;
  sc.batch_wait_us = 0;  // the worker's setting
  serve::ModelRegistry registry(sc.system);
  ASSERT_TRUE(registry.publish_file(world().model_path, sc.quant).has_value());
  serve::Server server(sc, registry);
  std::size_t server_rejected = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (server.push_frame(kSessions[0], frames[i]) != serve::Admission::kAccepted) {
      ++server_rejected;
    }
  }
  const std::vector<serve::ServeResult> expected = server.drain();
  ASSERT_GT(server_rejected, 0u);
  ASSERT_FALSE(expected.empty());

  cluster::Cluster c(cc);
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(c.push_frame(kSessions[0], frames[i]), serve::Admission::kAccepted);
  }
  // Router memory stays bounded: every full batch shipped frames-only.
  EXPECT_EQ(c.stats().rpc_calls, n / cc.serve.queue_cap);
  expect_bitwise_equal(expected, c.drain());
  const cluster::Cluster::Stats stats = c.stats();
  EXPECT_EQ(stats.frames_rejected_queue_full, server_rejected);
  EXPECT_EQ(stats.frames_accepted, n - server_rejected);
  EXPECT_EQ(c.replay_depth(kSessions[0]), n - server_rejected);
}

// SIGKILL the owner of a mid-stream session: the supervisor must evict the
// dead worker, respawn the slot, migrate its sessions (checkpoint restore +
// replay), and the final results must stay bitwise identical to the
// fault-free single-worker reference.
TEST(ClusterServe, SigkillMidStreamFailsOverBitwise) {
  health::FlightRecorder::global().clear();
  cluster::Cluster c(base_config(2));
  const std::size_t kill_at = world().streams[0].frames.size() / 2;
  expect_bitwise_equal(reference_results(), run_cluster(c, kill_at));
  const cluster::Cluster::Stats stats = c.stats();
  EXPECT_GE(stats.workers_evicted, 1u);
  EXPECT_GE(stats.evicted_process_died + stats.evicted_link_failure, 1u);
  EXPECT_GE(stats.sessions_migrated, 1u);
  EXPECT_GE(stats.workers_respawned, 1u);
  EXPECT_EQ(c.verdict(), health::Verdict::kHealthy);  // slot was respawned
  EXPECT_EQ(c.workers_alive(), 2u);

  bool saw_eviction = false;
  bool saw_migration = false;
  for (const health::FlightEvent& e : health::FlightRecorder::global().snapshot()) {
    saw_eviction |= e.kind == health::EventKind::kWorkerEvicted;
    saw_migration |= e.kind == health::EventKind::kSessionMigrated;
  }
  EXPECT_TRUE(saw_eviction) << "eviction missing from the flight recorder";
  EXPECT_TRUE(saw_migration) << "migration missing from the flight recorder";
}

// Deterministic link chaos on every link, both directions: corrupt
// envelopes must surface as typed rejections + retries (never crashes or
// wrong results), and the final stream must still be bitwise correct.
TEST(ClusterServe, LinkCorruptionIsRejectedTypedAndRetried) {
  cluster::ClusterConfig cc = base_config(2);
  cc.link_faults.flip_prob = 0.05;
  cc.link_faults.truncate_prob = 0.03;
  cc.link_faults.seed = 0xBADC0FFEEULL;
  cluster::Cluster c(cc);
  expect_bitwise_equal(reference_results(), run_cluster(c));
  const cluster::Cluster::Stats stats = c.stats();
  EXPECT_GT(stats.corrupt_requests + stats.corrupt_replies, 0u)
      << "chaos too weak: no corrupt envelope was ever seen";
  EXPECT_GT(stats.rpc_attempts, stats.rpc_calls) << "no retry ever fired";
}

// The ISSUE acceptance bar: link bit-flips + truncations AND a SIGKILL'd
// worker mid-stream, in one run. Typed corrupt-frame rejections observed,
// worker evicted, sessions migrated and resumed, final per-session results
// bitwise identical to the fault-free single-worker run, zero uncaught
// exceptions (any escape would fail the test process).
TEST(ClusterServe, ChaosAcceptanceKillAndCorruptMidStream) {
  cluster::ClusterConfig cc = base_config(2);
  cc.link_faults.flip_prob = 0.04;
  cc.link_faults.truncate_prob = 0.02;
  cluster::Cluster c(cc);
  const std::size_t kill_at = world().streams[0].frames.size() / 3;
  expect_bitwise_equal(reference_results(), run_cluster(c, kill_at));
  const cluster::Cluster::Stats stats = c.stats();
  EXPECT_GE(stats.workers_evicted, 1u);
  EXPECT_GE(stats.sessions_migrated, 1u);
  EXPECT_GT(stats.corrupt_requests + stats.corrupt_replies, 0u);
  EXPECT_EQ(stats.frames_shed_no_worker, 0u);
}

// A hung (SIGSTOP'd, not dead) worker must fall to the heartbeat prober:
// missed probes accumulate and the eviction is typed kMissedHeartbeats.
TEST(ClusterServe, HungWorkerEvictedByMissedHeartbeats) {
  cluster::ClusterConfig cc = base_config(2);
  cc.heartbeat_ms = 10;
  cc.max_missed_heartbeats = 2;
  cluster::Cluster c(cc);
  const pid_t pid = c.worker_pid(0);
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::kill(pid, SIGSTOP), 0);
  for (int i = 0; i < 50 && c.stats().evicted_missed_heartbeats == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(15));
    c.supervise();
  }
  const cluster::Cluster::Stats stats = c.stats();
  EXPECT_GE(stats.heartbeat_probes, 1u);
  EXPECT_GE(stats.heartbeat_misses, 1u);
  EXPECT_GE(stats.evicted_missed_heartbeats, 1u)
      << "SIGSTOP'd worker was never evicted";
  EXPECT_EQ(c.workers_alive(), 2u);  // respawned into the same slot
}

// Graceful degradation end state: every worker down, respawn off — frames
// shed typed with the serve admission vocabulary and the verdict goes
// kUnhealthy; nothing throws.
TEST(ClusterServe, AllWorkersDownShedsTypedNoWorker) {
  cluster::ClusterConfig cc = base_config(1);
  cc.respawn = false;
  cluster::Cluster c(cc);
  ASSERT_EQ(c.push_frame(kSessions[0], world().streams[0].frames[0]),
            serve::Admission::kAccepted);
  const pid_t pid = c.worker_pid(0);
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  // SIGKILL delivery is asynchronous: poll supervise() until the child turns
  // reapable and the slot is evicted (no respawn with respawn=false).
  for (int i = 0; i < 200 && c.workers_alive() > 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    c.supervise();
  }
  EXPECT_EQ(c.workers_alive(), 0u);
  EXPECT_EQ(c.verdict(), health::Verdict::kUnhealthy);
  const serve::Admission verdict =
      c.push_frame(kSessions[0], world().streams[0].frames[1]);
  EXPECT_EQ(verdict, serve::Admission::kRejectedNoWorker);
  EXPECT_STREQ(serve::admission_name(verdict), "rejected_no_worker");
  EXPECT_GE(c.stats().frames_shed_no_worker, 1u);
  EXPECT_GE(c.stats().migration_failures, 1u);  // session could not re-home
}

TEST(ClusterServe, DegradedVerdictWhileASlotIsDown) {
  cluster::ClusterConfig cc = base_config(2);
  cc.respawn = false;
  cluster::Cluster c(cc);
  EXPECT_EQ(c.verdict(), health::Verdict::kHealthy);
  const pid_t pid = c.worker_pid(1);
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  for (int i = 0; i < 200 && c.workers_alive() > 1; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    c.supervise();
  }
  EXPECT_EQ(c.workers_alive(), 1u);
  EXPECT_EQ(c.verdict(), health::Verdict::kDegraded);
  // The surviving slot still serves every session.
  ASSERT_EQ(c.push_frame(kSessions[0], world().streams[0].frames[0]),
            serve::Admission::kAccepted);
  ASSERT_EQ(c.push_frame(kSessions[1], world().streams[1].frames[0]),
            serve::Admission::kAccepted);
  EXPECT_EQ(c.owner_slot(kSessions[0]), 0u);
  EXPECT_EQ(c.owner_slot(kSessions[1]), 0u);
}

// ------------------------------------------------------------------ config

TEST(ClusterConfig, FromEnvAppliesAndValidates) {
  ::setenv("GP_CLUSTER_WORKERS", "5", 1);
  ::setenv("GP_CLUSTER_HEARTBEAT_MS", "123", 1);
  cluster::ClusterConfig cc = cluster::ClusterConfig::from_env();
  EXPECT_EQ(cc.workers, 5u);
  EXPECT_EQ(cc.heartbeat_ms, 123u);
  ::setenv("GP_CLUSTER_WORKERS", "zero", 1);
  ::setenv("GP_CLUSTER_HEARTBEAT_MS", "0", 1);
  cc = cluster::ClusterConfig::from_env();
  EXPECT_EQ(cc.workers, cluster::ClusterConfig{}.workers);  // junk ignored
  EXPECT_EQ(cc.heartbeat_ms, cluster::ClusterConfig{}.heartbeat_ms);
  ::unsetenv("GP_CLUSTER_WORKERS");
  ::unsetenv("GP_CLUSTER_HEARTBEAT_MS");
}

// Workers run no enrollment hook, so GP_ENROLL under the cluster is refused
// typed at construction instead of being silently inert.
TEST(ClusterConfig, EnrollmentIsRefusedTyped) {
  cluster::ClusterConfig cc = base_config(2);
  cc.serve.enroll.enabled = true;
  try {
    cluster::Cluster c(cc);
    ADD_FAILURE() << "an enrollment-enabled cluster was constructed";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("GP_ENROLL"), std::string::npos) << e.what();
  }
  ::setenv("GP_ENROLL", "1", 1);
  const cluster::ClusterConfig from_env = cluster::ClusterConfig::from_env(base_config(1));
  ::unsetenv("GP_ENROLL");
  ASSERT_TRUE(from_env.serve.enroll.enabled);
  EXPECT_THROW(cluster::Cluster c(from_env), InvalidArgument);
}

TEST(ClusterConfig, EvictionReasonNames) {
  EXPECT_STREQ(cluster::eviction_reason_name(cluster::EvictionReason::kProcessDied),
               "process_died");
  EXPECT_STREQ(cluster::eviction_reason_name(cluster::EvictionReason::kLinkFailure),
               "link_failure");
  EXPECT_STREQ(
      cluster::eviction_reason_name(cluster::EvictionReason::kMissedHeartbeats),
      "missed_heartbeats");
}

}  // namespace
}  // namespace gp
