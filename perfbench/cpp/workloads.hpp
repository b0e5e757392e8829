// The four serving workloads, their reference pass and the answer check.
//
//   live          open loop, N sessions at 10 Hz, f32 Server, periodic
//                 ModelRegistry::publish_file on a second thread
//   backlog_int8  closed loop catch-up replay, int8 Server, batch defaults
//   cluster3      closed loop, cluster::Cluster with 3 forked workers, f32
//   offline       GestureSegmenter::segment_all -> process_segment ->
//                 unfused GesturePrintSystem::classify, one caller
//
// The load generator is single-threaded (live adds one publisher thread) and only
// calls public entry points. Latency runs from the trigger frame's due time
// (open loop) or push time (closed loop) to the pump()/drain() return that
// delivered the answer.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "inputs.hpp"
#include "nn/quant.hpp"
#include "serve/config.hpp"
#include "serve/registry.hpp"
#include "spans.hpp"

namespace pb {

enum class Workload { kLive, kBacklogInt8, kCluster3, kOffline };

std::optional<Workload> parse_workload(const std::string& name);
const char* workload_name(Workload w);
gp::nn::QuantMode workload_quant(Workload w);

// Workload shape constants.

/// 400 sessions offer 4000 frames/s, 2000 per default shard; 300 leave too
/// few answers for a steady p90.
inline constexpr std::size_t kLiveSessions = 400;
/// The live generator pumps after at most this many pushes, however late it
/// runs. At 4000 frames/s a pump stall of ~130 ms (a slowed shared host)
/// otherwise brings more due frames than a shard's ingress queue holds
/// (queue_cap 256), and the server sheds them. On time, a 1 ms pump period
/// carries about 4 frames, so the cap only acts after a stall.
inline constexpr std::size_t kLiveMaxPushesPerPump = 64;
/// Each live session joins its stream at a seeded frame within the first
/// gesture cycle (idle gap + gesture + idle gap, ~54 frames at 10 Hz), so
/// segment closes are spread evenly over the run; joining every stream at
/// frame 0 would close all first gestures together, a burst several times
/// the mean rate. Sessions also get a seeded phase within the frame period.
inline constexpr std::size_t kLiveJoinFrames = 54;
inline constexpr double kLivePumpPeriodS = 0.001;  ///< pump cadence
inline constexpr double kLivePublishPeriodS = 2.0;
inline constexpr double kFramePeriodS = 0.1;       ///< radar native 10 Hz
inline constexpr std::size_t kClosedSessions = 160;  ///< one per pool stream
inline constexpr std::size_t kClusterWorkers = 3;

/// One session: which pool stream it replays and how much of it.
struct SessionPlan {
  std::uint64_t session_id = 0;
  std::size_t stream = 0;
  std::size_t first = 0;           ///< first recording frame pushed
  std::size_t prefix = 0;          ///< frames pushed
  double offset_s = 0.0;           ///< live: due time of the first pushed frame
  std::size_t repeats = 1;         ///< times the session was replayed
  std::vector<Expected> expected;  ///< trigger map of the pushed prefix
};

/// Named timing samples and values taken by the traced run.
struct LayerLog {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> values;
  void add(const std::string& name, double v) { samples[name].push_back(v); }
};

/// One measured pass of a workload (live is a single pass).
struct Pass {
  double wall_s = 0.0;
  double cpu_s = 0.0;       ///< process (+ worker) user+sys CPU
  std::size_t answers = 0;
};

struct RunResult {
  std::vector<SessionPlan> plans;
  std::vector<gp::serve::ServeResult> answers;  ///< every delivered answer
  std::vector<double> latency_ms;
  std::vector<Pass> passes;
  double wall_s = 0.0;     ///< summed over passes
  double cpu_s = 0.0;      ///< summed over passes
  double peak_rss_mb = 0.0;
  std::uint64_t frames_offered = 0;
  std::uint64_t frames_rejected = 0;
  std::uint64_t publish_failures = 0;
  std::uint64_t exceptions = 0;
  LayerLog layers;
};

/// What a run needs besides its inputs.
struct Context {
  const Inputs* inputs = nullptr;
  std::string model_path;
  double seconds = 1.0;
  SpanLog* spans = nullptr;
};

/// Serving configuration of a workload (also the cluster workers').
gp::serve::ServeConfig serve_config(const Inputs& in, Workload w);
gp::cluster::ClusterConfig cluster_config(const Inputs& in, const std::string& model_path);

/// The live sessions of a `seconds`-long window: seeded join frame and
/// phase, and the frames pushed (never past the end of the stream).
std::vector<SessionPlan> live_plans(const Inputs& in, double seconds);
RunResult run_live(const Context& ctx, gp::serve::ModelRegistry& registry);
/// Closed-loop passes of kClosedSessions pool streams into a fresh Server
/// each, in the quant mode of the registry's snapshot, until ctx.seconds.
RunResult run_backlog(const Context& ctx, gp::serve::ModelRegistry& registry);
/// Session ids start at `first_session_id` (a cluster never re-serves an id).
RunResult run_cluster(const Context& ctx, gp::cluster::Cluster& cluster,
                      std::uint64_t first_session_id);
RunResult run_offline(const Context& ctx);

/// Reference answers: a plain single-process Server with batch_max = 1 and
/// the given quant mode, fed every plan's prefix closed loop.
std::vector<gp::serve::ServeResult> reference_serve(const std::vector<SessionPlan>& plans,
                                                    const Context& ctx,
                                                    gp::nn::QuantMode quant);
/// Offline reference: the same segment_all -> classify sequence on a freshly
/// loaded system (classify's featurization RNG is per system and call order).
std::vector<gp::serve::ServeResult> reference_offline(const std::vector<SessionPlan>& plans,
                                                      const Context& ctx);

struct Verdict {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::uint64_t missing = 0;
  std::uint64_t mismatched = 0;
  std::uint64_t unexpected = 0;
  double gra = 0.0;
  double uia = 0.0;
  double answered_frac = 0.0;
  std::uint64_t answer_digest = 0;
};

/// Checks every expected answer of every plan (repeats included) against the
/// reference, bitwise (model_version only when `compare_version`). Rejected
/// frames, failed publishes and exceptions count as failed operations.
Verdict verify(const RunResult& run, const std::vector<gp::serve::ServeResult>& reference,
               const Inputs& in, bool compare_version);

/// Process CPU (user + sys) in seconds and peak RSS in MB, from getrusage.
double process_cpu_s();
double process_peak_rss_mb();
/// CPU seconds and peak RSS (MB) of a live child process, from /proc.
double pid_cpu_s(int pid);
double pid_peak_rss_mb(int pid);

}  // namespace pb
