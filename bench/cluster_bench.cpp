// gp::cluster crash-tolerance sweep (DESIGN.md §12): the same interleaved
// session streams served by 1, 2 and 3 forked worker replicas, then a
// kill-and-recover scenario that SIGKILLs one worker mid-stream and lets the
// supervisor migrate its sessions onto survivors. Emits
// <output_dir>/BENCH_cluster.json and self-checks the two headline
// invariants on the exit code:
//   1. per-session results are bitwise identical across worker counts —
//      distribution is a deployment knob, never a numerics knob;
//   2. the failover run loses nothing: zero shed frames, >= 1 eviction +
//      migration + respawn, and results bitwise identical to the
//      undisturbed single-worker run.
#include <signal.h>
#include <sys/types.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cluster/cluster.hpp"
#include "common/config.hpp"
#include "datasets/catalog.hpp"
#include "eval/splits.hpp"
#include "obs/bench_json.hpp"
#include "system/gestureprint.hpp"

namespace {

using namespace gp;
using Clock = std::chrono::steady_clock;

const std::vector<std::uint64_t> kSessions{7, 1001, 424242};

struct RunOutcome {
  std::vector<serve::ServeResult> results;  ///< sorted by (session, ordinal)
  cluster::Cluster::Stats stats;
  double ms = 0.0;
  bool pushes_ok = true;  ///< every push_frame came back kAccepted
};

/// Streams every recording frame-by-frame (interleaved) through a Cluster,
/// optionally SIGKILLing the owner of kSessions[0] at frame `kill_at`.
RunOutcome run_cluster(cluster::Cluster& cluster,
                       const std::vector<ContinuousRecording>& streams,
                       std::size_t kill_at = SIZE_MAX) {
  RunOutcome out;
  std::size_t max_frames = 0;
  for (const auto& s : streams) max_frames = std::max(max_frames, s.frames.size());
  const Clock::time_point start = Clock::now();
  for (std::size_t f = 0; f < max_frames; ++f) {
    if (f == kill_at) {
      const std::size_t owner = cluster.owner_slot(kSessions[0]);
      const pid_t pid =
          owner == static_cast<std::size_t>(-1) ? -1 : cluster.worker_pid(owner);
      if (pid > 0) (void)::kill(pid, SIGKILL);
    }
    for (std::size_t i = 0; i < kSessions.size(); ++i) {
      if (f >= streams[i].frames.size()) continue;
      if (cluster.push_frame(kSessions[i], streams[i].frames[f]) !=
          serve::Admission::kAccepted) {
        out.pushes_ok = false;
      }
    }
    for (serve::ServeResult& r : cluster.pump()) out.results.push_back(std::move(r));
  }
  for (serve::ServeResult& r : cluster.drain()) out.results.push_back(std::move(r));
  out.ms = std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  std::sort(out.results.begin(), out.results.end(), [](const auto& a, const auto& b) {
    return a.session_id != b.session_id ? a.session_id < b.session_id
                                        : a.segment_ordinal < b.segment_ordinal;
  });
  out.stats = cluster.stats();
  return out;
}

bool results_bitwise_equal(const std::vector<serve::ServeResult>& a,
                           const std::vector<serve::ServeResult>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const serve::ServeResult& x = a[i];
    const serve::ServeResult& y = b[i];
    if (x.session_id != y.session_id || x.segment_ordinal != y.segment_ordinal ||
        x.request_id != y.request_id || x.gesture != y.gesture || x.user != y.user ||
        x.abstained != y.abstained || x.quality_rejected != y.quality_rejected ||
        x.gesture_margin != y.gesture_margin || x.user_margin != y.user_margin ||
        x.model_version != y.model_version) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  using namespace gp;
  bench::banner("cluster_bench", "DESIGN.md §12 (crash-tolerant serving; not in the paper)");

  DatasetScale scale;
  scale.max_users = 3;
  scale.reps = 8;
  DatasetSpec spec = gestureprint_spec(1, scale);
  spec.gestures.resize(3);

  GesturePrintConfig config;
  config.training.epochs = 6;
  config.training.batch_size = 16;
  config.prep.augmentation.copies = 2;
  config.abstain_margin = 0.05;

  std::cout << "Training on " << spec.num_users << " users x " << spec.gestures.size()
            << " gestures...\n";
  const Dataset dataset = generate_dataset(spec);
  const std::string model_path = output_dir() + "/cluster_bench_model.gpsy";
  {
    GesturePrintSystem system(config);
    Rng split_rng(3, 1);
    system.fit(dataset, stratified_split(dataset.gesture_labels(), 0.2, split_rng).train);
    system.save(model_path);
  }

  const std::vector<std::vector<int>> scripts{{0, 2, 1}, {1, 0, 2}, {2, 1, 0}};
  std::vector<ContinuousRecording> streams;
  for (std::size_t s = 0; s < scripts.size(); ++s) {
    streams.push_back(
        generate_recording(spec, s % spec.num_users, scripts[s], 0xC105 + s));
  }

  const auto base_config = [&](std::size_t workers) {
    cluster::ClusterConfig cc;
    cc.workers = workers;
    cc.model_path = model_path;
    cc.serve.system = config;
    cc.serve.shards = 1;
    cc.checkpoint_every = 8;
    return cc;
  };

  bool ok = true;

  // ---- worker-count sweep: distribution must not change a single bit ----
  const std::vector<std::size_t> workers_swept{1, 2, 3};
  std::vector<obs::ClusterSweepCell> cells;
  std::vector<serve::ServeResult> reference;
  for (const std::size_t workers : workers_swept) {
    cluster::Cluster c(base_config(workers));
    const RunOutcome outcome = run_cluster(c, streams);
    if (workers == 1) reference = outcome.results;
    obs::ClusterSweepCell cell;
    cell.workers = workers;
    cell.frames = outcome.stats.frames_accepted;
    cell.results = outcome.stats.results;
    cell.rpc_calls = outcome.stats.rpc_calls;
    cell.rpc_attempts = outcome.stats.rpc_attempts;
    cell.checkpoints = outcome.stats.checkpoints;
    cell.ms = outcome.ms;
    cell.bitwise_vs_single = results_bitwise_equal(outcome.results, reference);
    cells.push_back(cell);
    const double rpc_per_result =
        cell.results == 0 ? 0.0
                          : static_cast<double>(cell.rpc_calls) / static_cast<double>(cell.results);
    std::cout << "  workers=" << workers << ": " << cell.results << " results in "
              << cell.ms << " ms (" << cell.rpc_attempts << " wire attempts / "
              << cell.rpc_calls << " RPCs = " << rpc_per_result << " RPCs per result, "
              << cell.checkpoints << " checkpoints), "
              << (cell.bitwise_vs_single ? "bitwise == 1-worker" : "DIVERGED") << "\n";
    if (!cell.bitwise_vs_single || !outcome.pushes_ok) ok = false;
    if (outcome.stats.workers_evicted != 0) {
      std::cout << "FAIL: fault-free sweep evicted a worker\n";
      ok = false;
    }
  }

  // ---- kill-and-recover: SIGKILL one worker mid-stream -------------------
  std::size_t max_frames = 0;
  for (const auto& s : streams) max_frames = std::max(max_frames, s.frames.size());
  obs::ClusterFailoverSummary failover;
  {
    cluster::Cluster c(base_config(2));
    const RunOutcome outcome = run_cluster(c, streams, max_frames / 2);
    failover.measured = true;
    failover.workers = 2;
    failover.evictions = outcome.stats.workers_evicted;
    failover.migrations = outcome.stats.sessions_migrated;
    failover.respawns = outcome.stats.workers_respawned;
    failover.results = outcome.stats.results;
    failover.shed = outcome.stats.frames_shed_no_worker;
    failover.ms = outcome.ms;
    failover.bitwise_identical = results_bitwise_equal(outcome.results, reference);
    std::cout << "  failover(workers=2, kill@" << max_frames / 2
              << "): " << failover.evictions << " evicted, " << failover.migrations
              << " sessions migrated, " << failover.respawns << " respawned, "
              << failover.shed << " shed, "
              << (failover.bitwise_identical ? "bitwise == undisturbed" : "DIVERGED")
              << "\n";
    if (!failover.bitwise_identical || !outcome.pushes_ok) ok = false;
    if (failover.evictions < 1 || failover.migrations < 1 || failover.respawns < 1) {
      std::cout << "FAIL: the kill scenario exercised no failover\n";
      ok = false;
    }
    if (failover.shed != 0) {
      std::cout << "FAIL: failover shed " << failover.shed << " frames\n";
      ok = false;
    }
  }

  const std::string json =
      obs::cluster_bench_json(kSessions.size(), workers_swept, cells, failover);
  const std::string path = output_dir() + "/BENCH_cluster.json";
  std::ofstream(path) << json;
  std::cout << "\nWrote " << path << "\n";
  std::cout << (ok ? "Cluster crash-tolerance invariants hold.\n"
                   : "Invariants VIOLATED.\n");
  return ok ? 0 : 1;
}
