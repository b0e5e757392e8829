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
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "cluster/cluster.hpp"
#include "common/config.hpp"
#include "datasets/catalog.hpp"
#include "eval/splits.hpp"
#include "exec/exec.hpp"
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
  obs::BenchDoc doc("cluster", exec::default_threads());
  doc.add("sessions", "count", static_cast<double>(kSessions.size()));
  const auto count = [&](const std::string& name, std::uint64_t value) {
    doc.add(name, "count", static_cast<double>(value));
  };

  // ---- worker-count sweep: distribution must not change a single bit ----
  std::vector<serve::ServeResult> reference;
  for (const std::size_t workers : {1, 2, 3}) {
    cluster::Cluster c(base_config(workers));
    const RunOutcome outcome = run_cluster(c, streams);
    if (workers == 1) reference = outcome.results;
    const cluster::Cluster::Stats& st = outcome.stats;
    const bool bitwise = results_bitwise_equal(outcome.results, reference);
    const double rpc_per_result =
        st.results == 0 ? 0.0
                        : static_cast<double>(st.rpc_calls) / static_cast<double>(st.results);
    std::string prefix = "w";
    prefix += std::to_string(workers);
    count(prefix + ".frames", st.frames_accepted);
    count(prefix + ".results", st.results);
    count(prefix + ".rpc_calls", st.rpc_calls);
    count(prefix + ".rpc_attempts", st.rpc_attempts);
    count(prefix + ".checkpoints", st.checkpoints);
    doc.add(prefix + ".ms", "ms", outcome.ms);
    doc.add(prefix + ".bitwise_vs_single", "bool", bitwise ? 1.0 : 0.0);
    std::cout << "  workers=" << workers << ": " << st.results << " results in "
              << outcome.ms << " ms (" << st.rpc_attempts << " wire attempts / "
              << st.rpc_calls << " RPCs = " << rpc_per_result << " RPCs per result, "
              << st.checkpoints << " checkpoints), "
              << (bitwise ? "bitwise == 1-worker" : "DIVERGED") << "\n";
    if (!bitwise || !outcome.pushes_ok) ok = false;
    if (st.workers_evicted != 0) {
      std::cout << "FAIL: fault-free sweep evicted a worker\n";
      ok = false;
    }
  }

  // ---- kill-and-recover: SIGKILL one worker mid-stream -------------------
  std::size_t max_frames = 0;
  for (const auto& s : streams) max_frames = std::max(max_frames, s.frames.size());
  {
    cluster::Cluster c(base_config(2));
    const RunOutcome outcome = run_cluster(c, streams, max_frames / 2);
    const cluster::Cluster::Stats& st = outcome.stats;
    const bool bitwise = results_bitwise_equal(outcome.results, reference);
    count("failover.workers", 2);
    count("failover.evictions", st.workers_evicted);
    count("failover.migrations", st.sessions_migrated);
    count("failover.respawns", st.workers_respawned);
    count("failover.results", st.results);
    count("failover.shed", st.frames_shed_no_worker);
    doc.add("failover.ms", "ms", outcome.ms);
    doc.add("failover.bitwise_identical", "bool", bitwise ? 1.0 : 0.0);
    std::cout << "  failover(workers=2, kill@" << max_frames / 2
              << "): " << st.workers_evicted << " evicted, " << st.sessions_migrated
              << " sessions migrated, " << st.workers_respawned << " respawned, "
              << st.frames_shed_no_worker << " shed, "
              << (bitwise ? "bitwise == undisturbed" : "DIVERGED") << "\n";
    if (!bitwise || !outcome.pushes_ok) ok = false;
    if (st.workers_evicted < 1 || st.sessions_migrated < 1 || st.workers_respawned < 1) {
      std::cout << "FAIL: the kill scenario exercised no failover\n";
      ok = false;
    }
    if (st.frames_shed_no_worker != 0) {
      std::cout << "FAIL: failover shed " << st.frames_shed_no_worker << " frames\n";
      ok = false;
    }
  }

  std::cout << "\nWrote " << doc.write(output_dir()) << "\n";
  std::cout << (ok ? "Cluster crash-tolerance invariants hold.\n"
                   : "Invariants VIOLATED.\n");
  return ok ? 0 : 1;
}
