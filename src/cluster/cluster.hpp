// gp::cluster — crash-tolerant multi-process serving (DESIGN.md §12).
//
// The Cluster owns N forked worker processes, each running a single-threaded
// gp::serve::Server behind the checksummed wire protocol (wire.hpp), and
// plays two roles over them:
//
//   Router: consistent-hashes session ids onto worker slots (a fixed ring
//   of virtual nodes; assignments are sticky until an eviction), buffers
//   each worker's frames in admission order, and ships them as one kTick
//   batch per worker per tick — sent to every worker before any reply is
//   read, so the workers compute side by side. Each batch is one
//   at-most-once RPC (per-link seq + worker-side duplicate suppression),
//   retried on transient link failures under faults::with_retries with a
//   total deadline budget.
//
//   Supervisor: detects dead children (waitpid WNOHANG), hung workers
//   (missed heartbeat probes) and broken links (RPC failure after retries),
//   evicts them typed, respawns replacements, and *migrates* the evicted
//   worker's sessions — restore the last checkpointed StreamSession state
//   blob on the new owner, re-deliver the replay buffer of frames accepted
//   since that checkpoint, then the evicted worker's frames that never got a
//   verdict. The delivered frame sequence after a failover is therefore
//   byte-identical to the uninterrupted stream, and because per-session
//   results are a pure function of (frame sequence, serve seed, session id,
//   ordinal), results stay *bitwise* identical to a fault-free
//   single-worker run. Replayed segments re-emitted by the new
//   owner are deduplicated by per-session next-expected-ordinal.
//
// Graceful degradation: when every slot is down and respawn is off,
// push_frame sheds typed (serve::Admission::kRejectedNoWorker) — the serve
// load-shed vocabulary, extended one row. Online enrollment (GP_ENROLL) is
// not wired into the workers, so the constructor refuses it typed.
// Everything is counted under gp.cluster.* and the capacity verdict reuses
// gp::health's vocabulary.
//
// Threading contract: all public methods are thread-safe behind one router
// mutex. push_frame only routes and buffers, so admission never waits on a
// link; pump() and drain() hold the mutex across one pipelined round of
// batches, during which every worker computes at once (throughput scaling
// comes from the worker processes, not from router concurrency).
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "cluster/config.hpp"
#include "cluster/wire.hpp"
#include "cluster/worker.hpp"
#include "health/slo.hpp"
#include "pointcloud/point.hpp"
#include "serve/config.hpp"

namespace gp::cluster {

/// Why a worker was evicted (flight-recorder payload + per-reason counters).
enum class EvictionReason : std::uint64_t {
  kProcessDied = 0,     ///< waitpid reaped the child (crash / SIGKILL)
  kLinkFailure,         ///< an RPC failed after retries + deadline budget
  kMissedHeartbeats,    ///< max_missed_heartbeats probes went unanswered
};
const char* eviction_reason_name(EvictionReason reason);

class Cluster {
 public:
  /// Forks config.workers workers (each publishes config.model_path).
  /// Throws InvalidArgument, before forking anything, when
  /// config.serve.enroll.enabled (GP_ENROLL): workers run no enrollment.
  explicit Cluster(const ClusterConfig& config);
  /// Graceful shutdown: best-effort kShutdown RPC, close links, reap; any
  /// straggler is SIGKILLed. Never throws.
  ~Cluster();
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  /// Routes one frame to the session's owner worker and appends it to that
  /// worker's outbound batch; no I/O, except that a batch reaching
  /// serve.queue_cap × serve.shards frames ships at once as a frames-only
  /// request, and a session that lost every owner is failed over first.
  /// kAccepted means "buffered for the owner"; kRejectedNoWorker means no
  /// live worker remains. The worker's own verdict arrives with the batch
  /// reply and is counted in Stats (frames_accepted /
  /// frames_rejected_queue_full); only frames it accepted enter the
  /// session's replay buffer, until the next checkpoint, so a failover can
  /// re-deliver them.
  serve::Admission push_frame(std::uint64_t session_id, const FrameView& frame);

  /// One cluster tick: reap dead children, send every live worker its batch
  /// (frames → pump → export of the sessions due a checkpoint), then collect
  /// every reply (verdicts, deduped results, checkpoints); probe idle
  /// workers.
  std::vector<serve::ServeResult> pump();

  /// End-of-stream: drains every worker (flushes in-progress gestures),
  /// repeating while failovers migrate sessions mid-drain, so the final
  /// result set is complete even when a worker dies during the drain.
  std::vector<serve::ServeResult> drain();

  /// Supervision sweep without pumping: reap dead children and heartbeat-
  /// probe workers idle for longer than heartbeat_ms. Call this when the
  /// cluster is otherwise idle; pump() runs the same sweep every tick.
  void supervise();

  /// Capacity verdict in gp::health vocabulary: kHealthy = every slot live,
  /// kDegraded = some slots down, kUnhealthy = none left.
  health::Verdict verdict() const;

  std::size_t worker_count() const;  ///< configured slots
  std::size_t workers_alive() const;
  /// pid of slot `s` (-1 when down) — chaos tests SIGKILL/SIGSTOP through it.
  pid_t worker_pid(std::size_t slot) const;
  /// Current owner slot of a session (SIZE_MAX when unowned); diagnostics.
  std::size_t owner_slot(std::uint64_t session_id) const;
  /// Frames in a session's replay buffer (accepted since its last
  /// checkpoint); diagnostics.
  std::size_t replay_depth(std::uint64_t session_id) const;

  /// Monotonic tallies, mirrored into gp.cluster.* obs counters.
  struct Stats {
    std::uint64_t frames_accepted = 0;
    std::uint64_t frames_rejected_queue_full = 0;
    std::uint64_t frames_shed_no_worker = 0;
    std::uint64_t results = 0;
    std::uint64_t duplicate_results_dropped = 0;
    std::uint64_t corrupt_requests = 0;  ///< worker kCorrupt replies (typed rejects)
    std::uint64_t corrupt_replies = 0;   ///< router-side envelope decode failures
    std::uint64_t rpc_attempts = 0;
    std::uint64_t rpc_calls = 0;         ///< retries = attempts - calls
    std::uint64_t rpc_failures = 0;      ///< RPCs that exhausted retries
    std::uint64_t workers_spawned = 0;
    std::uint64_t workers_evicted = 0;
    std::uint64_t evicted_process_died = 0;
    std::uint64_t evicted_link_failure = 0;
    std::uint64_t evicted_missed_heartbeats = 0;
    std::uint64_t workers_respawned = 0;
    std::uint64_t sessions_migrated = 0;
    std::uint64_t migration_failures = 0;  ///< sessions left unowned
    std::uint64_t checkpoints = 0;
    std::uint64_t heartbeat_probes = 0;
    std::uint64_t heartbeat_misses = 0;
  };
  Stats stats() const;

  const ClusterConfig& config() const { return config_; }

 private:
  static constexpr std::size_t kNoOwner = static_cast<std::size_t>(-1);

  /// Frames bound for one worker, in admission order.
  struct Batch {
    TickRequest request;                  ///< rows (+ checkpoint ids once sent)
    std::vector<std::uint64_t> sessions;  ///< session of each row
  };

  struct WorkerState {
    WorkerHandle handle;
    bool alive = false;
    std::uint64_t seq = 0;          ///< per-link request sequence
    std::uint64_t last_ok_ns = 0;   ///< last successful RPC (heartbeat basis)
    std::size_t missed_heartbeats = 0;
    Batch outbound;  ///< buffered since the last send
    Batch inflight;  ///< sent, verdicts not yet received
  };

  struct SessionState {
    std::size_t owner = kNoOwner;
    std::uint64_t emitted = 0;  ///< results returned to the caller (dedupe bar)
    bool checkpoint_valid = false;
    std::string checkpoint;           ///< GPSS blob (state at last checkpoint)
    std::vector<std::string> replay;  ///< accepted frame rows since the checkpoint
  };

  /// One RPC whose first attempt may already be on the wire.
  struct Call {
    std::size_t slot = 0;
    std::uint64_t seq = 0;
    MsgType type = MsgType::kTick;
    std::string payload;
    bool sent = false;
  };

  // All *_locked members require mu_.
  void spawn_slot_locked(std::size_t slot);
  std::vector<int> open_fds_locked() const;
  /// Sends one attempt of an RPC (no reply read).
  void send_locked(std::size_t slot, std::uint64_t seq, MsgType type,
                   const std::string& payload);
  /// Reads the reply to `seq`, skipping stale ones. Returns kError replies
  /// to the caller; wraps corrupt envelopes into retryable TransportError.
  Message recv_locked(std::size_t slot, std::uint64_t seq, std::uint64_t deadline_ms);
  /// One request/reply exchange with a fixed seq (retries reuse the seq so
  /// the worker's duplicate suppression can fire).
  Message attempt_locked(std::size_t slot, std::uint64_t seq, MsgType type,
                         const std::string& payload, std::uint64_t deadline_ms);
  /// Starts an RPC: takes a fresh seq and sends the first attempt; a failed
  /// send is left for finish_call_locked to retry.
  Call begin_call_locked(std::size_t slot, MsgType type, std::string payload);
  /// Completes an RPC: reads the first attempt's reply, then re-sends the
  /// same seq under config_.retry until a reply arrives or the budget ends.
  Message finish_call_locked(const Call& call);
  Message call_locked(std::size_t slot, MsgType type, std::string payload);
  /// Sends every slot in `slots` its outbound batch as one `op` tick, then
  /// collects every reply; a slot whose RPC fails is evicted, and the
  /// migrations that follow run after the last reply is in.
  void tick_locked(TickOp op, const std::vector<std::size_t>& slots,
                   std::vector<serve::ServeResult>& out);
  /// Validates a tick reply against the slot's in-flight batch and applies
  /// it: verdicts (accepted rows enter replay), results, checkpoints.
  void apply_tick_reply_locked(std::size_t slot, const Message& reply,
                               std::vector<serve::ServeResult>& out);
  /// Sessions of `batch` whose replay would reach checkpoint_every.
  std::vector<std::uint64_t> due_checkpoints_locked(const Batch& batch) const;
  /// Restores `sid`'s checkpoint on `target` and replays its accepted frames.
  void restore_and_replay_locked(std::size_t target, std::uint64_t sid,
                                 const SessionState& s);
  void reap_dead_locked();
  void evict_locked(std::size_t slot, EvictionReason reason, bool already_reaped);
  void drive_migrations_locked();
  /// Hands frames that lost their worker to their session's new owner.
  void requeue_orphans_locked();
  std::size_t route_locked(std::uint64_t session_id) const;
  std::vector<std::size_t> live_slots_locked() const;
  void append_results_locked(const std::vector<serve::ServeResult>& batch,
                             std::vector<serve::ServeResult>& out);
  void heartbeat_probe_locked();
  void publish_gauges_locked() const;
  health::Verdict verdict_locked() const;

  ClusterConfig config_;
  mutable std::mutex mu_;
  std::vector<WorkerState> workers_;
  std::vector<std::pair<std::uint64_t, std::size_t>> ring_;  ///< (hash, slot), sorted
  std::map<std::uint64_t, SessionState> sessions_;
  /// (session id, evicted-from slot) queued for failover.
  std::vector<std::pair<std::uint64_t, std::size_t>> pending_migrations_;
  /// (session id, frame row) of evicted workers' unanswered batches, in
  /// admission order; requeued once the migrations are done.
  std::vector<std::pair<std::uint64_t, std::string>> orphans_;
  /// Outbound frames per worker that trigger a frames-only send:
  /// serve.queue_cap × serve.shards, all a worker can queue between pumps.
  std::size_t batch_cap_ = 1;
  int migration_depth_ = 0;  ///< re-entrancy guard for drive_migrations
  bool collecting_ = false;  ///< replies pending: migrations wait
  std::uint64_t tick_ = 0;   ///< cluster pump/drain count (flight-rec basis)
  std::uint64_t heartbeat_nonce_ = 0;
  Stats stats_;
};

}  // namespace gp::cluster
