#include "cluster/cluster.hpp"

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstring>

#include "common/fnv.hpp"
#include "common/logging.hpp"
#include "health/flightrec.hpp"
#include "obs/metrics.hpp"

namespace gp::cluster {

namespace {

/// Ring point for (slot, virtual node) — pure, so the ring is identical
/// across runs and across routers.
std::uint64_t ring_hash(std::size_t slot, std::size_t vnode) {
  std::uint64_t h = fnv::kOffsetBasis;
  h = fnv::accumulate_value(h, static_cast<std::uint64_t>(slot));
  h = fnv::accumulate_value(h, static_cast<std::uint64_t>(vnode));
  return h;
}

std::uint64_t session_hash(std::uint64_t session_id) {
  return fnv::accumulate_value(fnv::kOffsetBasis, session_id);
}

}  // namespace

const char* eviction_reason_name(EvictionReason reason) {
  switch (reason) {
    case EvictionReason::kProcessDied:
      return "process_died";
    case EvictionReason::kLinkFailure:
      return "link_failure";
    case EvictionReason::kMissedHeartbeats:
      return "missed_heartbeats";
  }
  return "unknown";
}

Cluster::Cluster(const ClusterConfig& config) : config_(config) {
  if (config_.serve.enroll.enabled) {
    throw InvalidArgument(
        "cluster: GP_ENROLL (serve.enroll.enabled) is not supported under "
        "gp::cluster; its workers run no enrollment");
  }
  if (config_.workers == 0) config_.workers = 1;
  if (config_.virtual_nodes == 0) config_.virtual_nodes = 1;
  if (config_.checkpoint_every == 0) config_.checkpoint_every = 1;
  workers_.resize(config_.workers);
  ring_.reserve(config_.workers * config_.virtual_nodes);
  for (std::size_t slot = 0; slot < config_.workers; ++slot) {
    for (std::size_t v = 0; v < config_.virtual_nodes; ++v) {
      ring_.emplace_back(ring_hash(slot, v), slot);
    }
  }
  std::sort(ring_.begin(), ring_.end());
  batch_cap_ = std::max<std::size_t>(1, config_.serve.queue_cap * config_.serve.shards);
  std::lock_guard<std::mutex> lk(mu_);
  for (std::size_t slot = 0; slot < config_.workers; ++slot) spawn_slot_locked(slot);
  publish_gauges_locked();
}

Cluster::~Cluster() {
  std::lock_guard<std::mutex> lk(mu_);
  for (WorkerState& w : workers_) {
    if (!w.alive) continue;
    // Best-effort graceful stop: one kShutdown attempt with a short budget,
    // then close the link (EOF also terminates a healthy worker).
    try {
      attempt_locked(w.handle.slot, ++w.seq, MsgType::kShutdown, std::string(),
                     /*deadline_ms=*/500);
    } catch (...) {
    }
    w.handle.channel.close();
  }
  for (WorkerState& w : workers_) {
    if (!w.alive || w.handle.pid <= 0) continue;
    int status = 0;
    bool reaped = false;
    for (int i = 0; i < 200; ++i) {  // ~2 s grace for the clean exit
      const pid_t rc = ::waitpid(w.handle.pid, &status, WNOHANG);
      if (rc == w.handle.pid || (rc < 0 && errno == ECHILD)) {
        reaped = true;
        break;
      }
      ::usleep(10 * 1000);
    }
    if (!reaped) {
      ::kill(w.handle.pid, SIGKILL);
      ::waitpid(w.handle.pid, &status, 0);
    }
    w.alive = false;
  }
}

std::vector<int> Cluster::open_fds_locked() const {
  std::vector<int> fds;
  for (const WorkerState& w : workers_) {
    if (w.alive && w.handle.channel.valid()) fds.push_back(w.handle.channel.fd());
  }
  return fds;
}

void Cluster::spawn_slot_locked(std::size_t slot) {
  WorkerState& w = workers_[slot];
  w.handle = spawn_worker(config_, slot, open_fds_locked());
  w.alive = true;
  w.seq = 0;
  w.last_ok_ns = monotonic_ns();
  w.missed_heartbeats = 0;
  ++stats_.workers_spawned;
  GP_COUNTER_ADD("gp.cluster.workers_spawned", 1);
}

std::size_t Cluster::route_locked(std::uint64_t session_id) const {
  if (ring_.empty()) return kNoOwner;
  const std::uint64_t h = session_hash(session_id);
  auto it = std::lower_bound(ring_.begin(), ring_.end(),
                             std::make_pair(h, static_cast<std::size_t>(0)));
  for (std::size_t step = 0; step < ring_.size(); ++step, ++it) {
    if (it == ring_.end()) it = ring_.begin();
    if (workers_[it->second].alive) return it->second;
  }
  return kNoOwner;
}

std::vector<std::size_t> Cluster::live_slots_locked() const {
  std::vector<std::size_t> slots;
  for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
    if (workers_[slot].alive) slots.push_back(slot);
  }
  return slots;
}

void Cluster::send_locked(std::size_t slot, std::uint64_t seq, MsgType type,
                          const std::string& payload) {
  WorkerState& w = workers_[slot];
  if (!w.handle.channel.valid()) throw TransportError("worker link is closed");
  ++stats_.rpc_attempts;
  Message request;
  request.type = type;
  request.seq = seq;
  request.payload = payload;
  w.handle.channel.send_message(encode_message(request));
}

Message Cluster::recv_locked(std::size_t slot, std::uint64_t seq,
                             std::uint64_t deadline_ms) {
  WorkerState& w = workers_[slot];
  if (!w.handle.channel.valid()) throw TransportError("worker link is closed");
  std::string bytes;
  for (;;) {
    if (!w.handle.channel.recv_message(bytes, deadline_ms)) {
      throw TransportError("worker closed the link mid-RPC");
    }
    Message reply;
    try {
      reply = decode_message(bytes);
    } catch (const SerializationError& e) {
      // The reply got damaged in flight: a retransmission produces fresh
      // bytes, so this is a *transport* fault at the RPC layer — wrapping it
      // keeps faults::with_retries' never-retry-SerializationError contract
      // intact while still retrying the link.
      ++stats_.corrupt_replies;
      GP_COUNTER_ADD("gp.cluster.corrupt_replies", 1);
      throw TransportError(std::string("corrupt reply envelope: ") + e.what());
    }
    if (reply.type == MsgType::kCorrupt) {
      // Our request got damaged in flight; the worker rejected it typed and
      // changed no state. Re-send (same seq, so a racing duplicate is safe).
      ++stats_.corrupt_requests;
      GP_COUNTER_ADD("gp.cluster.corrupt_requests", 1);
      throw TransportError("worker rejected a corrupt request: " +
                           decode_text(reply.payload));
    }
    // A reply from an earlier timed-out attempt of a previous RPC can still
    // sit in the stream; seqs are per-link unique, so skip anything stale.
    if (reply.seq != seq) continue;
    w.last_ok_ns = monotonic_ns();
    w.missed_heartbeats = 0;
    return reply;
  }
}

Message Cluster::attempt_locked(std::size_t slot, std::uint64_t seq, MsgType type,
                                const std::string& payload, std::uint64_t deadline_ms) {
  send_locked(slot, seq, type, payload);
  return recv_locked(slot, seq, deadline_ms);
}

Cluster::Call Cluster::begin_call_locked(std::size_t slot, MsgType type,
                                         std::string payload) {
  WorkerState& w = workers_[slot];
  if (!w.alive) throw TransportError("worker slot is down");
  // One seq for the whole RPC: every retry re-sends the same seq, so the
  // worker's at-most-once cache fires instead of re-executing the request.
  Call call;
  call.slot = slot;
  call.seq = ++w.seq;
  call.type = type;
  call.payload = std::move(payload);
  ++stats_.rpc_calls;
  try {
    send_locked(slot, call.seq, type, call.payload);
    call.sent = true;
  } catch (const Error&) {
    call.sent = false;  // finish_call_locked's retries re-send it
  }
  return call;
}

Message Cluster::finish_call_locked(const Call& call) {
  bool first = true;
  try {
    return faults::with_retries(config_.retry, [&]() -> Message {
      if (first) {
        first = false;
        if (!call.sent) throw TransportError("request send failed");
        return recv_locked(call.slot, call.seq, config_.rpc_deadline_ms);
      }
      return attempt_locked(call.slot, call.seq, call.type, call.payload,
                            config_.rpc_deadline_ms);
    });
  } catch (const Error&) {
    ++stats_.rpc_failures;
    GP_COUNTER_ADD("gp.cluster.rpc_failures", 1);
    throw;
  }
}

Message Cluster::call_locked(std::size_t slot, MsgType type, std::string payload) {
  return finish_call_locked(begin_call_locked(slot, type, std::move(payload)));
}

serve::Admission Cluster::push_frame(std::uint64_t session_id, const FrameView& frame) {
  std::lock_guard<std::mutex> lk(mu_);
  SessionState& s = sessions_[session_id];
  if (s.owner == kNoOwner) {
    const bool has_history = s.checkpoint_valid || !s.replay.empty() || s.emitted > 0;
    if (has_history) {
      // A previously-unplaceable session regains capacity: run the full
      // failover (restore checkpoint + replay) before this new frame.
      pending_migrations_.emplace_back(session_id, kNoOwner);
      drive_migrations_locked();
    } else {
      s.owner = route_locked(session_id);
    }
    if (s.owner == kNoOwner) {
      ++stats_.frames_shed_no_worker;
      GP_COUNTER_ADD("gp.cluster.frames_shed_no_worker", 1);
      return serve::Admission::kRejectedNoWorker;
    }
  }
  const std::size_t owner = s.owner;
  Batch& batch = workers_[owner].outbound;
  batch.request.frames.push_back(encode_wire_frame(session_id, frame));
  batch.sessions.push_back(session_id);
  if (batch.sessions.size() >= batch_cap_) {
    // A caller that never pumps must not grow router memory without limit:
    // ship the full batch now, without a pump, exactly as the worker would
    // have seen these frames one by one.
    std::vector<serve::ServeResult> none;
    tick_locked(TickOp::kFramesOnly, {owner}, none);
  }
  return serve::Admission::kAccepted;
}

std::vector<std::uint64_t> Cluster::due_checkpoints_locked(const Batch& batch) const {
  std::vector<std::uint64_t> sids = batch.sessions;
  std::sort(sids.begin(), sids.end());
  std::vector<std::uint64_t> due;
  for (std::size_t i = 0; i < sids.size();) {
    std::size_t j = i;
    while (j < sids.size() && sids[j] == sids[i]) ++j;
    const auto it = sessions_.find(sids[i]);
    if (it != sessions_.end() &&
        it->second.replay.size() + (j - i) >= config_.checkpoint_every) {
      due.push_back(sids[i]);
    }
    i = j;
  }
  return due;
}

void Cluster::tick_locked(TickOp op, const std::vector<std::size_t>& slots,
                          std::vector<serve::ServeResult>& out) {
  // Send every batch before reading any reply, so the workers run their
  // pumps at the same time.
  std::vector<Call> calls;
  calls.reserve(slots.size());
  for (const std::size_t slot : slots) {
    WorkerState& w = workers_[slot];
    if (!w.alive) continue;
    w.inflight = std::move(w.outbound);
    w.outbound = Batch{};
    w.inflight.request.op = op;
    if (op == TickOp::kPump) w.inflight.request.checkpoints = due_checkpoints_locked(w.inflight);
    calls.push_back(
        begin_call_locked(slot, MsgType::kTick, encode_tick_request(w.inflight.request)));
  }
  // Evictions while replies are outstanding defer their migrations: a
  // failover RPC to a worker whose tick reply is still unread would skip
  // that reply as stale.
  collecting_ = true;
  for (const Call& call : calls) {
    try {
      apply_tick_reply_locked(call.slot, finish_call_locked(call), out);
    } catch (const Error&) {
      evict_locked(call.slot, EvictionReason::kLinkFailure, /*already_reaped=*/false);
    }
  }
  collecting_ = false;
  drive_migrations_locked();
}

void Cluster::apply_tick_reply_locked(std::size_t slot, const Message& reply,
                                      std::vector<serve::ServeResult>& out) {
  if (reply.type != MsgType::kTickReply) {
    // kError (handler threw) or a protocol violation: the worker's state
    // for these streams can no longer be trusted — evict and fail over.
    throw TransportError(std::string("unexpected kTick reply: ") + msg_type_name(reply.type) +
                         (reply.type == MsgType::kError ? " (" + decode_text(reply.payload) + ")"
                                                        : std::string()));
  }
  TickReply tick = decode_tick_reply(reply.payload);
  Batch& batch = workers_[slot].inflight;
  const std::vector<std::uint64_t>& asked = batch.request.checkpoints;
  bool matches =
      tick.verdicts.size() == batch.sessions.size() && tick.states.size() == asked.size();
  for (std::size_t i = 0; matches && i < asked.size(); ++i) {
    matches = tick.states[i].first == asked[i];
  }
  if (!matches) throw TransportError("tick reply does not match its request");

  for (std::size_t i = 0; i < batch.sessions.size(); ++i) {
    if (tick.verdicts[i] == serve::Admission::kAccepted) {
      // Record for replay only *after* the verdict: a frame whose worker is
      // evicted first was never accepted anywhere, and is handed to the
      // session's new owner as an orphan instead.
      sessions_[batch.sessions[i]].replay.push_back(std::move(batch.request.frames[i]));
      ++stats_.frames_accepted;
      GP_COUNTER_ADD("gp.cluster.frames_accepted", 1);
    } else {
      ++stats_.frames_rejected_queue_full;
      GP_COUNTER_ADD("gp.cluster.frames_rejected", 1);
    }
  }
  append_results_locked(tick.results, out);
  // The states were exported after this tick's pump, so each covers every
  // frame the router has sent its session.
  for (auto& [sid, blob] : tick.states) {
    if (blob.empty()) continue;  // unknown to the worker: keep the replay buffer
    SessionState& s = sessions_[sid];
    s.checkpoint = std::move(blob);
    s.checkpoint_valid = true;
    s.replay.clear();
    ++stats_.checkpoints;
    GP_COUNTER_ADD("gp.cluster.checkpoints", 1);
  }
  batch = Batch{};
}

void Cluster::append_results_locked(const std::vector<serve::ServeResult>& batch,
                                    std::vector<serve::ServeResult>& out) {
  for (const serve::ServeResult& r : batch) {
    SessionState& s = sessions_[r.session_id];
    if (r.segment_ordinal < s.emitted) {
      // A failover replayed frames whose segments were already delivered;
      // the per-session ordinal is the dedup key.
      ++stats_.duplicate_results_dropped;
      GP_COUNTER_ADD("gp.cluster.duplicate_results_dropped", 1);
      continue;
    }
    s.emitted = r.segment_ordinal + 1;
    ++stats_.results;
    out.push_back(r);
  }
}

std::vector<serve::ServeResult> Cluster::pump() {
  std::lock_guard<std::mutex> lk(mu_);
  ++tick_;
  std::vector<serve::ServeResult> out;
  reap_dead_locked();
  tick_locked(TickOp::kPump, live_slots_locked(), out);
  heartbeat_probe_locked();
  publish_gauges_locked();
  return out;
}

std::vector<serve::ServeResult> Cluster::drain() {
  std::lock_guard<std::mutex> lk(mu_);
  ++tick_;
  std::vector<serve::ServeResult> out;
  reap_dead_locked();
  // A worker dying mid-drain migrates its sessions (replay frames land in
  // the new owner's ingress queue, its unanswered frames in the new owner's
  // outbound batch), so keep draining until one full pass completes without
  // an eviction. Re-draining an already-flushed worker is idempotent, and
  // replayed duplicates fall to the ordinal dedup.
  for (std::size_t pass = 0; pass < config_.workers + 2; ++pass) {
    const std::uint64_t evictions_before = stats_.workers_evicted;
    tick_locked(TickOp::kDrain, live_slots_locked(), out);
    if (stats_.workers_evicted == evictions_before) break;
  }
  publish_gauges_locked();
  return out;
}

void Cluster::heartbeat_probe_locked() {
  const std::uint64_t now_ns = monotonic_ns();
  for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
    WorkerState& w = workers_[slot];
    if (!w.alive) continue;
    const std::uint64_t idle_ms = (now_ns - w.last_ok_ns) / 1000000ULL;
    // Only probe workers that have been silent: a worker answering real RPCs
    // is evidently alive, and last_ok_ns refreshes on every success.
    if (idle_ms < config_.heartbeat_ms) continue;
    ++stats_.heartbeat_probes;
    GP_COUNTER_ADD("gp.cluster.heartbeat_probes", 1);
    const std::uint64_t nonce = ++heartbeat_nonce_;
    bool ok = false;
    try {
      const Message reply = attempt_locked(slot, ++w.seq, MsgType::kHeartbeat,
                                           encode_u64(nonce), config_.heartbeat_ms);
      ok = reply.type == MsgType::kAck && decode_u64(reply.payload) == nonce;
    } catch (const Error&) {
      ok = false;
    }
    if (ok) continue;  // attempt_locked already reset the miss counter
    ++stats_.heartbeat_misses;
    GP_COUNTER_ADD("gp.cluster.heartbeat_misses", 1);
    ++w.missed_heartbeats;
    if (w.missed_heartbeats >= config_.max_missed_heartbeats) {
      evict_locked(slot, EvictionReason::kMissedHeartbeats, /*already_reaped=*/false);
    }
  }
}

void Cluster::reap_dead_locked() {
  for (std::size_t slot = 0; slot < workers_.size(); ++slot) {
    WorkerState& w = workers_[slot];
    if (!w.alive || w.handle.pid <= 0) continue;
    int status = 0;
    const pid_t rc = ::waitpid(w.handle.pid, &status, WNOHANG);
    if (rc == w.handle.pid || (rc < 0 && errno == ECHILD)) {
      evict_locked(slot, EvictionReason::kProcessDied, /*already_reaped=*/true);
    }
  }
}

void Cluster::evict_locked(std::size_t slot, EvictionReason reason, bool already_reaped) {
  WorkerState& w = workers_[slot];
  if (!w.alive) return;
  w.alive = false;
  const pid_t pid = w.handle.pid;
  ++stats_.workers_evicted;
  GP_COUNTER_ADD("gp.cluster.workers_evicted", 1);
  switch (reason) {
    case EvictionReason::kProcessDied:
      ++stats_.evicted_process_died;
      break;
    case EvictionReason::kLinkFailure:
      ++stats_.evicted_link_failure;
      break;
    case EvictionReason::kMissedHeartbeats:
      ++stats_.evicted_missed_heartbeats;
      break;
  }
  health::FlightRecorder::global().record(
      health::EventKind::kWorkerEvicted, tick_, static_cast<std::uint64_t>(slot),
      static_cast<std::uint64_t>(pid), static_cast<std::uint64_t>(reason));
  log_warn() << "cluster: evicting worker " << slot << " (pid " << pid
             << "): " << eviction_reason_name(reason);
  if (!already_reaped && pid > 0) {
    // The process may be hung (SIGSTOP, livelock) rather than dead; make the
    // eviction final so the slot can be reused.
    ::kill(pid, SIGKILL);
    int status = 0;
    ::waitpid(pid, &status, 0);
  }
  w.handle.channel.close();
  w.handle.pid = -1;
  // Frames this worker never answered for — the unanswered batch first,
  // then the unsent one — go to their sessions' new owners, after the
  // restore and replay.
  for (Batch* batch : {&w.inflight, &w.outbound}) {
    for (std::size_t i = 0; i < batch->sessions.size(); ++i) {
      orphans_.emplace_back(batch->sessions[i], std::move(batch->request.frames[i]));
    }
    *batch = Batch{};
  }
  for (auto& [sid, s] : sessions_) {
    if (s.owner != slot) continue;
    s.owner = kNoOwner;
    pending_migrations_.emplace_back(sid, slot);
  }
  if (config_.respawn) {
    spawn_slot_locked(slot);
    ++stats_.workers_respawned;
    GP_COUNTER_ADD("gp.cluster.workers_respawned", 1);
  }
  drive_migrations_locked();
}

void Cluster::drive_migrations_locked() {
  // Evictions triggered *during* a migration (the new owner fails too) land
  // back in pending_migrations_; only the outermost call drains the queue,
  // so the recursion depth stays constant no matter how many workers fall.
  if (migration_depth_ > 0 || collecting_) return;
  ++migration_depth_;
  // Hard bound on total work: every session can fail over across every slot
  // a constant number of times before we give up and leave it unowned.
  std::size_t pops_left = (sessions_.size() + 1) * (config_.workers + 2);
  while (!pending_migrations_.empty()) {
    const auto [sid, from_slot] = pending_migrations_.back();
    pending_migrations_.pop_back();
    SessionState& s = sessions_[sid];
    if (s.owner != kNoOwner) continue;  // already re-homed by a later entry
    if (pops_left == 0) {
      ++stats_.migration_failures;
      GP_COUNTER_ADD("gp.cluster.migration_failures", 1);
      continue;
    }
    --pops_left;
    std::size_t placed_target = kNoOwner;
    for (std::size_t attempt = 0;
         attempt < config_.workers + 1 && placed_target == kNoOwner; ++attempt) {
      const std::size_t target = route_locked(sid);
      if (target == kNoOwner) break;
      try {
        restore_and_replay_locked(target, sid, s);
        placed_target = target;
      } catch (const Error& e) {
        log_warn() << "cluster: failover of session " << sid << " to worker " << target
                   << " failed: " << e.what();
        evict_locked(target, EvictionReason::kLinkFailure, /*already_reaped=*/false);
        // Note: the eviction queued the *target's* sessions; this session is
        // still unowned and the attempt loop tries the next route.
      }
    }
    if (placed_target != kNoOwner) {
      s.owner = placed_target;
      ++stats_.sessions_migrated;
      GP_COUNTER_ADD("gp.cluster.sessions_migrated", 1);
      health::FlightRecorder::global().record(
          health::EventKind::kSessionMigrated, tick_, sid,
          static_cast<std::uint64_t>(from_slot),
          static_cast<std::uint64_t>(placed_target));
    } else {
      ++stats_.migration_failures;
      GP_COUNTER_ADD("gp.cluster.migration_failures", 1);
      // Left unowned with checkpoint+replay intact: a later push_frame (or
      // respawn) re-queues the failover once capacity returns.
    }
  }
  --migration_depth_;
  requeue_orphans_locked();
}

void Cluster::restore_and_replay_locked(std::size_t target, std::uint64_t sid,
                                        const SessionState& s) {
  if (s.checkpoint_valid) {
    const Message reply =
        call_locked(target, MsgType::kRestore, encode_state(sid, s.checkpoint));
    if (reply.type != MsgType::kAck) {
      throw TransportError(
          std::string("unexpected kRestore reply: ") + msg_type_name(reply.type) +
          (reply.type == MsgType::kError ? " (" + decode_text(reply.payload) + ")"
                                         : std::string()));
    }
  }
  if (s.replay.empty()) return;
  TickRequest replay;
  replay.op = TickOp::kFramesOnly;
  replay.frames = s.replay;
  const Message reply = call_locked(target, MsgType::kTick, encode_tick_request(replay));
  if (reply.type != MsgType::kTickReply) {
    throw TransportError(std::string("unexpected replay reply: ") +
                         msg_type_name(reply.type));
  }
  const TickReply tick = decode_tick_reply(reply.payload);
  if (tick.verdicts.size() != replay.frames.size() ||
      std::any_of(tick.verdicts.begin(), tick.verdicts.end(), [](serve::Admission v) {
        return v != serve::Admission::kAccepted;
      })) {
    // A replay frame the old owner had accepted must land — a partial
    // replay leaves the target's stream diverged, so discard that worker's
    // state (evict) and try a fresh target.
    throw TransportError("replay frame not accepted during failover");
  }
}

void Cluster::requeue_orphans_locked() {
  std::vector<std::pair<std::uint64_t, std::string>> orphans;
  orphans.swap(orphans_);
  for (auto& [sid, row] : orphans) {
    const std::size_t owner = sessions_[sid].owner;
    if (owner == kNoOwner) {
      ++stats_.frames_shed_no_worker;
      GP_COUNTER_ADD("gp.cluster.frames_shed_no_worker", 1);
      continue;
    }
    // The session has no later frame anywhere yet: pushes wait on mu_.
    Batch& batch = workers_[owner].outbound;
    batch.request.frames.push_back(std::move(row));
    batch.sessions.push_back(sid);
  }
}

void Cluster::supervise() {
  std::lock_guard<std::mutex> lk(mu_);
  reap_dead_locked();
  heartbeat_probe_locked();
  publish_gauges_locked();
}

health::Verdict Cluster::verdict_locked() const {
  std::size_t alive = 0;
  for (const WorkerState& w : workers_) alive += w.alive ? 1 : 0;
  if (alive == 0) return health::Verdict::kUnhealthy;
  if (alive < workers_.size()) return health::Verdict::kDegraded;
  return health::Verdict::kHealthy;
}

void Cluster::publish_gauges_locked() const {
  std::size_t alive = 0;
  for (const WorkerState& w : workers_) alive += w.alive ? 1 : 0;
  obs::gauge("gp.cluster.workers_alive").set(static_cast<double>(alive));
  obs::gauge("gp.cluster.verdict")
      .set(static_cast<double>(static_cast<int>(verdict_locked())));
}

health::Verdict Cluster::verdict() const {
  std::lock_guard<std::mutex> lk(mu_);
  return verdict_locked();
}

std::size_t Cluster::worker_count() const { return config_.workers; }

std::size_t Cluster::workers_alive() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::size_t alive = 0;
  for (const WorkerState& w : workers_) alive += w.alive ? 1 : 0;
  return alive;
}

pid_t Cluster::worker_pid(std::size_t slot) const {
  std::lock_guard<std::mutex> lk(mu_);
  if (slot >= workers_.size() || !workers_[slot].alive) return -1;
  return workers_[slot].handle.pid;
}

std::size_t Cluster::owner_slot(std::uint64_t session_id) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = sessions_.find(session_id);
  return it == sessions_.end() ? kNoOwner : it->second.owner;
}

std::size_t Cluster::replay_depth(std::uint64_t session_id) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = sessions_.find(session_id);
  return it == sessions_.end() ? 0 : it->second.replay.size();
}

Cluster::Stats Cluster::stats() const {
  std::lock_guard<std::mutex> lk(mu_);
  return stats_;
}

}  // namespace gp::cluster
