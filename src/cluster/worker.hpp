// gp::cluster worker process (DESIGN.md §12).
//
// A worker is a forked child running one single-threaded gp::serve::Server
// behind an RPC loop on its end of a socketpair. Fork safety on a process
// that may already have touched the global ExecContext: the child holds an
// exec::SerialScope for its whole life, so every run_chunks call executes
// inline and the (non-existent-in-the-child) inherited pool threads are
// never awaited. The child exits with _exit(2) — no atexit handlers, no
// static destructors, no sanitizer leak sweep racing the parent.
//
// At-most-once execution: every request carries a per-link seq. The worker
// remembers the last successfully executed seq and its reply; a duplicate
// seq (the router re-sent after a lost/corrupt reply) returns the cached
// reply without re-executing, so a retried kTick can never push its batch
// of frames (or pump) twice. Requests that fail the envelope decode get a kCorrupt reply
// (seq 0 — the seq itself is untrusted in corrupt bytes) and change no
// state: the router counts them and retransmits.
#pragma once

#include <sys/types.h>

#include <cstddef>
#include <vector>

#include "cluster/config.hpp"
#include "cluster/transport.hpp"

namespace gp::cluster {

/// Parent-side handle on one spawned worker.
struct WorkerHandle {
  pid_t pid = -1;
  std::size_t slot = 0;
  Channel channel;  ///< router end of the socketpair
};

/// Forks a worker for `slot`; returns the parent-side handle. Throws
/// gp::Error when the socketpair or fork fails. The child never returns.
/// `close_in_child` lists router-side fds of *other* live links: the child
/// inherits them across fork and must drop them, or a sibling worker would
/// never see EOF when the router closes its link.
WorkerHandle spawn_worker(const ClusterConfig& config, std::size_t slot,
                          const std::vector<int>& close_in_child = {});

/// The child-side RPC loop (exposed for in-process protocol tests: drive it
/// over a socketpair from a thread). Returns the exit code (0 = clean
/// shutdown via kShutdown or router EOF).
int worker_main(int fd, const ClusterConfig& config, std::size_t slot);

}  // namespace gp::cluster
