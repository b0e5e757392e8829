// gp::cluster configuration (DESIGN.md §12).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "faults/selfheal.hpp"
#include "serve/config.hpp"

namespace gp::cluster {

/// Deterministic link chaos for tests and cluster_bench: each direction of
/// every router↔worker link can corrupt the encoded envelope it is about to
/// send. Draws are a pure function of (seed, per-channel send counter), so a
/// retry (a fresh send) gets a fresh draw and a failing run replays exactly.
struct LinkFaultConfig {
  double flip_prob = 0.0;      ///< chance a sent envelope gets bits flipped
  std::size_t flip_bits = 3;   ///< flips per corrupted envelope
  double truncate_prob = 0.0;  ///< chance a sent envelope is cut short
  std::uint64_t seed = 0xC0DEC0DEULL;

  bool armed() const { return flip_prob > 0.0 || truncate_prob > 0.0; }
};

struct ClusterConfig {
  /// Worker processes forked at construction. GP_CLUSTER_WORKERS.
  std::size_t workers = 2;
  /// Consistent-hash ring points per worker slot: more points smooth the
  /// session distribution across slots.
  std::size_t virtual_nodes = 16;
  /// Heartbeat budget in ms: both the idle interval after which a worker is
  /// probed and the probe's reply deadline. GP_CLUSTER_HEARTBEAT_MS.
  std::uint64_t heartbeat_ms = 200;
  /// Consecutive failed probes before a hung worker is evicted.
  std::size_t max_missed_heartbeats = 3;
  /// Per-attempt reply deadline for ordinary RPCs (tick batches, restores),
  /// in ms.
  std::uint64_t rpc_deadline_ms = 2000;
  /// Send/recv retry schedule per RPC; retry.deadline_ms bounds the whole
  /// RPC including backoffs (the faults::with_retries budget).
  faults::RetryPolicy retry{/*attempts=*/4, /*base_backoff_ms=*/1.0,
                            /*deadline_ms=*/10000};
  /// Frames accepted per session between state checkpoints. The replay
  /// buffer a failover re-delivers is at most this long.
  std::size_t checkpoint_every = 16;
  /// Fork a replacement into an evicted worker's slot. When false, capacity
  /// shrinks instead, and with every slot down push_frame sheds typed
  /// (Admission::kRejectedNoWorker).
  bool respawn = true;
  /// .gpsy model every worker publishes into its registry at spawn (empty:
  /// serve with no model — typed no-model abstentions).
  std::string model_path;
  /// Per-worker serving configuration. Workers force batch_wait_us=0 (every
  /// pump flushes, so checkpoints see a quiescent batcher).
  serve::ServeConfig serve;
  /// Link chaos applied to both directions of every link (tests/bench).
  LinkFaultConfig link_faults;

  /// Applies GP_CLUSTER_WORKERS / GP_CLUSTER_HEARTBEAT_MS on top of `base`;
  /// invalid values warn and keep the base value.
  static ClusterConfig from_env(ClusterConfig base);
  static ClusterConfig from_env() { return from_env(ClusterConfig{}); }
};

}  // namespace gp::cluster
