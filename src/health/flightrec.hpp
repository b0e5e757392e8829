// Flight recorder: a fixed-capacity lock-free ring of structured serving
// events — the last seconds of what the server was doing, preserved for
// post-mortems (DESIGN.md §10).
//
// Producers (admission threads, shard-drain workers, the pump thread, the
// model registry) record events with one relaxed fetch_add on the cursor
// plus relaxed stores into the claimed slot; there are no locks, no
// allocation after construction, and recording is TSan-clean. The ring
// overwrites oldest-first, so a dump always holds the newest `capacity()`
// events in (approximately) chronological order — under a wrap race a slot
// can be torn, which the dump tolerates (best effort by design: this is a
// crash artifact, not an audit log).
//
// Dumps: dump_json() for the on-demand path (Server tests, gpctl top), and
// dump_with_sink() — snprintf + caller-supplied write callback, no
// allocation, no locks — which install_crash_dump() wires to SIGABRT/SIGSEGV
// so an aborting process still leaves TRACE_flightrec.json behind.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace gp::health {

/// Event taxonomy (§10). `a`/`b`/`c` are kind-specific payload words,
/// documented per kind below. The recorder logs *anomalies and transitions*
/// — rejects, drops, completions, swaps, verdict flips — never the
/// per-frame happy path (a record per admitted frame would both flood the
/// ring with noise and put ~60 ns on the admission hot path).
enum class EventKind : std::uint64_t {
  kAdmissionReject = 0,  ///< a=session_id (queue full)
  kFaultDrop,           ///< a=session_id (injector swallowed a frame)
  kSegmentCompleted,    ///< a=session_id, b=ordinal, c=request_id
  kBatchFlush,          ///< a=batch size, b=model version
  kHotSwap,             ///< a=new version
  kPublishFail,         ///< a=0 (load/verify failure; old model keeps serving)
  kVerdictFlip,         ///< a=old verdict, b=new verdict, c=tick streak
  kWorkerEvicted,       ///< a=worker slot, b=pid, c=eviction reason (§12)
  kSessionMigrated,     ///< a=session_id, b=from slot, c=to slot (§12)
  kMark,                ///< a/b/c caller-defined (tests, tooling)
};
const char* event_kind_name(EventKind kind);

struct FlightEvent {
  std::uint64_t ns = 0;    ///< monotonic_ns at record time
  std::uint64_t tick = 0;  ///< server tick (0 when recorded off the pump path)
  EventKind kind = EventKind::kMark;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  std::uint64_t c = 0;
};

class FlightRecorder {
 public:
  /// The process-wide recorder every serve-stack site records into. The ring
  /// is allocated on first use — Server's constructor touches it so steady
  /// ticks never pay the construction.
  static FlightRecorder& global();

  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  /// One relaxed fetch_add + six relaxed stores; disabled → one branch.
  void record(EventKind kind, std::uint64_t tick, std::uint64_t a = 0, std::uint64_t b = 0,
              std::uint64_t c = 0);

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }

  std::size_t capacity() const { return slots_.size(); }
  /// Events ever recorded (monotonic; events beyond capacity were overwritten).
  std::uint64_t total() const { return cursor_.load(std::memory_order_relaxed); }

  /// Oldest-to-newest copy of the live ring contents.
  std::vector<FlightEvent> snapshot() const;

  /// {"flight_recorder": {"capacity", "total", "events": [...]}} — parse it
  /// back with gp::obs::json.
  void dump_json(std::ostream& out) const;

  /// Allocation- and lock-free dump through a caller-supplied sink: the
  /// async-signal-safe core the crash handler uses (sink = write(2)).
  using Sink = void (*)(void* ctx, const char* data, std::size_t len);
  void dump_with_sink(Sink sink, void* ctx) const;

  /// Drops all recorded events (tests / before a fresh measured region).
  void clear();

  static constexpr std::size_t kDefaultCapacity = 4096;

 private:
  struct Slot {
    std::atomic<std::uint64_t> ns{0};
    std::atomic<std::uint64_t> tick{0};
    std::atomic<std::uint64_t> kind{0};
    std::atomic<std::uint64_t> a{0};
    std::atomic<std::uint64_t> b{0};
    std::atomic<std::uint64_t> c{0};
    std::atomic<std::uint64_t> seq{0};  ///< 1-based record index; 0 = empty
  };
  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> cursor_{0};
  std::atomic<bool> enabled_{true};
};

/// Installs SIGABRT/SIGSEGV handlers (once; later calls only update the
/// path) that dump the global recorder to `path` best-effort and re-raise.
/// The handler itself allocates nothing and takes no locks.
void install_crash_dump(const std::string& path);

}  // namespace gp::health
