#include "health/flightrec.hpp"

#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <ostream>

#include "common/logging.hpp"
#include "obs/metrics.hpp"

namespace gp::health {

namespace {

// Crash-dump plumbing. The handler runs under SIGABRT/SIGSEGV, so everything
// it touches must be async-signal-safe: a fixed path buffer filled in ahead
// of time, open/write/close, and the allocation-free dump_with_sink core.
char g_crash_path[512] = {0};
std::atomic<bool> g_handlers_installed{false};

void fd_sink(void* ctx, const char* data, std::size_t len) {
  const int fd = *static_cast<const int*>(ctx);
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::write(fd, data + off, len - off);
    if (n <= 0) return;  // best effort: never loop forever inside a handler
    off += static_cast<std::size_t>(n);
  }
}

void crash_handler(int sig) {
  if (g_crash_path[0] != '\0') {
    int fd = ::open(g_crash_path, O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd >= 0) {
      FlightRecorder::global().dump_with_sink(&fd_sink, &fd);
      ::close(fd);
    }
  }
  ::signal(sig, SIG_DFL);
  ::raise(sig);
}

}  // namespace

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kAdmissionReject: return "admission_reject";
    case EventKind::kFaultDrop: return "fault_drop";
    case EventKind::kSegmentCompleted: return "segment_completed";
    case EventKind::kBatchFlush: return "batch_flush";
    case EventKind::kHotSwap: return "hot_swap";
    case EventKind::kPublishFail: return "publish_fail";
    case EventKind::kVerdictFlip: return "verdict_flip";
    case EventKind::kWorkerEvicted: return "worker_evicted";
    case EventKind::kSessionMigrated: return "session_migrated";
    case EventKind::kMark: return "mark";
  }
  return "?";
}

FlightRecorder& FlightRecorder::global() {
  static FlightRecorder recorder;
  return recorder;
}

FlightRecorder::FlightRecorder(std::size_t capacity) : slots_(capacity == 0 ? 1 : capacity) {}

void FlightRecorder::record(EventKind kind, std::uint64_t tick, std::uint64_t a, std::uint64_t b,
                            std::uint64_t c) {
  if (!enabled_.load(std::memory_order_relaxed)) return;
  const std::uint64_t seq = cursor_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[seq % slots_.size()];
  slot.ns.store(monotonic_ns(), std::memory_order_relaxed);
  slot.tick.store(tick, std::memory_order_relaxed);
  slot.kind.store(static_cast<std::uint64_t>(kind), std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  slot.c.store(c, std::memory_order_relaxed);
  // Published last so readers can skip half-written slots; relaxed is enough
  // for the best-effort contract documented in the header.
  slot.seq.store(seq + 1, std::memory_order_release);
  GP_COUNTER_ADD("gp.health.flightrec.events", 1);
}

std::vector<FlightEvent> FlightRecorder::snapshot() const {
  std::vector<FlightEvent> out;
  const std::uint64_t total = cursor_.load(std::memory_order_relaxed);
  const std::uint64_t cap = slots_.size();
  const std::uint64_t first = total > cap ? total - cap : 0;
  out.reserve(static_cast<std::size_t>(total - first));
  for (std::uint64_t seq = first; seq < total; ++seq) {
    const Slot& slot = slots_[seq % cap];
    if (slot.seq.load(std::memory_order_acquire) != seq + 1) continue;  // torn/overwritten
    FlightEvent ev;
    ev.ns = slot.ns.load(std::memory_order_relaxed);
    ev.tick = slot.tick.load(std::memory_order_relaxed);
    ev.kind = static_cast<EventKind>(slot.kind.load(std::memory_order_relaxed));
    ev.a = slot.a.load(std::memory_order_relaxed);
    ev.b = slot.b.load(std::memory_order_relaxed);
    ev.c = slot.c.load(std::memory_order_relaxed);
    out.push_back(ev);
  }
  return out;
}

void FlightRecorder::dump_with_sink(Sink sink, void* ctx) const {
  char buf[256];
  int n = std::snprintf(buf, sizeof(buf),
                        "{\"flight_recorder\":{\"capacity\":%llu,\"total\":%llu,\"events\":[",
                        static_cast<unsigned long long>(slots_.size()),
                        static_cast<unsigned long long>(cursor_.load(std::memory_order_relaxed)));
  sink(ctx, buf, static_cast<std::size_t>(n));
  const std::uint64_t total = cursor_.load(std::memory_order_relaxed);
  const std::uint64_t cap = slots_.size();
  const std::uint64_t first = total > cap ? total - cap : 0;
  bool first_out = true;
  for (std::uint64_t seq = first; seq < total; ++seq) {
    const Slot& slot = slots_[seq % cap];
    if (slot.seq.load(std::memory_order_acquire) != seq + 1) continue;
    const EventKind kind = static_cast<EventKind>(slot.kind.load(std::memory_order_relaxed));
    n = std::snprintf(
        buf, sizeof(buf),
        "%s{\"ns\":%llu,\"tick\":%llu,\"kind\":\"%s\",\"a\":%llu,\"b\":%llu,\"c\":%llu}",
        first_out ? "" : ",",
        static_cast<unsigned long long>(slot.ns.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(slot.tick.load(std::memory_order_relaxed)),
        event_kind_name(kind),
        static_cast<unsigned long long>(slot.a.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(slot.b.load(std::memory_order_relaxed)),
        static_cast<unsigned long long>(slot.c.load(std::memory_order_relaxed)));
    sink(ctx, buf, static_cast<std::size_t>(n));
    first_out = false;
  }
  sink(ctx, "]}}\n", 4);
}

namespace {
void stream_sink(void* ctx, const char* data, std::size_t len) {
  static_cast<std::ostream*>(ctx)->write(data, static_cast<std::streamsize>(len));
}
}  // namespace

void FlightRecorder::dump_json(std::ostream& out) const { dump_with_sink(&stream_sink, &out); }

void FlightRecorder::clear() {
  for (Slot& slot : slots_) slot.seq.store(0, std::memory_order_relaxed);
  cursor_.store(0, std::memory_order_relaxed);
}

void install_crash_dump(const std::string& path) {
  std::snprintf(g_crash_path, sizeof(g_crash_path), "%s", path.c_str());
  bool expected = false;
  if (g_handlers_installed.compare_exchange_strong(expected, true)) {
    ::signal(SIGABRT, &crash_handler);
    ::signal(SIGSEGV, &crash_handler);
  }
}

}  // namespace gp::health
