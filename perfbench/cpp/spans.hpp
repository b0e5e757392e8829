// In-memory span recorder for the benchmark's traced runs.
//
// The benchmark times the calls it makes into the stack from the outside
// (the program itself is not instrumented by this). A span is (name, start,
// end, parent span, request id); spans stay in memory and are written as
// Chrome trace-event JSON at exit. A disabled recorder costs one branch per
// scope, which is how untraced runs keep their end-to-end numbers clean.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
          .count());
}

inline double ns_to_ms(std::uint64_t ns) { return static_cast<double>(ns) / 1e6; }
inline double ns_to_us(std::uint64_t ns) { return static_cast<double>(ns) / 1e3; }

class SpanLog {
 public:
  struct Span {
    const char* name = "";  ///< string literal
    std::uint64_t start_ns = 0;
    std::uint64_t end_ns = 0;
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  ///< 0 = root
    std::uint64_t request_id = 0;
    std::uint32_t tid = 0;
  };

  /// Spans beyond `capacity` are counted but not stored.
  explicit SpanLog(bool enabled, std::size_t capacity = 400000);

  bool enabled() const { return enabled_; }

  /// Opens a span on the calling thread's stack and returns its id (0 when
  /// disabled). Spans opened while it is open take it as parent.
  std::uint32_t open(const char* name, std::uint64_t request_id = 0);
  void close(std::uint32_t id);
  /// Records a finished span with an explicit parent (e.g. a request span
  /// from its trigger frame to the pump that answered it).
  void record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
              std::uint32_t parent, std::uint64_t request_id);

  std::size_t stored() const;
  std::size_t dropped() const;
  /// Chrome trace-event JSON ("X" complete events; args carry id, parent and
  /// request id). Returns false when the file cannot be written.
  bool write_chrome(const std::string& path) const;

 private:
  std::uint32_t next_id_locked() { return ++last_id_; }

  bool enabled_;
  std::size_t capacity_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;      ///< guarded by mu_; closed spans
  std::vector<Span> open_;       ///< guarded by mu_; per-thread stacks interleaved
  std::uint32_t last_id_ = 0;    ///< guarded by mu_
  std::size_t dropped_ = 0;      ///< guarded by mu_
  std::uint64_t origin_ns_ = 0;  ///< trace time zero
};

/// RAII scope: times a call and, when the log is enabled, records a span.
class Scope {
 public:
  Scope(SpanLog& log, const char* name, std::uint64_t request_id = 0)
      : log_(log), start_ns_(now_ns()), id_(log.enabled() ? log.open(name, request_id) : 0) {}
  ~Scope() { stop(); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  /// Closes the span (idempotent) and returns its duration in ns.
  std::uint64_t stop() {
    if (!stopped_) {
      end_ns_ = now_ns();
      if (id_ != 0) log_.close(id_);
      stopped_ = true;
    }
    return end_ns_ - start_ns_;
  }
  std::uint32_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::uint64_t start_ns_;
  std::uint64_t end_ns_ = 0;
  std::uint32_t id_;
  bool stopped_ = false;
};

}  // namespace pb
