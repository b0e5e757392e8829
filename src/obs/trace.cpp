#include "obs/trace.hpp"

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "obs/json.hpp"

namespace gp::obs {

namespace {

constexpr std::size_t kTraceBufferCapacity = 1 << 16;  ///< events per thread

std::atomic<bool>& trace_flag() {
  static std::atomic<bool> flag = [] {
    const char* v = std::getenv("GP_TRACE");
    if (v == nullptr) return false;
    const std::string s(v);
    return s == "on" || s == "1" || s == "true" || s == "yes";
  }();
  return flag;
}

/// Per-thread ring buffer. The owning thread appends under the (practically
/// uncontended) mutex; the exporter locks each buffer briefly to copy.
/// Buffers are kept alive by shared_ptr in the global list so events from
/// exited worker threads still appear in the export.
struct TraceBuffer {
  std::mutex mutex;
  std::vector<TraceEvent> events;  ///< ring storage, capacity-bounded
  std::size_t next = 0;            ///< ring write cursor
  std::uint64_t total = 0;         ///< events ever appended
  int tid = 0;
  std::string name;                ///< set_thread_name label ("" = unnamed)

  void append(const TraceEvent& event) {
    const std::lock_guard<std::mutex> lock(mutex);
    if (events.size() < kTraceBufferCapacity) {
      events.push_back(event);
    } else {
      events[next] = event;
    }
    next = (next + 1) % kTraceBufferCapacity;
    ++total;
  }
};

struct BufferDirectory {
  std::mutex mutex;
  std::vector<std::shared_ptr<TraceBuffer>> buffers;
};

BufferDirectory& directory() {
  // Never destroyed, like ExecContext::global(): its pool workers outlive
  // static destruction and may still register their buffers at exit.
  static BufferDirectory* dir = new BufferDirectory();
  return *dir;
}

TraceBuffer& thread_buffer() {
  thread_local std::shared_ptr<TraceBuffer> buffer = [] {
    auto b = std::make_shared<TraceBuffer>();
    b->tid = thread_ordinal();
    BufferDirectory& dir = directory();
    const std::lock_guard<std::mutex> lock(dir.mutex);
    dir.buffers.push_back(b);
    return b;
  }();
  return *buffer;
}

thread_local int tl_span_depth = 0;

struct StageDirectory {
  std::mutex mutex;
  std::map<std::string, std::unique_ptr<StageStats>> stages;
};

StageDirectory& stage_directory() {
  static StageDirectory dir;
  return dir;
}

}  // namespace

bool trace_enabled() { return trace_flag().load(std::memory_order_relaxed); }
void set_trace_enabled(bool enabled) {
  trace_flag().store(enabled, std::memory_order_relaxed);
}

StageStats& stage_stats(const char* name) {
  StageDirectory& dir = stage_directory();
  const std::lock_guard<std::mutex> lock(dir.mutex);
  auto& slot = dir.stages[name];
  if (!slot) {
    Histogram& hist = Registry::global().histogram(std::string("gp.stage.") + name);
    slot = std::make_unique<StageStats>(name, hist);
  }
  return *slot;
}

std::vector<StageSnapshot> stage_snapshots() {
  StageDirectory& dir = stage_directory();
  const std::lock_guard<std::mutex> lock(dir.mutex);
  std::vector<StageSnapshot> out;
  out.reserve(dir.stages.size());
  for (const auto& [name, stats] : dir.stages) {
    StageSnapshot snap;
    snap.name = name;
    snap.histogram = stats->histogram().snapshot();
    snap.min_depth = stats->min_depth();
    out.push_back(std::move(snap));
  }
  return out;
}

// -------------------------------------------------------------------- Span

int span_depth() { return tl_span_depth; }

SpanDepthScope::SpanDepthScope(int depth) : saved_(tl_span_depth) { tl_span_depth = depth; }
SpanDepthScope::~SpanDepthScope() { tl_span_depth = saved_; }

Span::Span(const char* name, StageStats* stats) {
  const bool metrics = metrics_enabled();
  const bool trace = trace_enabled();
  if (!metrics && !trace) return;  // disabled: one predicted branch, no clock
  active_ = true;
  name_ = name;
  stats_ = stats;
  depth_ = tl_span_depth++;
  start_ns_ = monotonic_ns();
}

Span::~Span() {
  if (!active_) return;
  const std::uint64_t end_ns = monotonic_ns();
  --tl_span_depth;
  const std::uint64_t duration_ns = end_ns - start_ns_;
  if (stats_ != nullptr && metrics_enabled()) {
    stats_->record(static_cast<double>(duration_ns) * 1e-6, depth_);
  }
  if (trace_enabled()) {
    TraceEvent event;
    event.name = name_;
    event.start_ns = start_ns_;
    event.duration_ns = duration_ns;
    event.tid = thread_ordinal();
    event.depth = depth_;
    thread_buffer().append(event);
  }
}

// ------------------------------------------------------------ trace export

void set_thread_name(const char* name) {
  TraceBuffer& buffer = thread_buffer();
  const std::lock_guard<std::mutex> lock(buffer.mutex);
  if (buffer.name == name) return;  // hot-path idempotence: no assignment
  buffer.name = name;
}

std::vector<std::pair<int, std::string>> thread_names() {
  std::vector<std::shared_ptr<TraceBuffer>> buffers;
  {
    BufferDirectory& dir = directory();
    const std::lock_guard<std::mutex> lock(dir.mutex);
    buffers = dir.buffers;
  }
  std::vector<std::pair<int, std::string>> out;
  for (const auto& buffer : buffers) {
    const std::lock_guard<std::mutex> lock(buffer->mutex);
    if (!buffer->name.empty()) out.emplace_back(buffer->tid, buffer->name);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<TraceEvent> collect_trace_events() {
  std::vector<std::shared_ptr<TraceBuffer>> buffers;
  {
    BufferDirectory& dir = directory();
    const std::lock_guard<std::mutex> lock(dir.mutex);
    buffers = dir.buffers;
  }
  std::vector<TraceEvent> out;
  for (const auto& buffer : buffers) {
    const std::lock_guard<std::mutex> lock(buffer->mutex);
    out.insert(out.end(), buffer->events.begin(), buffer->events.end());
  }
  std::sort(out.begin(), out.end(), [](const TraceEvent& a, const TraceEvent& b) {
    if (a.tid != b.tid) return a.tid < b.tid;
    return a.start_ns < b.start_ns;
  });
  return out;
}

void clear_trace() {
  BufferDirectory& dir = directory();
  const std::lock_guard<std::mutex> lock(dir.mutex);
  for (const auto& buffer : dir.buffers) {
    const std::lock_guard<std::mutex> buffer_lock(buffer->mutex);
    buffer->events.clear();
    buffer->next = 0;
  }
}

std::size_t trace_buffer_capacity() { return kTraceBufferCapacity; }

void write_chrome_trace(std::ostream& out) {
  const std::vector<TraceEvent> events = collect_trace_events();
  out << "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [";
  bool first = true;
  // Metadata first: a process name plus one thread_name per named thread,
  // so spans group under readable lanes in chrome://tracing / Perfetto.
  out << "\n    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
         "\"args\": {\"name\": \"gestureprint\"}}";
  first = false;
  for (const auto& [tid, name] : thread_names()) {
    out << ",\n    {\"name\": \"thread_name\", \"ph\": \"M\", \"pid\": 1, \"tid\": " << tid
        << ", \"args\": {\"name\": \"" << json::escape(name) << "\"}}";
  }
  for (const TraceEvent& event : events) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "    {\"name\": \"" << json::escape(event.name) << "\", \"cat\": \"gp\", "
        << "\"ph\": \"X\", \"ts\": " << json::number(static_cast<double>(event.start_ns) * 1e-3)
        << ", \"dur\": " << json::number(static_cast<double>(event.duration_ns) * 1e-3)
        << ", \"pid\": 1, \"tid\": " << event.tid << ", \"args\": {\"depth\": " << event.depth
        << "}}";
  }
  out << (first ? "" : "\n  ") << "]\n}\n";
}

std::string write_trace_file(const std::string& path) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream out(path);
  if (!out) throw Error("cannot open trace file for writing: " + path);
  write_chrome_trace(out);
  log_info() << "wrote trace (" << collect_trace_events().size() << " events) -> " << path;
  return path;
}

}  // namespace gp::obs
