#include "spans.hpp"

#include <atomic>
#include <cstdio>
#include <fstream>
#include <vector>

namespace pb {
namespace {

/// Per-thread stack of open span ids (one recorder per process).
thread_local std::vector<std::uint32_t> tl_stack;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

SpanLog::SpanLog(bool enabled, std::size_t capacity)
    : enabled_(enabled), capacity_(capacity), origin_ns_(now_ns()) {
  if (enabled_) spans_.reserve(capacity_ < 65536 ? capacity_ : 65536);
}

std::uint32_t SpanLog::open(const char* name, std::uint64_t request_id) {
  if (!enabled_) return 0;
  Span span;
  span.name = name;
  span.start_ns = now_ns();
  span.parent = tl_stack.empty() ? 0 : tl_stack.back();
  span.request_id = request_id;
  span.tid = thread_index();
  {
    std::lock_guard<std::mutex> lock(mu_);
    span.id = next_id_locked();
    open_.push_back(span);
  }
  tl_stack.push_back(span.id);
  return span.id;
}

void SpanLog::close(std::uint32_t id) {
  if (!enabled_ || id == 0) return;
  const std::uint64_t end = now_ns();
  if (!tl_stack.empty() && tl_stack.back() == id) tl_stack.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = open_.size(); i-- > 0;) {
    if (open_[i].id != id) continue;
    Span span = open_[i];
    open_.erase(open_.begin() + static_cast<std::ptrdiff_t>(i));
    span.end_ns = end;
    if (spans_.size() < capacity_) {
      spans_.push_back(span);
    } else {
      ++dropped_;
    }
    return;
  }
}

void SpanLog::record(const char* name, std::uint64_t start_ns, std::uint64_t end_ns,
                     std::uint32_t parent, std::uint64_t request_id) {
  if (!enabled_) return;
  Span span;
  span.name = name;
  span.start_ns = start_ns;
  span.end_ns = end_ns;
  span.parent = parent;
  span.request_id = request_id;
  span.tid = thread_index();
  std::lock_guard<std::mutex> lock(mu_);
  span.id = next_id_locked();
  if (spans_.size() < capacity_) {
    spans_.push_back(span);
  } else {
    ++dropped_;
  }
}

std::size_t SpanLog::stored() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::size_t SpanLog::dropped() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_;
}

bool SpanLog::write_chrome(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":{\"dropped_spans\":" << dropped_
      << "},\"traceEvents\":[\n";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts_us = static_cast<double>(s.start_ns - origin_ns_) / 1e3;
    const double dur_us = static_cast<double>(s.end_ns - s.start_ns) / 1e3;
    std::snprintf(buf, sizeof(buf), "%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u", ts_us, dur_us,
                  s.tid);
    out << (i == 0 ? "" : ",\n") << "{\"name\":\"" << s.name << "\",\"ph\":\"X\",\"ts\":" << buf
        << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent;
    if (s.request_id != 0) {
      std::snprintf(buf, sizeof(buf), "0x%016llx",
                    static_cast<unsigned long long>(s.request_id));
      out << ",\"request_id\":\"" << buf << "\"";
    }
    out << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace pb
