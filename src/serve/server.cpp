#include "serve/server.hpp"

#include <utility>

#include "health/flightrec.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace gp::serve {

Server::Server(const ServeConfig& config, ModelRegistry& registry, exec::ExecContext& ctx)
    : config_(config),
      registry_(&registry),
      ctx_(&ctx),
      monitor_(config_.health, config_.batch_max),
      sessions_(config_, &monitor_),
      batcher_(config_, *registry_, ctx, &monitor_) {
  // Force the global recorder's ring into existence now, so a steady tick
  // never pays its construction (ServeSteadyTickZeroAlloc).
  (void)health::FlightRecorder::global().capacity();
  for (std::size_t i = 0; i < health::kEventCount; ++i) {
    event_counters_[i] = &obs::counter(health::kEvents[i].counter);
  }
}

Admission Server::push_frame(std::uint64_t session_id, const FrameView& frame) {
  return sessions_.enqueue(session_id, frame, tick_.load(std::memory_order_relaxed));
}

void Server::close_tick(std::uint64_t tick) {
  const health::EventCounts total = stats();
  const health::EventCounts delta = total - folded_;
  folded_ = total;
  for (std::size_t i = 0; i < health::kEventCount; ++i) {
    event_counters_[i]->add(delta.*health::kEvents[i].member);
  }
  monitor_.close_tick(tick, delta);
  // Enrollment barrier: all clustering / fine-tune / publish mutations run
  // here, after the flush, so gate() stays read-only within the tick.
  if (enroll_ != nullptr) enroll_->close_tick(tick);
}

std::vector<ServeResult> Server::pump() {
  GP_SPAN("serve.pump");
  obs::set_thread_name("serve.pump");
  const std::uint64_t tick = tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  sessions_.drain_into(*ctx_, tick, segments_scratch_);
  batcher_.submit(segments_scratch_);
  static obs::Gauge& sessions_gauge = obs::gauge("gp.serve.sessions");
  static obs::Gauge& pending_gauge = obs::gauge("gp.serve.pending_segments");
  sessions_gauge.set(static_cast<double>(sessions_.session_count()));
  pending_gauge.set(static_cast<double>(batcher_.pending()));
  obs::publish_mem_metrics();
  std::vector<ServeResult> results = batcher_.poll(false);
  close_tick(tick);
  return results;
}

std::vector<ServeResult> Server::drain() {
  GP_SPAN("serve.drain");
  const std::uint64_t tick = tick_.fetch_add(1, std::memory_order_relaxed) + 1;
  sessions_.drain_into(*ctx_, tick, segments_scratch_);
  sessions_.finish_all(tick, segments_scratch_);
  batcher_.submit(segments_scratch_);
  obs::publish_mem_metrics();
  std::vector<ServeResult> results = batcher_.poll(true);
  close_tick(tick);
  return results;
}

}  // namespace gp::serve
