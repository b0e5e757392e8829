#include "workloads.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common/fnv.hpp"
#include "common/mem.hpp"
#include "common/rng.hpp"
#include "exec/exec.hpp"
#include "pipeline/preprocessor.hpp"
#include "serve/server.hpp"
#include "system/gestureprint.hpp"

namespace pb {

using gp::serve::Admission;
using gp::serve::ServeResult;

namespace {

const gp::FrameCloud& plan_frame(const Inputs& in, const SessionPlan& plan, std::size_t f) {
  return in.streams[plan.stream].recording.frames[plan.first + f];
}

/// Trigger bookkeeping for the plans served together: when each expected
/// segment's trigger frame was due/pushed, and the latency of the answer
/// that arrives for it.
class Ledger {
 public:
  Ledger(const SessionPlan* plans, std::size_t count) : plans_(plans), state_(count) {
    for (std::size_t p = 0; p < count; ++p) {
      index_.emplace(plans[p].session_id, p);
      state_[p].trigger_ns.assign(plans[p].expected.size(), 0);
    }
  }

  /// True when pushing frame `f` of plan `p` closes an expected segment.
  bool is_trigger(std::size_t p, std::size_t f) const {
    const State& s = state_[p];
    return s.next < plans_[p].expected.size() && plans_[p].expected[s.next].trigger == f;
  }

  void on_push(std::size_t p, std::size_t f, std::uint64_t t_ns) {
    while (is_trigger(p, f)) {
      state_[p].trigger_ns[state_[p].next++] = t_ns;
      ++triggered_;
    }
  }

  /// End of stream: segments that only the final flush closes trigger now.
  void on_drain(std::uint64_t t_ns) {
    for (std::size_t p = 0; p < state_.size(); ++p) on_push(p, plans_[p].prefix, t_ns);
  }

  /// Takes a pump/drain batch delivered at `t_ns`.
  void deliver(std::vector<ServeResult>& batch, std::uint64_t t_ns, RunResult& out,
               SpanLog& spans, std::uint32_t parent) {
    for (ServeResult& r : batch) {
      const auto it = index_.find(r.session_id);
      if (it != index_.end()) {
        State& s = state_[it->second];
        if (r.segment_ordinal < s.trigger_ns.size() && s.trigger_ns[r.segment_ordinal] != 0) {
          const std::uint64_t trig = s.trigger_ns[r.segment_ordinal];
          s.trigger_ns[r.segment_ordinal] = 0;  // a duplicate gets no second sample
          out.latency_ms.push_back(ns_to_ms(t_ns - trig));
          spans.record("request", trig, t_ns, parent, r.request_id);
          ++delivered_;
        }
      }
      out.answers.push_back(r);
    }
    batch.clear();
  }

  std::size_t outstanding() const { return triggered_ - delivered_; }

 private:
  struct State {
    std::size_t next = 0;
    std::vector<std::uint64_t> trigger_ns;  ///< 0 = not triggered yet, or answered
  };
  const SessionPlan* plans_;
  std::vector<State> state_;
  std::unordered_map<std::uint64_t, std::size_t> index_;
  std::size_t triggered_ = 0;
  std::size_t delivered_ = 0;
};

SessionPlan full_plan(const Inputs& in, std::uint64_t session_id, std::size_t stream) {
  SessionPlan p;
  p.session_id = session_id;
  p.stream = stream;
  p.prefix = in.streams[stream].recording.frames.size();
  p.expected = in.streams[stream].expected;
  return p;
}

/// Re-publishes the model on its own thread every `period_s`, as enrollment
/// and retraining do in a deployment.
class Publisher {
 public:
  Publisher(gp::serve::ModelRegistry& registry, std::string path, double period_s, SpanLog& spans)
      : registry_(registry),
        path_(std::move(path)),
        period_s_(period_s),
        spans_(spans),
        thread_([this] { loop(); }) {}
  ~Publisher() { stop(); }
  Publisher(const Publisher&) = delete;
  Publisher& operator=(const Publisher&) = delete;

  void stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  // Read after stop().
  std::uint64_t failures() const { return failures_; }
  std::uint64_t exceptions() const { return exceptions_; }
  const std::vector<double>& publish_ms() const { return publish_ms_; }

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    const auto period = std::chrono::duration<double>(period_s_);
    while (!cv_.wait_for(lock, period, [this] { return stop_; })) {
      lock.unlock();
      bool ok = false;
      bool threw = false;
      Scope scope(spans_, "registry.publish_file");
      try {
        ok = registry_.publish_file(path_, gp::nn::QuantMode::kOff).has_value();
      } catch (const std::exception&) {
        threw = true;
      }
      const double took_ms = ns_to_ms(scope.stop());
      lock.lock();
      if (!ok) ++failures_;
      if (threw) ++exceptions_;
      publish_ms_.push_back(took_ms);
    }
  }

  gp::serve::ModelRegistry& registry_;
  std::string path_;
  double period_s_;
  SpanLog& spans_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;               ///< guarded by mu_
  std::uint64_t failures_ = 0;      ///< guarded by mu_
  std::uint64_t exceptions_ = 0;    ///< guarded by mu_
  std::vector<double> publish_ms_;  ///< guarded by mu_
  std::thread thread_;              ///< last: joined before the members above die
};

/// Span and metric names of the layer a closed loop drives.
struct LayerNames {
  const char* push_span;
  const char* pump_span;
  const char* drain_span;
  const char* push_metric;  ///< us samples
  const char* pump_metric;  ///< ms samples
  bool count_allocs;        ///< mem::AllocCounter around pump (in-process serve only)
};
constexpr LayerNames kServeNames{"serve.push_frame", "serve.pump", "serve.drain",
                                 "serve.push_frame_us", "serve.pump_ms", true};
constexpr LayerNames kClusterNames{"cluster.push_frame", "cluster.pump", "cluster.drain",
                                   "cluster.push_frame_us", "cluster.pump_ms", false};

template <typename Target>
Admission push(Target& target, std::uint64_t session, const gp::FrameCloud& frame,
               RunResult& out, SpanLog& spans, const LayerNames& names) {
  if (!spans.enabled()) return target.push_frame(session, frame);
  Scope scope(spans, names.push_span);
  const Admission verdict = target.push_frame(session, frame);
  out.layers.add(names.push_metric, ns_to_us(scope.stop()));
  return verdict;
}

template <typename Target>
std::vector<ServeResult> pump(Target& target, RunResult& out, SpanLog& spans,
                              const LayerNames& names, std::uint32_t& span_id) {
  if (!spans.enabled()) return target.pump();
  gp::mem::AllocCounter allocs;
  Scope scope(spans, names.pump_span);
  std::vector<ServeResult> results = target.pump();
  out.layers.add(names.pump_metric, ns_to_ms(scope.stop()));
  if (names.count_allocs) {
    out.layers.add("serve.allocs_per_tick", static_cast<double>(allocs.allocations()));
  }
  span_id = scope.id();
  return results;
}

/// One closed-loop pass over `count` plans: one frame per session per tick,
/// the next tick as soon as pump() returns, then drain(). `Target` is a
/// serve::Server or a cluster::Cluster (same push/pump/drain surface).
template <typename Target>
void closed_loop_pass(Target& target, const Inputs& in, const SessionPlan* plans,
                      std::size_t count, RunResult& out, SpanLog& spans,
                      const LayerNames& names) {
  const bool traced = spans.enabled();
  Ledger ledger(plans, count);
  std::size_t ticks = 0;
  for (std::size_t p = 0; p < count; ++p) ticks = std::max(ticks, plans[p].prefix);
  std::vector<ServeResult> batch;
  std::uint64_t last_pump_end = 0;
  for (std::size_t f = 0; f < ticks; ++f) {
    Scope tick_scope(spans, "driver.tick");
    if (traced && last_pump_end != 0) {
      out.layers.add("driver.lag_ms", ns_to_ms(now_ns() - last_pump_end));
    }
    for (std::size_t p = 0; p < count; ++p) {
      if (f >= plans[p].prefix) continue;
      const std::uint64_t t_push = ledger.is_trigger(p, f) ? now_ns() : 0;
      const Admission verdict =
          push(target, plans[p].session_id, plan_frame(in, plans[p], f), out, spans, names);
      ++out.frames_offered;
      if (verdict != Admission::kAccepted) ++out.frames_rejected;
      ledger.on_push(p, f, t_push);
    }
    std::uint32_t pump_span = 0;
    batch = pump(target, out, spans, names, pump_span);
    last_pump_end = now_ns();
    ledger.deliver(batch, last_pump_end, out, spans, pump_span);
  }
  ledger.on_drain(now_ns());
  Scope drain_scope(spans, names.drain_span);
  batch = target.drain();
  drain_scope.stop();
  ledger.deliver(batch, now_ns(), out, spans, drain_scope.id());
}

/// Appends a pass and keeps the run totals in step.
void add_pass(RunResult& out, std::uint64_t wall_ns, double cpu_s, std::size_t answers) {
  out.passes.push_back({static_cast<double>(wall_ns) / 1e9, cpu_s, answers});
  out.wall_s += out.passes.back().wall_s;
  out.cpu_s += cpu_s;
}

double rusage_cpu_s(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

void add_serve_stats(const gp::serve::Server& server, std::uint64_t& ticks,
                     std::uint64_t& batches, std::uint64_t& segments) {
  ticks += server.ticks();
  const gp::serve::MicroBatcher::Stats stats = server.batch_stats();
  batches += stats.batches;
  segments += stats.segments;
}

void publish_serve_stats(RunResult& out, std::uint64_t ticks, std::uint64_t batches,
                         std::uint64_t segments) {
  out.layers.values["serve.ticks"] = static_cast<double>(ticks);
  out.layers.values["serve.rows_per_batch"] =
      batches == 0 ? 0.0 : static_cast<double>(segments) / static_cast<double>(batches);
}

std::uint64_t result_key(std::uint64_t session, std::uint64_t ordinal) {
  return gp::fnv::accumulate_value(gp::fnv::accumulate_value(gp::fnv::kOffsetBasis, session),
                                   ordinal);
}

bool same_answer(const ServeResult& a, const ServeResult& b, bool compare_version) {
  return a.session_id == b.session_id && a.segment_ordinal == b.segment_ordinal &&
         a.request_id == b.request_id && a.gesture == b.gesture && a.user == b.user &&
         a.abstained == b.abstained && a.quality_rejected == b.quality_rejected &&
         a.novelty_rejected == b.novelty_rejected &&
         std::memcmp(&a.gesture_margin, &b.gesture_margin, sizeof(double)) == 0 &&
         std::memcmp(&a.user_margin, &b.user_margin, sizeof(double)) == 0 &&
         (!compare_version || a.model_version == b.model_version);
}

}  // namespace

std::optional<Workload> parse_workload(const std::string& name) {
  for (Workload w : {Workload::kLive, Workload::kBacklogInt8, Workload::kCluster3,
                     Workload::kOffline}) {
    if (name == workload_name(w)) return w;
  }
  return std::nullopt;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kLive: return "live";
    case Workload::kBacklogInt8: return "backlog_int8";
    case Workload::kCluster3: return "cluster3";
    case Workload::kOffline: return "offline";
  }
  return "?";
}

gp::nn::QuantMode workload_quant(Workload w) {
  return w == Workload::kBacklogInt8 ? gp::nn::QuantMode::kInt8 : gp::nn::QuantMode::kOff;
}

gp::serve::ServeConfig serve_config(const Inputs& in, Workload w) {
  gp::serve::ServeConfig sc;
  sc.system = in.config;
  sc.quant = workload_quant(w);
  return sc;
}

gp::cluster::ClusterConfig cluster_config(const Inputs& in, const std::string& model_path) {
  gp::cluster::ClusterConfig cc;
  cc.workers = kClusterWorkers;
  cc.model_path = model_path;
  cc.serve = serve_config(in, Workload::kCluster3);
  return cc;
}

// ------------------------------------------------------------------ live

std::vector<SessionPlan> live_plans(const Inputs& in, double seconds) {
  // Sessions join at seeded frames and phases and stop right after the last
  // segment that closes inside the window, so no gesture is cut in half.
  // The window also ends with the stream: a segment that only the
  // end-of-stream flush closes has no trigger frame to push.
  std::vector<SessionPlan> plans;
  gp::Rng join(gp::exec::child_seed(in.seed, 300), 11);
  const gp::SegmentationParams seg = gp::PreprocessorParams{}.segmentation;
  for (std::size_t s = 0; s < kLiveSessions; ++s) {
    SessionPlan p;
    p.session_id = s + 1;
    p.stream = s % in.streams.size();
    p.first = join.index(kLiveJoinFrames);
    p.offset_s = join.uniform(0.0, kFramePeriodS);
    const gp::ContinuousRecording& rec = in.streams[p.stream].recording;
    const std::size_t left = rec.frames.size() - std::min(p.first, rec.frames.size());
    const std::size_t window = std::min(
        left, static_cast<std::size_t>(
                  std::max(0.0, std::ceil((seconds - p.offset_s) / kFramePeriodS))));
    const std::vector<Expected> map = trigger_map(rec, p.first, window, seg);
    for (const Expected& e : map) {
      if (e.trigger < window) p.prefix = e.trigger + 1;
    }
    if (p.prefix == 0) continue;
    p.expected = trigger_map(rec, p.first, p.prefix, seg);
    plans.push_back(std::move(p));
  }
  return plans;
}

RunResult run_live(const Context& ctx, gp::serve::ModelRegistry& registry) {
  const Inputs& in = *ctx.inputs;
  SpanLog& spans = *ctx.spans;
  const bool traced = spans.enabled();
  RunResult out;
  out.plans = live_plans(in, ctx.seconds);

  struct Event {
    std::uint64_t due_ns;
    std::uint32_t plan;
    std::uint32_t frame;
  };
  std::vector<Event> events;
  const std::uint64_t t0 = now_ns() + 20'000'000;
  for (std::size_t p = 0; p < out.plans.size(); ++p) {
    for (std::size_t f = 0; f < out.plans[p].prefix; ++f) {
      const double due_s = out.plans[p].offset_s + static_cast<double>(f) * kFramePeriodS;
      events.push_back({t0 + static_cast<std::uint64_t>(due_s * 1e9), static_cast<std::uint32_t>(p),
                        static_cast<std::uint32_t>(f)});
    }
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    return a.due_ns != b.due_ns ? a.due_ns < b.due_ns : a.plan < b.plan;
  });

  gp::serve::Server server(serve_config(in, Workload::kLive), registry);
  Ledger ledger(out.plans.data(), out.plans.size());
  const std::uint64_t period_ns = static_cast<std::uint64_t>(kLivePumpPeriodS * 1e9);
  const std::uint64_t give_up_ns = 5'000'000'000;  // answers still missing then are missing
  const double cpu0 = process_cpu_s();
  std::vector<ServeResult> batch;
  {
    Publisher publisher(registry, ctx.model_path, kLivePublishPeriodS, spans);
    std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(t0)));
    std::size_t next = 0;
    const std::uint64_t last_due = events.empty() ? t0 : events.back().due_ns;
    for (;;) {
      const std::uint64_t pump_start = now_ns();
      const std::size_t push_end = std::min(events.size(), next + kLiveMaxPushesPerPump);
      while (next < push_end && events[next].due_ns <= pump_start) {
        const Event& ev = events[next++];
        const SessionPlan& plan = out.plans[ev.plan];
        if (traced) out.layers.add("driver.lag_ms", ns_to_ms(now_ns() - ev.due_ns));
        const Admission verdict = push(server, plan.session_id, plan_frame(in, plan, ev.frame),
                                       out, spans, kServeNames);
        ++out.frames_offered;
        if (verdict != Admission::kAccepted) ++out.frames_rejected;
        ledger.on_push(ev.plan, ev.frame, ev.due_ns);
      }
      std::uint32_t pump_span = 0;
      batch = pump(server, out, spans, kServeNames, pump_span);
      ledger.deliver(batch, now_ns(), out, spans, pump_span);
      if (next == events.size() &&
          (ledger.outstanding() == 0 || now_ns() > last_due + give_up_ns)) {
        break;
      }
      std::uint64_t wake = pump_start + period_ns;
      if (next < events.size()) wake = std::min(wake, events[next].due_ns);
      std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(wake)));
    }
    publisher.stop();
    out.publish_failures = publisher.failures();
    out.exceptions += publisher.exceptions();
    for (double v : publisher.publish_ms()) out.layers.add("registry.publish_ms", v);
  }
  ledger.on_drain(now_ns());
  {
    Scope scope(spans, "serve.drain");
    batch = server.drain();
    scope.stop();
    ledger.deliver(batch, now_ns(), out, spans, scope.id());
  }
  add_pass(out, now_ns() - t0, process_cpu_s() - cpu0, out.answers.size());
  out.peak_rss_mb = process_peak_rss_mb();
  std::uint64_t ticks = 0, batches = 0, segments = 0;
  add_serve_stats(server, ticks, batches, segments);
  publish_serve_stats(out, ticks, batches, segments);
  return out;
}

// --------------------------------------------------------- backlog_int8

RunResult run_backlog(const Context& ctx, gp::serve::ModelRegistry& registry) {
  const Inputs& in = *ctx.inputs;
  RunResult out;
  for (std::size_t s = 0; s < kClosedSessions; ++s) {
    out.plans.push_back(full_plan(in, s + 1, s % in.streams.size()));
    out.plans.back().repeats = 0;
  }
  // Each pass replays the same backlog into a fresh Server, so every pass
  // must reproduce the same answers (results are a pure function of session
  // id and frame sequence).
  gp::serve::ServeConfig sc = serve_config(in, Workload::kBacklogInt8);
  if (const auto snapshot = registry.current()) sc.quant = snapshot->quant;
  std::uint64_t ticks = 0, batches = 0, segments = 0;
  while (out.wall_s < ctx.seconds) {
    gp::serve::Server server(sc, registry);
    const std::size_t answers0 = out.answers.size();
    const double cpu0 = process_cpu_s();
    Scope pass(*ctx.spans, "driver.pass");
    closed_loop_pass(server, in, out.plans.data(), out.plans.size(), out, *ctx.spans, kServeNames);
    add_pass(out, pass.stop(), process_cpu_s() - cpu0, out.answers.size() - answers0);
    for (SessionPlan& p : out.plans) ++p.repeats;
    add_serve_stats(server, ticks, batches, segments);
  }
  out.peak_rss_mb = process_peak_rss_mb();
  publish_serve_stats(out, ticks, batches, segments);
  return out;
}

// ------------------------------------------------------------- cluster3

RunResult run_cluster(const Context& ctx, gp::cluster::Cluster& cluster,
                      std::uint64_t first_session_id) {
  const Inputs& in = *ctx.inputs;
  RunResult out;
  const gp::cluster::Cluster::Stats before = cluster.stats();
  // Router CPU plus the workers' (read from /proc while they are alive).
  const auto cpu_now = [&cluster] {
    double cpu = process_cpu_s();
    for (std::size_t w = 0; w < cluster.worker_count(); ++w) {
      cpu += pid_cpu_s(cluster.worker_pid(w));
    }
    return cpu;
  };
  std::uint64_t next_id = first_session_id;
  // A cluster never re-serves a session id (its dedupe is per session), so
  // each pass streams the pool under fresh ids.
  while (out.wall_s < ctx.seconds) {
    const std::size_t first = out.plans.size();
    for (std::size_t s = 0; s < kClosedSessions; ++s) {
      out.plans.push_back(full_plan(in, next_id++, s % in.streams.size()));
    }
    const std::size_t answers0 = out.answers.size();
    const double cpu0 = cpu_now();
    Scope pass(*ctx.spans, "driver.pass");
    closed_loop_pass(cluster, in, out.plans.data() + first, kClosedSessions, out, *ctx.spans,
                     kClusterNames);
    add_pass(out, pass.stop(), cpu_now() - cpu0, out.answers.size() - answers0);
  }
  out.peak_rss_mb = process_peak_rss_mb();
  for (std::size_t w = 0; w < cluster.worker_count(); ++w) {
    out.peak_rss_mb = std::max(out.peak_rss_mb, pid_peak_rss_mb(cluster.worker_pid(w)));
  }

  const gp::cluster::Cluster::Stats after = cluster.stats();
  const double results = static_cast<double>(after.results - before.results);
  const double calls = static_cast<double>(after.rpc_calls - before.rpc_calls);
  const double attempts = static_cast<double>(after.rpc_attempts - before.rpc_attempts);
  out.layers.values["cluster.rpc_per_result"] = results == 0.0 ? 0.0 : calls / results;
  out.layers.values["cluster.retry_ratio"] = calls == 0.0 ? 0.0 : attempts / calls;
  out.layers.values["cluster.checkpoints"] =
      static_cast<double>(after.checkpoints - before.checkpoints);
  std::vector<double> per_worker(cluster.worker_count(), 0.0);
  for (const SessionPlan& p : out.plans) {
    const std::size_t slot = cluster.owner_slot(p.session_id);
    if (slot < per_worker.size()) per_worker[slot] += 1.0;
  }
  double sum = 0.0, max = 0.0;
  for (double n : per_worker) {
    sum += n;
    max = std::max(max, n);
  }
  out.layers.values["cluster.session_imbalance"] =
      sum == 0.0 ? 0.0 : max / (sum / static_cast<double>(per_worker.size()));
  return out;
}

// -------------------------------------------------------------- offline

namespace {

/// One offline pass over every plan on `system`: segment_all, then
/// process_segment + classify per segment (the paper's §VI-B5 path).
void offline_pass(gp::GesturePrintSystem& system, const Inputs& in,
                  const std::vector<SessionPlan>& plans, RunResult& out, SpanLog& spans) {
  const gp::Preprocessor preprocessor;
  const bool traced = spans.enabled();
  std::uint64_t last_end = 0;
  for (const SessionPlan& plan : plans) {
    const gp::FrameSequence& frames = in.streams[plan.stream].recording.frames;
    Scope seg_scope(spans, "pipeline.segment_all");
    const std::vector<gp::GestureSegment> segments =
        gp::GestureSegmenter::segment_all(frames, gp::PreprocessorParams{}.segmentation);
    seg_scope.stop();
    out.frames_offered += frames.size();
    for (std::size_t i = 0; i < segments.size(); ++i) {
      const std::uint64_t t0 = now_ns();
      if (traced && last_end != 0) out.layers.add("driver.lag_ms", ns_to_ms(t0 - last_end));
      Scope request(spans, "request");
      gp::GestureCloud cloud;
      {
        Scope scope(spans, "pipeline.process_segment");
        cloud = preprocessor.process_segment(segments[i].frames);
        if (traced) out.layers.add("pipeline.process_segment_ms", ns_to_ms(scope.stop()));
      }
      gp::InferenceResult r;
      {
        Scope scope(spans, "system.classify");
        r = system.classify(cloud);
        if (traced) out.layers.add("system.classify_ms", ns_to_ms(scope.stop()));
      }
      request.stop();
      last_end = now_ns();
      out.latency_ms.push_back(ns_to_ms(last_end - t0));
      ServeResult a;
      a.session_id = plan.session_id;
      a.segment_ordinal = i;
      a.gesture = r.gesture;
      a.user = r.user;
      a.abstained = r.abstained;
      a.quality_rejected = cloud.quality != gp::SegmentQuality::kGood;
      a.gesture_margin = r.gesture_margin;
      a.user_margin = r.user_margin;
      out.answers.push_back(a);
    }
  }
}

std::vector<SessionPlan> offline_plans(const Inputs& in) {
  std::vector<SessionPlan> plans;
  for (std::size_t s = 0; s < in.streams.size(); ++s) plans.push_back(full_plan(in, s + 1, s));
  return plans;
}

}  // namespace

RunResult run_offline(const Context& ctx) {
  const Inputs& in = *ctx.inputs;
  RunResult out;
  out.plans = offline_plans(in);
  for (SessionPlan& p : out.plans) p.repeats = 0;
  // classify() draws its featurization from the system's own RNG, so each
  // pass starts from a freshly loaded system to reproduce the same answers.
  while (out.wall_s < ctx.seconds) {
    gp::GesturePrintSystem system(in.config);
    system.load(ctx.model_path);
    const std::size_t answers0 = out.answers.size();
    const double cpu0 = process_cpu_s();
    Scope pass(*ctx.spans, "driver.pass");
    offline_pass(system, in, out.plans, out, *ctx.spans);
    add_pass(out, pass.stop(), process_cpu_s() - cpu0, out.answers.size() - answers0);
    for (SessionPlan& p : out.plans) ++p.repeats;
  }
  out.peak_rss_mb = process_peak_rss_mb();
  return out;
}

// ------------------------------------------------------------ reference

std::vector<ServeResult> reference_serve(const std::vector<SessionPlan>& plans,
                                         const Context& ctx, gp::nn::QuantMode quant) {
  const Inputs& in = *ctx.inputs;
  gp::serve::ServeConfig sc;
  sc.system = in.config;
  sc.batch_max = 1;
  sc.quant = quant;
  gp::serve::ModelRegistry registry(in.config);
  if (!registry.publish_file(ctx.model_path, quant)) return {};
  gp::serve::Server server(sc, registry);
  SpanLog quiet(false);
  RunResult sink;
  // Chunks keep every tick's frames well inside the shard queues.
  constexpr std::size_t kChunk = 128;
  for (std::size_t first = 0; first < plans.size(); first += kChunk) {
    const std::size_t count = std::min(kChunk, plans.size() - first);
    closed_loop_pass(server, in, plans.data() + first, count, sink, quiet, kServeNames);
  }
  return sink.answers;
}

std::vector<ServeResult> reference_offline(const std::vector<SessionPlan>& plans,
                                           const Context& ctx) {
  gp::GesturePrintSystem system(ctx.inputs->config);
  system.load(ctx.model_path);
  SpanLog quiet(false);
  RunResult sink;
  offline_pass(system, *ctx.inputs, plans, sink, quiet);
  return sink.answers;
}

// --------------------------------------------------------------- verify

Verdict verify(const RunResult& run, const std::vector<ServeResult>& reference,
               const Inputs& in, bool compare_version) {
  Verdict v;
  std::unordered_map<std::uint64_t, const ServeResult*> ref;
  for (const ServeResult& r : reference) {
    ref.emplace(result_key(r.session_id, r.segment_ordinal), &r);
  }
  std::unordered_map<std::uint64_t, std::vector<const ServeResult*>> got;
  for (const ServeResult& r : run.answers) {
    got[result_key(r.session_id, r.segment_ordinal)].push_back(&r);
  }

  std::uint64_t gesture_ok = 0, user_ok = 0, answered = 0, delivered = 0;
  std::uint64_t expected_total = 0;
  std::vector<const ServeResult*> ordered;
  for (const SessionPlan& plan : run.plans) {
    const int truth_user = in.streams[plan.stream].user;
    for (std::size_t i = 0; i < plan.expected.size(); ++i) {
      const std::uint64_t key = result_key(plan.session_id, i);
      expected_total += plan.repeats;
      const auto it = got.find(key);
      const std::size_t n = it == got.end() ? 0 : it->second.size();
      if (n < plan.repeats) v.missing += plan.repeats - n;
      if (n > plan.repeats) v.unexpected += n - plan.repeats;
      const auto r = ref.find(key);
      for (std::size_t k = 0; k < std::min(n, plan.repeats); ++k) {
        const ServeResult& a = *it->second[k];
        ++delivered;
        if (r == ref.end() || !same_answer(a, *r->second, compare_version)) ++v.mismatched;
        if (a.gesture == plan.expected[i].gesture) ++gesture_ok;
        if (a.user == truth_user) ++user_ok;
        if (!a.abstained && !a.quality_rejected) ++answered;
        if (k == 0) ordered.push_back(&a);
      }
      if (it != got.end()) got.erase(it);
    }
  }
  for (const auto& [key, list] : got) v.unexpected += list.size();  // not in any plan

  v.attempted = expected_total;
  v.failed = v.missing + v.mismatched + v.unexpected + run.frames_rejected +
             run.publish_failures + run.exceptions;
  const double denom = expected_total == 0 ? 1.0 : static_cast<double>(expected_total);
  v.gra = static_cast<double>(gesture_ok) / denom;
  v.uia = static_cast<double>(user_ok) / denom;
  v.answered_frac =
      delivered == 0 ? 0.0 : static_cast<double>(answered) / static_cast<double>(delivered);

  std::uint64_t h = gp::fnv::kOffsetBasis;
  for (const ServeResult* a : ordered) {
    using gp::fnv::accumulate_value;
    h = accumulate_value(h, a->session_id);
    h = accumulate_value(h, a->segment_ordinal);
    h = accumulate_value(h, a->gesture);
    h = accumulate_value(h, a->user);
    h = accumulate_value(h, static_cast<unsigned char>(a->abstained));
    h = accumulate_value(h, static_cast<unsigned char>(a->quality_rejected));
    h = accumulate_value(h, a->gesture_margin);
    h = accumulate_value(h, a->user_margin);
  }
  v.answer_digest = h;
  return v;
}

// ------------------------------------------------------------ resources

double process_cpu_s() { return rusage_cpu_s(RUSAGE_SELF); }

double process_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double pid_cpu_s(int pid) {
  if (pid <= 0) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string line;
  if (!std::getline(in, line)) return 0.0;
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close = line.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream rest(line.substr(close + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int i = 3; i <= 15 && rest >> field; ++i) {
    if (i == 14) utime = std::stoull(field);
    if (i == 15) stime = std::stoull(field);
  }
  return static_cast<double>(utime + stime) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

double pid_peak_rss_mb(int pid) {
  if (pid <= 0) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  return 0.0;
}

}  // namespace pb
