// gpbench — runs one workload of the repo benchmark (see perfbench/README.md).
//
//   gpbench --workload <live|backlog_int8|cluster3|offline> --seed <n>
//           --seconds <s> --trace <0|1> [--out-dir <dir>] [--git-sha <sha>]
//           [--src-digest <hex>]
//   gpbench --list-metrics
//
// Prints a run header, one line per metric (name, value, unit, sample
// count), and as its last line one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics; --trace 1 runs the workload
// untraced and then traced (--seconds each), adds the layer replays,
// writes a Chrome trace and reports the per-layer metrics. Exits 1 when any
// operation failed or any answer differs from the reference pass.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.hpp"
#include "exec/exec.hpp"
#include "inputs.hpp"
#include "layers.hpp"
#include "serve/registry.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "system/gestureprint.hpp"
#include "workloads.hpp"

namespace {

using namespace pb;

constexpr int kSetupReps = 3;

struct MetricDef {
  const char* name;
  const char* unit;
  bool per_layer;
};

// Every metric this program can print. BENCHMARK.json lists the same names
// (checked by perfbench/test_benchmark.py and at run time by run.py).
constexpr MetricDef kMetrics[] = {
    {"setup_s", "s", false},
    {"latency_p50_ms", "ms", false},
    {"latency_p90_ms", "ms", false},
    {"results_per_s", "1/s", false},
    {"cpu_ms_per_result", "ms", false},
    {"gra", "ratio", false},
    {"uia", "ratio", false},
    {"peak_rss_mb", "MB", false},
    {"driver.lag_p99_ms", "ms", true},
    {"driver.frames_offered", "count", true},
    {"serve.push_frame_us_p50", "us", true},
    {"serve.push_frame_us_p99", "us", true},
    {"serve.pump_ms_p50", "ms", true},
    {"serve.pump_ms_p99", "ms", true},
    {"serve.ticks", "count", true},
    {"serve.rows_per_batch", "count", true},
    {"serve.allocs_per_tick", "count", true},
    {"serve.answered_frac", "ratio", true},
    {"serve.frames_rejected", "count", true},
    {"registry.publish_ms_p50", "ms", true},
    {"registry.publishes", "count", true},
    {"pipeline.segment_us_per_frame", "us", true},
    {"pipeline.process_segment_ms_p50", "ms", true},
    {"pipeline.featurize_us_p50", "us", true},
    {"pipeline.segment_recall", "ratio", true},
    {"gesidnet.gesture_fwd_ms_b1", "ms", true},
    {"gesidnet.gesture_fwd_ms_per_row_b48", "ms", true},
    {"gesidnet.user_fwd_ms_b1", "ms", true},
    {"gesidnet.features_ms_b1", "ms", true},
    {"system.classify_ms_p50", "ms", true},
    {"system.classify_ms_p99", "ms", true},
    {"cluster.push_frame_us_p50", "us", true},
    {"cluster.push_frame_us_p99", "us", true},
    {"cluster.pump_ms_p50", "ms", true},
    {"cluster.pump_ms_p99", "ms", true},
    {"cluster.rpc_per_result", "count", true},
    {"cluster.retry_ratio", "ratio", true},
    {"cluster.checkpoints", "count", true},
    {"cluster.session_imbalance", "ratio", true},
    {"cluster.wire_encode_frame_us", "us", true},
    {"cluster.wire_decode_results_us", "us", true},
    {"cluster.spawn_ms", "ms", true},
    {"setup.dataset_s", "s", true},
    {"setup.fit_s", "s", true},
    {"setup.publish_ms", "ms", true},
    {"proc.cpu_util", "ratio", true},
    {"trace.overhead_frac", "ratio", true},
};

const MetricDef* find_metric(const std::string& name) {
  for (const MetricDef& m : kMetrics) {
    if (name == m.name) return &m;
  }
  return nullptr;
}

/// Collects the metrics of one run, prints each as it is set, and renders
/// the final JSON line.
class Report {
 public:
  explicit Report(bool per_layer) : per_layer_(per_layer) {}

  void set(const std::string& name, double value, const std::string& detail = "") {
    const MetricDef* def = find_metric(name);
    if (def == nullptr || def->per_layer != per_layer_) {
      std::cout << "error: metric " << name << " is not a "
                << (per_layer_ ? "per-layer" : "end-to-end") << " metric\n";
      ok_ = false;
      return;
    }
    values_[name] = value;
    std::cout << "metric " << name << " = " << format(value) << " " << def->unit;
    if (!detail.empty()) std::cout << "  (" << detail << ")";
    std::cout << "\n";
  }

  /// A timing: value plus its sample count and the percentile reported.
  void set_quantile(const std::string& name, const Quantile& q) {
    char detail[96];
    std::snprintf(detail, sizeof(detail), "p%.4g of n=%zu", q.percentile, q.n);
    set(name, q.value, detail);
  }

  /// True when every metric of this report's kind was set.
  bool complete() const {
    bool all = ok_;
    for (const MetricDef& m : kMetrics) {
      if (m.per_layer == per_layer_ && values_.count(m.name) == 0) {
        std::cout << "error: metric " << m.name << " was not measured\n";
        all = false;
      }
    }
    return all;
  }

  std::string json(bool correct, std::uint64_t attempted, std::uint64_t failed) const {
    std::ostringstream out;
    out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
        << ", \"failed\": " << failed << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, value] : values_) {
      out << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << format(value)
          << ", \"unit\": \"" << find_metric(name)->unit << "\"}";
      first = false;
    }
    out << "}}";
    return out.str();
  }

 private:
  static std::string format(double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  bool per_layer_;
  bool ok_ = true;
  std::map<std::string, double> values_;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string out_dir = ".bench_build/out";
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
  bool list_metrics = false;
};

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--list-metrics") {
      a.list_metrics = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string val = argv[++i];
    try {
      if (key == "--workload") a.workload = val;
      else if (key == "--seed") a.seed = std::stoull(val);
      else if (key == "--seconds") a.seconds = std::stod(val);
      else if (key == "--trace") a.trace = std::stoi(val);
      else if (key == "--out-dir") a.out_dir = val;
      else if (key == "--git-sha") a.git_sha = val;
      else if (key == "--src-digest") a.src_digest = val;
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return a.list_metrics ||
         (parse_workload(a.workload).has_value() && a.seconds > 0.0 &&
          (a.trace == 0 || a.trace == 1));
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

void print_header(const Args& a) {
  const char* threads_env = std::getenv("GP_THREADS");
  std::cout << "# gpbench seed=" << a.seed << " workload=" << a.workload
            << " trace=" << a.trace << " seconds=" << a.seconds << "\n"
            << "# nproc=" << sysconf(_SC_NPROCESSORS_ONLN) << " cpu=\"" << cpu_model() << "\"\n"
            << "# build=" << PB_BUILD_TYPE << " compiler=\"" << PB_COMPILER << "\"\n"
            << "# GP_THREADS=" << (threads_env != nullptr ? threads_env : "unset")
            << " exec_threads=" << gp::exec::ExecContext::global().threads() << "\n"
            << "# git_sha=" << a.git_sha << " src_digest=" << a.src_digest << "\n";
}

/// Deletes the run's model file (and any quarantine copy) on every exit path.
struct FileRemover {
  std::string path;
  ~FileRemover() {
    std::error_code ec;
    std::filesystem::remove(path, ec);
    std::filesystem::remove(path + ".quarantine", ec);
  }
};

/// Set-up state a workload serves from.
struct Setup {
  std::unique_ptr<gp::serve::ModelRegistry> registry;
  std::unique_ptr<gp::cluster::Cluster> cluster;
  std::vector<double> total_s, dataset_s, fit_s, publish_ms;
  std::uint64_t failures = 0;
};

double ms_since(std::uint64_t t0) { return ns_to_ms(now_ns() - t0); }

/// dataset + fit + save + publish/spawn/load, kSetupReps times; the last
/// repetition's registry or cluster is kept. Every repetition must produce
/// the same model bytes.
Setup run_setup(Workload w, const Inputs& in, const std::string& model_path) {
  Setup s;
  std::uint64_t digest = 0;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    s.registry.reset();
    s.cluster.reset();
    const std::uint64_t t0 = now_ns();
    const SetupTimes t = train_and_save(in, model_path);
    const std::uint64_t t1 = now_ns();
    if (w == Workload::kCluster3) {
      s.cluster = std::make_unique<gp::cluster::Cluster>(cluster_config(in, model_path));
      if (s.cluster->workers_alive() != kClusterWorkers) ++s.failures;
    } else if (w == Workload::kOffline) {
      gp::GesturePrintSystem system(in.config);
      system.load(model_path);
    } else {
      s.registry = std::make_unique<gp::serve::ModelRegistry>(in.config);
      if (!s.registry->publish_file(model_path, workload_quant(w))) ++s.failures;
    }
    s.publish_ms.push_back(ms_since(t1));
    s.total_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    s.dataset_s.push_back(t.dataset_s);
    s.fit_s.push_back(t.fit_s);
    const std::uint64_t d = file_digest(model_path);
    if (rep > 0 && d != digest) ++s.failures;  // fit must be deterministic
    digest = d;
    std::printf("setup rep %d: dataset %.3f s, fit %.3f s, save %.3f s, publish %.1f ms, "
                "total %.3f s\n",
                rep, t.dataset_s, t.fit_s, t.save_s, s.publish_ms.back(), s.total_s.back());
  }
  return s;
}

RunResult run_workload(Workload w, const Context& ctx, Setup& setup, std::uint64_t first_id) {
  switch (w) {
    case Workload::kLive: return run_live(ctx, *setup.registry);
    case Workload::kBacklogInt8: return run_backlog(ctx, *setup.registry);
    case Workload::kCluster3: return run_cluster(ctx, *setup.cluster, first_id);
    case Workload::kOffline: return run_offline(ctx);
  }
  return {};
}

bool same_plans(const std::vector<SessionPlan>& a, const std::vector<SessionPlan>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].session_id != b[i].session_id || a[i].stream != b[i].stream ||
        a[i].first != b[i].first || a[i].prefix != b[i].prefix) {
      return false;
    }
  }
  return true;
}

std::vector<gp::serve::ServeResult> reference_for(Workload w, const RunResult& run,
                                                  const Context& ctx) {
  if (w == Workload::kOffline) return reference_offline(run.plans, ctx);
  return reference_serve(run.plans, ctx, workload_quant(w));
}

void print_verdict(const char* label, const RunResult& run, const Verdict& v) {
  std::printf("%s: %zu answers, attempted %llu, failed %llu (missing %llu, mismatched %llu, "
              "unexpected %llu, rejected frames %llu, publish failures %llu, exceptions %llu), "
              "answer digest %016llx\n",
              label, run.answers.size(), static_cast<unsigned long long>(v.attempted),
              static_cast<unsigned long long>(v.failed),
              static_cast<unsigned long long>(v.missing),
              static_cast<unsigned long long>(v.mismatched),
              static_cast<unsigned long long>(v.unexpected),
              static_cast<unsigned long long>(run.frames_rejected),
              static_cast<unsigned long long>(run.publish_failures),
              static_cast<unsigned long long>(run.exceptions),
              static_cast<unsigned long long>(v.answer_digest));
}

void report_end_to_end(Report& r, const Setup& setup, const RunResult& run, const Verdict& v) {
  r.set_quantile("setup_s", median(setup.total_s));
  r.set_quantile("latency_p50_ms", median(run.latency_ms));
  // The reported tail is p90: on a shared host p95 and p99 are dominated by
  // scheduling stalls outside the program and spread too far from run to run
  // to bound a regression. The deeper tail is printed for reading.
  r.set_quantile("latency_p90_ms", tail(run.latency_ms, 90.0));
  const Quantile deep = tail(run.latency_ms);
  std::printf("latency tail: p95 %.3f ms, p%.4g %.3f ms (n=%zu)\n",
              tail(run.latency_ms, 95.0).value, deep.percentile, deep.value, deep.n);
  // Throughput and CPU cost are medians over passes, so one pass slowed by
  // something outside the program moves them less.
  std::vector<double> rates, cpu_ms;
  for (const Pass& p : run.passes) {
    rates.push_back(static_cast<double>(p.answers) / p.wall_s);
    cpu_ms.push_back(p.cpu_s * 1e3 / static_cast<double>(p.answers));
  }
  std::printf("passes (answers/s):");
  for (double rate : rates) std::printf(" %.1f", rate);
  std::printf("\n");
  char detail[128];
  std::snprintf(detail, sizeof(detail), "median of %zu passes; %zu answers in %.3f s",
                run.passes.size(), run.answers.size(), run.wall_s);
  r.set("results_per_s", median(rates).value, detail);
  std::snprintf(detail, sizeof(detail), "median of %zu passes; %.3f CPU s in all",
                run.passes.size(), run.cpu_s);
  r.set("cpu_ms_per_result", median(cpu_ms).value, detail);
  r.set("gra", v.gra);
  r.set("uia", v.uia);
  r.set("peak_rss_mb", run.peak_rss_mb);
}

/// Samples from the workload's own calls when it made them, else from the
/// replay.
const std::vector<double>& pick(const LayerLog& own, const LayerLog& replay,
                                const std::string& name) {
  static const std::vector<double> kEmpty;
  const auto it = own.samples.find(name);
  if (it != own.samples.end() && !it->second.empty()) return it->second;
  const auto jt = replay.samples.find(name);
  return jt == replay.samples.end() ? kEmpty : jt->second;
}

double mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double answered_frac(const std::vector<gp::serve::ServeResult>& answers) {
  std::size_t ok = 0;
  for (const auto& a : answers) ok += (!a.abstained && !a.quality_rejected) ? 1 : 0;
  return answers.empty() ? 0.0 : static_cast<double>(ok) / static_cast<double>(answers.size());
}

/// Per-layer metrics of the traced run `traced` (with `untraced` as the
/// overhead baseline); returns the failed operations the replays added.
std::uint64_t report_layers(Report& r, Workload w, const Context& ctx, const Setup& setup,
                            const RunResult& untraced, const RunResult& traced,
                            const Verdict& traced_verdict) {
  std::uint64_t failed = 0;
  LayerLog replay;
  replay_pipeline(ctx, replay);
  replay_gesidnet(ctx, workload_quant(w), replay);
  replay_wire(ctx, traced.answers, replay);
  if (w != Workload::kOffline) replay_classify(ctx, replay);

  const LayerLog& own = traced.layers;
  r.set_quantile("driver.lag_p99_ms", tail(pick(own, replay, "driver.lag_ms")));
  r.set("driver.frames_offered", static_cast<double>(traced.frames_offered));

  // Serve layer: the workload's own Server, or one replay pass through one.
  const bool serves = w == Workload::kLive || w == Workload::kBacklogInt8;
  const RunResult serve_replay = serves ? RunResult{} : replay_serve(ctx, workload_quant(w));
  const RunResult& serve_run = serves ? traced : serve_replay;
  failed += serve_replay.publish_failures + serve_replay.frames_rejected;
  const auto& serve_push = serve_run.layers.samples.at("serve.push_frame_us");
  const auto& serve_pump = serve_run.layers.samples.at("serve.pump_ms");
  r.set_quantile("serve.push_frame_us_p50", median(serve_push));
  r.set_quantile("serve.push_frame_us_p99", tail(serve_push));
  r.set_quantile("serve.pump_ms_p50", median(serve_pump));
  r.set_quantile("serve.pump_ms_p99", tail(serve_pump));
  r.set("serve.ticks", serve_run.layers.values.at("serve.ticks"));
  r.set("serve.rows_per_batch", serve_run.layers.values.at("serve.rows_per_batch"));
  r.set("serve.allocs_per_tick", mean(serve_run.layers.samples.at("serve.allocs_per_tick")));
  r.set("serve.answered_frac",
        serves ? traced_verdict.answered_frac : answered_frac(serve_run.answers));
  r.set("serve.frames_rejected", static_cast<double>(serve_run.frames_rejected));

  // Registry: set-up publishes plus the live re-publishes, or a replay.
  std::vector<double> publishes;
  if (serves) {
    publishes = setup.publish_ms;
    for (double v : pick(own, replay, "registry.publish_ms")) publishes.push_back(v);
  } else {
    replay_publish(ctx, workload_quant(w), kSetupReps, replay);
    publishes = replay.samples["registry.publish_ms"];
    failed += static_cast<std::uint64_t>(replay.values["registry.publish_failures"]);
  }
  r.set_quantile("registry.publish_ms_p50", median(publishes));
  r.set("registry.publishes", static_cast<double>(publishes.size()));

  r.set("pipeline.segment_us_per_frame", replay.values.at("pipeline.segment_us_per_frame"));
  r.set_quantile("pipeline.process_segment_ms_p50",
                 median(pick(own, replay, "pipeline.process_segment_ms")));
  r.set_quantile("pipeline.featurize_us_p50", median(replay.samples.at("pipeline.featurize_us")));
  r.set("pipeline.segment_recall", replay.values.at("pipeline.segment_recall"));

  for (const char* name : {"gesidnet.gesture_fwd_ms_b1", "gesidnet.gesture_fwd_ms_per_row_b48",
                           "gesidnet.user_fwd_ms_b1", "gesidnet.features_ms_b1"}) {
    r.set(name, replay.values.at(name));
  }

  const std::vector<double>& classify = pick(own, replay, "system.classify_ms");
  r.set_quantile("system.classify_ms_p50", median(classify));
  r.set_quantile("system.classify_ms_p99", tail(classify));

  // Cluster layer: the workload's own cluster, or one replay pass through a
  // freshly spawned one.
  double spawn_ms = median(setup.publish_ms).value;
  const bool clusters = w == Workload::kCluster3;
  const RunResult cluster_replay = clusters ? RunResult{} : replay_cluster(ctx, spawn_ms);
  const RunResult& cluster_run = clusters ? traced : cluster_replay;
  failed += cluster_replay.frames_rejected;
  const auto& cluster_push = cluster_run.layers.samples.at("cluster.push_frame_us");
  const auto& cluster_pump = cluster_run.layers.samples.at("cluster.pump_ms");
  r.set_quantile("cluster.push_frame_us_p50", median(cluster_push));
  r.set_quantile("cluster.push_frame_us_p99", tail(cluster_push));
  r.set_quantile("cluster.pump_ms_p50", median(cluster_pump));
  r.set_quantile("cluster.pump_ms_p99", tail(cluster_pump));
  for (const char* name : {"cluster.rpc_per_result", "cluster.retry_ratio", "cluster.checkpoints",
                           "cluster.session_imbalance"}) {
    r.set(name, cluster_run.layers.values.at(name));
  }
  r.set("cluster.wire_encode_frame_us", replay.values.at("cluster.wire_encode_frame_us"));
  r.set("cluster.wire_decode_results_us", replay.values.at("cluster.wire_decode_results_us"));
  r.set("cluster.spawn_ms", spawn_ms);

  r.set_quantile("setup.dataset_s", median(setup.dataset_s));
  r.set_quantile("setup.fit_s", median(setup.fit_s));
  r.set_quantile("setup.publish_ms", median(setup.publish_ms));
  r.set("proc.cpu_util", traced.cpu_s / traced.wall_s);
  const double base = median(untraced.latency_ms).value;
  r.set("trace.overhead_frac", base > 0.0 ? median(traced.latency_ms).value / base - 1.0 : 0.0);
  return failed;
}

int run(const Args& a) {
  const Workload w = *parse_workload(a.workload);
  std::filesystem::create_directories(a.out_dir);
  const std::string tag = a.workload + "_" + std::to_string(a.seed);
  FileRemover model{a.out_dir + "/model_" + tag + "_" + std::to_string(getpid()) + ".gpsy"};

  std::uint64_t t0 = now_ns();
  const Inputs inputs = make_inputs(a.seed);
  std::size_t expected = 0, frames = 0;
  for (const Stream& s : inputs.streams) {
    expected += s.expected.size();
    frames += s.recording.frames.size();
  }
  std::printf("inputs: %zu streams, %zu frames, %zu segments, frame digest %016llx (%.3f s)\n",
              inputs.streams.size(), frames, expected,
              static_cast<unsigned long long>(inputs.frame_digest), ms_since(t0) / 1e3);

  Setup setup = run_setup(w, inputs, model.path);
  std::uint64_t failed = setup.failures;
  std::printf("peak RSS after set-up: %.1f MB\n", process_peak_rss_mb());

  SpanLog untraced_spans(false);
  SpanLog traced_spans(a.trace == 1);
  Context ctx{&inputs, model.path, a.seconds, &untraced_spans};
  RunResult first = run_workload(w, ctx, setup, 1);
  RunResult second;
  if (a.trace == 1) {
    std::uint64_t next_id = 1;
    for (const SessionPlan& p : first.plans) next_id = std::max(next_id, p.session_id + 1);
    ctx.spans = &traced_spans;
    second = run_workload(w, ctx, setup, next_id);
  }
  setup.cluster.reset();  // workers are reaped before the reference pass
  setup.registry.reset();

  // Untimed reference pass and answer check.
  Context ref_ctx = ctx;
  ref_ctx.spans = &untraced_spans;
  t0 = now_ns();
  const std::vector<gp::serve::ServeResult> ref = reference_for(w, first, ref_ctx);
  const bool version_matters = w != Workload::kLive;
  const Verdict v1 = verify(first, ref, inputs, version_matters);
  print_verdict(a.trace == 1 ? "untraced run" : "run", first, v1);
  Verdict v2;
  if (a.trace == 1) {
    const std::vector<gp::serve::ServeResult> ref2 =
        same_plans(first.plans, second.plans) ? ref : reference_for(w, second, ref_ctx);
    v2 = verify(second, ref2, inputs, version_matters);
    print_verdict("traced run", second, v2);
  }
  std::printf("reference pass: %.3f s\n", ms_since(t0) / 1e3);
  const std::uint64_t attempted = v1.attempted + v2.attempted;
  failed += v1.failed + v2.failed;

  Report report(a.trace == 1);
  if (a.trace == 0) {
    report_end_to_end(report, setup, first, v1);
  } else {
    std::printf("untraced latency p50 %.4f ms, traced %.4f ms\n", median(first.latency_ms).value,
                median(second.latency_ms).value);
    ctx.spans = &traced_spans;
    failed += report_layers(report, w, ctx, setup, first, second, v2);
    const std::string trace_path = a.out_dir + "/trace_" + tag + ".json";
    if (traced_spans.write_chrome(trace_path)) {
      std::printf("trace: %zu spans (%zu dropped) -> %s\n", traced_spans.stored(),
                  traced_spans.dropped(), trace_path.c_str());
    } else {
      std::printf("error: cannot write %s\n", trace_path.c_str());
      ++failed;
    }
  }
  const bool correct = report.complete() && failed == 0 && attempted > 0;
  std::cout << report.json(correct, attempted == 0 ? 1 : attempted, failed) << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: gpbench --workload <live|backlog_int8|cluster3|offline> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>] [--git-sha <sha>] "
                 "[--src-digest <hex>] | --list-metrics\n";
    return 2;
  }
  if (args.list_metrics) {
    for (const MetricDef& m : kMetrics) {
      std::cout << m.name << " " << m.unit << " " << (m.per_layer ? "per_layer" : "end_to_end")
                << "\n";
    }
    return 0;
  }
  print_header(args);
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::cout << "error: " << e.what() << "\n";
    return 1;
  }
}
