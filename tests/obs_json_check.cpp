// obs-smoke checker: validates the artifacts a traced run or a bench leaves
// behind.
//
//   obs_json_check REPORT_x.json [TRACE_x.json]
//   obs_json_check BENCH_x.json
//
// Checks, using the in-tree JSON parser (no external deps):
//   * a document with a "bench" key is an obs::BenchDoc: exactly the
//     bench/host/metrics keys, a host with cores and threads >= 1, and at
//     least one metric, each with a non-empty unit and a finite value;
//   * otherwise the report parses, carries name/wall_clock_s/stages/metrics,
//     and the top-level stages (min_depth == 0) account for the wall clock
//     within 10% — the "stage latencies sum to the run" invariant;
//   * the trace parses as Chrome trace-event JSON: a traceEvents array of
//     complete ("X") events with non-negative timestamps and durations,
//     loadable as-is in chrome://tracing or Perfetto.
//
// Exit code 0 on success; prints the first failure and exits 1 otherwise.
#include <cmath>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obs/json.hpp"

namespace {

using gp::obs::json::Value;

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    std::cerr << "obs_json_check: cannot open " << path << "\n";
    std::exit(1);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

[[noreturn]] void fail(const std::string& what) {
  std::cerr << "obs_json_check: FAIL: " << what << "\n";
  std::exit(1);
}

void check_bench(const Value& doc, const std::string& path) {
  if (doc.obj.size() != 3) fail("bench document has keys besides bench/host/metrics");
  if (!doc.at("bench").is_string() || doc.at("bench").str.empty()) fail("bench is not a name");
  const Value& host = doc.at("host");
  for (const char* key : {"cores", "threads"}) {
    if (!host.at(key).is_number() || host.at(key).num < 1.0) {
      fail(std::string("host.") + key + " is not a count >= 1");
    }
  }
  const Value& metrics = doc.at("metrics");
  if (!metrics.is_object() || metrics.obj.empty()) fail("metrics is not a non-empty object");
  for (const auto& [name, metric] : metrics.obj) {
    if (!metric.at("unit").is_string() || metric.at("unit").str.empty()) {
      fail("metric " + name + " has no unit");
    }
    if (!metric.at("value").is_number() || !std::isfinite(metric.at("value").num)) {
      fail("metric " + name + " has no finite value");
    }
  }
  std::cout << "bench ok: " << path << " (" << metrics.obj.size() << " metrics)\n";
}

void check_report(const Value& doc, const std::string& path) {
  if (!doc.at("name").is_string()) fail("report.name is not a string");
  if (!doc.at("wall_clock_s").is_number()) fail("report.wall_clock_s is not a number");
  if (!doc.at("metrics").is_object()) fail("report.metrics is not an object");

  const Value& stages = doc.at("stages");
  if (!stages.is_array()) fail("report.stages is not an array");
  if (stages.arr.empty()) fail("report.stages is empty (no GP_SPAN fired?)");

  const double wall_ms = doc.at("wall_clock_s").num * 1000.0;
  double top_level_ms = 0.0;
  std::size_t top_level_stages = 0;
  for (const Value& stage : stages.arr) {
    if (!stage.is_object()) fail("stage entry is not an object");
    if (!stage.at("name").is_string()) fail("stage.name is not a string");
    if (stage.at("count").num < 1.0) fail("stage " + stage.at("name").str + " has count 0");
    if (stage.at("total_ms").num < 0.0) fail("stage " + stage.at("name").str + " negative total");
    if (stage.at("min_depth").num == 0.0) {
      top_level_ms += stage.at("total_ms").num;
      ++top_level_stages;
    }
  }
  if (top_level_stages == 0) fail("no top-level (min_depth 0) stages in report");

  const double deviation = std::fabs(top_level_ms - wall_ms) / wall_ms;
  if (deviation > 0.10) {
    std::ostringstream msg;
    msg << "top-level stages sum to " << top_level_ms << " ms but wall clock is " << wall_ms
        << " ms (" << deviation * 100.0 << "% off, budget 10%)";
    fail(msg.str());
  }
  std::cout << "report ok: " << path << " (" << top_level_stages << " top-level stages cover "
            << 100.0 * top_level_ms / wall_ms << "% of " << wall_ms << " ms)\n";
}

void check_trace(const std::string& path) {
  const Value doc = gp::obs::json::parse(slurp(path));
  if (!doc.is_object()) fail("trace root is not an object");
  const Value& events = doc.at("traceEvents");
  if (!events.is_array()) fail("traceEvents is not an array");
  if (events.arr.empty()) fail("traceEvents is empty");
  for (const Value& event : events.arr) {
    if (!event.is_object()) fail("trace event is not an object");
    if (!event.at("name").is_string()) fail("trace event name is not a string");
    if (event.at("ph").str == "M") {
      // Metadata (process/thread names for Perfetto lane labels): only the
      // args object is required.
      if (!event.at("args").is_object()) fail("metadata event args is not an object");
      continue;
    }
    if (event.at("ph").str != "X") fail("trace event ph is not \"X\" or \"M\"");
    if (!event.at("ts").is_number() || event.at("ts").num < 0.0) fail("bad trace event ts");
    if (!event.at("dur").is_number() || event.at("dur").num < 0.0) fail("bad trace event dur");
    if (!event.at("tid").is_number()) fail("trace event tid is not a number");
  }
  std::cout << "trace ok: " << path << " (" << events.arr.size() << " events)\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: obs_json_check REPORT.json [TRACE.json] | BENCH.json\n";
    return 1;
  }
  try {
    const Value doc = gp::obs::json::parse(slurp(argv[1]));
    if (!doc.is_object()) fail("document root is not an object");
    if (doc.find("bench") != nullptr) {
      check_bench(doc, argv[1]);
    } else {
      check_report(doc, argv[1]);
    }
    if (argc > 2) check_trace(argv[2]);
  } catch (const std::exception& e) {
    std::cerr << "obs_json_check: FAIL: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
