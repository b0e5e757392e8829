#include "obs/bench_json.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "common/error.hpp"
#include "obs/json.hpp"

namespace gp::obs {

BenchDoc::BenchDoc(std::string bench, std::size_t threads)
    : bench_(std::move(bench)),
      cores_(std::max(1u, std::thread::hardware_concurrency())),
      threads_(threads) {}

void BenchDoc::add(const std::string& metric, const std::string& unit, double value) {
  check_arg(!metric.empty() && !unit.empty(), "BenchDoc metric needs a name and a unit");
  check_arg(std::isfinite(value), "BenchDoc metric " + metric + " is not finite");
  const bool duplicate = std::any_of(metrics_.begin(), metrics_.end(),
                                     [&](const Metric& m) { return m.name == metric; });
  check_arg(!duplicate, "BenchDoc metric " + metric + " added twice");
  metrics_.push_back({metric, unit, value});
}

std::string BenchDoc::json() const {
  std::ostringstream out;
  out << "{\n  \"bench\": \"" << json::escape(bench_) << "\",\n  \"host\": {\"cores\": "
      << cores_ << ", \"threads\": " << threads_ << "},\n  \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    out << (i ? ",\n" : "\n") << "    \"" << json::escape(m.name)
        << "\": {\"value\": " << json::number(m.value) << ", \"unit\": \""
        << json::escape(m.unit) << "\"}";
  }
  out << "\n  }\n}\n";
  return out.str();
}

std::string BenchDoc::write(const std::string& dir) const {
  const std::string path = dir + "/BENCH_" + bench_ + ".json";
  std::ofstream out(path, std::ios::binary);
  check(static_cast<bool>(out), "cannot open " + path + " for writing");
  out << json();
  out.flush();
  check(static_cast<bool>(out), "failed writing " + path);
  return path;
}

}  // namespace gp::obs
