// The one document behind every machine-readable bench artifact
// (BENCH_<bench>.json). Every bench records its numbers as named metrics,
// so a single generic schema golden (tests/test_golden_snapshot.cpp) and a
// single checker (tests/obs_json_check.cpp) cover every artifact:
//
//   {"bench": "<bench>",
//    "host": {"cores": <hardware threads>, "threads": <GP threads used>},
//    "metrics": {"<name>": {"value": <finite number>, "unit": "<unit>"}, ...}}
//
// Metrics keep their insertion order. A bench folds what used to be string
// fields into the metric name (`s8.b8.int8.ms`), writes a bool as a 0/1
// metric with unit `bool`, and derives ratios before adding them.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace gp::obs {

class BenchDoc {
 public:
  /// `threads` is the GP thread count the bench ran with; the header's
  /// `cores` is the host's hardware concurrency.
  BenchDoc(std::string bench, std::size_t threads);

  /// Appends one metric. Throws gp::InvalidArgument on a duplicate name, an
  /// empty name or unit, or a non-finite value.
  void add(const std::string& metric, const std::string& unit, double value);

  /// The document text.
  std::string json() const;

  /// Writes json() to `<dir>/BENCH_<bench>.json` and returns that path.
  /// Throws gp::Error naming the path when the file cannot be opened or
  /// fully written.
  std::string write(const std::string& dir) const;

 private:
  struct Metric {
    std::string name;
    std::string unit;
    double value;
  };

  std::string bench_;
  std::size_t cores_;
  std::size_t threads_;
  std::vector<Metric> metrics_;
};

}  // namespace gp::obs
