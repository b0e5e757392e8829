// Robustness sweep (DESIGN.md §7): streams one continuous recording through
// the FaultInjector at increasing severity for every fault family, runs the
// full streaming runtime (segmentation -> preprocessing -> classification
// with the abstention gate armed), and emits the graceful-degradation
// evidence to <output_dir>/BENCH_faults.json.
//
// Invariants this artifact demonstrates:
//  * severity 0 of every family is bitwise the clean baseline (the off path
//    of the injector is free);
//  * at maximum severity the runtime still completes with zero uncaught
//    exceptions — degraded captures become typed rejections or kAbstain
//    answers, never crashes or silent garbage.
#include <cmath>
#include <exception>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/config.hpp"
#include "datasets/catalog.hpp"
#include "eval/splits.hpp"
#include "exec/exec.hpp"
#include "faults/faults.hpp"
#include "obs/bench_json.hpp"
#include "obs/metrics.hpp"
#include "pipeline/preprocessor.hpp"
#include "system/gestureprint.hpp"

namespace {

using namespace gp;

/// What the degradation gates read from one (fault family, severity) cell.
struct Cell {
  std::uint64_t segments = 0;    ///< segments the streaming segmenter detected
  std::uint64_t classified = 0;  ///< clouds that got a (gesture,user) answer
  std::uint64_t abstained = 0;   ///< clouds the system refused (kAbstain)
  std::uint64_t correct = 0;     ///< classified AND gesture matched truth
  std::uint64_t uncaught_exceptions = 0;  ///< must be 0: degradation, not death
};

/// Streams `recording` through an injector configured by `config` and the
/// freshly-loaded system at `model_path`, and adds the cell's metrics to
/// `doc` under `prefix`. Per-frame and per-segment work is fenced so a fault
/// can only ever produce a counted exception, never kill the sweep.
Cell run_cell(const ContinuousRecording& recording, const std::vector<int>& script,
              const GesturePrintConfig& system_config, const std::string& model_path,
              const faults::FaultConfig& fault_config, double severity,
              const std::string& prefix, obs::BenchDoc& doc, bool& ok) {
  Cell cell;
  std::uint64_t frames_delivered = 0;

  // Per-cell counter baseline: gp.faults.* counters are process-global and
  // keep accumulating across the sweep; the delta isolates this cell.
  const obs::MetricsDelta delta;

  // Fresh system per cell: construction reseeds the internal RNG, load()
  // restores the exact trained weights, so classification is a pure
  // function of the delivered cloud sequence (severity 0 == clean run).
  GesturePrintSystem system(system_config);
  system.load(model_path);

  faults::FaultInjector injector(fault_config);
  GestureSegmenter segmenter;
  const Preprocessor preprocessor;
  std::size_t detected = 0;

  auto consume = [&](const GestureSegment& segment) {
    try {
      const GestureCloud cloud = preprocessor.process_segment(segment.frames);
      ++cell.segments;
      const InferenceResult result = system.classify(cloud);
      const int truth = detected < script.size() ? script[detected] : -1;
      ++detected;
      if (result.abstained) {
        ++cell.abstained;
        return;
      }
      ++cell.classified;
      if (truth >= 0 && result.gesture == truth) ++cell.correct;
    } catch (const std::exception&) {
      ++cell.uncaught_exceptions;
    }
  };

  for (const auto& frame : recording.frames) {
    try {
      const std::optional<FrameCloud> delivered = injector.apply(frame);
      if (!delivered) continue;
      ++frames_delivered;  // counted here: the off-path injector keeps no tally
      segmenter.push(*delivered);
    } catch (const std::exception&) {
      ++cell.uncaught_exceptions;
      continue;
    }
    for (const GestureSegment& segment : segmenter.take_segments()) consume(segment);
  }
  segmenter.finish();
  for (const GestureSegment& segment : segmenter.take_segments()) consume(segment);

  const faults::FaultInjector::Counts& counts = injector.counts();
  const auto count = [&](const char* name, std::uint64_t value) {
    doc.add(prefix + "." + name, "count", static_cast<double>(value));
  };
  count("frames_in", recording.frames.size());
  count("frames_delivered", frames_delivered);
  count("frames_dropped", counts.frames_dropped);
  count("ghost_points", counts.ghost_points);
  count("points_removed", counts.points_removed);
  count("segments", cell.segments);
  count("classified", cell.classified);
  count("abstained", cell.abstained);
  count("correct", cell.correct);
  doc.add(prefix + ".accuracy", "ratio",
          cell.classified == 0
              ? 0.0
              : static_cast<double>(cell.correct) / static_cast<double>(cell.classified));
  count("uncaught_exceptions", cell.uncaught_exceptions);
  std::cout << "  " << prefix << ": " << frames_delivered << "/" << recording.frames.size()
            << " frames, " << cell.segments << " segments, " << cell.classified
            << " classified, " << cell.abstained << " abstained, " << cell.correct
            << " correct, " << cell.uncaught_exceptions << " exceptions\n";

  // Cross-check: this cell's gp.faults.* counter deltas must equal the
  // injector's own tallies (catches cross-cell accumulation bleeding into
  // the artifact and double counting inside the injector).
  if (obs::metrics_enabled()) {
    const std::uint64_t d_dropped = delta.counter_delta("gp.faults.frames_dropped");
    const std::uint64_t d_ghost = delta.counter_delta("gp.faults.ghost_points");
    if (d_dropped != counts.frames_dropped || d_ghost != counts.ghost_points) {
      std::cout << "FAIL: severity=" << severity << " counter deltas (dropped " << d_dropped
                << ", ghost " << d_ghost << ") disagree with injector counts ("
                << counts.frames_dropped << ", " << counts.ghost_points << ")\n";
      ok = false;
    }
  }
  return cell;
}

}  // namespace

int main() {
  using namespace gp;
  bench::banner("fault_sweep", "DESIGN.md §7 (robustness; not in the paper)");

  DatasetScale scale;
  scale.max_users = 3;
  scale.reps = 10;
  DatasetSpec spec = gestureprint_spec(1, scale);
  spec.gestures.resize(5);

  std::cout << "Training on " << spec.num_users << " users x " << spec.gestures.size()
            << " gestures...\n";
  const Dataset dataset = generate_dataset(spec);
  GesturePrintConfig config;
  config.training.epochs = 8;
  config.prep.augmentation.copies = 2;
  config.abstain_margin = 0.10;  // arm the gate: refuse ambiguous captures

  const std::string model_path = output_dir() + "/fault_sweep_model.gpsy";
  {
    GesturePrintSystem trainer(config);
    Rng split_rng(3, 1);
    trainer.fit(dataset, stratified_split(dataset.gesture_labels(), 0.2, split_rng).train);
    trainer.save(model_path);
  }

  // One continuous recording reused across every cell: user 1 performs 12
  // gestures with natural pauses.
  const std::vector<int> script{0, 3, 1, 4, 2, 0, 2, 4, 1, 3, 0, 1};
  const ContinuousRecording recording = generate_recording(spec, 1, script, 20260704);
  std::cout << "Streaming " << recording.frames.size() << " frames ("
            << script.size() << " gestures) per cell...\n\n";

  const std::vector<double> severities{0.0, 0.25, 0.5, 1.0};
  obs::BenchDoc doc("faults", exec::default_threads());
  doc.add("abstain_margin", "prob", config.abstain_margin);

  // Self-check the degradation invariants (plus the per-cell counter
  // cross-check in run_cell) so CI can gate on the exit code without
  // parsing the artifact. The first family's severity-0 cell is the clean
  // baseline every family's severity-0 cell must reproduce.
  bool ok = true;
  std::optional<Cell> clean;
  std::uint64_t worst_abstained = 0;
  auto sweep = [&](const std::string& kind_name, auto&& make_config) {
    for (double severity : severities) {
      // Metric prefix: family, then severity in percent ("frame_drop.s25").
      const std::string prefix =
          kind_name + ".s" + std::to_string(static_cast<int>(std::lround(severity * 100.0)));
      const Cell cell = run_cell(recording, script, config, model_path, make_config(severity),
                                 severity, prefix, doc, ok);
      if (severity == severities.front()) {
        if (!clean) clean = cell;
        if (cell.segments != clean->segments || cell.classified != clean->classified ||
            cell.correct != clean->correct) {
          std::cout << "FAIL: " << kind_name << " severity 0 deviates from clean baseline\n";
          ok = false;
        }
      }
      if (cell.uncaught_exceptions != 0) {
        std::cout << "FAIL: " << kind_name << " s=" << severity
                  << " had uncaught exceptions\n";
        ok = false;
      }
      if (severity == severities.back()) worst_abstained += cell.abstained;
    }
  };

  for (faults::FaultKind kind : faults::all_fault_kinds()) {
    sweep(faults::fault_kind_name(kind), [&](double s) {
      return faults::FaultConfig::preset(kind, s);
    });
  }
  sweep("mixed", [&](double s) { return faults::FaultConfig::mixed(s); });

  std::cout << "\nWrote " << doc.write(output_dir()) << "\n";

  if (worst_abstained == 0) {
    std::cout << "FAIL: no abstentions at maximum severity (gate never fired)\n";
    ok = false;
  }
  std::cout << (ok ? "Graceful degradation invariants hold.\n" : "Invariants VIOLATED.\n");
  return ok ? 0 : 1;
}
