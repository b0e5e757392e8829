// Seeded workload inputs: the training dataset spec, the pool of sensor
// streams every workload replays, and each stream's trigger-frame map.
//
// Everything here is a pure function of the benchmark seed. The program
// under test only ever sees the generated frames (and the model trained in
// set-up); the seed itself never reaches it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "datasets/dataset.hpp"
#include "pipeline/segmentation.hpp"
#include "system/gestureprint.hpp"

namespace pb {

/// Input sizes. Training is deliberately small so set-up stays a minor part
/// of a run; it changes the weights, not the network shape.
struct Sizes {
  std::size_t users = 3;
  std::size_t gestures = 4;
  std::size_t reps = 5;              ///< dataset repetitions per (user, gesture)
  std::size_t epochs = 5;
  /// Distinct sensor streams. Accuracy is scored on their ~3 segments each,
  /// so this sets how much gra/uia vary from seed to seed.
  std::size_t pool = 160;
  std::size_t gestures_per_stream = 3;
};

/// One expected result of a stream: the segment the offline segmenter closes
/// at ordinal i (the serve path segments with the same parameters, and
/// segmentation is a pure function of the frame sequence).
struct Expected {
  /// Index (among the pushed frames) of the frame whose push closed the
  /// segment; equal to the pushed count when only the end-of-stream flush
  /// closes it.
  std::size_t trigger = 0;
  std::size_t start_frame = 0;
  std::size_t end_frame = 0;
  int gesture = -1;  ///< truth gesture of the most-overlapped span, -1 = none
};

struct Stream {
  gp::ContinuousRecording recording;
  int user = 0;
  std::vector<Expected> expected;  ///< trigger map of the whole recording
};

struct Inputs {
  std::uint64_t seed = 0;
  Sizes sizes;
  gp::DatasetSpec spec;
  gp::GesturePrintConfig config;
  std::vector<Stream> streams;
  std::uint64_t frame_digest = 0;
};

/// Builds the spec, config and stream pool for `seed`.
Inputs make_inputs(std::uint64_t seed, const Sizes& sizes = {});

/// Runs GestureSegmenter over frames [first, first + count) of the recording
/// (then finish()) and returns one entry per completed segment, in ordinal
/// order. Trigger and segment frame numbers count pushed frames from 0.
std::vector<Expected> trigger_map(const gp::ContinuousRecording& recording, std::size_t first,
                                  std::size_t count, const gp::SegmentationParams& params = {});

/// FNV-1a digest over every frame (index, timestamp, points) of the pool.
std::uint64_t frame_digest(const std::vector<Stream>& streams);

/// Set-up phases: dataset generation, fit, save.
struct SetupTimes {
  double dataset_s = 0.0;
  double fit_s = 0.0;
  double save_s = 0.0;
};

/// Generates the training dataset, fits a GesturePrintSystem on all of it
/// and saves it as `model_path` (.gpsy).
SetupTimes train_and_save(const Inputs& inputs, const std::string& model_path);

/// FNV-1a digest of a file's bytes (0 when unreadable).
std::uint64_t file_digest(const std::string& path);

}  // namespace pb
