#include "inputs.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iterator>
#include <numeric>

#include "common/fnv.hpp"
#include "common/rng.hpp"
#include "datasets/catalog.hpp"
#include "exec/exec.hpp"

namespace pb {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

/// Truth gesture of the span overlapping [start, end] the most (-1: none).
int overlapping_gesture(const gp::ContinuousRecording& recording, std::size_t start,
                        std::size_t end) {
  int best = -1;
  std::size_t best_overlap = 0;
  for (std::size_t k = 0; k < recording.truth_spans.size(); ++k) {
    const auto [s, e] = recording.truth_spans[k];
    const std::size_t lo = std::max(s, start);
    const std::size_t hi = std::min(e, end);
    if (lo > hi) continue;
    const std::size_t overlap = hi - lo + 1;
    if (overlap > best_overlap) {
      best_overlap = overlap;
      best = recording.gestures[k];
    }
  }
  return best;
}

}  // namespace

std::vector<Expected> trigger_map(const gp::ContinuousRecording& recording, std::size_t first,
                                  std::size_t count, const gp::SegmentationParams& params) {
  first = std::min(first, recording.frames.size());
  count = std::min(count, recording.frames.size() - first);
  gp::GestureSegmenter segmenter(params);
  std::vector<Expected> out;
  const auto collect = [&](std::size_t trigger) {
    for (std::size_t i = 0; i < segmenter.completed_count(); ++i) {
      const gp::SegmentView view = segmenter.completed_segment(i);
      Expected e;
      e.trigger = trigger;
      e.start_frame = view.start_frame;
      e.end_frame = view.end_frame;
      e.gesture =
          overlapping_gesture(recording, first + view.start_frame, first + view.end_frame);
      out.push_back(e);
    }
    segmenter.clear_completed();
  };
  for (std::size_t f = 0; f < count; ++f) {
    segmenter.push(recording.frames[first + f]);
    collect(f);
  }
  segmenter.finish();
  collect(count);
  return out;
}

std::uint64_t frame_digest(const std::vector<Stream>& streams) {
  using gp::fnv::accumulate_value;
  std::uint64_t h = gp::fnv::kOffsetBasis;
  for (const Stream& s : streams) {
    h = accumulate_value(h, s.user);
    for (const gp::FrameCloud& frame : s.recording.frames) {
      h = accumulate_value(h, frame.frame_index);
      h = accumulate_value(h, frame.timestamp);
      for (const gp::RadarPoint& p : frame.points) {
        h = accumulate_value(h, p.position.x);
        h = accumulate_value(h, p.position.y);
        h = accumulate_value(h, p.position.z);
        h = accumulate_value(h, p.velocity);
        h = accumulate_value(h, p.snr_db);
        h = accumulate_value(h, p.frame);
      }
    }
  }
  return h;
}

Inputs make_inputs(std::uint64_t seed, const Sizes& sizes) {
  Inputs in;
  in.seed = seed;
  in.sizes = sizes;

  gp::DatasetScale scale;
  scale.max_users = sizes.users;
  scale.reps = sizes.reps;
  in.spec = gp::gestureprint_spec(0, scale);
  in.spec.gestures.resize(sizes.gestures);
  // The training set (and so the model) is the catalogue's, not the seed's:
  // a deployment serves one model, and at this training budget accuracy
  // varies more between models than between stream sets. The seed drives the
  // served streams below.

  in.config.training.epochs = sizes.epochs;
  in.config.training.batch_size = 16;
  in.config.prep.augmentation.copies = 1;

  in.streams.resize(sizes.pool);
  for (std::size_t r = 0; r < sizes.pool; ++r) {
    Stream& s = in.streams[r];
    s.user = static_cast<int>(r % sizes.users);
    gp::Rng script_rng(gp::exec::child_seed(seed, 100 + r), 7);
    std::vector<int> script(sizes.gestures_per_stream);
    for (int& g : script) {
      g = static_cast<int>(script_rng.uniform_int(0, static_cast<int>(sizes.gestures) - 1));
    }
    s.recording = gp::generate_recording(in.spec, static_cast<std::size_t>(s.user), script,
                                         gp::exec::child_seed(seed, 200 + r));
    // Serve sessions segment with ServeConfig::preprocess, whose defaults
    // are these.
    s.expected = trigger_map(s.recording, 0, s.recording.frames.size(),
                             gp::PreprocessorParams{}.segmentation);
  }
  in.frame_digest = frame_digest(in.streams);
  return in;
}

SetupTimes train_and_save(const Inputs& inputs, const std::string& model_path) {
  SetupTimes t;
  auto start = std::chrono::steady_clock::now();
  const gp::Dataset dataset = gp::generate_dataset(inputs.spec);
  t.dataset_s = seconds_since(start);

  start = std::chrono::steady_clock::now();
  gp::GesturePrintSystem system(inputs.config);
  std::vector<std::size_t> all(dataset.samples.size());
  std::iota(all.begin(), all.end(), std::size_t{0});
  system.fit(dataset, all);
  t.fit_s = seconds_since(start);

  start = std::chrono::steady_clock::now();
  system.save(model_path);
  t.save_s = seconds_since(start);
  return t;
}

std::uint64_t file_digest(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return 0;
  const std::string bytes((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
  return gp::fnv::hash_bytes(bytes.data(), bytes.size());
}

}  // namespace pb
