// Continuous-stream runtime demo: the user performs several gestures in a
// row with natural 2-4 s pauses (the paper's collection protocol); the
// stream now runs through gp::serve — a single StreamSession owns the
// streaming segmenter + preprocessing, completed segments flow through the
// micro-batcher, and a published (fused) model snapshot labels gesture +
// user — the full Fig. 4 pipeline in deployment order, on the same code
// path a multi-client server uses.
//
// Build & run:  ./build/examples/live_segmentation
//
// With --faulty the radar link degrades mid-stream: the serve session arms
// its per-session seed-deterministic FaultInjector (gp::faults, DESIGN.md
// §7) and the abstention gate, so ambiguous captures are refused instead of
// misclassified. GP_FAULTS overrides the default mixed fault mix (e.g.
// GP_FAULTS="drop=0.3,ghost=0.4").
#include <cstring>
#include <iostream>
#include <memory>

#include "datasets/catalog.hpp"
#include "eval/splits.hpp"
#include "faults/faults.hpp"
#include "serve/server.hpp"
#include "system/gestureprint.hpp"

int main(int argc, char** argv) {
  using namespace gp;

  bool faulty = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--faulty") == 0) faulty = true;
  }

  DatasetScale scale;
  scale.max_users = 3;
  scale.reps = 10;
  DatasetSpec spec = gestureprint_spec(1, scale);
  spec.gestures.resize(5);

  std::cout << "Training on " << spec.num_users << " users x " << spec.gestures.size()
            << " ASL gestures...\n";
  const Dataset dataset = generate_dataset(spec);
  GesturePrintConfig config;
  config.training.epochs = 8;
  config.prep.augmentation.copies = 2;
  if (faulty) config.abstain_margin = 0.10;  // refuse degraded captures

  auto system = std::make_unique<GesturePrintSystem>(config);
  Rng split_rng(3, 1);
  system->fit(dataset, stratified_split(dataset.gesture_labels(), 0.2, split_rng).train);

  // Publish into the serving registry (fuses + warms up the snapshot) and
  // open a one-session server: the same admission → sessions → micro-batch
  // path a multi-client deployment runs, with exactly one client attached.
  serve::ModelRegistry registry(config);
  registry.publish(std::move(system));

  serve::ServeConfig serve_config;
  serve_config.system = config;
  serve_config.shards = 1;
  serve_config.batch_wait_us = 0;  // single client: answer on every pump
  if (faulty) {
    serve_config.session_faults =
        faults::FaultConfig::from_env().value_or(faults::FaultConfig::mixed(0.5));
  }
  serve::Server server(serve_config, registry);

  // --- a continuous radar recording: user 1 performs 6 gestures ----------
  const std::vector<int> script{0, 3, 1, 4, 2, 0};
  std::cout << "\nStreaming a continuous recording (user #1 performing "
            << script.size() << " gestures with natural pauses"
            << (faulty ? ", radar link degraded" : "") << ") through gp::serve...\n";
  const ContinuousRecording recording = generate_recording(spec, 1, script, 20260704);

  std::size_t detected = 0;
  std::size_t abstained = 0;
  std::size_t correct_gesture = 0;
  std::size_t correct_user = 0;
  constexpr std::uint64_t kSessionId = 1;

  auto report = [&](const serve::ServeResult& result) {
    const int truth = detected < script.size() ? script[detected] : -1;
    ++detected;
    std::cout << "  segment #" << result.segment_ordinal << ": ";
    if (result.abstained) {
      ++abstained;
      std::cout << (result.quality_rejected ? "REJECTED (failed preprocessing guards)"
                                            : "ABSTAINED (margin gate)");
      if (truth >= 0) std::cout << "  (truth: '" << spec.gestures[truth].name << "')";
      std::cout << "\n";
      return;
    }
    std::cout << "predicted gesture='" << spec.gestures[result.gesture].name << "' user#"
              << result.user << " (margin " << result.gesture_margin << ", model v"
              << result.model_version << ")";
    if (truth >= 0) {
      std::cout << "  (truth: '" << spec.gestures[truth].name << "' user#1)"
                << (result.gesture == truth && result.user == 1 ? "  [ok]" : "  [x]");
      correct_gesture += result.gesture == truth ? 1 : 0;
      correct_user += result.user == 1 ? 1 : 0;
    }
    std::cout << "\n";
  };

  for (const auto& frame : recording.frames) {
    (void)server.push_frame(kSessionId, frame);
    for (const serve::ServeResult& result : server.pump()) report(result);
  }
  for (const serve::ServeResult& result : server.drain()) report(result);

  const health::EventCounts served = server.stats();
  std::cout << "\nServed " << served.frames_admitted << " frames over " << server.ticks()
            << " ticks; " << served.batches << " micro-batches.\n";
  std::cout << "Detected " << detected << "/" << script.size() << " gestures; "
            << abstained << " abstained; " << correct_gesture << " correct gestures, "
            << correct_user << " correct user IDs.\n";
  return 0;
}
