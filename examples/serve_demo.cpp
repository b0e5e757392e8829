// gp::serve demo: a synthetic multi-user load generator drives the full
// serving layer (DESIGN.md §8). Several client sessions — each a different
// user performing their own gesture script — stream interleaved frames into
// the sharded SessionManager; completed segments cross-batch through the
// MicroBatcher into fused GesIDNet forwards; and mid-stream the
// ModelRegistry hot-swaps a retrained model RCU-style without dropping a
// single in-flight segment (watch the model_version column flip).
//
// Build & run:  ./build/examples/serve_demo
//
// Environment knobs (see README): GP_SERVE_SHARDS, GP_SERVE_BATCH_MAX,
// GP_SERVE_BATCH_WAIT_US, GP_SERVE_QUEUE_CAP, GP_THREADS, GP_FAULTS.
#include <iostream>
#include <memory>
#include <vector>

#include "common/mem.hpp"
#include "datasets/catalog.hpp"
#include "eval/splits.hpp"
#include "serve/server.hpp"
#include "system/gestureprint.hpp"

int main() {
  using namespace gp;

  DatasetScale scale;
  scale.max_users = 3;
  scale.reps = 10;
  DatasetSpec spec = gestureprint_spec(1, scale);
  spec.gestures.resize(5);

  std::cout << "Training generation v1 (" << spec.num_users << " users x "
            << spec.gestures.size() << " gestures)...\n";
  const Dataset dataset = generate_dataset(spec);
  GesturePrintConfig config;
  config.training.epochs = 8;
  config.prep.augmentation.copies = 2;
  config.abstain_margin = 0.10;

  Rng split_rng(3, 1);
  const auto split = stratified_split(dataset.gesture_labels(), 0.2, split_rng);

  serve::ModelRegistry registry(config);
  {
    auto v1 = std::make_unique<GesturePrintSystem>(config);
    v1->fit(dataset, split.train);
    registry.publish(std::move(v1));
  }

  serve::ServeConfig serve_config = serve::ServeConfig::from_env();
  serve_config.system = config;
  serve::Server server(serve_config, registry);
  std::cout << "Server up: " << server.sessions().shard_count() << " shards, batch_max="
            << serve_config.batch_max << ", queue_cap=" << serve_config.queue_cap << "\n";

  // --- the load generator: 6 clients, one per (user, script) pair --------
  const std::vector<std::vector<int>> scripts{
      {0, 3, 1, 4}, {2, 0, 2}, {4, 1, 3, 0}, {1, 2}, {3, 4, 0}, {0, 1, 2, 3}};
  std::vector<ContinuousRecording> streams;
  for (std::size_t s = 0; s < scripts.size(); ++s) {
    streams.push_back(
        generate_recording(spec, s % spec.num_users, scripts[s], 0xC11E57 + s));
  }
  std::cout << "Streaming " << streams.size() << " interleaved client sessions...\n\n";

  std::size_t rejected = 0;
  auto report = [&](const serve::ServeResult& r) {
    std::cout << "  [session " << r.session_id << " seg " << r.segment_ordinal << "] ";
    if (r.quality_rejected) {
      std::cout << "rejected (quality)";
    } else if (r.abstained) {
      std::cout << "abstained";
    } else {
      std::cout << "gesture='" << spec.gestures[r.gesture].name << "' user#" << r.user;
    }
    std::cout << "  (model v" << r.model_version << ")\n";
  };

  std::size_t max_frames = 0;
  for (const auto& s : streams) max_frames = std::max(max_frames, s.frames.size());
  bool swapped = false;
  for (std::size_t f = 0; f < max_frames; ++f) {
    for (std::size_t s = 0; s < streams.size(); ++s) {
      if (f >= streams[s].frames.size()) continue;
      if (server.push_frame(s + 1, streams[s].frames[f]) != serve::Admission::kAccepted) {
        ++rejected;
      }
    }
    for (const serve::ServeResult& r : server.pump()) report(r);

    if (!swapped && f >= max_frames / 2) {
      // Mid-stream hot-swap: retrain (different epoch budget → different
      // weights) and publish. In-flight batches keep answering from v1;
      // later flushes pick up v2 — no pause, no dropped segments.
      std::cout << "  --- hot-swapping model (training generation v2) ---\n";
      GesturePrintConfig config_v2 = config;
      config_v2.training.epochs = 10;
      auto v2 = std::make_unique<GesturePrintSystem>(config_v2);
      v2->fit(dataset, split.train);
      registry.publish(std::move(v2));
      swapped = true;
    }
  }
  for (const serve::ServeResult& r : server.drain()) report(r);

  // Steady-state memory check (DESIGN.md §9): with the server fully warm,
  // quiet ticks — frames admitted and shards drained, but no segment
  // completing — should not touch the heap at all.
  {
    constexpr std::size_t kQuietTicks = 8;
    mem::AllocCounter tick_allocs;
    for (std::size_t f = 0; f < kQuietTicks; ++f) {
      for (std::size_t s = 0; s < streams.size(); ++s) {
        (void)server.push_frame(s + 1, streams[s].frames[f]);
      }
      (void)server.pump();
    }
    std::cout << "\nsteady-state memory: "
              << (tick_allocs.allocations() / kQuietTicks)
              << " heap allocations per quiet serve tick ("
              << tick_allocs.allocations() << " over " << kQuietTicks << " ticks)\n";
  }

  // Final tallies: the server's event totals, and the health monitor's SLO
  // window (sized to the whole run by default). Both come from the one
  // per-tick event tally that also feeds the gp.serve.* counters, so what
  // the dashboard and SLO evaluator see is what the demo reports.
  const health::EventCounts c = server.stats();
  const health::HealthSnapshot h = server.health_snapshot();
  const health::WindowStats& w = h.slo_window;
  std::cout << "\n" << c.frames_admitted << " frames admitted, " << c.frames_rejected
            << " shed at admission, " << c.fault_drops << " lost to faults; " << c.segments
            << " segments in " << c.batches << " micro-batches; " << rejected
            << " pushes refused; final model v" << registry.version() << ".\n";
  std::cout << "health (" << w.ticks << " ticks): " << w.counts.segments
            << " answers, shed_rate="
            << w.shed_rate << ", abstain_rate=" << w.abstain_rate << ", quality_reject_rate="
            << w.quality_reject_rate << ", p99=" << w.p99_ms << " ms, verdict="
            << health::verdict_name(h.verdict) << ", flight-recorder events: "
            << h.flightrec_events << ".\n";
  return 0;
}
