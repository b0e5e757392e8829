// gpctl — command-line front end for the GesturePrint library.
//
//   gpctl generate <dataset> <out.gpds> [--users N] [--reps N]
//       regenerate one of the four catalogue datasets and cache it
//   gpctl train <in.gpds> <model.bin> [--epochs N] [--parallel]
//       train recognition + identification models on a cached dataset
//   gpctl eval <in.gpds> <model.bin> [--parallel]
//       evaluate a trained system on a cached dataset (held-out 20%)
//   gpctl crossval <in.gpds> [--folds K] [--epochs N]
//       k-fold cross-validation (the paper's 5-fold protocol)
//   gpctl info <in.gpds>
//       print dataset statistics
//   gpctl top [--rounds N] [--sessions N]
//       live health dashboard: drives a synthetic serve load in-process and
//       redraws verdict/SLIs/exemplar from Server::health_snapshot() each
//       round (honours GP_SLO, GP_FLIGHTREC, GP_SERVE_*, GP_FAULTS)
//   gpctl enroll [--rounds N] [--sessions N]
//       live enrollment view (gp::enroll, DESIGN.md §13): streams enrolled
//       performers plus one unknown newcomer through a serve stack with the
//       EnrollmentService armed, and redraws candidate buffers, fine-tune
//       counts and the last published model version each round (honours
//       GP_ENROLL_K, GP_ENROLL_MAX_CANDIDATES)
//
// Dataset names: gestureprint-office, gestureprint-meeting, pantomime-office,
// pantomime-open, mhomeges, mtranssee.
#include <unistd.h>

#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <string>

#include "common/config.hpp"
#include "common/table.hpp"
#include "datasets/cache.hpp"
#include "datasets/catalog.hpp"
#include "enroll/enroll.hpp"
#include "eval/splits.hpp"
#include "serve/server.hpp"
#include "system/cross_validate.hpp"
#include "system/gestureprint.hpp"

namespace {

using namespace gp;

int usage() {
  std::cerr << "usage: gpctl generate|train|eval|crossval|info|top|enroll ... "
               "(see header comment)\n";
  return 2;
}

// Minimal flag parsing after the positional arguments, one token at a
// time: a boolean flag (--parallel) takes no value, every other --key takes
// the token after it.
std::map<std::string, std::string> parse_flags(int argc, char** argv, int first) {
  std::map<std::string, std::string> flags;
  for (int i = first; i < argc; ++i) {
    if (std::strncmp(argv[i], "--", 2) != 0) continue;
    const std::string key = argv[i] + 2;
    if (key == "parallel") {
      flags[key] = "1";
    } else if (i + 1 < argc) {
      flags[key] = argv[++i];
    }
  }
  return flags;
}

DatasetSpec spec_by_name(const std::string& name, const DatasetScale& scale) {
  if (name == "gestureprint-office") return gestureprint_spec(0, scale);
  if (name == "gestureprint-meeting") return gestureprint_spec(1, scale);
  if (name == "pantomime-office") return pantomime_spec(0, scale);
  if (name == "pantomime-open") return pantomime_spec(1, scale);
  if (name == "mhomeges") return mhomeges_spec({1.2}, scale);
  if (name == "mtranssee") return mtranssee_spec({1.2}, scale);
  throw InvalidArgument("unknown dataset name: " + name);
}

Split default_split(const Dataset& dataset) {
  Rng rng(20240704, 1);
  std::vector<int> strata;
  const int num_users = static_cast<int>(dataset.num_users());
  for (const auto& s : dataset.samples) strata.push_back(s.gesture * num_users + s.user);
  return stratified_split(strata, 0.2, rng);
}

GesturePrintConfig config_from_flags(const std::map<std::string, std::string>& flags) {
  GesturePrintConfig config;
  config.training.epochs = flags.count("epochs") ? std::stoul(flags.at("epochs")) : 8;
  config.prep.augmentation.copies = 2;
  if (flags.count("parallel")) config.mode = IdentificationMode::kParallel;
  return config;
}

int cmd_generate(int argc, char** argv) {
  if (argc < 4) return usage();
  const auto flags = parse_flags(argc, argv, 4);
  DatasetScale scale;
  scale.max_users = flags.count("users") ? std::stoul(flags.at("users")) : 8;
  scale.reps = flags.count("reps") ? std::stoul(flags.at("reps")) : 10;
  const DatasetSpec spec = spec_by_name(argv[2], scale);
  std::cout << "generating '" << spec.name << "' (" << spec.num_users << " users, "
            << spec.gestures.size() << " gestures, " << spec.reps_per_gesture << " reps)...\n";
  const Dataset dataset = generate_dataset(spec);
  save_dataset(argv[3], dataset);
  std::cout << dataset.samples.size() << " samples -> " << argv[3] << "\n";
  return 0;
}

int cmd_train(int argc, char** argv) {
  if (argc < 4) return usage();
  const auto dataset = load_dataset(argv[2]);
  if (!dataset) {
    std::cerr << "cannot load dataset " << argv[2] << "\n";
    return 1;
  }
  const auto flags = parse_flags(argc, argv, 4);
  GesturePrintSystem system(config_from_flags(flags));
  const Split split = default_split(*dataset);
  std::cout << "training on " << split.train.size() << " samples ("
            << dataset->num_gestures() << " gestures, " << dataset->num_users()
            << " users)...\n";
  system.fit(*dataset, split.train);
  system.save(argv[3]);
  const SystemEvaluation eval = system.evaluate(*dataset, split.test);
  std::cout << "held-out: GRA=" << Table::pct(eval.gra) << " UIA=" << Table::pct(eval.uia)
            << "\nmodel -> " << argv[3] << "\n";
  return 0;
}

int cmd_eval(int argc, char** argv) {
  if (argc < 4) return usage();
  const auto dataset = load_dataset(argv[2]);
  if (!dataset) {
    std::cerr << "cannot load dataset " << argv[2] << "\n";
    return 1;
  }
  const auto flags = parse_flags(argc, argv, 4);
  GesturePrintSystem system(config_from_flags(flags));
  system.load(argv[3]);
  const Split split = default_split(*dataset);
  const SystemEvaluation eval = system.evaluate(*dataset, split.test);
  Table table({"metric", "value"});
  table.add_row({"GRA", Table::pct(eval.gra)});
  table.add_row({"GRF1", Table::num(eval.grf1, 4)});
  table.add_row({"GRAUC", Table::num(eval.grauc, 4)});
  table.add_row({"UIA", Table::pct(eval.uia)});
  table.add_row({"UIF1", Table::num(eval.uif1, 4)});
  table.add_row({"UIAUC", Table::num(eval.uiauc, 4)});
  table.add_row({"EER", Table::pct(eval.user_roc.eer())});
  table.print();
  return 0;
}

int cmd_crossval(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto dataset = load_dataset(argv[2]);
  if (!dataset) {
    std::cerr << "cannot load dataset " << argv[2] << "\n";
    return 1;
  }
  const auto flags = parse_flags(argc, argv, 3);
  const std::size_t k = flags.count("folds") ? std::stoul(flags.at("folds")) : 5;
  std::cout << k << "-fold cross-validation...\n";
  const CrossValidationResult cv = cross_validate(*dataset, config_from_flags(flags), k);
  std::cout << "GRA " << Table::pct(cv.mean_gra) << " +/- " << Table::pct(cv.std_gra)
            << "\nUIA " << Table::pct(cv.mean_uia) << " +/- " << Table::pct(cv.std_uia)
            << "\nmean EER " << Table::pct(cv.mean_eer) << "\n";
  return 0;
}

int cmd_info(int argc, char** argv) {
  if (argc < 3) return usage();
  const auto dataset = load_dataset(argv[2]);
  if (!dataset) {
    std::cerr << "cannot load dataset " << argv[2] << "\n";
    return 1;
  }
  double total_points = 0.0;
  double total_frames = 0.0;
  for (const auto& s : dataset->samples) {
    total_points += static_cast<double>(s.cloud.points.size());
    total_frames += static_cast<double>(s.active_frames);
  }
  const double n = std::max<double>(1.0, static_cast<double>(dataset->samples.size()));
  Table table({"property", "value"});
  table.add_row({"name", dataset->spec.name});
  table.add_row({"samples", std::to_string(dataset->samples.size())});
  table.add_row({"gestures", std::to_string(dataset->num_gestures())});
  table.add_row({"users", std::to_string(dataset->num_users())});
  table.add_row({"mean points/sample", Table::num(total_points / n, 1)});
  table.add_row({"mean duration (s)", Table::num(0.1 * total_frames / n, 2)});
  table.print();
  return 0;
}

// ------------------------------------------------------------------- top

/// One dashboard frame rendered from a health snapshot. On a tty the screen
/// is cleared first so successive frames redraw in place.
void draw_dashboard(const health::HealthSnapshot& h, std::uint64_t model_version,
                    std::size_t sessions, std::size_t round, std::size_t rounds) {
  if (::isatty(1) != 0) std::cout << "\033[2J\033[H";
  std::cout << "gpctl top — round " << round << "/" << rounds << ", " << sessions
            << " sessions, model v" << model_version << ", tick " << h.ticks_closed << "\n";
  std::cout << "verdict: " << health::verdict_name(h.verdict);
  if (h.has_slo) {
    std::cout << "  (slo \"" << h.slo_spec << "\", breach streak " << h.breach_streak
              << ", ok streak " << h.ok_streak << ", flips " << h.verdict_flips << ")";
  } else {
    std::cout << "  (no GP_SLO configured)";
  }
  std::cout << "\n\n";

  Table table({"window", "ticks", "results", "p50 ms", "p99 ms", "shed", "abstain",
               "occupancy"});
  auto add_window = [&](const health::WindowStats& w) {
    table.add_row({w.label, std::to_string(w.ticks), std::to_string(w.counts.segments),
                   Table::num(w.p50_ms, 3), Table::num(w.p99_ms, 3),
                   Table::pct(w.shed_rate), Table::pct(w.abstain_rate),
                   Table::pct(w.batch_occupancy)});
  };
  add_window(h.slo_window);
  for (const health::WindowStats& w : h.wall_windows) add_window(w);
  table.print();

  if (h.has_exemplar) {
    const health::RequestSample& s = h.exemplar.sample;
    std::cout << "\nslowest request: session " << s.session_id << " seg " << s.ordinal
              << ", " << s.total_us << " us total, slowest stage "
              << health::stage_name(s.slowest_stage()) << " (tick " << h.exemplar.tick
              << ")\n";
  }
  std::cout << "flight recorder: " << h.flightrec_events << " events\n";
  std::cout.flush();
}

/// Live text dashboard over a synthetic serve load. Everything runs in this
/// process: train a small model, stream `--sessions` interleaved clients,
/// and redraw the health snapshot `--rounds` times over the stream.
int cmd_top(int argc, char** argv) {
  const auto flags = parse_flags(argc, argv, 2);
  const std::size_t rounds = flags.count("rounds") ? std::stoul(flags.at("rounds")) : 6;
  const std::size_t sessions = flags.count("sessions") ? std::stoul(flags.at("sessions")) : 6;

  DatasetScale scale;
  scale.max_users = 3;
  scale.reps = 6;
  DatasetSpec spec = gestureprint_spec(1, scale);
  spec.gestures.resize(5);
  std::cout << "training a demo model (" << spec.num_users << " users x "
            << spec.gestures.size() << " gestures)...\n";
  const Dataset dataset = generate_dataset(spec);
  GesturePrintConfig config;
  config.training.epochs = 4;
  config.prep.augmentation.copies = 1;
  config.abstain_margin = 0.10;
  Rng split_rng(3, 1);

  serve::ModelRegistry registry(config);
  {
    auto system = std::make_unique<GesturePrintSystem>(config);
    system->fit(dataset, stratified_split(dataset.gesture_labels(), 0.2, split_rng).train);
    registry.publish(std::move(system));
  }

  serve::ServeConfig serve_config = serve::ServeConfig::from_env();
  serve_config.system = config;
  serve::Server server(serve_config, registry);

  const std::vector<int> script{0, 3, 1, 4, 2, 0};
  std::vector<ContinuousRecording> streams;
  std::size_t max_frames = 0;
  for (std::size_t s = 0; s < sessions; ++s) {
    streams.push_back(generate_recording(spec, s % spec.num_users, script, 0x709 + s));
    max_frames = std::max(max_frames, streams.back().frames.size());
  }

  const std::size_t frames_per_round = std::max<std::size_t>(1, max_frames / rounds);
  std::size_t round = 0;
  for (std::size_t f = 0; f < max_frames; ++f) {
    for (std::size_t s = 0; s < streams.size(); ++s) {
      if (f >= streams[s].frames.size()) continue;
      (void)server.push_frame(s + 1, streams[s].frames[f]);
    }
    (void)server.pump();
    if ((f + 1) % frames_per_round == 0 && round < rounds) {
      ++round;
      draw_dashboard(server.health_snapshot(), registry.version(), streams.size(), round,
                     rounds);
    }
  }
  (void)server.drain();
  draw_dashboard(server.health_snapshot(), registry.version(), streams.size(), rounds,
                 rounds);
  return 0;
}

// ----------------------------------------------------------------- enroll

/// One enrollment-view frame: service stats, live candidate buffers, and the
/// publish audit trail. Redraws in place on a tty (like `top`).
void draw_enroll_view(const enroll::EnrollmentService& service, std::uint64_t model_version,
                      std::size_t round, std::size_t rounds) {
  if (::isatty(1) != 0) std::cout << "\033[2J\033[H";
  const enroll::EnrollmentService::Stats stats = service.stats();
  std::cout << "gpctl enroll — round " << round << "/" << rounds << ", serving model v"
            << model_version << " (last publish v" << stats.last_publish_version << ")\n";
  std::cout << "novelty rejections " << stats.novelty_rejections << ", fine-tunes "
            << stats.fine_tunes_started << " started / " << stats.fine_tunes_failed
            << " failed, users enrolled "
            << stats.users_enrolled << "\n";
  std::cout << "evicted: " << stats.evicted_segments << " segments, "
            << stats.evicted_candidates << " candidates\n\n";

  Table buffers({"candidate", "segments", "ever admitted", "need (K)"});
  for (const enroll::Candidate& c : service.buffer().candidates()) {
    buffers.add_row({std::to_string(c.id), std::to_string(c.segments.size()),
                     std::to_string(c.admitted),
                     std::to_string(service.config().admission.k_segments)});
  }
  if (service.buffer().candidates().empty()) {
    std::cout << "no live enrollment candidates\n";
  } else {
    buffers.print();
  }

  for (const enroll::EnrollmentService::EnrolledUser& u : service.enrolled()) {
    std::cout << "enrolled user " << u.user_id << " from candidate " << u.candidate_id
              << " at tick " << u.tick << " -> model v" << u.model_version << " ("
              << u.artifact << ")\n";
  }
  std::cout.flush();
}

/// Live enrollment dashboard over a synthetic open-set load: enrolled
/// performers plus one unknown newcomer stream in-process; the view redraws
/// as the newcomer's rejected segments buffer up, trigger the head-only
/// fine-tune, and hot-swap publish a widened model.
int cmd_enroll(int argc, char** argv) {
  const auto flags = parse_flags(argc, argv, 2);
  const std::size_t rounds = flags.count("rounds") ? std::stoul(flags.at("rounds")) : 6;
  const std::size_t sessions = flags.count("sessions") ? std::stoul(flags.at("sessions")) : 3;

  DatasetScale scale;
  scale.max_users = 3;
  scale.reps = 8;
  DatasetSpec spec = gestureprint_spec(1, scale);
  spec.gestures.resize(3);
  std::cout << "training a demo model (" << spec.num_users << " users x "
            << spec.gestures.size() << " gestures)...\n";
  const Dataset dataset = generate_dataset(spec);
  GesturePrintConfig config;
  config.training.epochs = 6;
  config.training.batch_size = 16;
  config.prep.augmentation.copies = 2;
  Rng split_rng(3, 1);
  const Split split = stratified_split(dataset.gesture_labels(), 0.2, split_rng);

  const std::string model_path = output_dir() + "/gpctl_enroll_model.gpsy";
  {
    GesturePrintSystem system(config);
    system.fit(dataset, split.train);
    system.save(model_path);
  }
  serve::ModelRegistry registry(config);
  if (!registry.publish_file(model_path).has_value()) {
    std::cerr << "gpctl: could not publish " << model_path << "\n";
    return 1;
  }

  serve::ServeConfig base;
  base.system = config;
  base.enroll.enabled = true;
  base.enroll.k_segments = 4;
  base.enroll.candidate_radius = 1e6;  // one newcomer at a time in this demo
  const serve::ServeConfig serve_config = serve::ServeConfig::from_env(base);

  enroll::EnrollmentServiceConfig ec;
  ec.admission = serve_config.enroll;
  ec.base_model_path = model_path;
  ec.publish_dir = output_dir();
  ec.fine_tune_epochs = 2;
  enroll::EnrollmentService service(ec, registry);
  service.calibrate(dataset, split.train);

  serve::Server server(serve_config, registry);
  server.set_enrollment_hook(&service);

  // Enrolled performers on sessions 1..N-1; the newcomer (a different-seed
  // cohort's user 0) streams last and trips the novelty gate.
  const std::vector<int> script{0, 2, 1, 0, 1, 2, 0, 1};
  std::vector<ContinuousRecording> streams;
  std::size_t max_frames = 0;
  for (std::size_t s = 0; s + 1 < std::max<std::size_t>(sessions, 2); ++s) {
    streams.push_back(generate_recording(spec, s % spec.num_users, script, 0x709 + s));
    max_frames = std::max(max_frames, streams.back().frames.size());
  }
  DatasetSpec newcomer_spec = spec;
  newcomer_spec.user_seed = 987654;
  streams.push_back(generate_recording(newcomer_spec, 0, script, 0x57A6E));
  max_frames = std::max(max_frames, streams.back().frames.size());

  const std::size_t frames_per_round = std::max<std::size_t>(1, max_frames / rounds);
  std::size_t round = 0;
  for (std::size_t f = 0; f < max_frames; ++f) {
    for (std::size_t s = 0; s < streams.size(); ++s) {
      if (f >= streams[s].frames.size()) continue;
      (void)server.push_frame(s + 1, streams[s].frames[f]);
    }
    (void)server.pump();
    if ((f + 1) % frames_per_round == 0 && round < rounds) {
      ++round;
      draw_enroll_view(service, registry.version(), round, rounds);
    }
  }
  (void)server.drain();
  draw_enroll_view(service, registry.version(), rounds, rounds);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string command = argv[1];
  try {
    if (command == "generate") return cmd_generate(argc, argv);
    if (command == "train") return cmd_train(argc, argv);
    if (command == "eval") return cmd_eval(argc, argv);
    if (command == "crossval") return cmd_crossval(argc, argv);
    if (command == "info") return cmd_info(argc, argv);
    if (command == "top") return cmd_top(argc, argv);
    if (command == "enroll") return cmd_enroll(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "gpctl: " << e.what() << "\n";
    return 1;
  }
  return usage();
}
