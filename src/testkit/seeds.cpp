#include "testkit/seeds.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "cluster/wire.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "datasets/cache.hpp"
#include "nn/serialize_nn.hpp"
#include "serve/config.hpp"

namespace gp::testkit {

namespace {

RadarPoint seed_point(Rng& rng, int frame) {
  RadarPoint p;
  p.position.x = rng.uniform(-0.5, 0.5);
  p.position.y = rng.uniform(0.8, 1.6);
  p.position.z = rng.uniform(-0.3, 0.6);
  p.velocity = rng.uniform(-1.5, 1.5);
  p.snr_db = rng.uniform(8.0, 25.0);
  p.frame = frame;
  return p;
}

}  // namespace

std::string dataset_seed() {
  Rng rng(0xC0FFEE01ULL, 11);
  Dataset dataset;
  dataset.spec.name = "fuzz_seed";
  dataset.spec.num_users = 2;
  dataset.users.resize(2);
  dataset.users[0].id = 0;
  dataset.users[1].id = 1;
  dataset.spec.gestures.resize(2);
  for (int user = 0; user < 2; ++user) {
    for (int gesture = 0; gesture < 2; ++gesture) {
      GestureSample sample;
      sample.gesture = gesture;
      sample.user = user;
      sample.environment = 0;
      sample.distance = 1.0 + 0.5 * user;
      sample.speed = 1.0;
      sample.active_frames = 3;
      sample.cloud.num_frames = 3;
      sample.cloud.first_frame = 5;
      sample.cloud.duration_s = 0.3;
      for (int f = 0; f < 3; ++f) {
        for (int i = 0; i < 4; ++i) sample.cloud.points.push_back(seed_point(rng, f));
      }
      dataset.samples.push_back(std::move(sample));
    }
  }
  std::ostringstream out(std::ios::binary);
  write_dataset(out, dataset);
  return out.str();
}

std::vector<nn::Parameter> make_seed_parameters() {
  std::vector<nn::Parameter> params;
  params.push_back({"fc.weight", nn::Tensor(4, 3), nn::Tensor(4, 3)});
  params.push_back({"fc.bias", nn::Tensor(1, 4), nn::Tensor(1, 4)});
  Rng rng(0xC0FFEE03ULL, 13);
  for (auto& p : params) p.value.randn(rng, 0.1);
  return params;
}

std::string params_seed() {
  std::vector<nn::Parameter> params = make_seed_parameters();
  std::vector<nn::Parameter*> ptrs;
  for (auto& p : params) ptrs.push_back(&p);
  std::ostringstream out(std::ios::binary);
  nn::save_parameters(out, ptrs);
  return out.str();
}

std::string report_json_seed() {
  // Hand-written (rather than captured from obs::write_run_report_json) so
  // the byte content is independent of process history and wall-clock —
  // the committed corpus must regenerate identically. The shape mirrors the
  // REPORT_*.json schema pinned by the golden tests.
  return R"({
  "name": "fuzz_seed",
  "generated_unix_ms": 0,
  "counters": [
    {"name": "gp.dataset.cache.hits", "value": 2},
    {"name": "gp.radar.frames", "value": 128}
  ],
  "timers": [
    {"name": "pipeline.featurize", "count": 16, "total_ms": 3.25, "mean_ms": 0.203125,
     "p50_ms": 0.19, "p95_ms": 0.31, "p99_ms": 0.4}
  ],
  "stages": [
    {"name": "radar.process_scene", "min_depth": 0, "count": 8, "total_ms": 12.5},
    {"name": "pipeline.segment", "min_depth": 1, "count": 8, "total_ms": 1.75}
  ]
})";
}

std::string wire_frame_seed() {
  Rng rng(0xC0FFEE05ULL, 15);
  FrameCloud frame;
  frame.frame_index = 7;
  frame.timestamp = 0.7;
  for (int i = 0; i < 5; ++i) frame.points.push_back(seed_point(rng, 7));
  return cluster::encode_wire_frame(0xF0225EEDULL, frame);
}

std::string wire_results_seed() {
  std::vector<serve::ServeResult> results(2);
  results[0].session_id = 11;
  results[0].segment_ordinal = 2;
  results[0].request_id = 0x5EED;
  results[0].gesture = 1;
  results[0].user = 0;
  results[0].gesture_margin = 0.125;
  results[0].user_margin = 0.0625;
  results[0].model_version = 1;
  results[1].session_id = 12;
  results[1].abstained = true;
  return cluster::encode_wire_results(results);
}

std::string wire_tick_seed() {
  cluster::TickRequest tick;
  tick.op = cluster::TickOp::kPump;
  tick.frames = {wire_frame_seed(), wire_frame_seed()};
  tick.checkpoints = {0xF0225EEDULL};
  cluster::Message msg;
  msg.type = cluster::MsgType::kTick;
  msg.seq = 3;
  msg.payload = cluster::encode_tick_request(tick);
  return cluster::encode_message(msg);
}

std::string wire_tick_reply_seed() {
  cluster::TickReply reply;
  reply.verdicts = {serve::Admission::kAccepted, serve::Admission::kRejectedQueueFull};
  reply.results = cluster::decode_wire_results(wire_results_seed());
  reply.states.emplace_back(0xF0225EEDULL, std::string("\x01\x02\x00\x03", 4));
  cluster::Message msg;
  msg.type = cluster::MsgType::kTickReply;
  msg.seq = 3;
  msg.payload = cluster::encode_tick_reply(reply);
  return cluster::encode_message(msg);
}

std::vector<std::string> write_corpus(const std::string& dir) {
  std::filesystem::create_directories(dir);
  const std::vector<std::pair<std::string, std::string>> entries = {
      {"dataset_gpds.bin", dataset_seed()},
      {"params_gpnn.bin", params_seed()},
      {"report.json", report_json_seed()},
      {"wire_frame_gpwf.bin", wire_frame_seed()},
      {"wire_results_gpwr.bin", wire_results_seed()},
      {"wire_tick_gpwm.bin", wire_tick_seed()},
      {"wire_tick_reply_gpwm.bin", wire_tick_reply_seed()},
  };
  std::vector<std::string> names;
  for (const auto& [name, payload] : entries) {
    const std::string path = dir + "/" + name;
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) throw Error("cannot write corpus seed: " + path);
    out << payload;
    names.push_back(name);
  }
  return names;
}

}  // namespace gp::testkit
