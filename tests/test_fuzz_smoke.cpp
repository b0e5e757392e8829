// Structured fuzzing of every parser/decoder boundary (`ctest -L fuzz-smoke`).
//
// Committed corpus seeds live under tests/corpus/ (regenerate byte-identical
// with --write-corpus); the in-process mutation engine (gp::testkit::fuzz)
// bit-flips, truncates, splices and length-prefix-attacks them and feeds
// every mutant to the target. The contract under test is crash-freedom and
// *clean typed-error propagation*: a target must either return normally or
// throw gp::Error — std::bad_alloc from an unchecked length prefix,
// std::length_error, or UB caught by a sanitizer build all fail the test.
// Deterministic: a failure reproduces exactly from the printed seed.
//
// Run under sanitizers via scripts/verify.sh (configures -DGP_SANITIZE=address
// and executes this label); the hardened readers in common/serialize and
// datasets/cache are what keep the allocator quiet here.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cluster/wire.hpp"
#include "common/csv.hpp"
#include "common/error.hpp"
#include "datasets/cache.hpp"
#include "health/slo.hpp"
#include "nn/serialize_nn.hpp"
#include "obs/json.hpp"
#include "radar/config.hpp"
#include "testkit/fuzz.hpp"
#include "testkit/seeds.hpp"

namespace gp {
namespace {

std::string g_corpus_dir;  // set in main()

/// Committed corpus + built-in canonical seeds. Every target gets the full
/// cross-format pool: feeding a GPNN blob to the GPDS parser is exactly the
/// kind of tag/layout confusion the typed-error contract must absorb.
std::vector<std::string> corpus() {
  std::vector<std::string> seeds = testkit::load_corpus_dir(g_corpus_dir);
  seeds.push_back(testkit::dataset_seed());
  seeds.push_back(testkit::params_seed());
  seeds.push_back(testkit::report_json_seed());
  seeds.push_back(testkit::wire_frame_seed());
  seeds.push_back(testkit::wire_results_seed());
  seeds.push_back(testkit::wire_tick_seed());
  seeds.push_back(testkit::wire_tick_reply_seed());
  seeds.push_back("");  // the degenerate seed every parser must survive
  return seeds;
}

void expect_clean(const testkit::FuzzOutcome& outcome) {
  std::cout << outcome.summary() << "\n";
  std::string joined;
  for (const auto& f : outcome.failures) joined += "  " + f + "\n";
  EXPECT_TRUE(outcome.clean()) << "contract violations:\n" << joined;
  // At least the matching canonical seed must parse; a target rejecting its
  // own format means the corpus (or the parser) has rotted.
  EXPECT_GT(outcome.accepted, 0u) << "no payload was ever accepted by " << outcome.target;
}

// The committed corpus is exactly what the seed builders write today: same
// file set, same bytes. An orphaned seed (its format was retired), a missing
// one or a builder that drifted from its committed bytes fails here, so the
// mutants every target sees stay the ones the builders describe.
TEST(FuzzSmoke, CommittedCorpusMatchesSeedBuilders) {
  const std::filesystem::path fresh =
      std::filesystem::temp_directory_path() /
      ("gp_corpus_check_" + std::to_string(::getpid()));
  std::filesystem::remove_all(fresh);
  const std::vector<std::string> written = testkit::write_corpus(fresh.string());

  const auto file_names = [](const std::filesystem::path& dir) {
    std::set<std::string> names;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
      if (entry.is_regular_file()) names.insert(entry.path().filename().string());
    }
    return names;
  };
  EXPECT_EQ(file_names(g_corpus_dir), std::set<std::string>(written.begin(), written.end()))
      << "tests/corpus and the seed builders disagree on the file set; "
         "regenerate with --write-corpus";
  // load_corpus_dir reads files in name order, so equal file sets compare
  // file by file.
  EXPECT_TRUE(testkit::load_corpus_dir(fresh.string()) == testkit::load_corpus_dir(g_corpus_dir))
      << "a committed seed differs from its builder; regenerate with --write-corpus";
  std::filesystem::remove_all(fresh);
}

TEST(FuzzSmoke, DatasetCacheDecoder) {
  const auto outcome = testkit::fuzz_target(
      "datasets/read_dataset", corpus(),
      [](const std::string& payload) {
        std::istringstream in(payload, std::ios::binary);
        (void)read_dataset(in, "<fuzz>");  // nullopt (version mismatch) is fine
      });
  expect_clean(outcome);
}

TEST(FuzzSmoke, ModelParameterDecoder) {
  const auto outcome = testkit::fuzz_target(
      "nn/load_parameters", corpus(),
      [](const std::string& payload) {
        // Fresh skeleton per execution: load_parameters mutates in place and
        // a partial load must not poison the next run.
        std::vector<nn::Parameter> params = testkit::make_seed_parameters();
        std::vector<nn::Parameter*> ptrs;
        for (auto& p : params) ptrs.push_back(&p);
        std::istringstream in(payload, std::ios::binary);
        nn::load_parameters(in, ptrs);
      });
  expect_clean(outcome);
}

TEST(FuzzSmoke, ObsJsonParser) {
  testkit::FuzzOptions options;
  options.iterations = 600;  // cheap target, buy more coverage
  const auto outcome = testkit::fuzz_target(
      "obs/json_parse", corpus(),
      [](const std::string& payload) { (void)obs::json::parse(payload); }, options);
  expect_clean(outcome);
}

// The parse-back half of the obs contract: anything the emitter can produce
// must survive a parse→escape→parse cycle, for arbitrary (even invalid
// UTF-8) cell content.
TEST(FuzzSmoke, CsvAndJsonEscapeTotality) {
  const auto outcome = testkit::fuzz_target(
      "common/escape_roundtrip", corpus(),
      [](const std::string& payload) {
        const std::string cell = csv_escape(payload);
        if (cell.size() < payload.size()) throw Error("csv_escape shrank its input");
        const std::string quoted = "\"" + obs::json::escape(payload) + "\"";
        (void)obs::json::parse(quoted);  // emitted strings must re-parse
      });
  expect_clean(outcome);
}

// The GP_SLO spec parser guards an env-var boundary: arbitrary operator
// soup, duplicate options, huge counts and NaN-ish thresholds must come
// back as InvalidArgument, never a crash. Accepted specs must round-trip
// through their canonical form (parse ∘ to_string is the identity on it).
TEST(FuzzSmoke, SloSpecParser) {
  testkit::FuzzOptions options;
  options.iterations = 600;  // cheap target, buy more coverage
  std::vector<std::string> seeds = corpus();
  // Canonical in-grammar seeds so mutants explore near-valid specs, not
  // just binary noise (the binary corpus rides along from corpus()).
  seeds.push_back("p99_ms<5,shed_rate<0.05,window=256t,degraded_after=3");
  seeds.push_back("fault_rate<0.01,batch_occupancy>0.1,unhealthy_after=10,healthy_after=3");
  const auto outcome = testkit::fuzz_target(
      "health/slo_parse", seeds,
      [](const std::string& payload) {
        // May throw InvalidArgument — the typed rejection the contract allows.
        const health::SloSpec spec = health::SloSpec::parse(payload);
        const std::string canonical = spec.to_string();
        // An accepted spec failing its own round-trip is a parser bug, not a
        // rejection: surface it as a contract violation, not a typed error.
        try {
          if (health::SloSpec::parse(canonical).to_string() == canonical) return;
        } catch (const Error&) {
        }
        throw std::runtime_error("accepted GP_SLO spec failed canonical round-trip: '" +
                                 canonical + "'");
      });
  expect_clean(outcome);
}

// The GPWM cluster envelope decoder (DESIGN.md §12) is the trust boundary
// of the worker links: every byte arriving from a socketpair is untrusted
// until decode_message accepts it. Bit flips must die on the checksum,
// truncations on the hardened reader — always as SerializationError. The
// inner payload decoders run behind the envelope in production but are
// fuzzed raw here so a forged checksum cannot be the only line of defense.
TEST(FuzzSmoke, ClusterWireEnvelopeDecoder) {
  const auto outcome = testkit::fuzz_target(
      "cluster/decode_message", corpus(),
      [](const std::string& payload) { (void)cluster::decode_message(payload); });
  expect_clean(outcome);
}

TEST(FuzzSmoke, ClusterWireFrameDecoder) {
  const auto outcome = testkit::fuzz_target(
      "cluster/decode_wire_frame", corpus(),
      [](const std::string& payload) { (void)cluster::decode_wire_frame(payload); });
  expect_clean(outcome);
}

TEST(FuzzSmoke, ClusterWireResultsDecoder) {
  const auto outcome = testkit::fuzz_target(
      "cluster/decode_wire_results", corpus(),
      [](const std::string& payload) { (void)cluster::decode_wire_results(payload); });
  expect_clean(outcome);
}

// The tick batch decoders: the canonical seeds are full envelopes, so
// unwrap when one decodes and give the inner GPWT/GPWU payload direct
// coverage too. A request's rows are decoded as the worker decodes them.
TEST(FuzzSmoke, ClusterWireTickRequestDecoder) {
  const auto outcome = testkit::fuzz_target(
      "cluster/decode_tick_request", corpus(),
      [](const std::string& payload) {
        std::string inner = payload;
        try {
          inner = cluster::decode_message(payload).payload;
        } catch (const SerializationError&) {
        }
        const cluster::TickRequest tick = cluster::decode_tick_request(inner);
        for (const std::string& row : tick.frames) (void)cluster::decode_wire_frame(row);
      });
  expect_clean(outcome);
}

TEST(FuzzSmoke, ClusterWireTickReplyDecoder) {
  const auto outcome = testkit::fuzz_target(
      "cluster/decode_tick_reply", corpus(),
      [](const std::string& payload) {
        std::string inner = payload;
        try {
          inner = cluster::decode_message(payload).payload;
        } catch (const SerializationError&) {
        }
        (void)cluster::decode_tick_reply(inner);
      });
  expect_clean(outcome);
}

// The GPWK control payloads (acks, session-state blobs, error text) share
// the hardened-reader contract with the larger decoders.
TEST(FuzzSmoke, ClusterWireControlDecoders) {
  std::vector<std::string> seeds = corpus();
  // Canonical GPWK payloads (the committed corpus carries none: its wire
  // seeds are GPWF/GPWR payloads and GPWT/GPWU envelopes) so mutants explore
  // near-valid control payloads too.
  seeds.push_back(cluster::encode_ack(3));
  seeds.push_back(cluster::encode_u64(0xF0225EEDULL));
  seeds.push_back(cluster::encode_state(7, std::string("\x01\x02\x00\x03", 4)));
  seeds.push_back(cluster::encode_text("segmenter state: window mismatch"));
  const auto outcome = testkit::fuzz_target(
      "cluster/decode_control", seeds,
      [](const std::string& payload) {
        bool accepted = false;
        const auto tolerate = [&](auto&& fn) {
          try {
            fn();
            accepted = true;
          } catch (const SerializationError&) {
          }
        };
        tolerate([&] { (void)cluster::decode_ack(payload); });
        tolerate([&] { (void)cluster::decode_u64(payload); });
        tolerate([&] { (void)cluster::decode_state(payload); });
        tolerate([&] { (void)cluster::decode_text(payload); });
        // Re-throw one typed rejection when nothing accepted, so the fuzz
        // accounting still distinguishes accepted from rejected payloads.
        if (!accepted) (void)cluster::decode_ack(payload);
      });
  expect_clean(outcome);
}

// Structured fuzz of RadarConfig::validate: payload bytes become field
// values (including NaN/Inf/denormal patterns from the mutation engine);
// the contract is OK-or-InvalidArgument, never a crash or a hung derived
// computation.
TEST(FuzzSmoke, RadarConfigValidation) {
  const auto outcome = testkit::fuzz_target(
      "radar/config_validate", corpus(),
      [](const std::string& payload) {
        RadarConfig config;
        const auto f64_at = [&](std::size_t offset, double fallback) {
          if (payload.size() < offset + sizeof(double)) return fallback;
          double v;
          std::memcpy(&v, payload.data() + offset, sizeof(v));
          return v;
        };
        const auto size_at = [&](std::size_t offset, std::size_t fallback) {
          if (payload.size() < offset + sizeof(std::uint32_t)) return fallback;
          std::uint32_t v;
          std::memcpy(&v, payload.data() + offset, sizeof(v));
          return static_cast<std::size_t>(v);
        };
        config.carrier_hz = f64_at(0, config.carrier_hz);
        config.range_resolution = f64_at(8, config.range_resolution);
        config.max_velocity = f64_at(16, config.max_velocity);
        config.frame_rate = f64_at(24, config.frame_rate);
        config.noise_sigma = f64_at(32, config.noise_sigma);
        config.num_samples = size_at(40, config.num_samples);
        config.num_chirps = size_at(44, config.num_chirps);
        config.num_azimuth_antennas = size_at(48, config.num_azimuth_antennas);
        config.num_elevation_antennas = size_at(52, config.num_elevation_antennas);
        config.angle_fft_size = size_at(56, config.angle_fft_size);
        config.validate();  // OK or InvalidArgument — nothing else
      });
  expect_clean(outcome);
}

}  // namespace
}  // namespace gp

#ifndef GP_CORPUS_DEFAULT_DIR
#define GP_CORPUS_DEFAULT_DIR "tests/corpus"
#endif

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  gp::g_corpus_dir = GP_CORPUS_DEFAULT_DIR;
  if (const char* dir = std::getenv("GP_CORPUS_DIR")) gp::g_corpus_dir = dir;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--write-corpus") {
      const auto written = gp::testkit::write_corpus(gp::g_corpus_dir);
      std::cout << "wrote " << written.size() << " corpus seeds to " << gp::g_corpus_dir << "\n";
      for (const auto& name : written) std::cout << "  " << name << "\n";
      return 0;
    }
  }
  return RUN_ALL_TESTS();
}
