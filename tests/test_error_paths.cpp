// Error-path coverage: every rejection the public API promises must be a
// *typed* gp::Error (or subclass), raised before any partial state or
// unbounded allocation. Covers RadarConfig validation, the serialize
// decoders (including regressions for the hardened length-prefix checks),
// the dataset cache (including the DESIGN.md §7
// quarantine-and-regenerate recovery), and eval/roc degenerate inputs.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "common/serialize.hpp"
#include "datasets/cache.hpp"
#include "datasets/catalog.hpp"
#include "eval/roc.hpp"
#include "radar/config.hpp"
#include "system/gestureprint.hpp"
#include "testkit/oracle.hpp"
#include "testkit/seeds.hpp"

namespace gp {
namespace {

// ---- RadarConfig::validate: one test per guard ----------------------------

TEST(RadarConfigErrors, RejectsNonPositivePhysics) {
  RadarConfig config;
  config.carrier_hz = 0.0;
  EXPECT_THROW(config.validate(), InvalidArgument);

  config = RadarConfig{};
  config.range_resolution = -0.04;
  EXPECT_THROW(config.validate(), InvalidArgument);

  config = RadarConfig{};
  config.max_velocity = 0.0;
  EXPECT_THROW(config.validate(), InvalidArgument);

  config = RadarConfig{};
  config.frame_rate = -10.0;
  EXPECT_THROW(config.validate(), InvalidArgument);
}

TEST(RadarConfigErrors, RejectsNonPowerOfTwoFftSizes) {
  RadarConfig config;
  config.num_samples = 300;  // not a power of two
  EXPECT_THROW(config.validate(), InvalidArgument);

  config = RadarConfig{};
  config.num_chirps = 12;
  EXPECT_THROW(config.validate(), InvalidArgument);

  config = RadarConfig{};
  config.angle_fft_size = 48;
  EXPECT_THROW(config.validate(), InvalidArgument);
}

TEST(RadarConfigErrors, RejectsDegenerateAntennaArrays) {
  RadarConfig config;
  config.num_azimuth_antennas = 1;
  EXPECT_THROW(config.validate(), InvalidArgument);

  config = RadarConfig{};
  config.num_elevation_antennas = 0;
  EXPECT_THROW(config.validate(), InvalidArgument);
}

TEST(RadarConfigErrors, DefaultConfigIsValid) {
  EXPECT_NO_THROW(RadarConfig{}.validate());
}

// ---- common/serialize: hardened reader regressions ------------------------

TEST(SerializeErrors, StringLengthBeyondStreamIsTyped) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter writer(out, "GPTT");
  writer.write_u32(0xFFFFFFFFu);  // string length prefix with no payload
  std::istringstream in(out.str(), std::ios::binary);
  BinaryReader reader(in, "GPTT");
  EXPECT_THROW(reader.read_string(), SerializationError);
}

TEST(SerializeErrors, VectorCountBeyondStreamIsTyped) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter writer(out, "GPTT");
  writer.write_u64(1ULL << 40);  // 1T floats "announced", zero present
  std::istringstream in(out.str(), std::ios::binary);
  BinaryReader reader(in, "GPTT");
  EXPECT_THROW(reader.read_f32_vector(), SerializationError);
}

TEST(SerializeErrors, ImplausibleCountFailsEvenIfCapFits) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter writer(out, "GPTT");
  writer.write_u64(std::numeric_limits<std::uint64_t>::max());
  std::istringstream in(out.str(), std::ios::binary);
  BinaryReader reader(in, "GPTT");
  EXPECT_THROW(reader.read_count(0, "thing"), SerializationError);
}

TEST(SerializeErrors, ValidVectorStillRoundTrips) {
  std::ostringstream out(std::ios::binary);
  BinaryWriter writer(out, "GPTT");
  writer.write_f32_vector({1.0f, -2.5f, 3.25f});
  std::istringstream in(out.str(), std::ios::binary);
  BinaryReader reader(in, "GPTT");
  const auto v = reader.read_f32_vector();
  ASSERT_EQ(v.size(), 3u);
  EXPECT_EQ(v[1], -2.5f);
}

// ---- datasets/cache: corrupt and truncated payloads -----------------------

TEST(DatasetCacheErrors, TruncatedSampleBlockIsTyped) {
  std::string payload = testkit::dataset_seed();
  payload.resize(payload.size() - 24);
  std::istringstream in(payload, std::ios::binary);
  EXPECT_THROW(read_dataset(in, "<test>"), SerializationError);
}

TEST(DatasetCacheErrors, HugePointCountIsRejectedBeforeAllocating) {
  // Seed layout: tag(4) + version byte + schema u64 + name(u32 len + bytes)
  // + users u64 + gestures u64 + samples u64 + first cloud's point count.
  const std::string seed = testkit::dataset_seed();
  const std::size_t name_len = 9;  // "fuzz_seed"
  const std::size_t point_count_at = 4 + 1 + 8 + (4 + name_len) + 8 + 8 + 8;
  std::string payload = seed;
  ASSERT_GT(payload.size(), point_count_at + 8);
  const std::uint64_t huge = 1ULL << 61;
  for (int i = 0; i < 8; ++i) {
    payload[point_count_at + i] = static_cast<char>(huge >> (8 * i));
  }
  std::istringstream in(payload, std::ios::binary);
  EXPECT_THROW(read_dataset(in, "<test>"), SerializationError);
}

TEST(DatasetCacheErrors, ImplausiblePopulationIsTyped) {
  const std::string seed = testkit::dataset_seed();
  const std::size_t users_at = 4 + 1 + 8 + (4 + 9);  // u64 user count offset
  std::string payload = seed;
  const std::uint64_t huge = 500'000'000;
  for (int i = 0; i < 8; ++i) payload[users_at + i] = static_cast<char>(huge >> (8 * i));
  std::istringstream in(payload, std::ios::binary);
  EXPECT_THROW(read_dataset(in, "<test>"), SerializationError);
}

TEST(DatasetCacheErrors, SeedStillParsesCleanly) {
  std::istringstream in(testkit::dataset_seed(), std::ios::binary);
  const auto dataset = read_dataset(in, "<test>");
  ASSERT_TRUE(dataset.has_value());
  EXPECT_EQ(dataset->samples.size(), 4u);
  EXPECT_EQ(dataset->users.size(), 2u);
}

// ---- datasets/cache: quarantine-and-regenerate (DESIGN.md §7) -------------

/// Fresh per-test cache directory under the system temp dir.
std::string fresh_cache_dir(const std::string& tag) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("gp_quarantine_" + tag + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

DatasetSpec tiny_spec() {
  DatasetScale scale;
  scale.max_users = 2;
  scale.reps = 1;
  DatasetSpec spec = gestureprint_spec(1, scale);
  spec.gestures.resize(2);
  return spec;
}

TEST(DatasetCacheQuarantine, CorruptEntryIsQuarantinedAndRegenerated) {
  const std::string dir = fresh_cache_dir("regen");
  const DatasetSpec spec = tiny_spec();
  const std::string path = dir + "/" + dataset_cache_key(spec) + ".gpds";

  const Dataset original = generate_dataset_cached(spec, dir);
  ASSERT_TRUE(std::filesystem::exists(path));

  // Truncate the entry to half its size: a guaranteed typed decode failure
  // (bit flips in the point payload could parse cleanly; truncation cannot).
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size / 2);

  const std::uint64_t warnings_before = log_emit_count(LogLevel::kWarn);
  const Dataset regenerated = generate_dataset_cached(spec, dir);

  // Exactly one warning: the quarantine notice, nothing else.
  EXPECT_EQ(log_emit_count(LogLevel::kWarn) - warnings_before, 1u);
  // The corrupt bytes survive aside for a post-mortem...
  const std::string quarantine = path + ".quarantine";
  ASSERT_TRUE(std::filesystem::exists(quarantine));
  EXPECT_EQ(std::filesystem::file_size(quarantine), full_size / 2);
  // ...while the cache entry is rebuilt in place and loads cleanly.
  ASSERT_TRUE(std::filesystem::exists(path));
  EXPECT_EQ(std::filesystem::file_size(path), full_size);
  ASSERT_TRUE(load_dataset(path).has_value());
  // Regeneration is deterministic: same spec, same dataset.
  EXPECT_EQ(testkit::exact_digest(regenerated), testkit::exact_digest(original));

  // A third call is a clean cache hit; the quarantine file is preserved
  // (evidence is never garbage-collected behind the operator's back).
  const std::uint64_t warnings_mid = log_emit_count(LogLevel::kWarn);
  (void)generate_dataset_cached(spec, dir);
  EXPECT_EQ(log_emit_count(LogLevel::kWarn), warnings_mid);
  EXPECT_TRUE(std::filesystem::exists(quarantine));

  std::filesystem::remove_all(dir);
}

TEST(DatasetCacheQuarantine, RepeatCorruptionReplacesOldQuarantine) {
  const std::string dir = fresh_cache_dir("repeat");
  const DatasetSpec spec = tiny_spec();
  const std::string path = dir + "/" + dataset_cache_key(spec) + ".gpds";

  (void)generate_dataset_cached(spec, dir);
  const auto full_size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, full_size / 2);
  (void)generate_dataset_cached(spec, dir);
  // Corrupt again, differently: the newest corruption wins the .quarantine
  // name instead of the rename failing against the existing file.
  std::filesystem::resize_file(path, full_size / 3);
  (void)generate_dataset_cached(spec, dir);
  ASSERT_TRUE(std::filesystem::exists(path + ".quarantine"));
  EXPECT_EQ(std::filesystem::file_size(path + ".quarantine"), full_size / 3);

  std::filesystem::remove_all(dir);
}

// ---- system/gestureprint: self-healing model load -------------------------

TEST(SystemModelQuarantine, TryLoadQuarantinesGarbageAndLeavesSystemUnfitted) {
  const std::string dir = fresh_cache_dir("model");
  const std::string path = dir + "/model.gpsy";
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a GPSY model file, but it is long enough to carry "
           "something that looks like a checksum trailer";
  }

  GesturePrintSystem system;
  const std::uint64_t warnings_before = log_emit_count(LogLevel::kWarn);
  EXPECT_FALSE(system.try_load(path));
  EXPECT_FALSE(system.fitted());
  EXPECT_EQ(log_emit_count(LogLevel::kWarn) - warnings_before, 1u);
  // Corrupt file moved aside, not destroyed and not left in place.
  EXPECT_FALSE(std::filesystem::exists(path));
  EXPECT_TRUE(std::filesystem::exists(path + ".quarantine"));

  std::filesystem::remove_all(dir);
}

TEST(SystemModelQuarantine, TryLoadOnMissingFileIsSilentlyFalse) {
  GesturePrintSystem system;
  const std::uint64_t warnings_before = log_emit_count(LogLevel::kWarn);
  EXPECT_FALSE(system.try_load("/nonexistent/path/model.gpsy"));
  EXPECT_FALSE(system.fitted());
  // Cold start is not an anomaly: no warning.
  EXPECT_EQ(log_emit_count(LogLevel::kWarn), warnings_before);
}

// ---- eval/roc: degenerate inputs ------------------------------------------

TEST(RocErrors, EmptyScoreSetsAreRejected) {
  EXPECT_THROW(roc_from_scores({}, {0.1, 0.2}), InvalidArgument);
  EXPECT_THROW(roc_from_scores({0.9}, {}), InvalidArgument);
  EXPECT_THROW(roc_from_scores({}, {}), InvalidArgument);
}

TEST(RocErrors, EmptyCurveHasNoEer) {
  const RocCurve empty;
  EXPECT_THROW(empty.eer(), Error);
}

TEST(RocErrors, SingleClassProbabilitiesAreRejected) {
  // One user only: no impostor scores can exist, so the curve is undefined.
  const std::vector<std::vector<double>> probabilities(3, {1.0});
  const std::vector<int> truth{0, 0, 0};
  EXPECT_THROW(roc_from_probabilities(probabilities, truth), InvalidArgument);
}

TEST(RocErrors, DegenerateButLegalScoresStillProduceACurve) {
  // All scores identical: legal input, must yield a finite curve, not UB.
  const RocCurve curve = roc_from_scores({0.5, 0.5}, {0.5, 0.5});
  EXPECT_FALSE(curve.points.empty());
  EXPECT_GE(curve.auc, 0.0);
  EXPECT_LE(curve.auc, 1.0);
}

}  // namespace
}  // namespace gp
