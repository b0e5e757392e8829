// Unit tests for src/common: RNG determinism and distributions, math
// helpers, binary serialization round-trips, CSV escaping, table rendering.
#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "common/csv.hpp"
#include "common/error.hpp"
#include "common/fnv.hpp"
#include "common/math_utils.hpp"
#include "common/rng.hpp"
#include "common/serialize.hpp"
#include "common/table.hpp"
#include "common/vec3.hpp"

namespace gp {
namespace {

TEST(Rng, DeterministicForSeed) {
  Rng a(123, 7);
  Rng b(123, 7);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentStreamsDiffer) {
  Rng a(123, 7);
  Rng b(123, 8);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(2);
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform(-3.0, 5.0);
    EXPECT_GE(v, -3.0);
    EXPECT_LT(v, 5.0);
  }
}

TEST(Rng, GaussianMomentsApproximatelyStandard) {
  Rng rng(3);
  double sum = 0.0;
  double sum2 = 0.0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.gaussian();
    sum += g;
    sum2 += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sum2 / n, 1.0, 0.05);
}

TEST(Rng, IndexIsUnbiasedAcrossRange) {
  Rng rng(4);
  std::vector<int> counts(5, 0);
  for (int i = 0; i < 5000; ++i) ++counts[rng.index(5)];
  for (int c : counts) EXPECT_NEAR(c, 1000, 150);
}

TEST(Rng, IndexRejectsZero) {
  Rng rng(5);
  EXPECT_THROW(rng.index(0), InvalidArgument);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(6);
  Rng child = parent.fork();
  // The child must not replay the parent's sequence.
  Rng parent2(6);
  (void)parent2.fork();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (child() == parent()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, ShuffleKeepsAllElements) {
  Rng rng(7);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto shuffled = v;
  rng.shuffle(shuffled);
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(shuffled, v);
}

TEST(MathUtils, LinspaceEndpoints) {
  const auto v = linspace(-1.0, 2.0, 7);
  ASSERT_EQ(v.size(), 7u);
  EXPECT_DOUBLE_EQ(v.front(), -1.0);
  EXPECT_DOUBLE_EQ(v.back(), 2.0);
  for (std::size_t i = 1; i < v.size(); ++i) EXPECT_NEAR(v[i] - v[i - 1], 0.5, 1e-12);
}

TEST(MathUtils, MeanAndStddev) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(mean(v), 2.5);
  EXPECT_NEAR(stddev(v), std::sqrt(1.25), 1e-12);
}

TEST(MathUtils, MedianOddAndEven) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
}

TEST(MathUtils, QuantileInterpolates) {
  const std::vector<double> v{0.0, 1.0, 2.0, 3.0, 4.0};
  EXPECT_DOUBLE_EQ(quantile(v, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(quantile(v, 1.0), 4.0);
  EXPECT_DOUBLE_EQ(quantile(v, 0.5), 2.0);
  EXPECT_NEAR(quantile(v, 0.375), 1.5, 1e-12);
}

TEST(MathUtils, ArgmaxFindsLargest) {
  const std::vector<double> v{0.3, 2.0, -1.0, 1.9};
  EXPECT_EQ(argmax(v), 1u);
}

TEST(MathUtils, WrapAngleStaysInRange) {
  for (double a : {-10.0, -3.2, 0.0, 3.2, 10.0, 100.0}) {
    const double w = wrap_angle(a);
    EXPECT_GT(w, -kPi - 1e-12);
    EXPECT_LE(w, kPi + 1e-12);
    EXPECT_NEAR(std::sin(w), std::sin(a), 1e-9);
    EXPECT_NEAR(std::cos(w), std::cos(a), 1e-9);
  }
}

TEST(Vec3, BasicAlgebra) {
  const Vec3 a(1, 2, 3);
  const Vec3 b(4, 5, 6);
  EXPECT_DOUBLE_EQ((a + b).x, 5.0);
  EXPECT_DOUBLE_EQ((b - a).z, 3.0);
  EXPECT_DOUBLE_EQ(a.dot(b), 32.0);
  const Vec3 c = a.cross(b);
  EXPECT_DOUBLE_EQ(c.x, -3.0);
  EXPECT_DOUBLE_EQ(c.y, 6.0);
  EXPECT_DOUBLE_EQ(c.z, -3.0);
  EXPECT_NEAR(Vec3(3, 4, 0).norm(), 5.0, 1e-12);
  EXPECT_NEAR(Vec3(2, 0, 0).normalized().x, 1.0, 1e-12);
}

TEST(Vec3, LerpMidpoint) {
  const Vec3 m = lerp(Vec3(0, 0, 0), Vec3(2, 4, 6), 0.5);
  EXPECT_DOUBLE_EQ(m.x, 1.0);
  EXPECT_DOUBLE_EQ(m.y, 2.0);
  EXPECT_DOUBLE_EQ(m.z, 3.0);
}

TEST(Serialize, RoundTripsAllTypes) {
  std::stringstream buffer;
  {
    BinaryWriter w(buffer, "TEST");
    w.write_u8(200);
    w.write_u32(123456);
    w.write_u64(1ULL << 40);
    w.write_i32(-42);
    w.write_f64(-2.25);
    w.write_string("hello world");
    w.write_f32_vector({1.0f, 2.0f, 3.0f});
  }
  BinaryReader r(buffer, "TEST");
  EXPECT_EQ(r.read_u8(), 200);
  EXPECT_EQ(r.read_u32(), 123456u);
  EXPECT_EQ(r.read_u64(), 1ULL << 40);
  EXPECT_EQ(r.read_i32(), -42);
  EXPECT_DOUBLE_EQ(r.read_f64(), -2.25);
  EXPECT_EQ(r.read_string(), "hello world");
  EXPECT_EQ(r.read_f32_vector(), (std::vector<float>{1.0f, 2.0f, 3.0f}));
}

TEST(Serialize, RejectsWrongTag) {
  std::stringstream buffer;
  { BinaryWriter w(buffer, "AAAA"); }
  EXPECT_THROW(BinaryReader(buffer, "BBBB"), SerializationError);
}

TEST(Serialize, ThrowsOnTruncatedStream) {
  std::stringstream buffer;
  {
    BinaryWriter w(buffer, "TEST");
    w.write_u32(1);
  }
  BinaryReader r(buffer, "TEST");
  EXPECT_EQ(r.read_u32(), 1u);
  EXPECT_THROW(r.read_u64(), SerializationError);
}

TEST(Csv, EscapesSpecialCharacters) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

TEST(Csv, WritesRowsWithMatchingArity) {
  const std::string path = testing::TempDir() + "gp_csv_test.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.write_row(std::vector<std::string>{"1", "x,y"});
    csv.write_row(std::vector<double>{2.5, -1.0});
    EXPECT_THROW(csv.write_row(std::vector<std::string>{"only-one"}), InvalidArgument);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_EQ(line, "1,\"x,y\"");
}

TEST(Table, FormatsPercentagesAndNumbers) {
  EXPECT_EQ(Table::pct(0.98872), "98.87%");
  EXPECT_EQ(Table::num(1.23456, 2), "1.23");
}

// Regression pins for the deduplicated FNV-1a (common/fnv.hpp). Before this
// helper existed, four subsystems each carried a private copy of the loop
// (testkit digests, the .gpsy checksum trailer, fault-schedule digests,
// kinematics string hashing). These tests pin (a) the published reference
// values of FNV-1a-64 and (b) that every former call-path produces the same
// digest for the same payload, so the constants can never drift apart again.
TEST(FnvDedup, KnownReferenceValues) {
  // Published FNV-1a-64 vectors.
  EXPECT_EQ(fnv::hash_string(""), 14695981039346656037ULL);   // offset basis
  EXPECT_EQ(fnv::hash_string("a"), 0xAF63DC4C8601EC8CULL);
  EXPECT_EQ(fnv::hash_string("foobar"), 0x85944171F73967E8ULL);
  EXPECT_EQ(fnv::kOffsetBasis, 14695981039346656037ULL);
  EXPECT_EQ(fnv::kPrime, 1099511628211ULL);
}

TEST(FnvDedup, StreamingMatchesOneShot) {
  const std::string payload = "gestureprint checksum payload \x01\x02\xff";
  std::uint64_t h = fnv::kOffsetBasis;
  for (char c : payload) h = fnv::accumulate(h, &c, 1);  // byte-at-a-time stream
  EXPECT_EQ(h, fnv::hash_string(payload));
  EXPECT_EQ(h, fnv::hash_bytes(payload.data(), payload.size()));
}

TEST(FnvDedup, AccumulateValueMatchesRawBytes) {
  const std::uint64_t v = 0x0123456789ABCDEFULL;
  EXPECT_EQ(fnv::accumulate_value(fnv::kOffsetBasis, v),
            fnv::hash_bytes(&v, sizeof(v)));
}

TEST(Error, CheckArgThrowsWithMessage) {
  try {
    check_arg(false, "my message");
    FAIL() << "expected throw";
  } catch (const InvalidArgument& e) {
    EXPECT_STREQ(e.what(), "my message");
  }
}

}  // namespace
}  // namespace gp
