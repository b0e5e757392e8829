#include "common/serialize.hpp"

#include <istream>
#include <limits>
#include <ostream>

namespace gp {

namespace {
constexpr std::uint8_t kFormatVersion = 1;

template <typename T>
void write_pod(std::ostream& out, T v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}
}  // namespace

BinaryWriter::BinaryWriter(std::ostream& out, const std::string& tag) : out_(out) {
  check_arg(tag.size() == 4, "BinaryWriter tag must be 4 bytes");
  out_.write(tag.data(), 4);
  write_u8(kFormatVersion);
}

void BinaryWriter::write_u8(std::uint8_t v) { write_pod(out_, v); }
void BinaryWriter::write_u32(std::uint32_t v) { write_pod(out_, v); }
void BinaryWriter::write_u64(std::uint64_t v) { write_pod(out_, v); }
void BinaryWriter::write_i32(std::int32_t v) { write_pod(out_, v); }
void BinaryWriter::write_f64(double v) { write_pod(out_, v); }

void BinaryWriter::write_string(const std::string& s) {
  check_arg(s.size() <= std::numeric_limits<std::uint32_t>::max(), "string too long");
  write_u32(static_cast<std::uint32_t>(s.size()));
  out_.write(s.data(), static_cast<std::streamsize>(s.size()));
}

void BinaryWriter::write_f32_vector(const std::vector<float>& v) {
  write_u64(v.size());
  out_.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(float)));
}

BinaryReader::BinaryReader(std::istream& in, const std::string& expected_tag) : in_(in) {
  check_arg(expected_tag.size() == 4, "BinaryReader tag must be 4 bytes");
  char tag[4];
  read_raw(tag, 4);
  if (std::string(tag, 4) != expected_tag) {
    throw SerializationError("binary stream tag mismatch: expected " + expected_tag);
  }
  const std::uint8_t version = read_u8();
  if (version != kFormatVersion) {
    throw SerializationError("unsupported gp binary format version " + std::to_string(version));
  }
}

void BinaryReader::read_raw(void* dst, std::size_t n) {
  in_.read(static_cast<char*>(dst), static_cast<std::streamsize>(n));
  if (static_cast<std::size_t>(in_.gcount()) != n) {
    throw SerializationError("unexpected end of gp binary stream");
  }
}

std::size_t BinaryReader::remaining_bytes() {
  const std::streampos here = in_.tellg();
  if (here == std::streampos(-1)) return std::numeric_limits<std::size_t>::max();
  in_.seekg(0, std::ios::end);
  const std::streampos end = in_.tellg();
  in_.seekg(here);
  if (end == std::streampos(-1) || end < here) {
    return std::numeric_limits<std::size_t>::max();
  }
  return static_cast<std::size_t>(end - here);
}

std::uint64_t BinaryReader::read_count(std::size_t min_bytes_per_elem, const char* what) {
  const std::uint64_t n = read_u64();
  // Hard sanity cap even for non-seekable streams: no legitimate gp payload
  // holds anywhere near 2^40 elements of anything.
  constexpr std::uint64_t kHardCap = 1ULL << 40;
  if (n > kHardCap) {
    throw SerializationError(std::string("implausible ") + what + " count " +
                             std::to_string(n) + " in gp binary stream");
  }
  if (min_bytes_per_elem > 0) {
    const std::size_t left = remaining_bytes();
    if (left != std::numeric_limits<std::size_t>::max() &&
        n > static_cast<std::uint64_t>(left) / min_bytes_per_elem) {
      throw SerializationError(std::string(what) + " count " + std::to_string(n) +
                               " exceeds remaining stream bytes (" + std::to_string(left) +
                               " left, >= " + std::to_string(min_bytes_per_elem) +
                               " bytes/element)");
    }
  }
  return n;
}

std::uint8_t BinaryReader::read_u8() {
  std::uint8_t v = 0;
  read_raw(&v, sizeof(v));
  return v;
}
std::uint32_t BinaryReader::read_u32() {
  std::uint32_t v = 0;
  read_raw(&v, sizeof(v));
  return v;
}
std::uint64_t BinaryReader::read_u64() {
  std::uint64_t v = 0;
  read_raw(&v, sizeof(v));
  return v;
}
std::int32_t BinaryReader::read_i32() {
  std::int32_t v = 0;
  read_raw(&v, sizeof(v));
  return v;
}
double BinaryReader::read_f64() {
  double v = 0;
  read_raw(&v, sizeof(v));
  return v;
}

std::string BinaryReader::read_string() {
  const std::uint32_t n = read_u32();
  const std::size_t left = remaining_bytes();
  if (left != std::numeric_limits<std::size_t>::max() && n > left) {
    throw SerializationError("string length " + std::to_string(n) +
                             " exceeds remaining stream bytes (" + std::to_string(left) + ")");
  }
  std::string s(n, '\0');
  if (n > 0) read_raw(s.data(), n);
  return s;
}

std::vector<float> BinaryReader::read_f32_vector() {
  const std::uint64_t n = read_count(sizeof(float), "f32 vector");
  std::vector<float> v(static_cast<std::size_t>(n));
  if (n > 0) read_raw(v.data(), static_cast<std::size_t>(n) * sizeof(float));
  return v;
}

}  // namespace gp
