// Binary serialization for datasets and model weights.
//
// Format: little-endian, length-prefixed containers, a 4-byte magic plus a
// version byte at stream start. The format is deliberately simple — it only
// needs to round-trip between builds of this library (dataset caching and
// trained-model persistence), not across languages.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace gp {

/// Writes primitives and containers to a std::ostream in gp binary format.
class BinaryWriter {
 public:
  /// `tag` identifies the payload kind (e.g. "GPDS" for datasets) and is
  /// validated on read.
  BinaryWriter(std::ostream& out, const std::string& tag);

  void write_u8(std::uint8_t v);
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_i32(std::int32_t v);
  void write_f64(double v);
  void write_string(const std::string& s);
  void write_f32_vector(const std::vector<float>& v);

 private:
  std::ostream& out_;
};

/// Reads the gp binary format; throws SerializationError on any mismatch.
///
/// Hardened against corrupt and adversarial input: every length prefix is
/// validated against the number of bytes actually left in the stream before
/// any allocation happens, so a flipped length byte yields a typed
/// SerializationError instead of a multi-gigabyte allocation (std::bad_alloc
/// or an ASan allocator abort).
class BinaryReader {
 public:
  BinaryReader(std::istream& in, const std::string& expected_tag);

  std::uint8_t read_u8();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  std::int32_t read_i32();
  double read_f64();
  std::string read_string();
  std::vector<float> read_f32_vector();

  /// Reads a u64 element count and validates that `count * min_bytes_per_elem`
  /// bytes could still be present in the stream (plus a hard sanity cap for
  /// non-seekable streams). `what` names the container in the error message.
  /// Use this before reserving memory proportional to an untrusted count.
  std::uint64_t read_count(std::size_t min_bytes_per_elem, const char* what);

  /// Bytes left between the current read position and end-of-stream, or
  /// SIZE_MAX when the stream is not seekable (e.g. a pipe).
  std::size_t remaining_bytes();

 private:
  void read_raw(void* dst, std::size_t n);
  std::istream& in_;
};

}  // namespace gp
