#include "nn/serialize_nn.hpp"

#include <istream>
#include <ostream>

#include "common/serialize.hpp"

namespace gp::nn {

namespace {
constexpr const char* kTag = "GPNN";
}

void save_parameters(std::ostream& out, const std::vector<Parameter*>& params) {
  BinaryWriter writer(out, kTag);
  writer.write_u32(static_cast<std::uint32_t>(params.size()));
  for (const Parameter* p : params) {
    writer.write_string(p->name);
    writer.write_u32(static_cast<std::uint32_t>(p->value.rows()));
    writer.write_u32(static_cast<std::uint32_t>(p->value.cols()));
    writer.write_f32_vector(p->value.vec());
  }
}

void load_parameters(std::istream& in, const std::vector<Parameter*>& params) {
  BinaryReader reader(in, kTag);
  const std::uint32_t count = reader.read_u32();
  if (count != params.size()) {
    throw SerializationError("parameter count mismatch while loading model");
  }
  for (Parameter* p : params) {
    const std::string name = reader.read_string();
    const std::uint32_t rows = reader.read_u32();
    const std::uint32_t cols = reader.read_u32();
    if (name != p->name || rows != p->value.rows() || cols != p->value.cols()) {
      throw SerializationError("parameter layout mismatch at " + p->name);
    }
    p->value.vec() = reader.read_f32_vector();
    if (p->value.vec().size() != static_cast<std::size_t>(rows) * cols) {
      throw SerializationError("parameter payload size mismatch at " + p->name);
    }
  }
}

}  // namespace gp::nn
