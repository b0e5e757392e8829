// Parameter (de)serialization: persists trained models to the gp binary
// format so benches can cache expensive training runs.
#pragma once

#include <iosfwd>
#include <vector>

#include "nn/layers.hpp"

namespace gp::nn {

/// Writes parameters (names + tensors) to a stream.
void save_parameters(std::ostream& out, const std::vector<Parameter*>& params);

/// Restores parameters in place. Throws SerializationError when names or
/// shapes do not match the stream contents.
void load_parameters(std::istream& in, const std::vector<Parameter*>& params);

}  // namespace gp::nn
