#include "nn/workspace.hpp"

#include <atomic>

#include "common/error.hpp"

namespace gp::nn {

std::size_t Workspace::next_type_index() {
  static std::atomic<std::size_t> next{0};
  const std::size_t index = next.fetch_add(1, std::memory_order_relaxed);
  check(index < kMaxTypes, "nn::Workspace: too many buffer types");
  return index;
}

Workspace::Frame::Frame(Workspace& ws) : ws_(ws) {
  for (std::size_t t = 0; t < kMaxTypes; ++t) {
    marks_[t] = ws.stacks_[t] ? ws.stacks_[t]->used : 0;
  }
}

Workspace::Frame::~Frame() {
  for (std::size_t t = 0; t < kMaxTypes; ++t) {
    if (ws_.stacks_[t]) ws_.stacks_[t]->used = marks_[t];
  }
}

}  // namespace gp::nn
