// Working memory of the reentrant inference path (Layer::infer and the
// model-level infer entry points built on it).
//
// A Workspace hands out reusable buffers of any default-constructible type
// in call order. A Frame opened at the top of a function returns every
// buffer taken inside it when the scope closes, so each nesting level
// reuses the same slots pass after pass: once a workspace has seen one pass
// of a given shape, later passes allocate nothing (buffers keep their
// capacity; Tensor::resize never shrinks).
//
// Ownership: weights are const and shared; a workspace belongs to exactly
// one caller (one exec lane) at a time. Buffer contents are unspecified on
// take() — every user overwrites what it reads.
#pragma once

#include <array>
#include <cstddef>
#include <deque>
#include <memory>

namespace gp::nn {

class Workspace {
  static constexpr std::size_t kMaxTypes = 16;  ///< distinct buffer types

 public:
  /// The next free buffer of type T. Valid until the enclosing Frame ends;
  /// taking more buffers never moves earlier ones.
  template <typename T>
  T& take() {
    std::unique_ptr<StackBase>& base = stacks_[type_index<T>()];
    if (!base) base = std::make_unique<Stack<T>>();
    auto& stack = static_cast<Stack<T>&>(*base);
    if (stack.used == stack.items.size()) stack.items.emplace_back();
    return stack.items[stack.used++];
  }

  /// Scope guard: buffers taken while it lives are released at its end.
  class Frame {
   public:
    explicit Frame(Workspace& ws);
    ~Frame();
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

   private:
    Workspace& ws_;
    std::array<std::size_t, kMaxTypes> marks_{};
  };

 private:
  struct StackBase {
    StackBase() = default;
    virtual ~StackBase() = default;
    StackBase(const StackBase&) = delete;
    StackBase& operator=(const StackBase&) = delete;
    std::size_t used = 0;
  };
  template <typename T>
  struct Stack : StackBase {
    std::deque<T> items;  ///< deque: growing never relocates taken buffers
  };

  /// Process-wide dense id per buffer type (first use assigns it).
  static std::size_t next_type_index();
  template <typename T>
  static std::size_t type_index() {
    static const std::size_t index = next_type_index();
    return index;
  }

  std::array<std::unique_ptr<StackBase>, kMaxTypes> stacks_{};
};

}  // namespace gp::nn
