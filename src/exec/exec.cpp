#include "exec/exec.hpp"

#include <algorithm>
#include <cstdlib>
#include <thread>

#include "obs/metrics.hpp"

namespace gp::exec {

namespace {

thread_local int tl_serial_depth = 0;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace

std::size_t default_threads() {
  if (const char* env = std::getenv("GP_THREADS")) {
    char* end = nullptr;
    const unsigned long parsed = std::strtoul(env, &end, 10);
    if (end != env && parsed >= 1) {
      return std::min<std::size_t>(static_cast<std::size_t>(parsed), 512);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

std::uint64_t child_seed(std::uint64_t base, std::uint64_t index) {
  // Two rounds of splitmix64 over a mix of base and index; the odd
  // multiplier decorrelates (base, index) pairs that differ in one bit.
  return splitmix64(splitmix64(base) ^ (index * 0xC2B2AE3D27D4EB4FULL + 0x165667B19E3779F9ULL));
}

Rng child_rng(std::uint64_t base, std::uint64_t index) {
  const std::uint64_t seed = child_seed(base, index);
  const std::uint64_t stream = child_seed(base ^ 0x5851F42D4C957F2DULL, index);
  return Rng(seed, stream);
}

SerialScope::SerialScope() { ++tl_serial_depth; }
SerialScope::~SerialScope() { --tl_serial_depth; }
bool SerialScope::active() { return tl_serial_depth > 0; }

ExecContext::ExecContext(std::size_t threads)
    : pool_(std::make_unique<ThreadPool>(threads == 0 ? default_threads() : threads)) {}

ExecContext& ExecContext::global() {
  // Sized from GP_THREADS / hardware_concurrency. Never destroyed: joining
  // the workers during static destruction let them run thread exit code
  // against already-destroyed statics, intermittently aborting process exit
  // with a double free.
  static ExecContext* context = new ExecContext();
  return *context;
}

std::size_t ExecContext::threads() const {
  if (SerialScope::active() || ThreadPool::in_region()) return 1;
  return pool_->size();
}

void ExecContext::run_chunks(std::size_t chunks, const ThreadPool::ChunkFn& fn) {
  if (chunks == 0) return;
  if (threads() <= 1 || chunks == 1) {
    GP_COUNTER_ADD("gp.exec.regions_inline", 1);
    GP_COUNTER_ADD("gp.exec.chunks", chunks);
    for (std::size_t c = 0; c < chunks; ++c) fn(c);
    return;
  }
  pool_->run(chunks, fn);
}

}  // namespace gp::exec
