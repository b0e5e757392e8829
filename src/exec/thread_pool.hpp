// Fixed-size worker pool executing "parallel regions".
//
// Design goals (in priority order):
//   1. Determinism. A region is a set of chunk indices [0, num_chunks); a
//      chunk's result may never depend on which thread ran it or when. The
//      pool therefore does no work stealing and no task futures — it only
//      hands out chunk indices. Callers that obey the contract (chunks write
//      disjoint state; cross-chunk combination happens in index order after
//      the region) get bitwise-identical results for any thread count.
//   2. Zero overhead when serial. A pool of size 1 spawns no threads and
//      run() degenerates to a plain loop.
//   3. Safe nesting. A parallel call made from inside a running region
//      executes inline (serially) instead of deadlocking the pool.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gp::exec {

class ThreadPool {
 public:
  /// `threads` is the total parallelism including the calling thread, so a
  /// pool of size N spawns N-1 workers. `threads <= 1` spawns none.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total parallelism (workers + the calling thread).
  std::size_t size() const { return workers_.size() + 1; }

  using ChunkFn = std::function<void(std::size_t)>;

  /// Runs fn(c) exactly once for every c in [0, num_chunks), using the
  /// workers plus the calling thread, and blocks until all chunks finished.
  /// Exceptions thrown by chunks are captured; after the region completes
  /// the exception of the lowest-indexed failing chunk is rethrown here
  /// (deterministic regardless of scheduling). The pool stays usable.
  /// Nested calls (from inside a chunk) run inline.
  void run(std::size_t num_chunks, const ChunkFn& fn);

  /// True while the current thread is executing a chunk of some region
  /// (worker or caller). Used to make nested parallelism inline.
  static bool in_region();

 private:
  struct Region {
    const ChunkFn* fn = nullptr;
    std::size_t num_chunks = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    /// Lowest-indexed failing chunk and its exception (guarded by
    /// error_mutex); fixed-size, so publishing a region allocates nothing.
    std::mutex error_mutex;
    std::size_t error_chunk = 0;
    std::exception_ptr error;
    int span_depth = 0;      ///< submitter's span depth; workers nest under it
    int active_workers = 0;  ///< workers currently inside (guarded by mutex_)
  };

  void worker_loop();
  static void work_on(Region& region);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable wake_;      ///< workers: a region was published
  std::condition_variable finished_;  ///< caller: region fully drained
  Region* region_ = nullptr;          ///< active region (guarded by mutex_)
  std::uint64_t epoch_ = 0;           ///< bumped per published region
  bool stop_ = false;
  std::mutex run_mutex_;  ///< serialises concurrent top-level run() calls
};

}  // namespace gp::exec
