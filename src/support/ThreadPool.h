//===- support/ThreadPool.h - Small work-stealing thread pool ---*- C++ -*-===//
///
/// \file
/// A small fixed-size work-stealing thread pool for the rewrite engine's
/// parallel match-discovery phase (and anything else that wants coarse
/// fork/join parallelism over an index space).
///
/// Design constraints, in order:
///  - tasks are coarse (a chunk of node→pattern match attempts each), so
///    per-deque mutexes are plenty — no lock-free deque heroics;
///  - each worker owns a deque: the owner pops from the front, idle workers
///    steal from the back of the busiest-looking victim, so cache-warm work
///    stays with its producer and stealing moves the largest chunks;
///  - drain-then-rethrow: exceptions thrown by tasks are captured, every
///    remaining task still runs to completion, and only then is the *first*
///    captured exception rethrown from wait()/parallelFor() on the calling
///    thread. A failure therefore never discards the other workers'
///    results, and the pool stays reusable afterwards
///    (tests/test_threadpool.cpp pins this contract down);
///  - the pool is reusable across many submit/wait rounds (the engine runs
///    one discovery round per rewrite pass against the same pool).
///
/// Workers are identified by a dense index in [0, size()); parallelFor
/// hands that index to the body so callers can keep per-worker scratch
/// state (the engine keeps one TermArena + TermView per worker).
///
//===----------------------------------------------------------------------===//

#ifndef PYPM_SUPPORT_THREADPOOL_H
#define PYPM_SUPPORT_THREADPOOL_H

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <vector>

namespace pypm {

/// The largest worker count a thread count from outside the program (a
/// daemon request's Threads field, a `--threads` option) may ask for. The
/// wire decoder and the tools reject larger values instead of spawning
/// that many threads for one request.
constexpr unsigned kMaxPoolThreads = 256;

/// Parses a decimal thread count from outside the program: digits only,
/// at most kMaxPoolThreads. Anything else (a sign, a non-digit, an empty
/// string, a larger value) is nullopt, never a wrapped or zero count.
std::optional<unsigned> parseThreadCount(std::string_view S);

class ThreadPool {
public:
  /// A task; receives the index of the worker executing it.
  using Task = std::function<void(unsigned Worker)>;

  /// Spawns \p Threads workers (clamped to at least 1).
  explicit ThreadPool(unsigned Threads);
  ThreadPool(const ThreadPool &) = delete;
  ThreadPool &operator=(const ThreadPool &) = delete;
  ~ThreadPool();

  /// Number of workers. Reads Queues (fully built before any worker thread
  /// starts), never Workers — early-started workers call size() while the
  /// constructor is still appending threads to Workers.
  unsigned size() const { return static_cast<unsigned>(Queues.size()); }

  /// Enqueues a task (round-robin across worker deques). Thread-safe.
  void submit(Task T);

  /// Blocks until every submitted task has completed — tasks are drained,
  /// never abandoned, even when one of them threw. If any task threw,
  /// rethrows the first captured exception (subsequent wait() calls do not
  /// rethrow it again, and the pool remains fully usable).
  void wait();

  /// Runs Body(I, Worker) for every I in [0, N), chunked across the pool,
  /// and blocks until done. Chunks preserve index locality (worker w's
  /// initial share is a contiguous range). Fault isolation is per *index*,
  /// not per chunk: a Body(I) that throws loses only index I — every other
  /// index still runs — and the first exception is rethrown after the join,
  /// like wait().
  void parallelFor(size_t N, const std::function<void(size_t I, unsigned Worker)> &Body);

  /// std::thread::hardware_concurrency with a floor of 1.
  static unsigned hardwareThreads();

private:
  struct WorkerState {
    std::mutex Mutex;
    std::deque<Task> Deque;
  };

  void workerLoop(unsigned Index);
  bool popOwn(unsigned Index, Task &Out);
  bool steal(unsigned Thief, Task &Out);

  std::vector<std::unique_ptr<WorkerState>> Queues;
  std::vector<std::thread> Workers;

  // Sleep/wake and join bookkeeping.
  std::mutex SleepMutex;
  std::condition_variable WorkAvailable;
  std::condition_variable AllDone;
  size_t Pending = 0; ///< submitted but not yet completed tasks
  bool Stopping = false;
  unsigned NextQueue = 0; ///< round-robin submit cursor

  std::mutex ExceptionMutex;
  std::exception_ptr FirstException;
};

} // namespace pypm

#endif // PYPM_SUPPORT_THREADPOOL_H
