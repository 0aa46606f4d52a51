//===- support/ThreadPool.cpp - Small work-stealing thread pool ---------------===//

#include "support/ThreadPool.h"

#include "support/ParseNumber.h"

#include <algorithm>
#include <utility>

using namespace pypm;

std::optional<unsigned> pypm::parseThreadCount(std::string_view S) {
  std::optional<uint64_t> V = parseCount(S);
  if (!V || *V > kMaxPoolThreads)
    return std::nullopt;
  return static_cast<unsigned>(*V);
}

ThreadPool::ThreadPool(unsigned Threads) {
  unsigned N = std::max(1u, Threads);
  Queues.reserve(N);
  for (unsigned I = 0; I != N; ++I)
    Queues.push_back(std::make_unique<WorkerState>());
  Workers.reserve(N);
  for (unsigned I = 0; I != N; ++I)
    Workers.emplace_back([this, I] { workerLoop(I); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> Lock(SleepMutex);
    Stopping = true;
  }
  WorkAvailable.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

unsigned ThreadPool::hardwareThreads() {
  return std::max(1u, std::thread::hardware_concurrency());
}

void ThreadPool::submit(Task T) {
  unsigned Target;
  {
    std::lock_guard<std::mutex> Lock(SleepMutex);
    Target = NextQueue;
    NextQueue = (NextQueue + 1) % size();
    ++Pending;
  }
  {
    std::lock_guard<std::mutex> Lock(Queues[Target]->Mutex);
    Queues[Target]->Deque.push_back(std::move(T));
  }
  WorkAvailable.notify_one();
}

bool ThreadPool::popOwn(unsigned Index, Task &Out) {
  WorkerState &Q = *Queues[Index];
  std::lock_guard<std::mutex> Lock(Q.Mutex);
  if (Q.Deque.empty())
    return false;
  Out = std::move(Q.Deque.front());
  Q.Deque.pop_front();
  return true;
}

bool ThreadPool::steal(unsigned Thief, Task &Out) {
  // Scan victims starting just after the thief so contention spreads.
  for (unsigned Off = 1; Off != size(); ++Off) {
    WorkerState &Q = *Queues[(Thief + Off) % size()];
    std::lock_guard<std::mutex> Lock(Q.Mutex);
    if (Q.Deque.empty())
      continue;
    Out = std::move(Q.Deque.back());
    Q.Deque.pop_back();
    return true;
  }
  return false;
}

void ThreadPool::workerLoop(unsigned Index) {
  for (;;) {
    Task T;
    if (popOwn(Index, T) || steal(Index, T)) {
      try {
        T(Index);
      } catch (...) {
        std::lock_guard<std::mutex> Lock(ExceptionMutex);
        if (!FirstException)
          FirstException = std::current_exception();
      }
      bool Drained;
      {
        std::lock_guard<std::mutex> Lock(SleepMutex);
        Drained = (--Pending == 0);
      }
      if (Drained)
        AllDone.notify_all();
      continue;
    }
    std::unique_lock<std::mutex> Lock(SleepMutex);
    if (Stopping)
      return;
    if (Pending == 0) {
      WorkAvailable.wait(Lock, [this] { return Stopping || Pending != 0; });
      continue;
    }
    // Pending != 0 but both pop and steal missed: another worker holds the
    // task(s); spin via a short wait so we re-scan once they enqueue more
    // or finish.
    WorkAvailable.wait_for(Lock, std::chrono::microseconds(50));
  }
}

void ThreadPool::wait() {
  {
    std::unique_lock<std::mutex> Lock(SleepMutex);
    AllDone.wait(Lock, [this] { return Pending == 0; });
  }
  std::exception_ptr E;
  {
    std::lock_guard<std::mutex> Lock(ExceptionMutex);
    E = std::exchange(FirstException, nullptr);
  }
  if (E)
    std::rethrow_exception(E);
}

void ThreadPool::parallelFor(
    size_t N, const std::function<void(size_t I, unsigned Worker)> &Body) {
  if (N == 0)
    return;
  // Several chunks per worker so stolen work rebalances tail imbalance;
  // contiguous ranges keep index locality within a chunk.
  size_t Chunks = std::min<size_t>(N, static_cast<size_t>(size()) * 4);
  size_t ChunkSize = (N + Chunks - 1) / Chunks;
  for (size_t Begin = 0; Begin < N; Begin += ChunkSize) {
    size_t End = std::min(N, Begin + ChunkSize);
    submit([this, &Body, Begin, End](unsigned Worker) {
      // Per-index fault isolation: a throwing Body(I) must not take the
      // rest of its chunk down with it — the caller sees every index
      // attempted, then the first exception from wait().
      for (size_t I = Begin; I != End; ++I) {
        try {
          Body(I, Worker);
        } catch (...) {
          std::lock_guard<std::mutex> Lock(ExceptionMutex);
          if (!FirstException)
            FirstException = std::current_exception();
        }
      }
    });
  }
  wait();
}
