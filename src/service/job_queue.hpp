#pragma once

#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "util/json.hpp"
#include "util/thread_pool.hpp"

namespace cryo::service {

/// An ordered asynchronous job queue on top of `util::ThreadPool`: jobs
/// are executed concurrently by the pool, but their replies are released
/// strictly in submission order, so the NDJSON protocol stays positional
/// (reply N answers request N) regardless of scheduling. Job callables
/// must not throw — the server wraps every job in its own fault
/// isolation and returns a structured error reply instead.
class JobQueue {
public:
  /// `threads` = 0 resolves via util::resolve_threads (CRYOEDA_THREADS).
  explicit JobQueue(int threads);

  JobQueue(const JobQueue&) = delete;
  JobQueue& operator=(const JobQueue&) = delete;

  int threads() const { return pool_.size(); }

  /// Enqueue an asynchronous job; its reply is released after every
  /// earlier submission's reply.
  void submit(std::function<util::Json()> job);

  /// Enqueue an already-computed reply (ops, parse errors) — it still
  /// waits its turn behind earlier pending jobs.
  void submit_ready(util::Json reply);

  /// Pop the longest finished prefix without blocking.
  std::vector<util::Json> drain_ready();

  /// Block until every submitted job finished; pop all replies. This is
  /// also the `stats` / `shutdown` barrier: after it returns, no job is
  /// in flight.
  std::vector<util::Json> drain_all();

private:
  struct Slot {
    bool ready = false;
    util::Json reply;
  };

  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Slot>> slots_;
  util::ThreadPool pool_;
};

}  // namespace cryo::service
