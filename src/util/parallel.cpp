#include "util/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <system_error>
#include <thread>
#include <vector>

#include "util/mutex.hpp"
#include "util/thread_annotations.hpp"

namespace ferex::util {

namespace {

std::size_t detect_pool_width() noexcept {
  // Read once at startup, before any worker exists — the lone getenv is
  // not a concurrency hazard here.
  // NOLINTNEXTLINE(concurrency-mt-unsafe)
  if (const char* env = std::getenv("FEREX_POOL_WIDTH")) {
    char* end = nullptr;
    const unsigned long v = std::strtoul(env, &end, 10);
    if (end != env && *end == '\0' && v >= 1 && v <= 512) {
      return static_cast<std::size_t>(v);
    }
  }
  const std::size_t hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

thread_local bool tls_pool_worker = false;

/// Marks the calling thread as running parallel_for items for its
/// lifetime, so a parallel_for issued by one of them runs inline (the
/// nesting rule). Entered only from run(), which a thread already under
/// the rule never reaches, so leaving resets the flag.
class ItemScope {
 public:
  ItemScope() noexcept { tls_pool_worker = true; }
  ~ItemScope() { tls_pool_worker = false; }
  ItemScope(const ItemScope&) = delete;
  ItemScope& operator=(const ItemScope&) = delete;
};

/// Runs every item on the calling thread under the nesting rule.
void run_inline(std::size_t n, const std::function<void(std::size_t)>& fn) {
  const ItemScope items;
  for (std::size_t i = 0; i < n; ++i) fn(i);
}

/// One fork/join job: an atomic work index every participating thread
/// (workers + the submitter) drains, plus an active-participant count the
/// submitter waits on. Lives on the submitter's stack for its duration.
///
/// Concurrency: `fn` and `n` are set once before publication and
/// immutable after; `next` and `active` are atomics (no capability
/// needed); only `first_error` takes a lock.
struct Job {
  Job(const std::function<void(std::size_t)>& f, std::size_t count)
      : fn(&f), n(count) {}
  const std::function<void(std::size_t)>* fn;
  std::size_t n;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> active{0};
  Mutex error_mutex;
  std::exception_ptr first_error GUARDED_BY(error_mutex);
};

class WorkerPool {
 public:
  static WorkerPool& instance() {
    static WorkerPool pool;
    return pool;
  }

  void run(std::size_t n, const std::function<void(std::size_t)>& fn) {
    // One top-level job at a time; a second caller runs inline rather
    // than queueing (it makes progress either way, and results never
    // depend on the schedule). Its items follow the nesting rule like
    // any others, so their own fan-outs cannot take the pool the moment
    // it frees up.
    if (!submit_mutex_.try_lock()) {
      run_inline(n, fn);
      return;
    }
    MutexLock submit(submit_mutex_, adopt_lock);
    std::call_once(spawn_once_,
                   [this]() REQUIRES(submit_mutex_) { spawn_workers(); });
    if (workers_.empty()) {
      // Under the nesting rule, a nested call runs inline instead of
      // try-locking the submit mutex this thread holds.
      run_inline(n, fn);
      return;
    }

    Job job(fn, n);
    {
      MutexLock lock(job_mutex_);
      job.active.store(1, std::memory_order_relaxed);  // the submitter
      job_ = &job;
    }
    job_cv_.notify_all();
    // The submitter participates too. While draining it counts as a pool
    // participant, so a nested parallel_for issued by one of its items
    // takes the inline path up front instead of re-entering run() and
    // try-locking a mutex this thread already owns (which would be UB).
    {
      const ItemScope items;
      drain(job);
    }
    {
      MutexLock lock(job_mutex_);
      job.active.fetch_sub(1, std::memory_order_acq_rel);
      done_cv_.wait(job_mutex_, [&] {
        return job.active.load(std::memory_order_acquire) == 0;
      });
      job_ = nullptr;  // workers re-check under job_mutex_, so the stack
                       // Job cannot be touched after this point
    }
    std::exception_ptr error;
    {
      // Every participant has deregistered, but take the error lock
      // anyway: it is uncontended here and keeps the GUARDED_BY story
      // airtight for the analysis. Acquired while submit_mutex_ is
      // still held, but no ACQUIRED_BEFORE edge is declarable: Job is
      // a per-call stack object that cannot name WorkerPool's members
      // in an attribute. It is a strict leaf — nothing is ever
      // acquired under it — so the undeclared nesting is waived.
      MutexLock lock(job.error_mutex);  // ferex-lint: allow(lock-order-undeclared)
      error = job.first_error;
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  WorkerPool() = default;

  ~WorkerPool() {
    {
      MutexLock lock(job_mutex_);
      stop_ = true;
    }
    job_cv_.notify_all();
    // Joining under submit_mutex_ is deadlock-free (workers never take
    // it) and satisfies workers_'s capability for the analysis.
    MutexLock submit(submit_mutex_);
    for (auto& t : workers_) t.join();
  }

  void spawn_workers() REQUIRES(submit_mutex_) {
    const std::size_t width = pool_width();
    if (width <= 1) return;
    workers_.reserve(width - 1);
    try {
      for (std::size_t w = 1; w < width; ++w) {
        workers_.emplace_back([this] { worker_loop(); });
      }
    } catch (const std::system_error&) {
      // Thread spawn failed (resource exhaustion): run with however many
      // workers did start; zero means every call drains inline.
    }
  }

  void worker_loop() {
    tls_pool_worker = true;
    for (;;) {
      Job* job = nullptr;
      {
        MutexLock lock(job_mutex_);
        job_cv_.wait(job_mutex_, [&]() REQUIRES(job_mutex_) {
          return stop_ ||
                 (job_ != nullptr &&
                  job_->next.load(std::memory_order_relaxed) < job_->n);
        });
        if (stop_) return;
        job = job_;
        // Registered under the lock: the submitter cannot retire the job
        // until this participant drains and deregisters.
        job->active.fetch_add(1, std::memory_order_relaxed);
      }
      drain(*job);
      {
        MutexLock lock(job_mutex_);
        if (job->active.fetch_sub(1, std::memory_order_acq_rel) == 1) {
          done_cv_.notify_all();
        }
      }
    }
  }

  static void record_error(Job& job) {
    MutexLock lock(job.error_mutex);
    if (!job.first_error) job.first_error = std::current_exception();
    // Stop handing out work once something failed.
    job.next.store(job.n, std::memory_order_relaxed);
  }

  static void drain(Job& job) {
    for (;;) {
      const std::size_t i = job.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= job.n) return;
      try {
        (*job.fn)(i);
      } catch (...) {
        record_error(job);
      }
    }
  }

  /// Serializes top-level jobs; always taken before job_mutex_.
  Mutex submit_mutex_ ACQUIRED_BEFORE(job_mutex_);
  Mutex job_mutex_;  ///< guards job_ / stop_ and both CVs
  /// _any variants: they wait directly on the annotated Mutex.
  std::condition_variable_any job_cv_;   ///< workers wait here for a job
  std::condition_variable_any done_cv_;  ///< submitter waits for fan-in
  Job* job_ GUARDED_BY(job_mutex_) = nullptr;
  bool stop_ GUARDED_BY(job_mutex_) = false;
  std::once_flag spawn_once_;
  std::vector<std::thread> workers_ GUARDED_BY(submit_mutex_);
};

}  // namespace

std::size_t pool_width() noexcept {
  static const std::size_t width = detect_pool_width();
  return width;
}

bool on_pool_worker() noexcept { return tls_pool_worker; }

void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;
  if (n == 1 || pool_width() == 1 || tls_pool_worker) {
    // Single item, single-threaded host, or a nested call from inside a
    // parallel_for item: run inline (nested fan-out would contend for
    // the one pool; every call site is schedule-invariant).
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  WorkerPool::instance().run(n, fn);
}

}  // namespace ferex::util
