// Deterministic worker pool for embarrassingly parallel experiment loops
// and long-lived serving workers.
//
// The repeat/sweep drivers (RunMethodRepeated, the bench_fig1/bench_table2
// cell loops, the epsilon_sweep example) execute many independent units of
// work — one per run or per (method, epsilon) cell — whose outputs land in
// preassigned slots. ParallelFor fans those indices out across the
// process-wide WorkerPool: workers pull indices from a shared atomic
// counter, so the schedule is dynamic but the *outputs* are
// schedule-independent as long as fn(i) writes only to slot i (each unit
// derives its own Rng from base_seed + i and owns its model instance).
// threads <= 1 degenerates to the plain sequential loop, in index order.
//
// The pool threads are persistent: they are spawned on first use (growing
// on demand up to the largest concurrency ever requested) and parked on a
// condition variable between jobs, so a sweep driver's back-to-back
// ParallelFor calls pay a wakeup instead of a thread spawn. The linalg and
// sparse kernels fan out on the same pool (internal::KernelFor). (The
// serving tier's batch workers in src/serve/batcher.h are separately
// resident — they park on the request queue, a different wait discipline.)
//
// Exceptions: the first exception thrown by any fn(i) is captured, the
// remaining indices are abandoned, the job is drained, and the exception
// is rethrown on the calling thread — same observable contract as the
// sequential loop, minus which index got to throw first.
#ifndef GCON_EVAL_PARALLEL_H_
#define GCON_EVAL_PARALLEL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace gcon {

/// Worker count to actually use for a requested thread count: values >= 1
/// pass through, 0 (and negatives) mean "one per hardware thread".
int ResolveThreads(int requested);

/// A pool of resident worker threads executing fork-join index jobs.
/// One job runs at a time. A Run that finds the pool busy — issued from
/// *inside* a running job, or from another thread while a job is out —
/// executes inline on the calling thread instead of waiting for the job
/// lock. So nested ParallelFor is safe (and sequential, which matches how
/// the sweep drivers configure their inner loops), and two serving threads
/// never queue behind each other's kernel call.
class WorkerPool {
 public:
  /// The process-wide pool every ParallelFor shares.
  static WorkerPool& Global();

  WorkerPool() = default;
  ~WorkerPool();
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  /// Executes fn(i) for every i in [0, n) with total concurrency
  /// min(threads, n): the calling thread participates and up to threads-1
  /// resident workers join it. Blocks until every claimed index finished;
  /// rethrows the first exception thrown by any fn(i).
  void Run(int n, int threads, const std::function<void(int)>& fn);

  /// Resident worker threads spawned so far (diagnostics/tests).
  int resident_workers() const;

 private:
  void EnsureWorkersLocked(int needed);
  void WorkerMain();
  /// Pulls indices from next_ and runs fn until exhausted or failed.
  void Drain(int n, const std::function<void(int)>& fn);

  /// Held by the one Run whose job is out; a Run that cannot take it at
  /// once runs inline.
  std::mutex job_mu_;

  /// Guards the job fields and worker bookkeeping below.
  mutable std::mutex mu_;
  std::condition_variable work_cv_;  ///< workers park here between jobs
  std::condition_variable done_cv_;  ///< Run waits here for claimed workers
  std::uint64_t generation_ = 0;     ///< bumped once per job
  bool open_ = false;                ///< job still accepting claimants
  int max_claims_ = 0;               ///< workers allowed on this job
  int claimed_ = 0;
  int active_ = 0;                   ///< workers currently draining
  int n_ = 0;
  const std::function<void(int)>* fn_ = nullptr;
  bool shutdown_ = false;
  std::vector<std::thread> workers_;

  std::atomic<int> next_{0};
  std::atomic<bool> failed_{false};
  std::mutex error_mu_;
  std::exception_ptr first_error_;
};

/// Executes fn(i) for every i in [0, n), fanning the indices out across
/// `threads` workers of WorkerPool::Global() (the calling thread
/// participates, so `threads` is the total concurrency). fn must be safe to
/// call concurrently from distinct threads for distinct indices and must
/// write only to per-index state. threads <= 1 (after ResolveThreads) runs
/// inline in index order.
void ParallelFor(int n, int threads, const std::function<void(int)>& fn);

}  // namespace gcon

#endif  // GCON_EVAL_PARALLEL_H_
