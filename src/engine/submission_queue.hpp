// Admission queue of the batch engine — the machinery behind
// Engine::submit_batch() and Engine::run_batch().
//
// The blocking run_batch() API forces every caller to assemble its whole
// batch up front; a long-running front end (src/service) serving many
// small interleaved requests would either run them one-at-a-time (paying
// a full dispatch per tiny request) or block sessions on each other. The
// submission queue inverts the flow: callers enqueue a batch of Jobs and
// get back one Ticket for it; a single dispatcher thread drains the queue
// into *shared* dispatches — every submission queued at flush time rides
// one batch execution, so small requests from N clients that queue behind
// a running dispatch share one warm dispatch (content-addressed dedup and
// root sharding then work across all of them).
//
// The unit of admission is the submission: one submit_batch() is queued,
// flushed, resolved and cancelled whole. Admission has one behaviour: a
// flush takes every queued submission, concatenates their jobs into one
// dispatch, and hands each submission its own slice of the results by
// move. The dispatcher flushes whenever it is free, so a lone submission
// dispatches at once, and coalescing happens exactly while a dispatch is
// executing — whatever queues behind it rides the next flush together, so
// latency is never traded for batch size.
//
// Who runs a dispatch: the blocking run() skips the queue when nothing
// would share its flush — no dispatch in flight and nothing pending. The
// caller then runs the dispatch on its own thread and takes the results
// by move, with no ticket, promise or thread hop; the dispatch is exactly
// the flush the dispatcher would have made at once. Otherwise run()
// queues its jobs as one submission and takes its ticket's results. The
// dispatcher serves async submissions and those that arrive during a
// dispatch, and waits while a caller-run dispatch is in flight, so at most
// one dispatch runs at a time and a flush still takes everything queued.
//
// Determinism: a JobResult depends only on its Job — never on what it was
// coalesced with. This falls out of the engine's execution contract
// (content-addressed analyses are bit-identical however they are computed
// or cached; shard merging is grouping-insensitive; the solve phase is
// per-job), and is gated by tests/submission_queue_test.cpp: the same
// corpus submitted as one-job batches from concurrent threads,
// pre-batched, or queued behind a dispatch in flight serializes
// byte-identically.
//
// Lifecycle: a submission is queued, then either flushed (its results, or
// the dispatch's failure, resolve its ticket) or cancelled while still
// queued (every job becomes a "cancelled before dispatch" failure) — all
// of it or none. Once dispatched, every job runs to completion.
// shutdown() drains — everything still queued is dispatched in one final
// flush — then joins the dispatcher; submitting afterwards throws. A
// ticket shares its submission's state and stays valid after the queue,
// or the whole engine, is gone.
//
// Counters: the queue counts jobs into the metrics registry and keeps no
// copies — queue.submitted, queue.cancelled, the queue.depth and
// queue.max_depth gauges, and per flush the queue.coalesce_jobs histogram
// (jobs per flush) and per job queue.wait_ms. Both kinds of flush count
// alike (a caller-run flush waited zero); queue.caller_dispatches counts
// the flushes run() ran on its caller's thread. Only its state, depth(),
// is read from the queue itself.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/job.hpp"

namespace mpsched::engine {

/// Flushes that carried more than one job, summed over every queue in the
/// process: the queue.coalesce_jobs histogram's buckets above its first
/// (one-job) bucket.
std::uint64_t coalesced_dispatches();

class SubmissionQueue;

namespace detail {

/// One submit_batch(). It is queued while it sits in QueueCore::pending,
/// and whoever takes it out of there under the queue lock — a flush or a
/// cancel — fulfils its promise, exactly once: the dispatcher with the
/// submission's results or the dispatch's exception, a cancel with one
/// cancellation failure per job. An empty one is never queued;
/// submit_batch() fulfils it at once.
struct Submission {
  /// The jobs, until a flush moves them into its dispatch.
  std::vector<Job> jobs;
  std::promise<std::vector<JobResult>> promise;
  std::chrono::steady_clock::time_point enqueued{};
};

/// State shared by the queue, its dispatcher thread, and every Ticket —
/// kept in a shared_ptr so tickets stay safe to poll, take, or cancel
/// after the SubmissionQueue itself is destroyed.
struct QueueCore {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::shared_ptr<Submission>> pending;
  std::size_t queued_jobs = 0;  ///< jobs across `pending`
  bool stop = false;
  /// A dispatch is executing, on the dispatcher or on a run() caller.
  bool dispatching = false;
};

}  // namespace detail

/// The handle of one submit_batch(): its jobs are resolved, polled and
/// cancelled as one unit. Move-only; it owns the submission's one result
/// list, which take() hands out once.
class Ticket {
 public:
  /// Jobs in the submission.
  std::size_t size() const noexcept { return size_; }

  /// Poll (before take()): true once the results — or the cancellation,
  /// or the dispatch's failure — are available.
  bool ready() const;

  /// Blocks until ready and moves the results out, aligned with the
  /// submitted jobs. Callable once. A cancelled submission yields one
  /// failed JobResult per job (error "cancelled before dispatch"); a
  /// failure of the whole dispatch rethrows its exception.
  std::vector<JobResult> take();

  /// All or nothing: true when this call removed the still-queued
  /// submission (every job then resolves as the cancellation failure
  /// above), false when it was already flushed or cancelled, or empty.
  bool cancel();

 private:
  friend class SubmissionQueue;
  Ticket(std::shared_ptr<detail::Submission> submission,
         std::shared_ptr<detail::QueueCore> core, std::size_t size);

  std::shared_ptr<detail::Submission> submission_;
  std::shared_ptr<detail::QueueCore> core_;
  std::future<std::vector<JobResult>> results_;
  std::size_t size_ = 0;
};

/// The admission queue itself. One dispatcher thread; thread-safe
/// submit_batch/run/depth from any number of callers.
class SubmissionQueue {
 public:
  /// `dispatch` executes one shared batch and returns results aligned
  /// with its argument (the Engine passes its batch executor). Starts
  /// the dispatcher thread.
  explicit SubmissionQueue(
      std::function<std::vector<JobResult>(std::vector<Job>)> dispatch);
  ~SubmissionQueue();

  SubmissionQueue(const SubmissionQueue&) = delete;
  SubmissionQueue& operator=(const SubmissionQueue&) = delete;

  /// Enqueues a batch as one submission: a flush never splits it. An
  /// empty batch returns a ready ticket with no results and counts
  /// nothing. Throws std::runtime_error after shutdown().
  Ticket submit_batch(std::vector<Job> jobs);

  /// Executes a batch and blocks until its results, aligned with `jobs`,
  /// are back. On an idle queue the dispatch runs on this thread (see the
  /// file comment); otherwise this is submit_batch(jobs).take(). Either
  /// way the results are the same. Rethrows a dispatch-level failure;
  /// throws std::runtime_error after shutdown(), like submit_batch().
  std::vector<JobResult> run(std::vector<Job> jobs);

  /// Drain-and-stop: everything still queued is dispatched in one final
  /// flush, the dispatcher joins, later submits throw. Waits out a
  /// caller-run dispatch in flight. Idempotent.
  void shutdown();

  /// Jobs queued right now (not yet flushed or cancelled).
  std::size_t depth() const;

 private:
  void dispatcher_loop();

  std::function<std::vector<JobResult>(std::vector<Job>)> dispatch_;
  std::shared_ptr<detail::QueueCore> core_;
  std::mutex join_mutex_;  ///< serializes shutdown()'s join
  std::thread dispatcher_;
};

}  // namespace mpsched::engine
