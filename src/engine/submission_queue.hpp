// Admission queue of the batch engine — the machinery behind
// Engine::submit() and Engine::run_batch().
//
// The blocking run_batch() API forces every caller to assemble its whole
// batch up front; a long-running front end (src/service) serving many
// small interleaved jobs would either run them one-at-a-time (paying a
// full dispatch per tiny job) or block sessions on each other. The
// submission queue inverts the flow: callers enqueue Jobs and get back
// waitable/pollable Tickets; a single dispatcher thread drains the queue
// into *shared* dispatches — every job queued at flush time rides one
// batch execution, so small jobs from N clients that queue behind a
// running dispatch share one warm dispatch (content-addressed dedup and
// root sharding then work across all of them).
//
// Admission has one behaviour: a flush takes everything queued, and the
// dispatcher flushes whenever it is free. A lone submission therefore
// dispatches at once, and coalescing happens exactly while a dispatch is
// executing — whatever queues behind it rides the next flush together, so
// latency is never traded for batch size. One submit_batch() is never
// split across flushes.
//
// Who runs a dispatch: the blocking run() skips the queue when nothing
// would share its flush — no dispatch in flight and nothing pending. The
// caller then runs the dispatch on its own thread and takes the results
// by move, with no ticket, promise or thread hop; the dispatch is exactly
// the flush the dispatcher would have made at once. Otherwise run()
// queues its jobs and waits on tickets like any submit. The dispatcher
// serves async submits and jobs that arrive during a dispatch, and waits
// while a caller-run dispatch is in flight, so at most one dispatch runs
// at a time and a flush still takes everything queued.
//
// Determinism: a JobResult depends only on its Job — never on what it was
// coalesced with. This falls out of the engine's execution contract
// (content-addressed analyses are bit-identical however they are computed
// or cached; shard merging is grouping-insensitive; the solve phase is
// per-job), and is gated by tests/submission_queue_test.cpp: the same
// corpus submitted singly from concurrent threads, pre-batched, or queued
// behind a dispatch in flight serializes byte-identically.
//
// Lifecycle: cancel() removes a still-queued ticket (its result becomes a
// "cancelled before dispatch" failure); once dispatched a job always runs
// to completion. shutdown() drains — everything still queued is dispatched
// in one final flush — then joins the dispatcher; submitting afterwards
// throws. Tickets are value handles (shared state) and stay valid after
// the queue, or the whole engine, is gone.
//
// Counters: the queue counts into the metrics registry and keeps no
// copies — queue.submitted, queue.cancelled, the queue.depth and
// queue.max_depth gauges, and per flush the queue.coalesce_jobs histogram
// (jobs per flush) and queue.wait_ms. Both kinds of flush count alike (a
// caller-run flush waited zero); queue.caller_dispatches counts the
// flushes run() ran on its caller's thread. Only its state, depth(), is
// read from the queue itself.
#pragma once

#include <atomic>
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

enum class TicketState { Queued, Dispatched, Done, Cancelled };

class SubmissionQueue;

namespace detail {

/// Shared per-ticket state. The promise is fulfilled exactly once: by the
/// dispatcher (result or execution exception) or by cancel().
struct TicketEntry {
  std::uint64_t id = 0;
  Job job;
  std::promise<JobResult> promise;
  std::shared_future<JobResult> future;
  std::atomic<TicketState> state{TicketState::Queued};
  std::chrono::steady_clock::time_point enqueued{};
};

/// State shared by the queue, its dispatcher thread, and every Ticket —
/// kept in a shared_ptr so tickets stay safe to poll, wait on, or cancel
/// after the SubmissionQueue itself is destroyed.
struct QueueCore {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<std::shared_ptr<TicketEntry>> pending;
  bool stop = false;
  /// A dispatch is executing, on the dispatcher or on a run() caller.
  bool dispatching = false;
};

}  // namespace detail

/// Waitable/pollable handle for one submitted Job. Value semantics: copies
/// share the same underlying submission. A default-constructed Ticket is
/// invalid; every accessor but valid() throws on it.
class Ticket {
 public:
  Ticket() = default;

  bool valid() const noexcept { return entry_ != nullptr; }
  /// Engine-assigned submission id (monotone per queue, starting at 1).
  std::uint64_t id() const;
  TicketState state() const;

  /// Poll: true once the result (or cancellation) is available.
  bool ready() const;
  /// Blocks until ready.
  void wait() const;
  /// Bounded wait; true when the result became available in time.
  bool wait_for(std::chrono::milliseconds timeout) const;

  /// Blocks until ready and returns the result. A cancelled ticket yields
  /// a failed JobResult (error "cancelled before dispatch"); an execution
  /// failure of the whole dispatch rethrows its exception. Callable any
  /// number of times.
  const JobResult& result() const;

  /// Cancels the submission if it is still queued: true when this call
  /// removed it (the result becomes the cancellation failure above),
  /// false when the job was already dispatched, done, or cancelled.
  bool cancel();

 private:
  friend class SubmissionQueue;
  Ticket(std::shared_ptr<detail::TicketEntry> entry,
         std::shared_ptr<detail::QueueCore> core)
      : entry_(std::move(entry)), core_(std::move(core)) {}

  const detail::TicketEntry& checked() const;

  std::shared_ptr<detail::TicketEntry> entry_;
  std::shared_ptr<detail::QueueCore> core_;
};

/// The admission queue itself. One dispatcher thread; thread-safe
/// submit/run/cancel/depth from any number of callers.
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

  /// Enqueues one job. Throws std::runtime_error after shutdown().
  Ticket submit(Job job);
  /// Enqueues a whole batch atomically: all jobs land in the queue under
  /// one lock, so a flush can never split them across dispatches.
  std::vector<Ticket> submit_batch(std::vector<Job> jobs);

  /// Executes a batch and blocks until its results, aligned with `jobs`,
  /// are back. On an idle queue the dispatch runs on this thread (see the
  /// file comment); otherwise the jobs go through submit_batch() and may
  /// share a flush. Either way
  /// the results are the same. Rethrows a dispatch-level failure; throws
  /// std::runtime_error after shutdown(), like submit_batch().
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
  std::atomic<std::uint64_t> next_id_{1};
  std::mutex join_mutex_;  ///< serializes shutdown()'s join
  std::thread dispatcher_;
};

}  // namespace mpsched::engine
