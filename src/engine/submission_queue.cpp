#include "engine/submission_queue.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <iterator>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace mpsched::engine {

namespace {

JobResult cancelled_result(const Job& job) {
  JobResult r;
  r.job = job.resolved_name();
  r.workload = job.workload;
  r.backend = job.backend;
  r.transforms = job.transforms;
  r.nodes = job.dfg.node_count();
  r.edges = job.dfg.edge_count();
  r.success = false;
  r.error = "cancelled before dispatch";
  return r;
}

obs::Gauge& depth_gauge() {
  static obs::Gauge& gauge = obs::Registry::global().gauge("queue.depth");
  return gauge;
}

obs::Histogram& coalesce_jobs_histogram() {
  static obs::Histogram& histogram = obs::Registry::global().histogram(
      "queue.coalesce_jobs", {1, 2, 4, 8, 16, 32, 64, 128});
  return histogram;
}

constexpr const char* kStoppedError =
    "Engine: submit after shutdown (the queue is drained)";

/// Admission accounting shared by submit_batch() and run(), under the
/// queue mutex: queue.submitted, and queue.max_depth at `depth` (the jobs
/// queued with these admitted).
void admit(std::size_t jobs, std::size_t depth) {
  static obs::Counter& submitted = obs::Registry::global().counter("queue.submitted");
  static obs::Gauge& max_depth = obs::Registry::global().gauge("queue.max_depth");
  submitted.add(jobs);
  max_depth.set_max(static_cast<std::int64_t>(depth));
}

/// How long one submission's jobs sat queued: queue.wait_ms, recorded
/// once with the job count (every job of a submission waits alike), and
/// per job a retroactive queue.wait span (the wait happened off the
/// flushing thread's stack, so the span goes onto the exporter's
/// synthetic queue tracks). A caller-run flush passes `flushed` as
/// `enqueued`, so its waits are zero.
void record_waits(const std::vector<Job>& jobs, std::chrono::steady_clock::time_point enqueued,
                  std::chrono::steady_clock::time_point flushed) {
  const bool tracing = obs::tracing_enabled();
  if (!obs::metrics_enabled() && !tracing) return;
  static obs::Histogram& wait_ms = obs::Registry::global().histogram("queue.wait_ms");
  const double waited = std::chrono::duration<double, std::milli>(flushed - enqueued).count();
  wait_ms.record(waited, jobs.size());
  if (!tracing) return;
  // The span start comes from the enqueue stamp converted to trace
  // nanoseconds directly — a round-trip through the fractional-ms double
  // above would lose sub-microsecond precision and could put a near-zero
  // wait's start past its end. Clamped so the span length stays >= 0
  // even across clock-read jitter.
  const std::int64_t flush_ns = obs::trace_ns_of(flushed);
  const std::int64_t start_ns = std::min(obs::trace_ns_of(enqueued), flush_ns);
  for (const Job& job : jobs) obs::record_span("queue.wait", start_ns, flush_ns, job.workload);
}

/// Marks a caller-run dispatch finished, on return or throw, and wakes
/// the dispatcher when it has work: jobs queued meanwhile, or a shutdown.
/// Notifies under the lock, so the queue cannot be torn down between the
/// flag and the wake-up.
class CallerDispatch {
 public:
  explicit CallerDispatch(detail::QueueCore& core) : core_(core) {}
  ~CallerDispatch() {
    std::lock_guard lock(core_.mutex);
    core_.dispatching = false;
    if (core_.stop || !core_.pending.empty()) core_.cv.notify_all();
  }
  CallerDispatch(const CallerDispatch&) = delete;
  CallerDispatch& operator=(const CallerDispatch&) = delete;

 private:
  detail::QueueCore& core_;
};

/// Dispatch output is checked against its input before anyone sees it.
void check_result_count(std::size_t results, std::size_t jobs) {
  if (results != jobs)
    throw std::logic_error("SubmissionQueue: dispatch returned " + std::to_string(results) +
                           " results for " + std::to_string(jobs) + " jobs");
}

}  // namespace

std::uint64_t coalesced_dispatches() {
  const obs::Histogram& flushes = coalesce_jobs_histogram();
  std::uint64_t coalesced = 0;
  for (std::size_t i = 1; i <= flushes.bounds().size(); ++i) coalesced += flushes.bucket(i);
  return coalesced;
}

// ---------------------------------------------------------------------------
// Ticket
// ---------------------------------------------------------------------------

Ticket::Ticket(std::shared_ptr<detail::Submission> submission,
               std::shared_ptr<detail::QueueCore> core, std::size_t size)
    : submission_(std::move(submission)),
      core_(std::move(core)),
      results_(submission_->promise.get_future()),
      size_(size) {}

bool Ticket::ready() const {
  return results_.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
}

std::vector<JobResult> Ticket::take() { return results_.get(); }

bool Ticket::cancel() {
  static obs::Counter& cancelled = obs::Registry::global().counter("queue.cancelled");
  // The queue lock decides the race against a concurrent flush: the
  // dispatcher takes submissions out of the queue under the same lock,
  // so exactly one side finds this one still there.
  detail::Submission& submission = *submission_;
  {
    std::lock_guard lock(core_->mutex);
    if (std::erase(core_->pending, submission_) == 0) return false;
    core_->queued_jobs -= submission.jobs.size();
    cancelled.add(submission.jobs.size());
    depth_gauge().set(static_cast<std::int64_t>(core_->queued_jobs));
  }
  std::vector<JobResult> results;
  results.reserve(submission.jobs.size());
  for (const Job& job : submission.jobs) results.push_back(cancelled_result(job));
  submission.promise.set_value(std::move(results));
  return true;
}

// ---------------------------------------------------------------------------
// SubmissionQueue
// ---------------------------------------------------------------------------

SubmissionQueue::SubmissionQueue(
    std::function<std::vector<JobResult>(std::vector<Job>)> dispatch)
    : dispatch_(std::move(dispatch)), core_(std::make_shared<detail::QueueCore>()) {
  if (dispatch_ == nullptr)
    throw std::invalid_argument("SubmissionQueue: a dispatch function is required");
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

SubmissionQueue::~SubmissionQueue() { shutdown(); }

Ticket SubmissionQueue::submit_batch(std::vector<Job> jobs) {
  const std::size_t count = jobs.size();
  auto submission = std::make_shared<detail::Submission>();
  Ticket ticket(submission, core_, count);
  if (count == 0) {
    submission->promise.set_value({});
    return ticket;
  }
  submission->jobs = std::move(jobs);
  submission->enqueued = std::chrono::steady_clock::now();
  {
    std::lock_guard lock(core_->mutex);
    if (core_->stop) throw std::runtime_error(kStoppedError);
    core_->pending.push_back(std::move(submission));
    core_->queued_jobs += count;
    admit(count, core_->queued_jobs);
    depth_gauge().set(static_cast<std::int64_t>(core_->queued_jobs));
  }
  core_->cv.notify_all();
  return ticket;
}

std::vector<JobResult> SubmissionQueue::run(std::vector<Job> jobs) {
  static obs::Counter& caller_dispatches =
      obs::Registry::global().counter("queue.caller_dispatches");
  if (jobs.empty()) return {};

  const auto now = std::chrono::steady_clock::now();
  bool caller_runs = false;
  {
    std::lock_guard lock(core_->mutex);
    if (core_->stop) throw std::runtime_error(kStoppedError);
    // Exactly the flush the dispatcher would make at once: it is free,
    // and nothing would share the flush.
    caller_runs = !core_->dispatching && core_->pending.empty();
    if (caller_runs) {
      admit(jobs.size(), jobs.size());
      core_->dispatching = true;
    }
  }
  if (!caller_runs) return submit_batch(std::move(jobs)).take();

  const CallerDispatch busy(*core_);
  coalesce_jobs_histogram().record(static_cast<double>(jobs.size()));
  record_waits(jobs, now, now);
  caller_dispatches.add();
  const std::size_t count = jobs.size();
  std::vector<JobResult> results = dispatch_(std::move(jobs));
  check_result_count(results.size(), count);
  return results;
}

void SubmissionQueue::shutdown() {
  {
    std::lock_guard lock(core_->mutex);
    core_->stop = true;
  }
  core_->cv.notify_all();
  // A dedicated join lock makes shutdown() idempotent *and* safe to call
  // concurrently (join() on one std::thread from two threads is UB).
  std::lock_guard join_lock(join_mutex_);
  if (dispatcher_.joinable()) dispatcher_.join();
}

std::size_t SubmissionQueue::depth() const {
  std::lock_guard lock(core_->mutex);
  return core_->queued_jobs;
}

void SubmissionQueue::dispatcher_loop() {
  detail::QueueCore& core = *core_;
  std::unique_lock lock(core.mutex);
  for (;;) {
    // A caller-run dispatch (run()) keeps the queue busy; the next flush
    // waits for it, and so does the exit after a shutdown.
    core.cv.wait(lock, [&] {
      return !core.dispatching && (core.stop || !core.pending.empty());
    });
    if (core.pending.empty()) return;  // stopped, and nothing left to drain

    // Flush: take every queued submission. They leave the queue under
    // the lock, so cancel() can no longer find them.
    std::vector<std::shared_ptr<detail::Submission>> flush(
        std::make_move_iterator(core.pending.begin()),
        std::make_move_iterator(core.pending.end()));
    core.pending.clear();
    const std::size_t count = core.queued_jobs;
    core.queued_jobs = 0;
    core.dispatching = true;
    depth_gauge().set(0);
    lock.unlock();

    const auto flushed = std::chrono::steady_clock::now();
    coalesce_jobs_histogram().record(static_cast<double>(count));
    std::vector<Job> jobs;
    jobs.reserve(count);
    for (const auto& submission : flush) {
      record_waits(submission->jobs, submission->enqueued, flushed);
      std::move(submission->jobs.begin(), submission->jobs.end(), std::back_inserter(jobs));
    }
    std::vector<JobResult> results;
    std::exception_ptr failure;
    try {
      results = dispatch_(std::move(jobs));
      check_result_count(results.size(), count);
    } catch (...) {
      // A dispatch-level failure (not a per-job error — those come back as
      // failed JobResults) fails every submission of the flush.
      failure = std::current_exception();
    }
    // The queue is free before any ticket resolves, so a caller woken by
    // its results may run its next batch itself.
    lock.lock();
    core.dispatching = false;
    lock.unlock();
    // Each submission takes its slice of the results; its jobs vector was
    // moved from, but still holds its job count.
    auto next = std::make_move_iterator(results.begin());
    for (const auto& submission : flush) {
      if (failure) {
        submission->promise.set_exception(failure);
        continue;
      }
      const auto end = next + static_cast<std::ptrdiff_t>(submission->jobs.size());
      submission->promise.set_value(std::vector<JobResult>(next, end));
      next = end;
    }

    lock.lock();
  }
}

}  // namespace mpsched::engine
