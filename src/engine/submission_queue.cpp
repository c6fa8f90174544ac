#include "engine/submission_queue.hpp"

#include <chrono>
#include <exception>
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
/// queue mutex: queue.submitted, and queue.max_depth at `depth` (the queue
/// with these jobs admitted).
void admit(std::size_t jobs, std::size_t depth) {
  static obs::Counter& submitted = obs::Registry::global().counter("queue.submitted");
  static obs::Gauge& max_depth = obs::Registry::global().gauge("queue.max_depth");
  submitted.add(jobs);
  max_depth.set_max(static_cast<std::int64_t>(depth));
}

/// Flush telemetry shared by the dispatcher's flushes and run()'s
/// caller-run ones: the flush's size, and per job how long it sat queued
/// — queue.wait_ms and a retroactive queue.wait span (the wait happened
/// off the flushing thread's stack, so the span goes onto the exporter's
/// synthetic queue tracks). `enqueued_at(i)` is job i's admission stamp;
/// a caller-run flush passes `flushed` itself, so its waits are zero.
template <typename EnqueuedAt>
void record_flush(const std::vector<Job>& jobs, std::chrono::steady_clock::time_point flushed,
                  EnqueuedAt enqueued_at) {
  const bool tracing = obs::tracing_enabled();
  if (!obs::metrics_enabled() && !tracing) return;
  static obs::Histogram& wait_ms = obs::Registry::global().histogram("queue.wait_ms");
  coalesce_jobs_histogram().record(static_cast<double>(jobs.size()));
  const std::int64_t flush_ns = obs::trace_ns_of(flushed);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const std::chrono::steady_clock::time_point enqueued = enqueued_at(i);
    wait_ms.record(std::chrono::duration<double, std::milli>(flushed - enqueued).count());
    if (!tracing) continue;
    // The span start comes from the enqueue stamp converted to trace
    // nanoseconds directly — a round-trip through the fractional-ms
    // double above would lose sub-microsecond precision and could put a
    // near-zero wait's start past its end. Clamped so the span length
    // stays >= 0 even across clock-read jitter.
    std::int64_t start_ns = obs::trace_ns_of(enqueued);
    if (start_ns > flush_ns) start_ns = flush_ns;
    obs::record_span("queue.wait", start_ns, flush_ns, jobs[i].workload);
  }
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

const detail::TicketEntry& Ticket::checked() const {
  if (entry_ == nullptr) throw std::logic_error("Ticket: default-constructed (invalid)");
  return *entry_;
}

std::uint64_t Ticket::id() const { return checked().id; }

TicketState Ticket::state() const {
  return checked().state.load(std::memory_order_acquire);
}

bool Ticket::ready() const {
  return checked().future.wait_for(std::chrono::seconds(0)) ==
         std::future_status::ready;
}

void Ticket::wait() const { checked().future.wait(); }

bool Ticket::wait_for(std::chrono::milliseconds timeout) const {
  return checked().future.wait_for(timeout) == std::future_status::ready;
}

const JobResult& Ticket::result() const { return checked().future.get(); }

bool Ticket::cancel() {
  static obs::Counter& cancelled = obs::Registry::global().counter("queue.cancelled");
  checked();
  // The queue lock decides the race against a concurrent flush: the
  // dispatcher marks entries Dispatched under the same lock, so exactly
  // one side wins, and a won cancel can still find its entry in pending.
  std::unique_lock lock(core_->mutex);
  if (entry_->state.load(std::memory_order_acquire) != TicketState::Queued)
    return false;
  entry_->state.store(TicketState::Cancelled, std::memory_order_release);
  for (auto it = core_->pending.begin(); it != core_->pending.end(); ++it)
    if (it->get() == entry_.get()) {
      core_->pending.erase(it);
      break;
    }
  cancelled.add();
  depth_gauge().set(static_cast<std::int64_t>(core_->pending.size()));
  lock.unlock();
  entry_->promise.set_value(cancelled_result(entry_->job));
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

Ticket SubmissionQueue::submit(Job job) {
  std::vector<Job> one;
  one.push_back(std::move(job));
  return submit_batch(std::move(one)).front();
}

std::vector<Ticket> SubmissionQueue::submit_batch(std::vector<Job> jobs) {
  std::vector<Ticket> tickets;
  tickets.reserve(jobs.size());
  if (jobs.empty()) return tickets;

  const auto now = std::chrono::steady_clock::now();
  std::vector<std::shared_ptr<detail::TicketEntry>> entries;
  entries.reserve(jobs.size());
  for (Job& job : jobs) {
    auto entry = std::make_shared<detail::TicketEntry>();
    entry->id = next_id_.fetch_add(1, std::memory_order_relaxed);
    entry->job = std::move(job);
    entry->future = entry->promise.get_future().share();
    entry->enqueued = now;
    entries.push_back(std::move(entry));
  }

  {
    std::lock_guard lock(core_->mutex);
    if (core_->stop) throw std::runtime_error(kStoppedError);
    for (auto& entry : entries) core_->pending.push_back(entry);
    admit(entries.size(), core_->pending.size());
    depth_gauge().set(static_cast<std::int64_t>(core_->pending.size()));
  }
  core_->cv.notify_all();

  for (auto& entry : entries) tickets.push_back(Ticket(std::move(entry), core_));
  return tickets;
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

  if (!caller_runs) {
    std::vector<JobResult> results;
    results.reserve(jobs.size());
    for (const Ticket& ticket : submit_batch(std::move(jobs)))
      results.push_back(ticket.result());
    return results;
  }

  const CallerDispatch busy(*core_);
  record_flush(jobs, now, [now](std::size_t) { return now; });
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
  return core_->pending.size();
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

    // Flush: take everything queued. Entries are marked Dispatched under
    // the lock, so cancel() can no longer win on them.
    std::vector<std::shared_ptr<detail::TicketEntry>> batch(
        core.pending.begin(), core.pending.end());
    core.pending.clear();
    core.dispatching = true;
    for (auto& entry : batch)
      entry->state.store(TicketState::Dispatched, std::memory_order_release);
    depth_gauge().set(0);
    lock.unlock();

    std::vector<Job> jobs;
    jobs.reserve(batch.size());
    for (auto& entry : batch) jobs.push_back(std::move(entry->job));
    record_flush(jobs, std::chrono::steady_clock::now(),
                 [&batch](std::size_t i) { return batch[i]->enqueued; });
    std::vector<JobResult> results;
    std::exception_ptr failure;
    try {
      results = dispatch_(std::move(jobs));
      check_result_count(results.size(), batch.size());
    } catch (...) {
      // A dispatch-level failure (not a per-job error — those come back as
      // failed JobResults) fails every ticket of the dispatch.
      failure = std::current_exception();
    }
    // The queue is free before any ticket resolves, so a caller woken by
    // its results may run its next batch itself.
    lock.lock();
    core.dispatching = false;
    lock.unlock();
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i]->state.store(TicketState::Done, std::memory_order_release);
      if (failure)
        batch[i]->promise.set_exception(failure);
      else
        batch[i]->promise.set_value(std::move(results[i]));
    }

    lock.lock();
  }
}

}  // namespace mpsched::engine
