// The asynchronous submission surface (engine/submission_queue +
// Engine::submit_batch): the ticket lifecycle of a whole submission,
// fan-in determinism (the same corpus submitted as one-job batches from
// concurrent threads, pre-batched, or queued behind a dispatch in flight
// serializes byte-identically to one run_batch), per-job analysis
// attribution, all-or-nothing cancellation (also against a racing flush),
// a failed dispatch failing every submission of its flush, queue-draining
// shutdown, and the blocking run(): which thread runs its dispatch, that
// caller-run and dispatcher-run dispatches never overlap, and that nothing
// queued or shut down around a caller-run dispatch is lost. Jobs are kept
// queued by a dispatch in flight: ProbeDispatch holds every dispatch at a
// test-controlled gate.
#include "engine/submission_queue.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/engine.hpp"
#include "io/result_io.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"

namespace mpsched {
namespace {

using engine::AnalysisSource;
using engine::Engine;
using engine::Job;
using engine::JobResult;
using engine::Ticket;

/// Mixed corpus with duplicates so dedup/attribution counters move.
std::vector<Job> fanin_corpus() {
  std::vector<Job> jobs;
  jobs.push_back(Job::from_workload("paper_3dft"));
  jobs.push_back(Job::from_workload("small_example"));
  jobs.push_back(Job::from_workload("fir(8)"));
  jobs.push_back(Job::from_workload("paper_3dft"));  // duplicate of jobs[0]
  jobs.push_back(Job::from_workload("small_example"));
  jobs.push_back(Job::from_workload("dct8"));
  jobs.push_back(Job::from_workload("stencil5(3,3)"));
  jobs.push_back(Job::from_workload("fir(8)"));
  return jobs;
}

/// Serializes a result list exactly like a results document does.
std::string results_fingerprint(const std::vector<JobResult>& results) {
  std::string out;
  for (const JobResult& r : results) out += result_to_json(r).dump(-1) + "\n";
  return out;
}

/// A dispatch function for raw queues: records each dispatch's size (so
/// coalescing shape is observable) and the thread that ran it, tracks how
/// many dispatches are in flight at once, can hold every dispatch at its
/// start until the test opens the gate, and can fail one dispatch
/// instead. It executes nothing and echoes per-job successes, unless
/// `execute` is set to run the jobs.
struct ProbeDispatch {
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::thread::id> threads;
  std::vector<std::size_t> sizes;
  bool gate_closed = false;
  std::optional<std::size_t> fail_at;  ///< this dispatch (0-based) throws
  std::atomic<int> in_flight{0};
  std::atomic<int> max_in_flight{0};
  std::chrono::microseconds work{0};  ///< time each dispatch stays in flight
  std::function<std::vector<JobResult>(std::vector<Job>)> execute;

  std::function<std::vector<JobResult>(std::vector<Job>)> fn() {
    return [this](std::vector<Job> jobs) { return run(std::move(jobs)); };
  }

  std::vector<JobResult> run(std::vector<Job> jobs) {
    const int now = in_flight.fetch_add(1) + 1;
    int seen = max_in_flight.load();
    while (seen < now && !max_in_flight.compare_exchange_weak(seen, now)) {
    }
    bool throw_now = false;
    {
      std::unique_lock lock(mutex);
      throw_now = fail_at == sizes.size();
      threads.push_back(std::this_thread::get_id());
      sizes.push_back(jobs.size());
      cv.notify_all();
      cv.wait(lock, [&] { return !gate_closed; });
    }
    std::this_thread::sleep_for(work);
    in_flight.fetch_sub(1);
    if (throw_now) throw std::runtime_error("probe dispatch failed");
    if (execute) return execute(std::move(jobs));
    std::vector<JobResult> results;
    for (const Job& job : jobs) {
      JobResult r;
      r.job = job.resolved_name();
      r.success = true;
      results.push_back(std::move(r));
    }
    return results;
  }

  void close_gate() {
    std::lock_guard lock(mutex);
    gate_closed = true;
  }
  void open_gate() {
    {
      std::lock_guard lock(mutex);
      gate_closed = false;
    }
    cv.notify_all();
  }
  /// Blocks until `n` dispatches have started.
  void await_dispatches(std::size_t n) {
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return sizes.size() >= n; });
  }
  std::thread::id thread_of(std::size_t dispatch) {
    std::lock_guard lock(mutex);
    return threads.at(dispatch);
  }
};

std::vector<Job> small_jobs(std::size_t n) {
  return std::vector<Job>(n, Job::from_workload("small_example"));
}

/// Polls until the queue holds `n` jobs; false after a generous timeout.
bool await_depth(const engine::SubmissionQueue& queue, std::size_t n) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (queue.depth() != n) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Polls until the ticket is ready; false when `timeout` passes first.
bool await_ready(const Ticket& ticket, std::chrono::milliseconds timeout) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!ticket.ready()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Submits one job and returns once its dispatch has started: with the
/// probe's gate closed, that dispatch holds the queue, and every job
/// submitted afterwards stays queued until the gate opens.
Ticket plug_queue(engine::SubmissionQueue& queue, ProbeDispatch& probe) {
  Ticket plug = queue.submit_batch(small_jobs(1));
  probe.await_dispatches(1);
  return plug;
}

/// One-job submissions of `jobs`, in order.
std::vector<Ticket> submit_each(engine::SubmissionQueue& queue, const std::vector<Job>& jobs) {
  std::vector<Ticket> tickets;
  for (const Job& job : jobs) tickets.push_back(queue.submit_batch({job}));
  return tickets;
}

/// Takes each ticket's one result, in order.
std::vector<JobResult> take_each(std::vector<Ticket>& tickets) {
  std::vector<JobResult> results;
  for (Ticket& ticket : tickets) results.push_back(std::move(ticket.take().at(0)));
  return results;
}

/// Counts the "cancelled before dispatch" failures among `results`.
std::size_t cancelled_count(const std::vector<JobResult>& results) {
  std::size_t n = 0;
  for (const JobResult& r : results)
    if (!r.success && r.error == "cancelled before dispatch") ++n;
  return n;
}

/// Calls queue.shutdown() on a new thread and returns that thread once the
/// shutdown has latched (the queue refuses work). shutdown() joins the
/// dispatcher, so `stopped` turns true only after the final drain.
std::thread shutdown_in_background(engine::SubmissionQueue& queue,
                                   std::atomic<bool>& stopped) {
  std::thread stopper([&queue, &stopped] {
    queue.shutdown();
    stopped = true;
  });
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (std::chrono::steady_clock::now() < deadline) {
    try {
      queue.submit_batch(small_jobs(1)).cancel();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    } catch (const std::runtime_error&) {
      break;
    }
  }
  return stopper;
}

TEST(Ticket, SubmitRunsOneJobToCompletion) {
  Engine engine;
  Ticket ticket = engine.submit_batch({Job::from_workload("small_example")});
  EXPECT_EQ(ticket.size(), 1u);
  ASSERT_TRUE(await_ready(ticket, std::chrono::seconds(20)));
  const std::vector<JobResult> results = ticket.take();
  ASSERT_EQ(results.size(), 1u);
  const JobResult& result = results.front();
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.job, "small_example");
  EXPECT_EQ(result.analysis_source, AnalysisSource::Computed);

  Engine reference;
  EXPECT_EQ(result_to_json(result).dump(-1),
            result_to_json(reference.run(Job::from_workload("small_example"))).dump(-1));
}

TEST(Ticket, WaitForTimesOutOnHeldQueueThenCompletes) {
  // The queue is held by a dispatch in flight, so the submission stays
  // queued, and a bounded wait on it times out, until the gate opens.
  ProbeDispatch probe;
  probe.close_gate();
  engine::SubmissionQueue queue(probe.fn());
  plug_queue(queue, probe);
  Ticket ticket = queue.submit_batch(small_jobs(2));
  EXPECT_FALSE(ticket.ready());
  EXPECT_FALSE(await_ready(ticket, std::chrono::milliseconds(10)));
  probe.open_gate();
  EXPECT_TRUE(await_ready(ticket, std::chrono::seconds(20)));
  const std::vector<JobResult> results = ticket.take();
  ASSERT_EQ(results.size(), 2u);
  for (const JobResult& r : results) EXPECT_TRUE(r.success);
}

TEST(SubmissionQueue, FanInDeterminism) {
  const std::vector<Job> jobs = fanin_corpus();
  Engine reference;
  const engine::BatchResult expected_batch = reference.run_batch(jobs);
  const std::string expected = results_fingerprint(expected_batch.jobs);

  // (a) one submit_batch — atomically enqueued, one dispatch.
  {
    Engine engine;
    Ticket ticket = engine.submit_batch(jobs);
    EXPECT_EQ(ticket.size(), jobs.size());
    EXPECT_EQ(results_fingerprint(ticket.take()), expected);
  }

  // (b) one-job batches from 4 concurrent threads — any coalescing the
  // queue happens to do must not leak into any result.
  {
    Engine engine;
    std::vector<std::optional<Ticket>> tickets(jobs.size());
    std::vector<std::thread> threads;
    std::atomic<std::size_t> next{0};
    for (int t = 0; t < 4; ++t)
      threads.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < jobs.size(); i = next.fetch_add(1))
          tickets[i].emplace(engine.submit_batch({jobs[i]}));
      });
    for (std::thread& t : threads) t.join();
    std::vector<JobResult> results;
    for (std::optional<Ticket>& t : tickets) results.push_back(std::move(t->take().at(0)));
    EXPECT_EQ(results_fingerprint(results), expected);
  }

  // (c) forced coalescing: a plug job's dispatch holds the queue while
  // the jobs are submitted as one-job batches, so they all queue behind
  // it and the next flush dispatches them as one shared batch, executed
  // by a real engine. The high-water mark is process-wide and cannot be
  // read as a delta, so it starts from zero here.
  {
    obs::Registry::global().gauge("queue.max_depth").reset();
    Engine engine;
    ProbeDispatch probe;
    probe.execute = [&engine](std::vector<Job> batch) {
      return engine.run_batch(std::move(batch)).jobs;
    };
    probe.close_gate();
    engine::SubmissionQueue queue(probe.fn());
    Ticket plug = plug_queue(queue, probe);
    std::vector<Ticket> tickets = submit_each(queue, jobs);
    probe.open_gate();
    EXPECT_EQ(results_fingerprint(take_each(tickets)), expected);
    EXPECT_TRUE(plug.take().at(0).success);
    {
      std::lock_guard lock(probe.mutex);
      EXPECT_EQ(probe.sizes, (std::vector<std::size_t>{1, jobs.size()}));
    }
    EXPECT_EQ(obs::Registry::global().gauge("queue.max_depth").value(),
              static_cast<std::int64_t>(jobs.size()));
  }
}

TEST(SubmissionQueue, PerJobAttributionMatchesBatchCounters) {
  const std::vector<Job> jobs = fanin_corpus();
  Engine engine;
  const engine::BatchResult batch = engine.run_batch(jobs);
  std::size_t computed = 0, reused = 0;
  for (const JobResult& r : batch.jobs) {
    if (r.analysis_source == AnalysisSource::Computed) ++computed;
    else if (r.analysis_source == AnalysisSource::Reused) ++reused;
  }
  EXPECT_EQ(computed, batch.analyses_computed);
  EXPECT_EQ(reused, batch.analyses_reused);
  EXPECT_GT(computed, 0u);
  EXPECT_GT(reused, 0u);  // the corpus carries duplicates
}

TEST(SubmissionQueue, CancelQueuedTicket) {
  // Cancelling a queued 3-job submission takes all three jobs out of the
  // queue: each resolves as a cancellation failure and is counted.
  obs::Counter& cancellations = obs::Registry::global().counter("queue.cancelled");
  const std::uint64_t cancelled_before = cancellations.value();
  ProbeDispatch probe;
  probe.close_gate();
  engine::SubmissionQueue queue(probe.fn());
  plug_queue(queue, probe);
  Ticket doomed = queue.submit_batch(
      {Job::from_workload("small_example"), Job::from_workload("dct8"),
       Job::from_workload("fir(8)")});
  Ticket survivor = queue.submit_batch({Job::from_workload("paper_3dft")});
  EXPECT_EQ(queue.depth(), 4u);

  EXPECT_TRUE(doomed.cancel());
  EXPECT_EQ(queue.depth(), 1u);
  EXPECT_TRUE(doomed.ready());  // cancellation resolves the ticket
  EXPECT_FALSE(doomed.cancel());  // second cancel: already cancelled
  const std::vector<JobResult> results = doomed.take();
  ASSERT_EQ(results.size(), 3u);
  EXPECT_EQ(cancelled_count(results), 3u);
  EXPECT_EQ(results[0].job, "small_example");
  EXPECT_EQ(results[1].job, "dct8");
  EXPECT_EQ(results[2].job, "fir(8)");
  EXPECT_EQ(cancellations.value() - cancelled_before, 3u);

  probe.open_gate();  // the next flush carries only the survivor
  const std::vector<JobResult> survived = survivor.take();
  ASSERT_EQ(survived.size(), 1u);
  EXPECT_TRUE(survived.front().success);
  EXPECT_EQ(survived.front().job, "paper_3dft");
  std::lock_guard lock(probe.mutex);
  EXPECT_EQ(probe.sizes, (std::vector<std::size_t>{1, 1}));  // the cancelled jobs never dispatched
}

TEST(SubmissionQueue, CancelRacingAFlushIsAllOrNothing) {
  // A cancel issued right after submit_batch races the dispatcher's
  // flush. Whichever side wins takes the whole submission: either every
  // job is a cancellation failure and none was dispatched, or none is
  // and the submission rode one dispatch whole.
  ProbeDispatch probe;
  engine::SubmissionQueue queue(probe.fn());
  obs::Counter& cancellations = obs::Registry::global().counter("queue.cancelled");
  const std::uint64_t cancelled_before = cancellations.value();
  constexpr std::size_t kRounds = 300;
  std::size_t cancelled = 0;
  for (std::size_t round = 0; round < kRounds; ++round) {
    Ticket ticket = queue.submit_batch(small_jobs(3));
    if (round % 2 == 1) std::this_thread::yield();
    const bool won = ticket.cancel();
    const std::vector<JobResult> results = ticket.take();
    ASSERT_EQ(results.size(), 3u);
    ASSERT_EQ(cancelled_count(results), won ? 3u : 0u) << "round " << round;
    if (won) ++cancelled;
  }
  EXPECT_EQ(cancellations.value() - cancelled_before, 3 * cancelled);
  std::lock_guard lock(probe.mutex);
  EXPECT_EQ(probe.sizes, std::vector<std::size_t>(kRounds - cancelled, 3u));
}

TEST(SubmissionQueue, FailedDispatchFailsEverySubmissionOfItsFlush) {
  // A dispatch-level failure is rethrown by take() on every submission
  // that shared the failed flush; the next flush runs normally.
  ProbeDispatch probe;
  probe.close_gate();
  probe.fail_at = 1;
  engine::SubmissionQueue queue(probe.fn());
  Ticket plug = plug_queue(queue, probe);
  std::vector<Ticket> shared;
  shared.push_back(queue.submit_batch(small_jobs(2)));
  shared.push_back(queue.submit_batch(small_jobs(1)));
  shared.push_back(queue.submit_batch(small_jobs(3)));
  probe.open_gate();
  EXPECT_TRUE(plug.take().at(0).success);
  for (Ticket& ticket : shared) EXPECT_THROW(ticket.take(), std::runtime_error);
  EXPECT_EQ(queue.submit_batch(small_jobs(2)).take().size(), 2u);
  std::lock_guard lock(probe.mutex);
  EXPECT_EQ(probe.sizes, (std::vector<std::size_t>{1, 6, 2}));
}

TEST(SubmissionQueue, CancelAfterCompletionFails) {
  Engine engine;
  Ticket ticket = engine.submit_batch({Job::from_workload("small_example")});
  ASSERT_TRUE(await_ready(ticket, std::chrono::seconds(20)));
  EXPECT_FALSE(ticket.cancel());
  EXPECT_TRUE(ticket.take().at(0).success);
}

TEST(SubmissionQueue, ShutdownDrainsQueuedJobs) {
  std::vector<Ticket> tickets;
  {
    ProbeDispatch probe;
    probe.close_gate();
    engine::SubmissionQueue queue(probe.fn());
    plug_queue(queue, probe);
    tickets = submit_each(queue, fanin_corpus());
    for (const Ticket& t : tickets) EXPECT_FALSE(t.ready());
    // Shut down while the jobs are still queued: the dispatcher must flush
    // them once the dispatch in flight ends, not exit.
    std::atomic<bool> stopped{false};
    std::thread stopper = shutdown_in_background(queue, stopped);
    EXPECT_EQ(queue.depth(), tickets.size());
    EXPECT_FALSE(stopped.load());  // still waiting on the dispatch in flight
    probe.open_gate();
    stopper.join();
    for (const Ticket& t : tickets) EXPECT_TRUE(t.ready());
    {
      std::lock_guard lock(probe.mutex);
      EXPECT_EQ(probe.sizes, (std::vector<std::size_t>{1, tickets.size()}));
    }

    // Submitting after shutdown is refused loudly.
    EXPECT_THROW(queue.submit_batch(small_jobs(1)), std::runtime_error);
    EXPECT_THROW(queue.run(fanin_corpus()), std::runtime_error);
    EXPECT_NO_THROW(queue.shutdown());  // idempotent
  }
  // Tickets outlive the queue: shared state keeps every result reachable.
  for (const JobResult& r : take_each(tickets)) EXPECT_TRUE(r.success);
}

TEST(SubmissionQueue, DestructorDrainsWithoutExplicitShutdown) {
  std::vector<Ticket> tickets;
  {
    ProbeDispatch probe;
    probe.close_gate();
    engine::SubmissionQueue queue(probe.fn());
    plug_queue(queue, probe);
    tickets = submit_each(queue, fanin_corpus());
    probe.open_gate();
  }  // ~SubmissionQueue: queue drains, every promise resolves — ASan gates leaks
  for (const Ticket& t : tickets) EXPECT_TRUE(t.ready());
  for (const JobResult& r : take_each(tickets)) EXPECT_TRUE(r.success);
}

TEST(SubmissionQueue, FlushOnIdleCoalescesWhileDispatchInFlight) {
  // How the queue coalesces: a lone submission dispatches immediately,
  // and whatever arrives while that dispatch is executing accumulates and
  // rides the next flush together. Tested on a raw SubmissionQueue whose
  // dispatch function blocks on a test-controlled gate, so "while the
  // dispatch is in flight" is deterministic, not a timing accident.
  obs::Histogram& wait_ms = obs::Registry::global().histogram("queue.wait_ms");
  const std::uint64_t waits_before = wait_ms.count();
  ProbeDispatch probe;
  probe.close_gate();
  engine::SubmissionQueue queue(probe.fn());

  // The first job flushes alone, immediately — the dispatcher was idle.
  Ticket first = plug_queue(queue, probe);

  Ticket three = queue.submit_batch(small_jobs(3));
  Ticket one = queue.submit_batch(small_jobs(1));
  EXPECT_EQ(queue.depth(), 4u);  // queued behind the in-flight dispatch

  probe.open_gate();
  EXPECT_EQ(first.take().size(), 1u);
  EXPECT_EQ(three.take().size(), 3u);
  EXPECT_EQ(one.take().at(0).job, "small_example");
  {
    std::lock_guard lock(probe.mutex);
    EXPECT_EQ(probe.sizes, (std::vector<std::size_t>{1, 4}));  // 1 solo + 1 shared, never 5
  }
  EXPECT_EQ(wait_ms.count() - waits_before, 5u);  // one wait sample per job
}

TEST(SubmissionQueue, RunBatchSharesTheQueueWithAsyncSubmits) {
  // A blocking run() issued while async submissions are queued must not
  // disturb them — everyone resolves, everyone is correct, and all three
  // jobs share the flush after the dispatch in flight.
  ProbeDispatch probe;
  probe.close_gate();
  engine::SubmissionQueue queue(probe.fn());
  plug_queue(queue, probe);
  Ticket async1 = queue.submit_batch({Job::from_workload("paper_3dft")});
  Ticket async2 = queue.submit_batch({Job::from_workload("dct8")});
  std::vector<JobResult> batch;
  std::thread blocking([&] { batch = queue.run({Job::from_workload("small_example")}); });
  const bool queued = await_depth(queue, 3u);
  probe.open_gate();
  blocking.join();
  EXPECT_TRUE(queued);
  ASSERT_EQ(batch.size(), 1u);
  EXPECT_TRUE(batch.front().success);
  EXPECT_EQ(batch.front().job, "small_example");
  EXPECT_EQ(async1.take().at(0).job, "paper_3dft");
  EXPECT_EQ(async2.take().at(0).job, "dct8");
  std::lock_guard lock(probe.mutex);
  EXPECT_EQ(probe.sizes, (std::vector<std::size_t>{1, 3}));  // all three shared one dispatch
}

TEST(SubmissionQueue, ShutdownBeforeFirstSubmitStillLatches) {
  // The engine starts its queue in its constructor; shutdown() before any
  // submission must still make later submissions throw — nothing may
  // restart the queue.
  Engine engine;
  engine.shutdown();
  EXPECT_THROW(engine.submit_batch({Job::from_workload("small_example")}),
               std::runtime_error);
  EXPECT_THROW(engine.run_batch({Job::from_workload("small_example")}),
               std::runtime_error);
}

TEST(SubmissionQueue, EmptySubmitBatchYieldsNoResults) {
  // An empty submission is ready at once, holds no results, cannot be
  // cancelled, and counts nothing.
  Engine engine;
  const obs::Histogram& wait_ms = obs::Registry::global().histogram("queue.wait_ms");
  const engine::EngineStats before = engine.stats();
  const std::uint64_t waits_before = wait_ms.count();
  Ticket ticket = engine.submit_batch({});
  EXPECT_EQ(ticket.size(), 0u);
  EXPECT_TRUE(ticket.ready());
  EXPECT_FALSE(ticket.cancel());
  EXPECT_TRUE(ticket.take().empty());
  const engine::EngineStats after = engine.stats();
  EXPECT_EQ(after.jobs_submitted, before.jobs_submitted);
  EXPECT_EQ(after.jobs_cancelled, before.jobs_cancelled);
  EXPECT_EQ(after.batches, before.batches);
  EXPECT_EQ(after.coalesced_dispatches, before.coalesced_dispatches);
  EXPECT_EQ(after.queue_depth, 0u);
  EXPECT_EQ(wait_ms.count(), waits_before);
}

TEST(CallerDispatch, IdleQueueRunsABlockingBatchOnTheCallingThread) {
  obs::Counter& caller_dispatches =
      obs::Registry::global().counter("queue.caller_dispatches");

  // Idle queue: the caller runs the dispatch itself.
  {
    ProbeDispatch probe;
    engine::SubmissionQueue queue(probe.fn());
    const std::uint64_t before = caller_dispatches.value();
    const std::vector<JobResult> results = queue.run(small_jobs(3));
    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results.front().job, "small_example");
    EXPECT_EQ(probe.thread_of(0), std::this_thread::get_id());
    EXPECT_EQ(caller_dispatches.value() - before, 1u);
  }

  // Busy queue: a blocking batch arriving during a dispatch queues behind
  // it and is flushed by the dispatcher, like any submit.
  {
    ProbeDispatch probe;
    probe.close_gate();
    engine::SubmissionQueue queue(probe.fn());
    const std::uint64_t before = caller_dispatches.value();
    Ticket async = plug_queue(queue, probe);
    const std::thread::id dispatcher = probe.thread_of(0);
    std::thread::id runner;
    std::size_t returned = 0;
    std::thread blocking([&] {
      runner = std::this_thread::get_id();
      returned = queue.run(small_jobs(2)).size();
    });
    const bool queued = await_depth(queue, 2u);
    probe.open_gate();
    blocking.join();
    EXPECT_TRUE(queued);
    EXPECT_EQ(returned, 2u);
    EXPECT_TRUE(async.take().at(0).success);
    EXPECT_EQ(probe.thread_of(1), dispatcher);
    EXPECT_NE(probe.thread_of(1), runner);
    EXPECT_EQ(caller_dispatches.value() - before, 0u);
  }

  // Right after a dispatcher-run flush: the dispatcher frees the queue
  // before it hands back any result, so a caller woken by its ticket finds
  // the queue idle and runs its next batch itself.
  {
    ProbeDispatch probe;
    engine::SubmissionQueue queue(probe.fn());
    const std::uint64_t before = caller_dispatches.value();
    EXPECT_TRUE(queue.submit_batch(small_jobs(1)).take().at(0).success);
    EXPECT_NE(probe.thread_of(0), std::this_thread::get_id());
    EXPECT_EQ(queue.run(small_jobs(4)).size(), 4u);
    EXPECT_EQ(probe.thread_of(1), std::this_thread::get_id());
    EXPECT_EQ(caller_dispatches.value() - before, 1u);
  }
}

TEST(CallerDispatch, MixedCallersNeverOverlapDispatches) {
  // Four threads mixing blocking run(), submit_batch() and cancel() on one
  // queue: caller-run and dispatcher-run dispatches take turns, so at most
  // one is ever in flight, and every ticket and every run() resolves. The
  // threads pause between calls at different paces, so the queue is
  // sometimes idle (run() dispatches itself) and sometimes busy.
  ProbeDispatch probe;
  probe.work = std::chrono::microseconds(100);
  engine::SubmissionQueue queue(probe.fn());
  constexpr int kThreads = 4;
  constexpr int kRounds = 30;
  std::mutex mutex;
  std::vector<Ticket> tickets;
  std::atomic<std::size_t> run_results{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        std::this_thread::sleep_for(std::chrono::microseconds(150 * (t + 1)));
        if ((t + round) % 3 == 0) {
          run_results += queue.run(small_jobs(1 + round % 3)).size();
          continue;
        }
        Ticket ticket = queue.submit_batch(small_jobs((t + round) % 3));
        if ((t + round) % 3 == 2) ticket.cancel();  // may lose to the flush; resolves either way
        std::lock_guard lock(mutex);
        tickets.push_back(std::move(ticket));
      }
    });
  for (std::thread& t : threads) t.join();

  for (const Ticket& ticket : tickets)
    ASSERT_TRUE(await_ready(ticket, std::chrono::seconds(20))) << "ticket never resolved";
  EXPECT_EQ(probe.max_in_flight.load(), 1);
  std::size_t expected_run_jobs = 0;
  for (int t = 0; t < kThreads; ++t)
    for (int round = 0; round < kRounds; ++round)
      if ((t + round) % 3 == 0) expected_run_jobs += 1 + round % 3;
  EXPECT_EQ(run_results.load(), expected_run_jobs);
}

TEST(CallerDispatch, NothingIsLostAroundACallerRunDispatch) {
  // Jobs queued while a caller runs a dispatch, and a shutdown() issued
  // during one, must both be served once it ends — whether it returns or
  // throws. The dispatcher sleeps through the caller's dispatch, so only
  // the caller's hand-back can wake it.
  for (const bool fail : {false, true}) {
    SCOPED_TRACE(fail ? "dispatch throws" : "dispatch returns");
    for (const bool shut_down : {false, true}) {
      SCOPED_TRACE(shut_down ? "shutdown during it" : "jobs queued during it");
      ProbeDispatch probe;
      probe.close_gate();
      if (fail) probe.fail_at = 0;
      engine::SubmissionQueue queue(probe.fn());
      bool threw = false;
      std::thread caller([&] {
        try {
          queue.run(small_jobs(1));
        } catch (const std::runtime_error&) {
          threw = true;
        }
      });
      probe.await_dispatches(1);
      Ticket queued = queue.submit_batch(small_jobs(2));
      EXPECT_EQ(queue.depth(), 2u);  // no second dispatch while the caller's runs

      std::atomic<bool> stopped{false};
      std::thread stopper;
      if (shut_down) {
        stopper = shutdown_in_background(queue, stopped);
        EXPECT_THROW(queue.submit_batch(small_jobs(1)), std::runtime_error);
        EXPECT_FALSE(stopped.load());  // still waiting on the caller's dispatch
      }
      {
        std::lock_guard lock(probe.mutex);
        EXPECT_EQ(probe.sizes.size(), 1u);
      }

      probe.open_gate();
      caller.join();
      if (stopper.joinable()) stopper.join();
      EXPECT_EQ(threw, fail);
      ASSERT_TRUE(await_ready(queued, std::chrono::seconds(20))) << "lost wake-up";
      for (const JobResult& r : queued.take()) EXPECT_TRUE(r.success);
      EXPECT_EQ(probe.max_in_flight.load(), 1);
    }
  }
}

TEST(CallerDispatch, RunAfterShutdownThrowsLikeSubmit) {
  ProbeDispatch probe;
  engine::SubmissionQueue queue(probe.fn());
  queue.shutdown();
  std::string submit_error, run_error;
  try {
    queue.submit_batch(small_jobs(1));
  } catch (const std::runtime_error& e) {
    submit_error = e.what();
  }
  try {
    queue.run(small_jobs(1));
  } catch (const std::runtime_error& e) {
    run_error = e.what();
  }
  EXPECT_FALSE(submit_error.empty());
  EXPECT_EQ(run_error, submit_error);
  EXPECT_TRUE(probe.sizes.empty());
}

}  // namespace
}  // namespace mpsched
