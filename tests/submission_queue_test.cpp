// The asynchronous submission surface (engine/submission_queue +
// Engine::submit): ticket lifecycle, fan-in determinism (the same corpus
// submitted singly from concurrent threads, pre-batched, or
// force-coalesced serializes byte-identically to one run_batch), per-job
// analysis attribution, cancellation of queued tickets, and
// queue-draining shutdown — the contracts ISSUE 5's tentpole promises.
#include "engine/submission_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <mutex>
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
using engine::CoalescePolicy;
using engine::Engine;
using engine::EngineOptions;
using engine::Job;
using engine::JobResult;
using engine::Ticket;
using engine::TicketState;

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

/// Options that hold the queue open: nothing flushes until max_jobs
/// accumulate or the (long) delay expires — deterministic coalescing and
/// a wide-open window for cancellation tests.
EngineOptions held_queue_options(std::size_t max_jobs = 1u << 16) {
  EngineOptions options;
  options.coalesce = CoalescePolicy::hold(60000, max_jobs);
  return options;
}

/// Serializes a result list exactly like a results document does.
std::string results_fingerprint(const std::vector<JobResult>& results) {
  std::string out;
  for (const JobResult& r : results) out += result_to_json(r).dump(-1) + "\n";
  return out;
}

/// Counts the dispatches in a recorded size list that carried > 1 job.
std::size_t coalesced(const std::vector<std::size_t>& sizes) {
  return static_cast<std::size_t>(
      std::count_if(sizes.begin(), sizes.end(), [](std::size_t n) { return n > 1; }));
}

/// Dispatch function that executes nothing: echoes per-job successes and
/// records the size of every dispatch, so coalescing shape is observable.
std::function<std::vector<JobResult>(std::vector<Job>)> counting_dispatch(
    std::mutex& mutex, std::vector<std::size_t>& sizes) {
  return [&mutex, &sizes](std::vector<Job> jobs) {
    {
      std::lock_guard lock(mutex);
      sizes.push_back(jobs.size());
    }
    std::vector<JobResult> results;
    for (const Job& job : jobs) {
      JobResult r;
      r.job = job.resolved_name();
      r.success = true;
      results.push_back(std::move(r));
    }
    return results;
  };
}

TEST(Ticket, DefaultConstructedIsInvalid) {
  Ticket ticket;
  EXPECT_FALSE(ticket.valid());
  EXPECT_THROW(ticket.ready(), std::logic_error);
  EXPECT_THROW(ticket.result(), std::logic_error);
  EXPECT_THROW(ticket.cancel(), std::logic_error);
}

TEST(Ticket, SubmitRunsOneJobToCompletion) {
  Engine engine;
  Ticket ticket = engine.submit(Job::from_workload("small_example"));
  ASSERT_TRUE(ticket.valid());
  EXPECT_GE(ticket.id(), 1u);
  ticket.wait();
  EXPECT_TRUE(ticket.ready());
  EXPECT_EQ(ticket.state(), TicketState::Done);
  const JobResult& result = ticket.result();
  EXPECT_TRUE(result.success);
  EXPECT_EQ(result.job, "small_example");
  EXPECT_EQ(result.analysis_source, AnalysisSource::Computed);
  // result() is repeatable (shared state, not a one-shot future).
  EXPECT_EQ(&ticket.result(), &result);

  Engine reference;
  EXPECT_EQ(result_to_json(result).dump(-1),
            result_to_json(reference.run(Job::from_workload("small_example"))).dump(-1));
}

TEST(Ticket, WaitForTimesOutOnHeldQueueThenCompletes) {
  Engine engine(held_queue_options());
  Ticket ticket = engine.submit(Job::from_workload("small_example"));
  EXPECT_FALSE(ticket.ready());
  EXPECT_FALSE(ticket.wait_for(std::chrono::milliseconds(10)));
  EXPECT_EQ(ticket.state(), TicketState::Queued);
  engine.shutdown();  // drains: the held job executes in the final flush
  EXPECT_TRUE(ticket.ready());
  EXPECT_TRUE(ticket.result().success);
}

TEST(SubmissionQueue, FanInDeterminism) {
  const std::vector<Job> jobs = fanin_corpus();
  Engine reference;
  const engine::BatchResult expected_batch = reference.run_batch(jobs);
  const std::string expected = results_fingerprint(expected_batch.jobs);

  // (a) one submit_batch — atomically enqueued, one dispatch.
  {
    Engine engine;
    std::vector<Ticket> tickets = engine.submit_batch(jobs);
    std::vector<JobResult> results;
    for (Ticket& t : tickets) results.push_back(t.result());
    EXPECT_EQ(results_fingerprint(results), expected);
  }

  // (b) single submit() calls from 4 concurrent threads — any coalescing
  // the queue happens to do must not leak into any result.
  {
    Engine engine;
    std::vector<Ticket> tickets(jobs.size());
    std::vector<std::thread> threads;
    std::atomic<std::size_t> next{0};
    for (int t = 0; t < 4; ++t)
      threads.emplace_back([&] {
        for (std::size_t i = next.fetch_add(1); i < jobs.size(); i = next.fetch_add(1))
          tickets[i] = engine.submit(jobs[i]);
      });
    for (std::thread& t : threads) t.join();
    std::vector<JobResult> results;
    for (Ticket& t : tickets) results.push_back(t.result());
    EXPECT_EQ(results_fingerprint(results), expected);
  }

  // (c) forced coalescing: the queue holds until all jobs are queued,
  // then dispatches them as one shared batch. The counters are
  // process-wide, so they are read as deltas; the high-water mark cannot
  // be, so it starts from zero here.
  {
    obs::Registry::global().gauge("queue.max_depth").reset();
    Engine engine(held_queue_options(jobs.size()));
    const engine::EngineStats base = engine.stats();
    std::vector<Ticket> tickets;
    for (const Job& job : jobs) tickets.push_back(engine.submit(job));
    std::vector<JobResult> results;
    for (Ticket& t : tickets) results.push_back(t.result());
    EXPECT_EQ(results_fingerprint(results), expected);

    const engine::EngineStats stats = engine.stats();
    EXPECT_EQ(stats.batches - base.batches, 1u);  // every submit shared one dispatch
    EXPECT_EQ(stats.coalesced_dispatches - base.coalesced_dispatches, 1u);
    EXPECT_EQ(stats.jobs_submitted - base.jobs_submitted, jobs.size());
    EXPECT_EQ(stats.max_queue_depth, jobs.size());
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
  Engine engine(held_queue_options());
  const engine::EngineStats base = engine.stats();
  Ticket doomed = engine.submit(Job::from_workload("small_example"));
  Ticket survivor = engine.submit(Job::from_workload("paper_3dft"));

  EXPECT_TRUE(doomed.cancel());
  EXPECT_EQ(doomed.state(), TicketState::Cancelled);
  EXPECT_TRUE(doomed.ready());  // cancellation resolves the ticket
  const JobResult& result = doomed.result();
  EXPECT_FALSE(result.success);
  EXPECT_NE(result.error.find("cancelled"), std::string::npos);
  EXPECT_EQ(result.job, "small_example");
  EXPECT_FALSE(doomed.cancel());  // second cancel: already cancelled

  engine.shutdown();  // drain executes only the survivor
  EXPECT_TRUE(survivor.result().success);
  const engine::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.jobs_cancelled - base.jobs_cancelled, 1u);
  EXPECT_EQ(stats.jobs - base.jobs, 1u);  // the cancelled job never dispatched
}

TEST(SubmissionQueue, CancelAfterCompletionFails) {
  Engine engine;
  Ticket ticket = engine.submit(Job::from_workload("small_example"));
  ticket.wait();
  EXPECT_FALSE(ticket.cancel());
  EXPECT_EQ(ticket.state(), TicketState::Done);
  EXPECT_TRUE(ticket.result().success);
}

TEST(SubmissionQueue, ShutdownDrainsQueuedJobs) {
  std::vector<Ticket> tickets;
  {
    Engine engine(held_queue_options());
    for (const Job& job : fanin_corpus()) tickets.push_back(engine.submit(job));
    for (const Ticket& t : tickets) EXPECT_FALSE(t.ready());
    engine.shutdown();
    for (const Ticket& t : tickets) EXPECT_TRUE(t.ready());

    // Submitting after shutdown is refused loudly.
    EXPECT_THROW(engine.submit(Job::from_workload("small_example")),
                 std::runtime_error);
    EXPECT_THROW(engine.run_batch(fanin_corpus()), std::runtime_error);
    EXPECT_NO_THROW(engine.shutdown());  // idempotent
  }
  // Tickets outlive the engine: shared state keeps every result reachable.
  for (const Ticket& t : tickets) EXPECT_TRUE(t.result().success);
}

TEST(SubmissionQueue, DestructorDrainsWithoutExplicitShutdown) {
  std::vector<Ticket> tickets;
  {
    Engine engine(held_queue_options());
    for (const Job& job : fanin_corpus()) tickets.push_back(engine.submit(job));
  }  // ~Engine: queue drains, every promise resolves — ASan gates leaks
  for (const Ticket& t : tickets) {
    EXPECT_TRUE(t.ready());
    EXPECT_TRUE(t.result().success);
  }
}

TEST(SubmissionQueue, HeldQueueFlushesAtMaxJobs) {
  // Held queue (long window): nothing dispatches until max_jobs
  // accumulate, so the first 4 of 8 rapid submits with max_jobs=4 must
  // flush long before the 60 s hold expires. A flush takes everything
  // queued, so it may take more than 4; whatever is left over would wait
  // out the hold, so shutdown() drains it instead.
  Engine engine(held_queue_options(/*max_jobs=*/4));
  const engine::EngineStats base = engine.stats();
  std::vector<Ticket> tickets;
  for (const Job& job : fanin_corpus()) tickets.push_back(engine.submit(job));
  for (std::size_t i = 0; i < 4; ++i)
    ASSERT_TRUE(tickets[i].wait_for(std::chrono::seconds(20)))
        << "job " << i << " was not flushed by the max_jobs trigger";
  engine.shutdown();
  for (const Ticket& t : tickets) EXPECT_TRUE(t.ready());
  const engine::EngineStats stats = engine.stats();
  EXPECT_LT(stats.batches - base.batches, tickets.size());
  EXPECT_GE(stats.coalesced_dispatches - base.coalesced_dispatches, 1u);
}

TEST(SubmissionQueue, FlushOnIdleCoalescesWhileDispatchInFlight) {
  // The DEFAULT policy's coalescing mode: a lone submission dispatches
  // immediately, and whatever arrives while that dispatch is executing
  // accumulates and rides the next flush together. Tested on a raw
  // SubmissionQueue whose dispatch function blocks on a test-controlled
  // gate, so "while the dispatch is in flight" is deterministic, not a
  // timing accident.
  std::mutex mutex;
  std::condition_variable cv;
  std::vector<std::size_t> sizes;  // one entry per dispatch
  bool release = false;
  engine::SubmissionQueue queue(
      [&](std::vector<Job> jobs) {
        {
          std::unique_lock lock(mutex);
          sizes.push_back(jobs.size());
          cv.notify_all();
          cv.wait(lock, [&] { return release; });
        }
        std::vector<JobResult> results;
        for (const Job& job : jobs) {
          JobResult r;
          r.job = job.resolved_name();
          r.success = true;
          results.push_back(std::move(r));
        }
        return results;
      },
      CoalescePolicy::immediate());

  Ticket first = queue.submit(Job::from_workload("small_example"));
  {
    // The first job flushed alone, immediately — the dispatcher was idle.
    std::unique_lock lock(mutex);
    cv.wait(lock, [&] { return sizes.size() == 1; });
  }
  EXPECT_EQ(first.state(), TicketState::Dispatched);

  std::vector<Ticket> rest;
  for (int i = 0; i < 4; ++i)
    rest.push_back(queue.submit(Job::from_workload("small_example")));
  EXPECT_EQ(queue.depth(), 4u);  // queued behind the in-flight dispatch

  {
    std::lock_guard lock(mutex);
    release = true;
  }
  cv.notify_all();
  first.wait();
  for (Ticket& t : rest) t.wait();

  {
    std::lock_guard lock(mutex);
    EXPECT_EQ(sizes, (std::vector<std::size_t>{1, 4}));  // 1 solo + 1 shared, never 5
  }
  for (Ticket& t : rest) EXPECT_EQ(t.result().job, "small_example");
}

TEST(SubmissionQueue, CancelledFrontDoesNotTruncateTheHoldWindow) {
  // Regression: the dispatcher used to compute the flush deadline once,
  // from whichever entry was at the front when the hold began. Cancelling
  // that front mid-hold left the stale deadline in place, flushing the
  // surviving jobs up to a full window early. The deadline must track the
  // *current* front on every wait iteration.
  const CoalescePolicy policy = CoalescePolicy::hold(1500);
  std::mutex mutex;
  std::vector<std::size_t> sizes;
  engine::SubmissionQueue queue(counting_dispatch(mutex, sizes), policy);
  obs::Counter& cancellations = obs::Registry::global().counter("queue.cancelled");
  const std::uint64_t cancelled_before = cancellations.value();

  const auto start = std::chrono::steady_clock::now();
  Ticket doomed = queue.submit(Job::from_workload("small_example"));
  std::this_thread::sleep_until(start + std::chrono::milliseconds(500));
  Ticket survivor = queue.submit(Job::from_workload("paper_3dft"));
  ASSERT_TRUE(doomed.cancel());

  // Sleep past the cancelled front's deadline (start + 1500ms) but well
  // inside the survivor's (start + 2000ms). The buggy dispatcher has
  // flushed {survivor} alone by now; the fixed one is still holding, so
  // this late arrival rides the same dispatch.
  std::this_thread::sleep_until(start + std::chrono::milliseconds(1600));
  Ticket late = queue.submit(Job::from_workload("dct8"));
  survivor.wait();
  late.wait();

  std::lock_guard lock(mutex);
  ASSERT_EQ(sizes.size(), 1u) << "premature flush after cancelling the front";
  EXPECT_EQ(sizes[0], 2u);
  EXPECT_EQ(cancellations.value() - cancelled_before, 1u);
}

TEST(AdaptiveDelay, HoldWindowTracksTheArrivalRate) {
  using engine::adaptive_hold_ms;
  using engine::kAdaptiveGapMultiplier;
  // No gap observed yet: the first submission ever is never taxed.
  EXPECT_EQ(adaptive_hold_ms(-1.0, 100), 0u);
  // Back-to-back arrivals hold the full ceiling.
  EXPECT_EQ(adaptive_hold_ms(0.0, 100), 100u);
  // The hold shrinks by kAdaptiveGapMultiplier ms per ms of expected gap…
  EXPECT_EQ(adaptive_hold_ms(5.0, 100),
            100u - static_cast<std::uint64_t>(5.0 * kAdaptiveGapMultiplier));
  // …collapses to zero exactly when fewer than kAdaptiveGapMultiplier
  // arrivals would fit in the window, and stays clamped there.
  EXPECT_EQ(adaptive_hold_ms(100.0 / kAdaptiveGapMultiplier, 100), 0u);
  EXPECT_EQ(adaptive_hold_ms(1e9, 100), 0u);
  // Monotone: a sparser stream never holds longer.
  std::uint64_t prev = adaptive_hold_ms(0.0, 400);
  for (double gap = 1.0; gap <= 64.0; gap *= 2.0) {
    const std::uint64_t hold = adaptive_hold_ms(gap, 400);
    EXPECT_LE(hold, prev) << "gap=" << gap;
    prev = hold;
  }
}

TEST(AdaptiveDelay, BurstsCoalesceAndSparseTrafficPaysNoTax) {
  const CoalescePolicy policy = CoalescePolicy::adaptive(250);

  // Bursty: back-to-back submissions keep the EWMA gap near zero, so the
  // hold stays near the ceiling and the burst rides few shared dispatches.
  {
    std::mutex mutex;
    std::vector<std::size_t> sizes;
    engine::SubmissionQueue queue(counting_dispatch(mutex, sizes), policy);
    std::vector<Ticket> tickets;
    for (int i = 0; i < 6; ++i)
      tickets.push_back(queue.submit(Job::from_workload("small_example")));
    for (Ticket& t : tickets) t.wait();
    std::lock_guard lock(mutex);
    EXPECT_LT(sizes.size(), 6u);
    EXPECT_GE(coalesced(sizes), 1u);
  }

  // Sparse: every observed gap (≥ 120ms) pushes the EWMA far past
  // the ceiling / kAdaptiveGapMultiplier (31.25ms), so the hold is 0 and
  // each job flushes alone, immediately — no latency tax on lone traffic.
  {
    std::mutex mutex;
    std::vector<std::size_t> sizes;
    engine::SubmissionQueue queue(counting_dispatch(mutex, sizes), policy);
    std::vector<Ticket> tickets;
    for (int i = 0; i < 4; ++i) {
      if (i > 0) std::this_thread::sleep_for(std::chrono::milliseconds(120));
      tickets.push_back(queue.submit(Job::from_workload("small_example")));
    }
    for (Ticket& t : tickets) t.wait();
    std::lock_guard lock(mutex);
    EXPECT_EQ(sizes.size(), 4u);
    EXPECT_EQ(coalesced(sizes), 0u);
  }
}

TEST(AdaptiveDelay, ResultsAreByteIdenticalToRunBatch) {
  // The coalescing mode never leaks into results: the fan-in corpus under
  // an adaptive-delay engine serializes exactly like one run_batch.
  const std::vector<Job> jobs = fanin_corpus();
  Engine reference;
  const std::string expected = results_fingerprint(reference.run_batch(jobs).jobs);

  EngineOptions options;
  options.coalesce = CoalescePolicy::adaptive(250);
  Engine engine(options);
  std::vector<Ticket> tickets;
  for (const Job& job : jobs) tickets.push_back(engine.submit(job));
  std::vector<JobResult> results;
  for (Ticket& t : tickets) results.push_back(t.result());
  EXPECT_EQ(results_fingerprint(results), expected);
}

TEST(SubmissionQueue, RunBatchSharesTheQueueWithAsyncSubmits) {
  // A run_batch() issued while async tickets are queued must not disturb
  // them — everyone resolves, everyone is correct.
  Engine engine(held_queue_options(/*max_jobs=*/3));
  const std::uint64_t batches_before = engine.stats().batches;
  Ticket async1 = engine.submit(Job::from_workload("paper_3dft"));
  Ticket async2 = engine.submit(Job::from_workload("dct8"));
  const engine::BatchResult batch =
      engine.run_batch({Job::from_workload("small_example")});
  ASSERT_EQ(batch.jobs.size(), 1u);
  EXPECT_TRUE(batch.jobs.front().success);
  EXPECT_TRUE(async1.result().success);
  EXPECT_TRUE(async2.result().success);
  EXPECT_EQ(engine.stats().batches - batches_before, 1u);  // all three shared one dispatch
}

TEST(SubmissionQueue, InvalidCoalescePolicyIsRejected) {
  // A zero window expires at once and a zero trigger is met by any queue:
  // the caller asked for coalescing and would silently get none.
  EXPECT_THROW(CoalescePolicy::hold(0), std::invalid_argument);
  EXPECT_THROW(CoalescePolicy::hold(100, 0), std::invalid_argument);
  EXPECT_THROW(CoalescePolicy::adaptive(0), std::invalid_argument);
  EXPECT_THROW(CoalescePolicy::adaptive(100, 0), std::invalid_argument);
}

TEST(SubmissionQueue, ShutdownBeforeFirstSubmitStillLatches) {
  // shutdown() on an engine whose queue was never started must still
  // make later submissions throw — not silently spin up a fresh queue.
  Engine engine;
  engine.shutdown();
  EXPECT_THROW(engine.submit(Job::from_workload("small_example")), std::runtime_error);
  EXPECT_THROW(engine.run_batch({Job::from_workload("small_example")}),
               std::runtime_error);
}

TEST(SubmissionQueue, EmptySubmitBatchYieldsNoTickets) {
  Engine engine;
  const std::uint64_t submitted_before = engine.stats().jobs_submitted;
  EXPECT_TRUE(engine.submit_batch({}).empty());
  EXPECT_EQ(engine.stats().jobs_submitted, submitted_before);
}

}  // namespace
}  // namespace mpsched
