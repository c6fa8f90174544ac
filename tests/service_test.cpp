// The service layer (io/service_io + src/service): envelope round-trips
// and strict validation, stream sessions, Unix-socket sessions with
// concurrent clients, warm-engine reuse across requests (the serve-mode
// contract: a repeated corpus recomputes nothing and byte-matches the
// one-shot batch output), cache-trim over the protocol, and graceful
// SIGINT shutdown that leaves no socket file and no cache temp debris.
#include "service/server.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include <unistd.h>

#include "engine/cache_store.hpp"
#include "io/result_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/client.hpp"
#include "test_util.hpp"
#include "util/strings.hpp"
#include "workloads/corpus.hpp"

namespace mpsched {
namespace {

namespace fs = std::filesystem;

using engine::Job;
using service::Client;
using service::Op;
using service::Request;
using service::Response;
using service::Server;
using service::ServerOptions;

/// A registry counter's value; the registry is process-wide, so tests
/// compare values before and after their runs.
std::uint64_t count(const std::string& name) {
  return obs::Registry::global().counter(name).value();
}

/// Small mixed corpus with a duplicate, so reuse counters move.
std::vector<Job> small_corpus() {
  std::vector<Job> jobs;
  jobs.push_back(Job::from_workload("small_example"));
  jobs.push_back(Job::from_workload("paper_3dft"));
  jobs.push_back(Job::from_workload("small_example"));
  return jobs;
}

/// A job whose cold analysis keeps its dispatch in flight for hundreds of
/// milliseconds on an engine with one pool thread (about 0.5 s in a
/// Release build on a 4-vCPU VM): jobs submitted meanwhile stay queued
/// behind it.
Job plug_job() { return Job::from_workload("fft(16)"); }

/// Polls until the server's queue is empty (`queued` false: the
/// dispatcher has taken everything) or holds jobs (`queued` true); false
/// after a generous timeout.
bool await_queue(Server& server, bool queued) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while ((server.engine().stats().queue_depth > 0) != queued) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

/// Per-test scratch dir + short relative socket path (sun_path is
/// length-limited, and ctest runs every case from the build dir).
class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const std::string name =
        ::testing::UnitTest::GetInstance()->current_test_info()->name();
    dir_ = fs::path("service_test.tmp") / name;
    fs::remove_all(dir_);
    fs::create_directories(dir_);
    socket_ = (dir_ / "s.sock").string();
  }
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }
  std::string cache_dir() const { return (dir_ / "cache").string(); }

  fs::path dir_;
  std::string socket_;
};

TEST_F(ServiceTest, RequestRoundTripIsAFixpoint) {
  std::vector<Request> requests;
  requests.push_back({});  // ping, id 0
  Request submit;
  submit.op = Op::Submit;
  submit.id = 42;
  submit.jobs = small_corpus();
  submit.diagnostics = true;
  requests.push_back(std::move(submit));
  Request one;
  one.op = Op::SubmitJob;
  one.id = 7;
  one.jobs.push_back(Job::from_workload("small_example"));
  requests.push_back(std::move(one));
  Request async;
  async.op = Op::SubmitAsync;
  async.id = 8;
  async.jobs = small_corpus();
  async.diagnostics = true;
  requests.push_back(std::move(async));
  for (const Op referencing : {Op::Poll, Op::Wait, Op::Cancel}) {
    Request r;
    r.op = referencing;
    r.id = 9;
    r.request = 3;
    requests.push_back(r);
  }
  Request trim;
  trim.op = Op::CacheTrim;
  trim.trim_max_age_seconds = 60;
  trim.trim_max_total_bytes = 1 << 20;
  requests.push_back(trim);
  Request stats;
  stats.op = Op::Stats;
  requests.push_back(stats);
  Request metrics;
  metrics.op = Op::Metrics;
  metrics.id = 11;
  requests.push_back(metrics);
  Request shutdown;
  shutdown.op = Op::Shutdown;
  shutdown.id = 99;
  requests.push_back(shutdown);

  for (const Request& request : requests) {
    const Json wire = service::request_to_json(request);
    const Request reparsed = service::request_from_json(Json::parse(wire.dump(-1)));
    EXPECT_EQ(service::request_to_json(reparsed).dump(-1), wire.dump(-1))
        << "op " << service::to_text(request.op);
    EXPECT_EQ(reparsed.id, request.id);
    EXPECT_EQ(reparsed.jobs.size(), request.jobs.size());
    EXPECT_EQ(reparsed.request, request.request);
  }
}

TEST_F(ServiceTest, MalformedRequestsAreRejected) {
  const auto rejected = [](const char* text) {
    try {
      (void)service::request_from_json(Json::parse(text));
      return false;
    } catch (const std::exception&) {
      return true;
    }
  };
  EXPECT_TRUE(rejected("{}"));                             // no op
  EXPECT_TRUE(rejected("{\"op\":\"warp\"}"));              // unknown op
  EXPECT_TRUE(rejected("{\"op\":\"submit\"}"));            // submit sans corpus
  EXPECT_TRUE(rejected("{\"op\":\"ping\",\"x\":1}"));      // unknown key
  EXPECT_TRUE(rejected("{\"op\":\"ping\",\"id\":\"a\"}")); // non-integer id
  EXPECT_TRUE(rejected("{\"op\":\"cache_trim\",\"max_age_seconds\":-5}"));
  EXPECT_TRUE(rejected("[\"op\",\"ping\"]"));              // not an object
  // v2 envelope strictness.
  EXPECT_TRUE(rejected("{\"op\":\"submit_async\"}"));              // no corpus
  EXPECT_TRUE(rejected("{\"op\":\"poll\"}"));                     // no request id
  EXPECT_TRUE(rejected("{\"op\":\"poll\",\"request\":-1}"));      // negative id
  EXPECT_TRUE(rejected("{\"op\":\"wait\",\"request\":\"x\"}"));   // non-integer id
  EXPECT_TRUE(rejected("{\"op\":\"cancel\",\"request\":1,\"x\":1}"));  // unknown key
  EXPECT_TRUE(rejected("{\"op\":\"submit_async\",\"request\":1}"));    // wrong key
  EXPECT_TRUE(rejected("{\"op\":\"metrics\",\"x\":1}"));               // unknown key
}

TEST_F(ServiceTest, SubmitMatchesOneShotBatchByteForByte) {
  const std::vector<Job> jobs = small_corpus();
  engine::Engine reference;
  const std::string expected = batch_to_json(reference.run_batch(jobs)).dump(2);

  Server server(ServerOptions{});
  const engine::EngineStats base = server.engine().stats();
  Request request;
  request.op = Op::Submit;
  request.id = 1;
  request.jobs = jobs;

  const Json first = server.handle(request);
  EXPECT_TRUE(first.at("ok").as_bool());
  EXPECT_EQ(first.at("results").dump(2), expected);
  EXPECT_GT(first.at("analyses_computed").as_int(), 0);

  // Warm engine: the same corpus a second time recomputes nothing and
  // serializes byte-identically — the serve-mode contract.
  const Json second = server.handle(request);
  EXPECT_TRUE(second.at("ok").as_bool());
  EXPECT_EQ(second.at("analyses_computed").as_int(), 0);
  EXPECT_EQ(second.at("results").dump(2), expected);

  const engine::EngineStats stats = server.engine().stats();
  EXPECT_EQ(stats.batches - base.batches, 2u);
  EXPECT_EQ(stats.jobs - base.jobs, 2 * jobs.size());
  EXPECT_EQ(stats.jobs_succeeded - base.jobs_succeeded, 2 * jobs.size());
}

TEST_F(ServiceTest, RepeatedSubmitLineBuildsEachGraphOnceAndMatchesBatch) {
  // One submit line twice through handle_line: the first resolves its
  // graphs through the server's intern as misses, the second as hits.
  // Both byte-match a one-shot engine over the same jobs, and the intern
  // counters say each distinct graph was built exactly once.
  std::vector<Job> jobs = small_corpus();
  Job inline_job;  // no workload spec: the line carries its .dfg text
  inline_job.dfg = workloads::make_workload("dct8");
  jobs.push_back(inline_job);
  const std::size_t distinct = 3;  // small_example, paper_3dft, the dct8 text

  engine::Engine reference;
  const std::string expected = batch_to_json(reference.run_batch(jobs)).dump(2);
  Request submit;
  submit.op = Op::Submit;
  submit.id = 1;
  submit.jobs = jobs;
  const std::string line = service::request_to_json(submit).dump(-1);

  obs::Counter& built = obs::Registry::global().counter("serve.graphs.built");
  obs::Counter& reused = obs::Registry::global().counter("serve.graphs.reused");
  const std::uint64_t built_before = built.value();
  const std::uint64_t reused_before = reused.value();
  Server server(ServerOptions{});
  Server::Session session;
  const Json miss = server.handle_line(line, session);
  ASSERT_TRUE(miss.at("ok").as_bool()) << miss.dump(-1);
  EXPECT_EQ(miss.at("results").dump(2), expected);
  EXPECT_EQ(built.value() - built_before, distinct);
  const Json hit = server.handle_line(line, session);
  ASSERT_TRUE(hit.at("ok").as_bool()) << hit.dump(-1);
  EXPECT_EQ(hit.at("results").dump(2), expected);
  EXPECT_EQ(built.value() - built_before, distinct);
  EXPECT_EQ(reused.value() - reused_before, 2 * jobs.size() - distinct);
}

TEST_F(ServiceTest, SubmitJobReturnsOneResult) {
  Server server(ServerOptions{});
  Request request;
  request.op = Op::SubmitJob;
  request.id = 5;
  request.jobs.push_back(Job::from_workload("small_example"));

  engine::Engine reference;
  const std::string expected =
      result_to_json(reference.run(Job::from_workload("small_example"))).dump(-1);

  const Json response = server.handle(request);
  ASSERT_TRUE(response.at("ok").as_bool());
  EXPECT_EQ(response.at("result").dump(-1), expected);
}

TEST_F(ServiceTest, WarmResponseLinesAreTheColdAndCacheOffBytes) {
  // Warm submit and submit_job responses splice memo text into their
  // results. Each line, up to the analysis counters that say how it was
  // answered, must be the bytes of the same request's cold line and of a
  // cache-off server's line.
  std::vector<Job> jobs = small_corpus();
  Job listed = Job::from_workload("paper_3dft");
  listed.backend = "list";
  listed.transforms = {"cse"};
  jobs.push_back(std::move(listed));
  Job uncovered = Job::from_workload("paper_3dft");  // the backend fails
  uncovered.select.pattern_count = 1;
  uncovered.select.capacity = 1;
  jobs.push_back(std::move(uncovered));
  Request submit;
  submit.op = Op::Submit;
  submit.id = 7;
  submit.jobs = jobs;
  Request submit_job;
  submit_job.op = Op::SubmitJob;
  submit_job.id = 8;
  submit_job.jobs = {jobs[1]};
  const std::string lines = service::request_to_json(submit).dump(-1) + "\n" +
                            service::request_to_json(submit_job).dump(-1) + "\n";

  struct Line {
    std::string body;      ///< everything before the analysis counters
    std::string counters;
  };
  const auto serve = [&lines](Server& server) {
    std::istringstream in(lines);
    std::ostringstream out;
    server.serve_stream(in, out);
    std::vector<Line> split;
    std::istringstream responses(out.str());
    for (std::string line; std::getline(responses, line);) {
      const std::size_t cut = line.rfind(",\"analyses_computed\":");
      EXPECT_NE(cut, std::string::npos) << line;
      split.push_back({line.substr(0, cut), line.substr(cut)});
    }
    return split;
  };

  Server server(ServerOptions{});
  const std::vector<Line> cold = serve(server);
  const std::vector<Line> warm = serve(server);
  ServerOptions options;
  options.engine.use_cache = false;
  Server uncached(options);
  const std::vector<Line> reference = serve(uncached);

  ASSERT_EQ(cold.size(), 2u);
  ASSERT_EQ(warm.size(), 2u);
  ASSERT_EQ(reference.size(), 2u);
  // The list backend composes its own patterns and reads no analysis.
  EXPECT_EQ(warm[0].counters, R"(,"analyses_computed":0,"analyses_reused":4})");
  EXPECT_EQ(warm[1].counters, R"(,"analyses_computed":0,"analyses_reused":1})");
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_EQ(warm[i].body, cold[i].body);
    EXPECT_EQ(warm[i].body, reference[i].body);
  }
  EXPECT_EQ(warm[0].body.rfind(R"({"id":7,"op":"submit","ok":true,"results":)", 0), 0u);
  EXPECT_EQ(warm[1].body.rfind(R"({"id":8,"op":"submit_job","ok":true,"result":)", 0), 0u);
}

TEST_F(ServiceTest, EachResponseIsWrittenInsideItsRequestSpan) {
  // One traced respond() round per line through a stream session: every
  // request records exactly one serve.serialize span (writing its
  // response), nested inside its serve.request span on the same thread,
  // so serve.request and serve.request_ms cover the write.
  Server server(ServerOptions{});
  Request submit;
  submit.op = Op::Submit;
  submit.id = 2;
  submit.jobs = small_corpus();
  std::istringstream in("{\"op\":\"ping\",\"id\":1}\n" +
                        service::request_to_json(submit).dump(-1) + "\nnot json\n");
  std::ostringstream out;
  obs::clear_trace();
  obs::set_tracing_enabled(true);
  server.serve_stream(in, out);
  obs::set_tracing_enabled(false);
  const Json trace = obs::trace_to_json();
  obs::clear_trace();

  std::map<std::int64_t, std::vector<std::string>> open;
  std::size_t requests = 0;
  std::size_t serializes = 0;
  for (const Json& e : trace.at("traceEvents").as_array()) {
    const std::string phase = e.at("ph").as_string();
    if (phase != "B" && phase != "E") continue;
    std::vector<std::string>& stack = open[e.at("tid").as_int()];
    if (phase == "E") {
      ASSERT_FALSE(stack.empty());
      stack.pop_back();
      continue;
    }
    const std::string name = e.at("name").as_string();
    if (name == "serve.request") ++requests;
    if (name == "serve.serialize") {
      ++serializes;
      EXPECT_NE(std::find(stack.begin(), stack.end(), "serve.request"), stack.end())
          << "serve.serialize outside serve.request";
    }
    stack.push_back(name);
  }
  EXPECT_EQ(requests, 3u);
  EXPECT_EQ(serializes, requests);
}

TEST_F(ServiceTest, StreamSessionServesPingSubmitStatsShutdown) {
  Server server(ServerOptions{});
  std::ostringstream requests;
  requests << "{\"op\":\"ping\",\"id\":1}\n";
  requests << "this is not json\n";  // must not kill the session
  requests << service::request_to_json([] {
                Request r;
                r.op = Op::Submit;
                r.id = 2;
                r.jobs = small_corpus();
                return r;
              }())
                  .dump(-1)
           << "\n";
  requests << "\n";  // blank lines are ignored
  requests << "{\"op\":\"stats\",\"id\":3}\n";
  requests << "{\"op\":\"shutdown\",\"id\":4}\n";
  requests << "{\"op\":\"ping\",\"id\":5}\n";  // after shutdown: not served

  const std::uint64_t batches_before = server.engine().stats().batches;
  const std::uint64_t requests_before = count("serve.requests");
  const std::uint64_t errors_before = count("serve.errors");
  const std::uint64_t sessions_before = count("serve.sessions");
  std::istringstream in(requests.str());
  std::ostringstream out;
  server.serve_stream(in, out);
  EXPECT_TRUE(server.stop_requested());

  std::vector<Response> responses;
  for (const std::string& line : split(out.str(), '\n'))
    if (!trim(line).empty())
      responses.push_back(service::response_from_json(Json::parse(line)));
  ASSERT_EQ(responses.size(), 5u);  // ping, error, submit, stats, shutdown
  EXPECT_TRUE(responses[0].ok);
  EXPECT_EQ(responses[0].body.at("protocol").as_string(), service::kProtocol);
  EXPECT_FALSE(responses[1].ok);
  EXPECT_FALSE(responses[1].error.empty());
  EXPECT_TRUE(responses[2].ok);
  EXPECT_EQ(responses[2].id, 2);
  EXPECT_TRUE(responses[3].ok);
  EXPECT_EQ(static_cast<std::uint64_t>(responses[3].body.at("engine").at("batches").as_int()),
            batches_before + 1);
  EXPECT_TRUE(responses[4].ok);
  EXPECT_EQ(responses[4].op, "shutdown");

  EXPECT_EQ(count("serve.requests") - requests_before, 5u);
  EXPECT_EQ(count("serve.errors") - errors_before, 1u);
  EXPECT_EQ(count("serve.sessions") - sessions_before, 1u);
}

TEST_F(ServiceTest, CacheTrimOverTheProtocol) {
  ServerOptions options;
  options.engine.cache_dir = cache_dir();
  Server server(options);

  Request submit;
  submit.op = Op::Submit;
  submit.jobs = small_corpus();
  ASSERT_TRUE(server.handle(submit).at("ok").as_bool());
  const std::size_t entries =
      static_cast<std::size_t>(server.engine().cache().disk_store()->entry_count());
  ASSERT_GT(entries, 0u);

  // Fresh entries survive an age-only trim...
  Request trim;
  trim.op = Op::CacheTrim;
  trim.trim_max_age_seconds = 3600;
  Json response = server.handle(trim);
  ASSERT_TRUE(response.at("ok").as_bool());
  EXPECT_EQ(response.at("entries_removed").as_int(), 0);
  EXPECT_EQ(static_cast<std::size_t>(response.at("entries_kept").as_int()), entries);

  // ...and a 1-byte size cap evicts everything; the engine still answers
  // (trimming the disk tier never touches the memory tier).
  trim.trim_max_age_seconds = 0;
  trim.trim_max_total_bytes = 1;
  response = server.handle(trim);
  ASSERT_TRUE(response.at("ok").as_bool());
  EXPECT_EQ(static_cast<std::size_t>(response.at("entries_removed").as_int()), entries);
  EXPECT_EQ(server.engine().cache().disk_store()->entry_count(), 0u);
  EXPECT_TRUE(server.handle(submit).at("ok").as_bool());
}

TEST_F(ServiceTest, DiagnosticsCarryRealWallTimeAndCacheCounters) {
  // The ticket-based submit path must fill the batch-level diagnostics
  // the v1 run_batch path used to: wall_ms and the cache snapshot — not
  // zeros. Same for wait on an async request.
  Server server(ServerOptions{});
  Request submit;
  submit.op = Op::Submit;
  submit.jobs = small_corpus();
  submit.diagnostics = true;
  ASSERT_TRUE(server.handle(submit).at("ok").as_bool());

  // Second (warm) submit: cache hits must show up in the diagnostics.
  const Json warm = server.handle(submit);
  ASSERT_TRUE(warm.at("ok").as_bool());
  const Json& diag = warm.at("results").at("diagnostics");
  EXPECT_GT(diag.at("wall_ms").as_double(), 0.0);
  EXPECT_GT(diag.at("cache_analysis_hits").as_int(), 0);

  Server::Session session;
  Request async = submit;
  async.op = Op::SubmitAsync;
  const Json accepted = server.handle(async, session);
  ASSERT_TRUE(accepted.at("ok").as_bool());
  Request wait;
  wait.op = Op::Wait;
  wait.request = static_cast<std::uint64_t>(accepted.at("request").as_int());
  const Json finished = server.handle(wait, session);
  ASSERT_TRUE(finished.at("ok").as_bool());
  const Json& async_diag = finished.at("results").at("diagnostics");
  EXPECT_GT(async_diag.at("wall_ms").as_double(), 0.0);
  EXPECT_GT(async_diag.at("cache_analysis_hits").as_int(), 0);
}

TEST_F(ServiceTest, ResponseCacheStatsAreDispatchBoundaryConsistent) {
  // Engine.RunBatchCacheStatsAreDispatchBoundaryConsistent through
  // Server::handle: a response's cache counters must be the engine's
  // dispatch-boundary snapshot, not a live read that can land between two
  // lookups of another session's dispatch. Every request carries 2
  // globally distinct jobs, so each dispatch, coalesced or not, adds an
  // even number of analysis misses, and every boundary snapshot is even
  // (counted from the engine's starting snapshot: the counters are
  // process-wide). Blocking submits alternate with submit_async + wait to
  // cover both.
  Server server(ServerOptions{});
  const std::int64_t misses_before =
      static_cast<std::int64_t>(server.engine().stats().cache.analysis_misses);
  std::atomic<int> violations{0};
  std::atomic<int> next{0};
  constexpr int kJobs = 32;  // fir taps 2..33, all distinct
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      Server::Session session;
      for (int round = 0;; ++round) {
        const int base = next.fetch_add(2, std::memory_order_relaxed);
        if (base >= kJobs) break;
        Request submit;
        submit.op = round % 2 == 0 ? Op::Submit : Op::SubmitAsync;
        submit.diagnostics = true;
        submit.jobs.push_back(Job::from_workload("fir(" + std::to_string(2 + base) + ")"));
        submit.jobs.push_back(Job::from_workload("fir(" + std::to_string(3 + base) + ")"));
        Json response = server.handle(submit, session);
        if (submit.op == Op::SubmitAsync && response.at("ok").as_bool()) {
          Request wait;
          wait.op = Op::Wait;
          wait.request = static_cast<std::uint64_t>(response.at("request").as_int());
          response = server.handle(wait, session);
        }
        if (!response.at("ok").as_bool() ||
            (response.at("results").at("diagnostics").at("cache_analysis_misses").as_int() -
             misses_before) % 2 != 0)
          violations.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& th : clients) th.join();
  EXPECT_EQ(violations.load(), 0);
  EXPECT_EQ(
      static_cast<std::int64_t>(server.engine().stats().cache.analysis_misses) - misses_before,
      kJobs);

  // The same property without a race: on a shared cache, a lookup made
  // after the dispatch finished but before the wait is exactly what a
  // live read would pick up, and the response must not include it.
  engine::AnalysisCache shared;
  ServerOptions options;
  options.engine.cache = &shared;
  Server shared_server(options);
  const std::int64_t shared_base =
      static_cast<std::int64_t>(shared_server.engine().stats().cache.analysis_misses);
  Server::Session session;
  Request async;
  async.op = Op::SubmitAsync;
  async.diagnostics = true;
  async.jobs = {Job::from_workload("fir(2)"), Job::from_workload("fir(3)")};
  const Json accepted = shared_server.handle(async, session);
  ASSERT_TRUE(accepted.at("ok").as_bool());
  Request poll;
  poll.op = Op::Poll;
  poll.request = static_cast<std::uint64_t>(accepted.at("request").as_int());
  Json status;
  for (int i = 0; i < 1000; ++i) {
    status = shared_server.handle(poll, session);
    if (status.at("done").as_bool()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(status.at("done").as_bool());
  ASSERT_EQ(shared.find_analysis(engine::CacheKey{1, 2}), nullptr);  // one more miss
  Request wait;
  wait.op = Op::Wait;
  wait.request = poll.request;
  const Json finished = shared_server.handle(wait, session);
  ASSERT_TRUE(finished.at("ok").as_bool());
  EXPECT_EQ(
      finished.at("results").at("diagnostics").at("cache_analysis_misses").as_int() -
          shared_base,
      2);
}

TEST_F(ServiceTest, PingAdvertisesTheProtocol) {
  Server server(ServerOptions{});
  Request ping;
  const Json response = server.handle(ping);
  ASSERT_TRUE(response.at("ok").as_bool());
  EXPECT_EQ(response.at("protocol").as_string(), service::kProtocol);
  EXPECT_EQ(response.find("protocols"), nullptr);
}

TEST_F(ServiceTest, AsyncSubmitPollWaitLifecycle) {
  const std::vector<Job> jobs = small_corpus();
  engine::Engine reference;
  const std::string expected = batch_to_json(reference.run_batch(jobs)).dump(2);

  Server server(ServerOptions{});
  Server::Session session;

  Request submit;
  submit.op = Op::SubmitAsync;
  submit.id = 21;
  submit.jobs = jobs;
  const Json accepted = server.handle(submit, session);
  ASSERT_TRUE(accepted.at("ok").as_bool());
  const std::int64_t rid = accepted.at("request").as_int();
  EXPECT_GE(rid, 1);
  EXPECT_EQ(accepted.at("jobs").as_int(), static_cast<std::int64_t>(jobs.size()));
  EXPECT_EQ(session.pending_requests(), 1u);

  // Poll until done (the dispatch runs on the engine's own thread).
  Request poll;
  poll.op = Op::Poll;
  poll.request = static_cast<std::uint64_t>(rid);
  Json status;
  for (int i = 0; i < 1000; ++i) {
    status = server.handle(poll, session);
    ASSERT_TRUE(status.at("ok").as_bool());
    if (status.at("done").as_bool()) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_TRUE(status.at("done").as_bool());
  EXPECT_EQ(status.at("completed").as_int(), static_cast<std::int64_t>(jobs.size()));

  Request wait;
  wait.op = Op::Wait;
  wait.request = static_cast<std::uint64_t>(rid);
  const Json finished = server.handle(wait, session);
  ASSERT_TRUE(finished.at("ok").as_bool());
  EXPECT_EQ(finished.at("results").dump(2), expected);
  EXPECT_GT(finished.at("analyses_computed").as_int(), 0);
  EXPECT_EQ(session.pending_requests(), 0u);

  // wait consumed the request: a second wait (or poll) is an error.
  const Json again = server.handle(wait, session);
  EXPECT_FALSE(again.at("ok").as_bool());
  EXPECT_NE(again.at("error").as_string().find("unknown request id"), std::string::npos);
}

TEST_F(ServiceTest, AsyncRequestIdsAreSessionOwned) {
  Server server(ServerOptions{});
  Server::Session alice, bob;

  Request submit;
  submit.op = Op::SubmitAsync;
  submit.jobs = small_corpus();
  const Json accepted = server.handle(submit, alice);
  ASSERT_TRUE(accepted.at("ok").as_bool());

  // Bob polling Alice's id is rejected exactly like a bogus id — request
  // ids must not leak results across sessions.
  Request poll;
  poll.op = Op::Poll;
  poll.request = static_cast<std::uint64_t>(accepted.at("request").as_int());
  const Json foreign = server.handle(poll, bob);
  EXPECT_FALSE(foreign.at("ok").as_bool());
  EXPECT_NE(foreign.at("error").as_string().find("unknown request id"),
            std::string::npos);
  poll.request = 999999;
  EXPECT_FALSE(server.handle(poll, alice).at("ok").as_bool());
}

TEST_F(ServiceTest, DuplicateAsyncCorrelationIdIsRejected) {
  Server server(ServerOptions{});
  Server::Session session;
  Request submit;
  submit.op = Op::SubmitAsync;
  submit.id = 5;
  submit.jobs = small_corpus();
  ASSERT_TRUE(server.handle(submit, session).at("ok").as_bool());

  // Same correlation id while the first request is still pending: refused.
  const Json duplicate = server.handle(submit, session);
  EXPECT_FALSE(duplicate.at("ok").as_bool());
  EXPECT_NE(duplicate.at("error").as_string().find("duplicate id"), std::string::npos);

  // A different id is fine, and id 0 ("no correlation") never collides.
  submit.id = 6;
  EXPECT_TRUE(server.handle(submit, session).at("ok").as_bool());
  submit.id = 0;
  EXPECT_TRUE(server.handle(submit, session).at("ok").as_bool());
  EXPECT_TRUE(server.handle(submit, session).at("ok").as_bool());

  // Collecting the first request frees its correlation id for reuse.
  Request wait;
  wait.op = Op::Wait;
  wait.request = 1;
  ASSERT_TRUE(server.handle(wait, session).at("ok").as_bool());
  submit.id = 5;
  EXPECT_TRUE(server.handle(submit, session).at("ok").as_bool());
}

TEST_F(ServiceTest, CancelStopsQueuedJobsAndWaitStillCollects) {
  // A cold plug's dispatch holds the queue: async jobs submitted once the
  // queue has taken the plug are still queued when the cancel arrives.
  ServerOptions options;
  options.engine.threads = 1;
  Server server(options);
  Server::Session session;
  const std::uint64_t cancelled_before = server.engine().stats().jobs_cancelled;

  Request plug;
  plug.op = Op::SubmitAsync;
  plug.jobs = {plug_job()};
  ASSERT_TRUE(server.handle(plug, session).at("ok").as_bool());
  ASSERT_TRUE(await_queue(server, false));

  Request submit;
  submit.op = Op::SubmitAsync;
  submit.jobs = small_corpus();
  const Json accepted = server.handle(submit, session);
  ASSERT_TRUE(accepted.at("ok").as_bool());
  const std::uint64_t rid = static_cast<std::uint64_t>(accepted.at("request").as_int());

  Request cancel;
  cancel.op = Op::Cancel;
  cancel.request = rid;
  const Json cancelled = server.handle(cancel, session);
  ASSERT_TRUE(cancelled.at("ok").as_bool());
  EXPECT_EQ(cancelled.at("cancelled").as_int(), 3);
  EXPECT_EQ(cancelled.at("jobs").as_int(), 3);

  // wait still collects: every job resolved as a cancellation failure.
  Request wait;
  wait.op = Op::Wait;
  wait.request = rid;
  const Json finished = server.handle(wait, session);
  ASSERT_TRUE(finished.at("ok").as_bool());
  const Json& results = finished.at("results");
  EXPECT_EQ(results.at("summary").at("succeeded").as_int(), 0);
  for (const Json& job : results.at("jobs").as_array())
    EXPECT_NE(job.at("error").as_string().find("cancelled"), std::string::npos);
  EXPECT_EQ(server.engine().stats().jobs_cancelled - cancelled_before, 3u);
}

TEST_F(ServiceTest, PollAndCancelCountWholeRequests) {
  // An async request is one submission: poll reports none or all of its
  // jobs completed, and cancel stops none or all of them.
  ServerOptions options;
  options.engine.threads = 1;
  Server server(options);
  Server::Session session;

  Request plug;
  plug.op = Op::SubmitAsync;
  plug.jobs = {plug_job()};
  ASSERT_TRUE(server.handle(plug, session).at("ok").as_bool());
  ASSERT_TRUE(await_queue(server, false));

  Request submit;
  submit.op = Op::SubmitAsync;
  submit.jobs = small_corpus();
  const auto submit_async = [&] {
    const Json accepted = server.handle(submit, session);
    EXPECT_TRUE(accepted.at("ok").as_bool());
    return static_cast<std::uint64_t>(accepted.at("request").as_int());
  };
  const std::uint64_t doomed = submit_async();
  const std::uint64_t kept = submit_async();
  const std::int64_t jobs = static_cast<std::int64_t>(submit.jobs.size());

  Request poll;
  poll.op = Op::Poll;
  const auto poll_request = [&](std::uint64_t rid) {
    poll.request = rid;
    const Json status = server.handle(poll, session);
    EXPECT_TRUE(status.at("ok").as_bool());
    EXPECT_EQ(status.at("jobs").as_int(), jobs);
    const std::int64_t completed = status.at("completed").as_int();
    EXPECT_TRUE(completed == 0 || completed == jobs) << "completed " << completed;
    EXPECT_EQ(status.at("done").as_bool(), completed == jobs);
    return completed;
  };
  Request cancel;
  cancel.op = Op::Cancel;
  const auto cancel_request = [&](std::uint64_t rid) {
    cancel.request = rid;
    const Json response = server.handle(cancel, session);
    EXPECT_TRUE(response.at("ok").as_bool());
    EXPECT_EQ(response.at("jobs").as_int(), jobs);
    return response.at("cancelled").as_int();
  };

  // Both requests wait behind the plug: nothing of either has completed.
  EXPECT_EQ(poll_request(doomed), 0);
  EXPECT_EQ(poll_request(kept), 0);
  // Cancelling a queued request resolves all of it at once.
  EXPECT_EQ(cancel_request(doomed), jobs);
  EXPECT_EQ(poll_request(doomed), jobs);
  EXPECT_EQ(cancel_request(doomed), 0);

  // The kept request completes whole once the plug's dispatch ends, and a
  // cancel after that stops nothing.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (poll_request(kept) != jobs && std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_EQ(poll_request(kept), jobs);
  EXPECT_EQ(cancel_request(kept), 0);

  Request wait;
  wait.op = Op::Wait;
  wait.request = kept;
  const Json finished = server.handle(wait, session);
  ASSERT_TRUE(finished.at("ok").as_bool());
  EXPECT_EQ(finished.at("results").at("summary").at("succeeded").as_int(), jobs);
}

TEST_F(ServiceTest, TwoPipelinedSessionsAreByteIdentical) {
  const std::vector<Job> jobs = small_corpus();
  engine::Engine reference;
  const std::string expected = batch_to_json(reference.run_batch(jobs)).dump(-1);

  // Two concurrent sessions, each pipelining two async submits before
  // collecting either — four requests in flight against the one warm
  // engine, which is free to coalesce across all of them. Every results
  // document must still byte-match the one-shot reference.
  Server server(ServerOptions{});
  std::string docs[2][2];
  std::thread sessions[2];
  for (int s = 0; s < 2; ++s)
    sessions[s] = std::thread([&server, &jobs, &docs, s] {
      Server::Session session;
      Request submit;
      submit.op = Op::SubmitAsync;
      submit.jobs = jobs;
      std::uint64_t rids[2];
      for (int p = 0; p < 2; ++p) {
        submit.id = p + 1;
        const Json accepted = server.handle(submit, session);
        ASSERT_TRUE(accepted.at("ok").as_bool());
        rids[p] = static_cast<std::uint64_t>(accepted.at("request").as_int());
      }
      for (int p = 0; p < 2; ++p) {
        Request wait;
        wait.op = Op::Wait;
        wait.request = rids[p];
        const Json finished = server.handle(wait, session);
        ASSERT_TRUE(finished.at("ok").as_bool());
        docs[s][p] = finished.at("results").dump(-1);
      }
    });
  for (std::thread& t : sessions) t.join();

  for (int s = 0; s < 2; ++s)
    for (int p = 0; p < 2; ++p)
      EXPECT_EQ(docs[s][p], expected) << "session " << s << " request " << p;
}

TEST_F(ServiceTest, StatsReportQueueCountersAndFormat) {
  Server server(ServerOptions{});
  Request stats;
  stats.op = Op::Stats;
  const Json before = server.handle(stats);
  const auto grew = [&before](const Json& body, const char* section, const char* key) {
    return body.at(section).at(key).as_int() - before.at(section).at(key).as_int();
  };
  Request submit;
  submit.op = Op::Submit;
  submit.jobs = small_corpus();
  ASSERT_TRUE(server.handle(submit).at("ok").as_bool());

  const Json body = server.handle(stats);
  ASSERT_TRUE(body.at("ok").as_bool());
  const Json& eng = body.at("engine");
  EXPECT_EQ(grew(body, "engine", "jobs_submitted"), 3);
  EXPECT_EQ(grew(body, "engine", "jobs_cancelled"), 0);
  EXPECT_EQ(eng.at("queue_depth").as_int(), 0);
  EXPECT_GE(eng.at("max_queue_depth").as_int(), 1);
  EXPECT_GE(eng.at("coalesced_dispatches").as_int(), 0);
  EXPECT_EQ(grew(body, "server", "async_requests"), 0);

  // The pretty-printer renders every section with the new counters.
  const std::string text = service::format_stats(body);
  EXPECT_NE(text.find("engine:"), std::string::npos);
  EXPECT_NE(text.find("dispatches"), std::string::npos);
  EXPECT_NE(text.find("queue:     depth 0"), std::string::npos);
  EXPECT_NE(text.find(std::to_string(eng.at("jobs_submitted").as_int()) + " submitted"),
            std::string::npos);
  EXPECT_NE(text.find("cache:"), std::string::npos);
  EXPECT_NE(text.find("server:"), std::string::npos);
  EXPECT_NE(text.find("async requests"), std::string::npos);
  EXPECT_EQ(text.find("disk:"), std::string::npos);  // no disk tier attached

  // With a disk tier the disk section appears.
  ServerOptions disk_options;
  disk_options.engine.cache_dir = cache_dir();
  Server disk_server(disk_options);
  ASSERT_TRUE(disk_server.handle(submit).at("ok").as_bool());
  const std::string disk_text =
      service::format_stats(disk_server.handle(stats));
  EXPECT_NE(disk_text.find("disk:"), std::string::npos);
  EXPECT_NE(disk_text.find("entries"), std::string::npos);
  EXPECT_NE(disk_text.find("failed)"), std::string::npos);

  // The formatter is total: an empty body renders to an empty string
  // rather than throwing — older servers simply print less.
  EXPECT_TRUE(service::format_stats(Json::object()).empty());
}

TEST_F(ServiceTest, MetricsOpReturnsRegistrySnapshotAndPrometheusPage) {
  Server server(ServerOptions{});
  Request submit;
  submit.op = Op::Submit;
  submit.jobs = small_corpus();
  ASSERT_TRUE(server.handle(submit).at("ok").as_bool());

  // Route through handle_line so the serve.request instruments move too.
  Server::Session session;
  const Json response =
      server.handle_line("{\"op\":\"metrics\",\"id\":9}", session);
  ASSERT_TRUE(response.at("ok").as_bool());
  EXPECT_EQ(response.at("id").as_int(), 9);
  EXPECT_EQ(response.at("op").as_string(), "metrics");

  // The structured document carries the engine lifecycle counters the
  // submit just advanced, and the text page is Prometheus exposition of
  // the same registry.
  const Json& metrics = response.at("metrics");
  EXPECT_GE(metrics.at("counters").at("engine.dispatches").as_int(), 1);
  EXPECT_GE(metrics.at("histograms").at("engine.dispatch_ms").at("count").as_int(), 1);
  const std::string text = response.at("text").as_string();
  EXPECT_NE(text.find("# TYPE mpsched_engine_dispatches counter"), std::string::npos);
  EXPECT_NE(text.find("mpsched_engine_dispatch_ms_bucket{le=\"+Inf\"}"),
            std::string::npos);
  EXPECT_NE(text.find("mpsched_serve_requests"), std::string::npos);
}

TEST_F(ServiceTest, StatsAndMetricsAgree) {
  // Every stats counter is read from the registry the metrics op exports
  // (or derived from it), so with nothing in flight the two responses
  // agree field for field. The server runs over a directory another
  // server warmed, so analyses come off disk and out of memory.
  ServerOptions options;
  options.engine.cache_dir = cache_dir();
  Request submit;
  submit.op = Op::Submit;
  submit.jobs = small_corpus();
  ASSERT_TRUE(Server(options).handle(submit).at("ok").as_bool());

  // The counters are process-wide, so a raw queue held by a gated
  // dispatch supplies a cancel that lands on a queued job.
  {
    std::mutex mutex;
    std::condition_variable cv;
    bool started = false, open = false;
    engine::SubmissionQueue queue([&](std::vector<Job> jobs) {
      std::unique_lock lock(mutex);
      started = true;
      cv.notify_all();
      cv.wait(lock, [&] { return open; });
      return std::vector<engine::JobResult>(jobs.size());
    });
    queue.submit_batch({Job::from_workload("small_example")});
    {
      std::unique_lock lock(mutex);
      cv.wait(lock, [&] { return started; });
    }
    EXPECT_TRUE(queue.submit_batch({Job::from_workload("small_example")}).cancel());
    {
      std::lock_guard lock(mutex);
      open = true;
    }
    cv.notify_all();
  }

  Server server(options);
  Request async = submit;
  async.op = Op::SubmitAsync;
  Request wait;
  wait.op = Op::Wait;
  wait.request = 1;
  std::istringstream in(service::request_to_json(submit).dump(-1) + "\n" +
                        service::request_to_json(async).dump(-1) + "\n" +
                        service::request_to_json(wait).dump(-1) + "\nnot json\n");
  std::ostringstream out;
  server.serve_stream(in, out);
  std::vector<Response> responses;
  for (const std::string& line : split(out.str(), '\n'))
    if (!trim(line).empty())
      responses.push_back(service::response_from_json(Json::parse(line)));
  ASSERT_EQ(responses.size(), 4u);
  for (std::size_t i = 0; i < 3; ++i) EXPECT_TRUE(responses[i].ok) << i;
  EXPECT_FALSE(responses[3].ok);

  // handle() counts no serve.* request, so nothing moves between the two.
  Request stats;
  stats.op = Op::Stats;
  const Json body = server.handle(stats);
  Request metrics;
  metrics.op = Op::Metrics;
  const Json registry = server.handle(metrics).at("metrics");
  const auto counter = [&registry](const std::string& name) {
    return registry.at("counters").at(name).as_int();
  };
  const auto field = [&body](const char* section, const char* key) {
    return body.at(section).at(key).as_int();
  };

  EXPECT_EQ(field("engine", "batches"), counter("engine.dispatches"));
  EXPECT_EQ(field("engine", "jobs"), counter("engine.jobs"));
  EXPECT_EQ(field("engine", "jobs_succeeded"), counter("engine.jobs_succeeded"));
  EXPECT_EQ(field("engine", "analyses_computed"), counter("engine.analyses.computed"));
  EXPECT_EQ(field("engine", "analyses_reused"), counter("engine.analyses.reused"));
  EXPECT_EQ(field("engine", "jobs_submitted"), counter("queue.submitted"));
  EXPECT_EQ(field("engine", "jobs_cancelled"), counter("queue.cancelled"));
  EXPECT_EQ(field("engine", "queue_depth"), registry.at("gauges").at("queue.depth").as_int());
  EXPECT_EQ(field("engine", "max_queue_depth"),
            registry.at("gauges").at("queue.max_depth").as_int());
  std::int64_t coalesced = 0;  // flushes above the one-job bucket
  const Json::Array& flushes =
      registry.at("histograms").at("queue.coalesce_jobs").at("buckets").as_array();
  for (std::size_t i = 1; i < flushes.size(); ++i) coalesced += flushes[i].at("count").as_int();
  EXPECT_EQ(field("engine", "coalesced_dispatches"), coalesced);

  EXPECT_EQ(field("cache", "graph_hits"), counter("cache.graph.hits"));
  EXPECT_EQ(field("cache", "graph_misses"), counter("cache.graph.misses"));
  EXPECT_EQ(field("cache", "analysis_hits"),
            counter("cache.mem.hits") + counter("cache.disk.hits"));
  EXPECT_EQ(field("cache", "analysis_misses"), counter("cache.disk.misses"));  // disk tier

  for (const char* key : {"hits", "misses", "corrupt", "stores", "store_failures", "temp_swept"})
    EXPECT_EQ(field("disk", key), counter(std::string("cache.disk.") + key)) << key;

  EXPECT_EQ(field("server", "requests"), counter("serve.requests"));
  EXPECT_EQ(field("server", "errors"), counter("serve.errors"));
  EXPECT_EQ(field("server", "sessions"), counter("serve.sessions"));
  EXPECT_EQ(field("server", "async_requests"), counter("serve.async_requests"));

  // The run moved what it should, so the equalities above are not 0 == 0.
  EXPECT_GT(counter("cache.disk.hits"), 0);
  EXPECT_GT(counter("cache.mem.hits"), 0);
  EXPECT_GT(counter("queue.cancelled"), 0);
  EXPECT_GT(coalesced, 0);
  EXPECT_GT(counter("serve.errors"), 0);
  EXPECT_GT(counter("serve.async_requests"), 0);
}

TEST_F(ServiceTest, CacheTrimWithoutDiskTierIsAProtocolError) {
  Server server(ServerOptions{});
  Request trim;
  trim.op = Op::CacheTrim;
  const Json response = server.handle(trim);
  EXPECT_FALSE(response.at("ok").as_bool());
  EXPECT_NE(response.at("error").as_string().find("cache directory"), std::string::npos);
}

TEST_F(ServiceTest, SocketSessionsEndToEnd) {
  ServerOptions options;
  options.socket_path = socket_;
  Server server(options);
  server.adopt_socket(service::open_listen_socket(socket_));
  std::thread serving([&] { server.serve_socket(); });

  {
    Client client(socket_);
    Request ping;
    ping.id = 11;
    const Response pong = client.call(ping);
    EXPECT_TRUE(pong.ok);
    EXPECT_EQ(pong.id, 11);

    Request submit;
    submit.op = Op::Submit;
    submit.id = 12;
    submit.jobs = small_corpus();
    const Response results = client.call(submit);
    ASSERT_TRUE(results.ok);
    EXPECT_EQ(results.body.at("results").at("summary").at("succeeded").as_int(), 3);

    // A second client shares the warm engine.
    Client second(socket_);
    const Response warm = second.call(submit);
    ASSERT_TRUE(warm.ok);
    EXPECT_EQ(warm.body.at("analyses_computed").as_int(), 0);
    EXPECT_EQ(warm.body.at("results").dump(-1), results.body.at("results").dump(-1));

    Request shutdown;
    shutdown.op = Op::Shutdown;
    EXPECT_TRUE(client.call(shutdown).ok);
  }
  serving.join();
  EXPECT_FALSE(fs::exists(socket_));  // graceful exit unlinks the socket
}

TEST_F(ServiceTest, ConcurrentClientsGetIdenticalResults) {
  ServerOptions options;
  options.socket_path = socket_;
  options.max_sessions = 4;
  Server server(options);
  server.adopt_socket(service::open_listen_socket(socket_));
  std::thread serving([&] { server.serve_socket(); });

  constexpr int kClients = 6;  // more than max_sessions: exercises backpressure
  std::vector<std::string> results(kClients);
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      Client client(socket_);
      Request submit;
      submit.op = Op::Submit;
      submit.id = c + 1;
      submit.jobs = small_corpus();
      const Response response = client.call(submit);
      if (response.ok) results[c] = response.body.at("results").dump(-1);
    });
  for (std::thread& t : clients) t.join();

  ASSERT_FALSE(results[0].empty());
  for (int c = 1; c < kClients; ++c) EXPECT_EQ(results[c], results[0]) << "client " << c;

  Client(socket_).call([] {
    Request r;
    r.op = Op::Shutdown;
    return r;
  }());
  serving.join();
}

TEST_F(ServiceTest, CrossSessionSubmitsShareOneAnalysis) {
  // Three clients, each submitting one single-job corpus over its own
  // socket session. However the queue groups the three jobs into
  // dispatches — one shared flush, or jobs queued behind a running one —
  // every client gets the same results and the analysis is computed once:
  // a shared flush deduplicates it, and a later dispatch finds it cached.
  ServerOptions options;
  options.socket_path = socket_;
  Server server(options);
  const engine::EngineStats base = server.engine().stats();
  server.adopt_socket(service::open_listen_socket(socket_));
  std::thread serving([&] { server.serve_socket(); });

  constexpr int kClients = 3;
  std::string results[kClients];
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c)
    clients.emplace_back([&, c] {
      Client client(socket_);
      const std::uint64_t rid =
          client.submit_async({Job::from_workload("small_example")});
      const Response finished = client.wait_request(rid);
      if (finished.ok) results[c] = finished.body.at("results").dump(-1);
    });
  for (std::thread& t : clients) t.join();

  ASSERT_FALSE(results[0].empty());
  for (int c = 1; c < kClients; ++c) EXPECT_EQ(results[c], results[0]);

  const engine::EngineStats stats = server.engine().stats();
  EXPECT_GE(stats.batches - base.batches, 1u);
  EXPECT_LE(stats.batches - base.batches, 3u);
  EXPECT_EQ(stats.jobs - base.jobs, 3u);
  // One client's job computed the analysis; the other two reused it,
  // within its dispatch or from the cache.
  EXPECT_EQ(stats.analyses_computed - base.analyses_computed, 1u);
  EXPECT_EQ(stats.analyses_reused - base.analyses_reused, 2u);

  Client(socket_).call([] {
    Request r;
    r.op = Op::Shutdown;
    return r;
  }());
  serving.join();
}

TEST_F(ServiceTest, ShutdownDrainsASubmitQueuedBehindARunningDispatch) {
  // A session blocked in a submit whose job is queued behind a running
  // dispatch must not be dropped by graceful shutdown: the server's stop
  // path drains the engine queue before joining sessions, so the blocked
  // submit gets real results.
  ServerOptions options;
  options.socket_path = socket_;
  options.engine.threads = 1;
  Server server(options);
  server.adopt_socket(service::open_listen_socket(socket_));
  std::thread serving([&] { server.serve_socket(); });

  Client plug_client(socket_);
  plug_client.submit_async({plug_job()});
  ASSERT_TRUE(await_queue(server, false));  // the plug's dispatch holds the queue

  std::string blocked_result_doc;
  std::thread blocked([&] {
    Client client(socket_);
    Request submit;
    submit.op = Op::Submit;
    submit.jobs.push_back(Job::from_workload("small_example"));
    const Response response = client.call(submit);  // queued behind the plug
    if (response.ok) blocked_result_doc = response.body.at("results").dump(-1);
  });
  // Only shut down once the blocked client's job is actually queued.
  const bool queued = await_queue(server, true);

  Client(socket_).call([] {
    Request r;
    r.op = Op::Shutdown;
    return r;
  }());
  serving.join();
  blocked.join();

  EXPECT_TRUE(queued) << "the plug finished before the blocked submit arrived";
  // The drained job ran to completion and its session got real results.
  EXPECT_FALSE(blocked_result_doc.empty());
  EXPECT_NE(blocked_result_doc.find("small_example"), std::string::npos);
  EXPECT_FALSE(fs::exists(socket_));
}

TEST_F(ServiceTest, SigintFinishesInFlightWorkAndLeavesNoTempFiles) {
  ServerOptions options;
  options.socket_path = socket_;
  options.engine.cache_dir = cache_dir();
  Server server(options);
  server.adopt_socket(service::open_listen_socket(socket_));
  server.install_signal_handlers();
  std::thread serving([&] { server.serve_socket(); });

  {
    Client client(socket_);
    Request submit;
    submit.op = Op::Submit;
    submit.jobs = small_corpus();
    ASSERT_TRUE(client.call(submit).ok);
  }

  ::raise(SIGINT);
  serving.join();
  EXPECT_TRUE(server.stop_requested());
  EXPECT_FALSE(fs::exists(socket_));

  // The cache dir holds committed entries only — no tmp-* debris.
  std::size_t committed = 0, temps = 0;
  for (const auto& entry : fs::directory_iterator(cache_dir())) {
    const std::string name = entry.path().filename().string();
    if (name.starts_with("tmp-")) ++temps;
    else if (name.ends_with(".mpa")) ++committed;
  }
  EXPECT_GT(committed, 0u);
  EXPECT_EQ(temps, 0u);
}

}  // namespace
}  // namespace mpsched
