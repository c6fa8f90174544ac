// Long-running service front end over the batch engine (ROADMAP's
// service/API item): one process, one Engine, many requests — the
// in-memory AnalysisCache and the --cache-dir disk tier stay warm across
// submissions, so repeated corpora are answered without recomputing a
// single analysis.
//
// Transport is deliberately boring: newline-delimited JSON
// (io/service_io), served either on an input and an output descriptor
// (stdin/stdout for `mpsched_serve --stdio`, pipes or temporary files in
// tests) or on a Unix-domain socket with one thread per connected client.
// Both run one session loop: it polls its input beside the stop pipe,
// reads 4 KiB chunks, answers each line and writes the response whole.
//
// Concurrency story (protocol v2): blocking ops (submit, submit_job) call
// Engine::run_batch, which runs the dispatch on the session's own thread
// when the admission queue is idle and otherwise queues and waits; async
// ops (submit_async / poll / wait / cancel) are written on the engine's
// ticket API and give every session a pipeline of server-assigned request
// ids it can keep in flight. A request is one submission with one ticket,
// so poll sees it done or not, and cancel stops all of its jobs or none
// (a request already dispatched runs to completion). All submissions —
// across every session — funnel into the engine's one admission queue,
// so small jobs from N clients that arrive while a dispatch runs share
// the next warm dispatch, and nothing about coalescing or about who runs
// a dispatch changes any result: a JobResult depends only on its Job (the
// engine's gated determinism contract), so serve-mode results stay
// byte-identical to a one-shot mpsched_batch run of the same corpus.
//
// Warm path: handle_line parses every request through one GraphIntern
// the server owns for its lifetime, so a workload spec or inline graph
// the daemon has already built costs a map lookup and a pointer copy,
// and the serve.graphs.built / serve.graphs.reused counters say which.
// Responses are written straight to text through one JsonWriter: a
// results payload streams from the engine's batch with no Json tree
// built, and handle()/handle_line() return the parse of those same bytes,
// so in-process callers see exactly what a socket client receives.
//
// Counters: requests, errors, sessions and async requests are counted in
// the metrics registry (serve.*), like every engine, cache and queue
// event. The `stats` op renders a snapshot of that registry — the
// engine's dispatch-boundary EngineStats plus the serve.* and cache.disk.*
// counters — so it reports the same numbers as `metrics`, and the state
// beside them (queue depth, analyses in memory, disk entries) is read
// from its owner.
//
// Shutdown story: a shutdown request, SIGINT or SIGTERM (see
// install_signal_handlers) sets a stop flag and pokes a self-pipe every
// blocked poll() watches. In-flight requests finish and their responses
// are flushed, sessions drain, queued jobs are drained by the engine, the
// listener closes, and the socket file is unlinked — no half-written
// responses, no orphaned cache temp files.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "engine/engine.hpp"
#include "io/graph_intern.hpp"
#include "io/service_io.hpp"

namespace mpsched::service {

/// The longest request line a session reads; 64 MiB comfortably fits any
/// real corpus line. A longer line is answered with an error and ends its
/// session (stream or socket alike), so a client streaming gigabytes with
/// no newline cannot grow the daemon without limit (the shared engine
/// serves every client).
inline constexpr std::size_t kMaxLineBytes = std::size_t{64} << 20;

struct ServerOptions {
  /// Engine configuration (threads, cache, cache_dir, shard granularity).
  engine::EngineOptions engine;
  /// Socket path for serve_socket(). Unix-domain socket paths are
  /// length-limited (~107 bytes); open_listen_socket rejects longer ones.
  std::string socket_path;
  /// Concurrent socket sessions. At capacity the server degrades instead
  /// of refusing: extra connections are served inline on the accept
  /// loop, one request per connection with a bounded wait — so control
  /// ops (ping, stats, shutdown) stay reachable even when every slot is
  /// held by an idle client.
  std::size_t max_sessions = 16;
};

/// Creates, binds and listens on a Unix-domain socket, replacing a stale
/// socket file (bind target exists but nothing accepts) and refusing a
/// live one. A free function so a daemonizing front end can bind before
/// it forks — the listening fd survives fork, the Server (and the
/// engine's thread pool) is then constructed in the child only. Throws
/// std::runtime_error.
int open_listen_socket(const std::string& path);

class Server {
 public:
  /// Per-connection protocol state: the async requests this session has
  /// submitted and not yet collected with wait. Request ids are
  /// session-owned — polling another session's id is rejected exactly
  /// like an unknown one. Sessions are single-threaded by construction
  /// (one per connection); the engine underneath is what's shared.
  class Session {
   public:
    Session() = default;
    Session(const Session&) = delete;
    Session& operator=(const Session&) = delete;
    /// Cancels the uncollected requests that are still queued —
    /// dispatched ones finish (and warm the cache) either way.
    ~Session();

    std::size_t pending_requests() const { return pending_.size(); }

   private:
    friend class Server;
    struct PendingRequest {
      engine::Ticket ticket;  ///< the request's one submission
      bool diagnostics = false;
      std::int64_t client_id = 0;  ///< correlation id used at submit (0 = none)
      /// When submit_async accepted it — wait reports wall_ms from here.
      std::chrono::steady_clock::time_point submitted{};
    };
    std::unordered_map<std::uint64_t, PendingRequest> pending_;
  };

  explicit Server(ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  engine::Engine& engine() { return engine_; }
  const ServerOptions& options() const noexcept { return options_; }

  /// Dispatches one parsed request against a session and returns the
  /// response document: the parse of the exact bytes a socket client
  /// would receive for it. Never throws for request-level failures —
  /// those come back as {"ok":false,"error":...} responses. Thread-safe
  /// across distinct sessions; a Session itself belongs to one thread.
  /// Taken by value: submit ops move the request's jobs into the engine's
  /// queue, so pass an rvalue to avoid copying them.
  Json handle(Request request, Session& session);
  /// Stateless convenience (a throwaway session): an async request
  /// submitted through it can never be polled again.
  Json handle(Request request);

  /// Parses one NDJSON line and dispatches it; returns the parse of the
  /// response line the sessions send. Malformed lines yield an error
  /// response instead of throwing — one bad request must not kill the
  /// session.
  Json handle_line(std::string_view line, Session& session);
  Json handle_line(std::string_view line);

  /// Serves one session that reads request lines from descriptor `in`
  /// and writes one response line per request to `out` (a socket, a pipe,
  /// a file or a terminal); closes neither.
  /// Returns at end of input (an unterminated last line is answered
  /// first), after a shutdown request, when stop is requested while it
  /// waits for a line, when `in` fails or `out` breaks, or after answering
  /// a line longer than kMaxLineBytes with an error.
  void serve_stream(int in, int out);

  /// Accept loop on the Unix socket (options().socket_path, or a
  /// pre-bound fd passed via adopt_socket). Each accepted client first
  /// reaps the finished sessions, then gets a session thread below
  /// options().max_sessions, or at capacity one request served inline.
  /// Joins every session on stop, closes the listener and unlinks the
  /// socket file before returning.
  void serve_socket();

  /// Hands serve_socket() an already-listening fd (see
  /// open_listen_socket); must be called before serve_socket().
  void adopt_socket(int listen_fd) noexcept { listen_fd_ = listen_fd; }

  /// Requests a graceful stop. Async-signal-safe: an atomic store plus a
  /// self-pipe write, so signal handlers may call it directly.
  void request_stop() noexcept;
  bool stop_requested() const noexcept {
    return stop_.load(std::memory_order_acquire);
  }

  /// Routes SIGINT/SIGTERM to request_stop() on this server (the most
  /// recently installed server wins); its stop-pipe write wakes every
  /// session and the accept loop.
  void install_signal_handlers();

 private:
  /// Parses one request line, handles it and writes its response: one
  /// newline-terminated line of compact JSON. The serve.request span and
  /// the serve.request_ms histogram cover all of it, writing included.
  std::string respond(std::string_view line, Session& session);
  /// Handles one request and appends its response object to `out`, under
  /// one serve.serialize span; returns the response's "ok" flag. Submit,
  /// submit_job and wait stream their results straight from the batch
  /// (io/result_io write_batch/write_result); every other op writes its
  /// small response tree. Never throws for request-level failures.
  bool write_response(Request request, Session& session, std::string& out);
  /// The one session loop, for stdio and socket sessions alike (see
  /// serve_stream). `single_request` is the at-capacity degraded mode:
  /// serve exactly one request, which must arrive within a fixed deadline.
  void session(int in, int out, bool single_request = false);

  ServerOptions options_;
  engine::Engine engine_;
  GraphIntern graphs_;  ///< handle_line resolves every job graph here
  std::atomic<std::uint64_t> next_request_id_{1};
  std::atomic<bool> stop_{false};
  int stop_pipe_[2] = {-1, -1};  ///< [read, write]; write side never drained
  int listen_fd_ = -1;
};

}  // namespace mpsched::service
