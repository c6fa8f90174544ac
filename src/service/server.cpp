#include "service/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <istream>
#include <memory>
#include <ostream>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "engine/cache_store.hpp"
#include "io/result_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "service/wire.hpp"
#include "util/strings.hpp"
#include "util/timer.hpp"

namespace mpsched::service {

namespace {

/// The server whose request_stop() the signal handlers invoke (the most
/// recently installed one; cleared by its destructor).
std::atomic<Server*> g_signal_server{nullptr};

void signal_stop_handler(int) {
  if (Server* server = g_signal_server.load(std::memory_order_acquire))
    server->request_stop();
}

/// Session-scope bookkeeping shared by the stream and socket front ends:
/// one counter tick and an active-session gauge held for the session's
/// lifetime, alongside the serve.session trace span.
class SessionScope {
 public:
  SessionScope() : span_("serve.session") {
    static obs::Counter& session_count =
        obs::Registry::global().counter("serve.sessions");
    session_count.add();
    active().add(1);
  }
  ~SessionScope() { active().add(-1); }
  SessionScope(const SessionScope&) = delete;
  SessionScope& operator=(const SessionScope&) = delete;

 private:
  static obs::Gauge& active() {
    static obs::Gauge& gauge =
        obs::Registry::global().gauge("serve.active_sessions");
    return gauge;
  }
  obs::Span span_;
};

}  // namespace

int open_listen_socket(const std::string& path) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.empty() || path.size() >= sizeof(addr.sun_path))
    throw std::runtime_error("serve: socket path '" + path + "' is empty or longer than " +
                             std::to_string(sizeof(addr.sun_path) - 1) + " bytes");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);

  // A leftover socket file from a crashed daemon would make bind() fail
  // forever. Probe it: if something accepts, a live server owns the path
  // (refuse); if the connect is refused AND the path really is a socket,
  // the file is stale (replace). The is_socket check matters — connect()
  // to a regular file also fails with ECONNREFUSED, and a typo'd --socket
  // must not delete the user's file.
  std::error_code ec;
  if (std::filesystem::exists(path, ec)) {
    if (!std::filesystem::is_socket(path, ec))
      throw std::runtime_error("serve: '" + path + "' exists and is not a socket");
    const int probe = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (probe >= 0) {
      const int rc =
          ::connect(probe, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr));
      const int err = errno;
      ::close(probe);
      if (rc == 0)
        throw std::runtime_error("serve: '" + path + "' is already being served");
      if (err == ECONNREFUSED) ::unlink(path.c_str());
    }
  }

  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("serve: cannot create socket");
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string message = std::strerror(errno);
    ::close(fd);
    throw std::runtime_error("serve: cannot bind '" + path + "': " + message);
  }
  if (::listen(fd, 64) != 0) {
    const std::string message = std::strerror(errno);
    ::close(fd);
    ::unlink(path.c_str());
    throw std::runtime_error("serve: cannot listen on '" + path + "': " + message);
  }
  return fd;
}

Server::Session::~Session() {
  // Uncollected async work: cancel whatever is still queued so a
  // disconnecting client doesn't leave dead jobs ahead of live ones.
  // Dispatched jobs run to completion regardless — their analyses warm
  // the shared cache either way.
  for (auto& [id, pending] : pending_) pending.ticket.cancel();
}

Server::Server(ServerOptions options)
    : options_(std::move(options)),
      engine_(options_.engine),
      graphs_(&obs::Registry::global().counter("serve.graphs.built"),
              &obs::Registry::global().counter("serve.graphs.reused")) {
  if (::pipe(stop_pipe_) != 0)
    throw std::runtime_error("serve: cannot create the stop pipe");
  for (const int fd : stop_pipe_) ::fcntl(fd, F_SETFD, FD_CLOEXEC);
  ::fcntl(stop_pipe_[1], F_SETFL, O_NONBLOCK);
}

Server::~Server() {
  // If this server's handlers are installed, restore the default
  // disposition *before* clearing the pointer — a signal delivered after
  // this point must not run a handler that could dereference a
  // half-destroyed server or write to a recycled pipe fd.
  if (g_signal_server.load(std::memory_order_acquire) == this) {
    struct sigaction action{};
    action.sa_handler = SIG_DFL;
    sigemptyset(&action.sa_mask);
    ::sigaction(SIGINT, &action, nullptr);
    ::sigaction(SIGTERM, &action, nullptr);
    Server* self = this;
    g_signal_server.compare_exchange_strong(self, nullptr);
  }
  for (int& fd : stop_pipe_)
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  if (listen_fd_ >= 0) ::close(listen_fd_);
}

void Server::request_stop() noexcept {
  stop_.store(true, std::memory_order_release);
  if (stop_pipe_[1] >= 0) {
    // One byte wakes every poller forever — the read end is never
    // drained, so the pipe stays readable once stop is requested.
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(stop_pipe_[1], &byte, 1);
  }
}

void Server::install_signal_handlers() {
  g_signal_server.store(this, std::memory_order_release);
  struct sigaction action{};
  action.sa_handler = signal_stop_handler;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: blocking reads must wake up
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
}

namespace {

/// Writes a response tree under the request's one serve.serialize span
/// and returns its "ok" flag.
bool write_tree(const Json& response, std::string& out) {
  obs::Span serialize_span("serve.serialize");
  JsonWriter(out).value(response);
  const Json* flag = response.find("ok");
  return flag != nullptr && flag->as_bool();
}

/// Writes a results response: `envelope`'s keys, then the batch's results
/// document (or a submit_job's one result) and its analysis counters,
/// streamed from the batch with no tree built.
void write_results(const Json& envelope, const engine::BatchResult& batch, bool one_result,
                   bool diagnostics, std::string& out) {
  obs::Span serialize_span("serve.serialize");
  JsonWriter writer(out);
  writer.begin_object();
  for (const auto& [key, value] : envelope.as_object()) writer.field(key, value);
  if (one_result) {
    writer.key("result");
    write_result(writer, batch.jobs.front(), diagnostics);
  } else {
    writer.key("results");
    write_batch(writer, batch, diagnostics);
  }
  writer.field("analyses_computed", std::uint64_t{batch.analyses_computed});
  writer.field("analyses_reused", std::uint64_t{batch.analyses_reused});
  writer.end_object();
}

}  // namespace

Json Server::handle(Request request) {
  Session throwaway;
  return handle(std::move(request), throwaway);
}

Json Server::handle(Request request, Session& session) {
  std::string text;
  write_response(std::move(request), session, text);
  return Json::parse(text);
}

bool Server::write_response(Request request, Session& session, std::string& out) {
  const std::size_t start = out.size();
  const auto reply = [&out](const Json& response) { return write_tree(response, out); };
  try {
    switch (request.op) {
      case Op::Ping: {
        Json response = make_ok(request);
        response.set("protocol", kProtocol);
        return reply(response);
      }

      case Op::Submit:
      case Op::SubmitJob: {
        // The wire path (request_from_json) guarantees this, but handle()
        // is public — an in-process caller's hand-built submit_job must
        // not reach jobs.front() on an empty batch.
        if (request.op == Op::SubmitJob && request.jobs.size() != 1)
          return reply(make_error(request.id, to_text(request.op),
                                  "submit_job carries exactly one job"));
        // Blocking ops ride the same admission queue as everything else.
        // On an idle queue this session's thread runs the dispatch itself;
        // sessions that block here while a dispatch runs queue behind it
        // and share the next one instead of queueing behind a server-side
        // mutex.
        const engine::BatchResult batch = engine_.run_batch(std::move(request.jobs));
        write_results(make_ok(request), batch, request.op == Op::SubmitJob,
                      request.diagnostics, out);
        return true;
      }

      case Op::SubmitAsync: {
        if (request.jobs.empty())
          return reply(make_error(request.id, to_text(request.op),
                                  "submit_async carries a non-empty corpus"));
        if (request.id != 0)
          for (const auto& [rid, pending] : session.pending_)
            if (pending.client_id == request.id)
              return reply(make_error(request.id, to_text(request.op),
                                      "duplicate id " + std::to_string(request.id) +
                                          ": an async request with this correlation id is "
                                          "still pending in this session"));
        Session::PendingRequest pending{engine_.submit_batch(std::move(request.jobs)),
                                        request.diagnostics, request.id,
                                        std::chrono::steady_clock::now()};
        const std::uint64_t rid =
            next_request_id_.fetch_add(1, std::memory_order_relaxed);
        const std::size_t n_jobs = pending.ticket.size();
        session.pending_.emplace(rid, std::move(pending));
        static obs::Counter& async_requests =
            obs::Registry::global().counter("serve.async_requests");
        async_requests.add();
        Json response = make_ok(request);
        response.set("request", rid);
        response.set("jobs", n_jobs);
        response.set("queue_depth", engine_.stats().queue_depth);
        return reply(response);
      }

      case Op::Poll:
      case Op::Wait:
      case Op::Cancel: {
        const auto it = session.pending_.find(request.request);
        if (it == session.pending_.end())
          return reply(make_error(request.id, to_text(request.op),
                                  "unknown request id " + std::to_string(request.request) +
                                      " (never submitted in this session, or already "
                                      "collected by wait)"));
        Session::PendingRequest& pending = it->second;
        Json response = make_ok(request);
        response.set("request", request.request);
        // The request resolves and cancels as one unit, so poll and
        // cancel report all of its jobs or none.
        const std::size_t jobs = pending.ticket.size();
        if (request.op == Op::Poll) {
          const bool done = pending.ticket.ready();
          response.set("jobs", jobs);
          response.set("completed", done ? jobs : 0);
          response.set("done", done);
          return reply(response);
        }
        if (request.op == Op::Cancel) {
          response.set("jobs", jobs);
          response.set("cancelled", pending.ticket.cancel() ? jobs : 0);
          return reply(response);
        }
        // Wait: consume first, then block and assemble. Consuming before
        // collect matters: a dispatch-level exception must turn into ONE
        // error response, not a request id the session can neither
        // collect nor free. A cancelled request resolves as failed jobs,
        // so a cancel never wedges a wait either.
        Session::PendingRequest consumed = std::move(pending);
        session.pending_.erase(it);
        engine::BatchResult batch = engine_.collect(std::move(consumed.ticket));
        batch.wall_ms = std::chrono::duration<double, std::milli>(
                            std::chrono::steady_clock::now() - consumed.submitted)
                            .count();
        write_results(response, batch, false, consumed.diagnostics, out);
        return true;
      }

      case Op::Stats: {
        // Every counter is a registry read (the engine's at its last
        // dispatch boundary); only the state beside them is asked of its
        // owner.
        const auto count = [](const char* name) {
          return obs::Registry::global().counter(name).value();
        };
        const engine::EngineStats stats = engine_.stats();
        Json eng = Json::object();
        eng.set("batches", stats.batches);
        eng.set("jobs", stats.jobs);
        eng.set("jobs_succeeded", stats.jobs_succeeded);
        eng.set("analyses_computed", stats.analyses_computed);
        eng.set("analyses_reused", stats.analyses_reused);
        eng.set("jobs_submitted", stats.jobs_submitted);
        eng.set("jobs_cancelled", stats.jobs_cancelled);
        eng.set("coalesced_dispatches", stats.coalesced_dispatches);
        eng.set("queue_depth", stats.queue_depth);
        eng.set("max_queue_depth", stats.max_queue_depth);
        Json cache = Json::object();
        cache.set("graph_hits", stats.cache.graph_hits);
        cache.set("graph_misses", stats.cache.graph_misses);
        cache.set("analysis_hits", stats.cache.analysis_hits);
        cache.set("analysis_misses", stats.cache.analysis_misses);
        cache.set("analyses_in_memory", engine_.cache().analysis_count());
        Json server = Json::object();
        server.set("requests", count("serve.requests"));
        server.set("errors", count("serve.errors"));
        server.set("sessions", count("serve.sessions"));
        server.set("async_requests", count("serve.async_requests"));

        Json response = make_ok(request);
        response.set("engine", std::move(eng));
        response.set("cache", std::move(cache));
        if (const engine::CacheStore* store = engine_.cache().disk_store()) {
          Json disk = Json::object();
          disk.set("directory", store->directory());
          disk.set("entries", store->entry_count());
          disk.set("hits", count("cache.disk.hits"));
          disk.set("misses", count("cache.disk.misses"));
          disk.set("corrupt", count("cache.disk.corrupt"));
          disk.set("stores", count("cache.disk.stores"));
          disk.set("store_failures", count("cache.disk.store_failures"));
          disk.set("temp_swept", count("cache.disk.temp_swept"));
          response.set("disk", std::move(disk));
        }
        response.set("server", std::move(server));
        return reply(response);
      }

      case Op::Metrics: {
        // The observability registry is process-wide (one engine, one
        // queue, one disk store per daemon), so this is a plain snapshot:
        // the structured document for programmatic consumers and the
        // Prometheus text page for scrapers, in one response.
        Json response = make_ok(request);
        response.set("metrics", obs::Registry::global().to_json());
        response.set("text", obs::Registry::global().to_prometheus());
        return reply(response);
      }

      case Op::CacheTrim: {
        engine::CacheStore* store = engine_.cache().disk_store();
        if (store == nullptr)
          return reply(make_error(request.id, to_text(request.op),
                                  "no cache directory attached (start the server with "
                                  "--cache-dir)"));
        engine::TrimOptions trim_options;
        trim_options.max_age_seconds = request.trim_max_age_seconds;
        trim_options.max_total_bytes = request.trim_max_total_bytes;
        const engine::TrimResult trimmed = store->trim(trim_options);
        Json response = make_ok(request);
        response.set("entries_removed", trimmed.entries_removed);
        response.set("bytes_removed", trimmed.bytes_removed);
        response.set("entries_kept", trimmed.entries_kept);
        response.set("bytes_kept", trimmed.bytes_kept);
        response.set("temp_swept", trimmed.temp_swept);
        return reply(response);
      }

      case Op::Shutdown: {
        // The response is built first and the stop is requested after, so
        // the requesting session still gets its acknowledgement before
        // every session (including this one) drains.
        Json response = make_ok(request);
        request_stop();
        return reply(response);
      }
    }
    return reply(make_error(request.id, "unknown", "unhandled op"));
  } catch (const std::exception& e) {
    out.resize(start);
    return reply(make_error(request.id, to_text(request.op), e.what()));
  }
}

Json Server::handle_line(std::string_view line) {
  Session throwaway;
  return handle_line(line, throwaway);
}

Json Server::handle_line(std::string_view line, Session& session) {
  return Json::parse(respond(line, session));
}

std::string Server::respond(std::string_view line, Session& session) {
  static obs::Counter& request_count =
      obs::Registry::global().counter("serve.requests");
  static obs::Counter& error_count =
      obs::Registry::global().counter("serve.errors");
  static obs::Histogram& request_ms =
      obs::Registry::global().histogram("serve.request_ms");
  // The span opens before the parse (the op name is not known yet), so a
  // malformed line still shows up in the trace as a served request, and it
  // closes after the response is written.
  obs::Span span("serve.request");
  Timer wall;
  std::string wire;
  bool ok = false;
  try {
    Request request;
    Json error;
    {
      // Covers resolving every job's graph (a workloads.build span per
      // intern miss), not just reading the JSON.
      obs::Span parse_span("serve.parse");
      const Json doc = Json::parse(line);
      try {
        request = request_from_json(doc, graphs_);
      } catch (const std::exception& e) {
        // Malformed request, parseable envelope: echo what we can.
        std::int64_t id = 0;
        std::string op = "unknown";
        if (doc.is_object()) {
          if (const Json* v = doc.find("id"); v != nullptr && v->is_int()) id = v->as_int();
          if (const Json* v = doc.find("op"); v != nullptr && v->is_string())
            op = v->as_string();
        }
        error = make_error(id, op, e.what());
      }
    }
    ok = error.is_null() ? write_response(std::move(request), session, wire)
                         : write_tree(error, wire);
  } catch (const std::exception& e) {
    ok = write_tree(make_error(0, "unknown", std::string("bad request line: ") + e.what()),
                    wire);
  }
  wire += '\n';
  request_count.add();
  if (!ok) error_count.add();
  request_ms.record(wall.millis());
  return wire;
}

namespace {

/// The response line a session sends for a request line longer than
/// kMaxLineBytes, before it ends.
std::string line_too_long_response() {
  return make_error(0, "unknown",
                    "request line exceeds " + std::to_string(kMaxLineBytes) + " bytes")
             .dump(-1) +
         "\n";
}

enum class LineRead { Line, TooLong, End };

/// std::getline bounded at kMaxLineBytes: reads one line of `in` into
/// `line`, without its newline. TooLong once the line outgrows the bound
/// (the rest of it stays unread); End when the stream holds nothing more
/// (a last line without a newline is still a Line).
LineRead read_line(std::istream& in, std::string& line) {
  using Traits = std::istream::traits_type;
  line.clear();
  const std::istream::sentry ready(in, /*noskipws=*/true);
  if (!ready) return LineRead::End;
  std::streambuf& buffer = *in.rdbuf();
  for (Traits::int_type c = buffer.sbumpc(); !Traits::eq_int_type(c, Traits::eof());
       c = buffer.sbumpc()) {
    if (Traits::to_char_type(c) == '\n') return LineRead::Line;
    if (line.size() == kMaxLineBytes) return LineRead::TooLong;
    line.push_back(Traits::to_char_type(c));
  }
  in.setstate(std::ios::eofbit);
  return line.empty() ? LineRead::End : LineRead::Line;
}

}  // namespace

void Server::serve_stream(std::istream& in, std::ostream& out) {
  SessionScope scope;
  Session state;
  std::string line;
  while (!stop_requested()) {
    const LineRead read = read_line(in, line);
    if (read == LineRead::End) break;
    if (read == LineRead::TooLong) {
      out << line_too_long_response() << std::flush;
      break;
    }
    if (trim(line).empty()) continue;
    out << respond(line, state) << std::flush;
  }
}

void Server::session(int fd, bool single_request) {
  // Degraded (at-capacity) sessions run inline on the accept loop, so a
  // slow or idle client must not wedge it: the whole single request must
  // arrive by a fixed deadline (a deadline, not a per-poll timeout —
  // trickling one byte at a time must not reset the clock).
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  SessionScope scope;
  Session state;
  std::string buffer;
  std::size_t scan_from = 0;  // newline search resumes where it left off
  while (!stop_requested()) {
    const std::size_t newline = buffer.find('\n', scan_from);
    // The line so far outgrows the bound whether or not its newline came.
    if (std::min(newline, buffer.size()) > kMaxLineBytes) {
      send_all(fd, line_too_long_response());
      break;
    }
    if (newline == std::string::npos) {
      scan_from = buffer.size();
      int poll_timeout_ms = -1;
      if (single_request) {
        const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
            deadline - std::chrono::steady_clock::now());
        if (remaining.count() <= 0) break;  // single-request read timed out
        poll_timeout_ms = static_cast<int>(remaining.count());
      }
      pollfd fds[2] = {{fd, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
      const int rc = ::poll(fds, 2, poll_timeout_ms);
      if (rc < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (rc == 0) break;  // single-request read timed out
      if (stop_requested()) break;
      if ((fds[0].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      char chunk[4096];
      const ssize_t n = ::read(fd, chunk, sizeof chunk);
      if (n <= 0) break;  // client hung up (or error): session over
      buffer.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    const std::string line = buffer.substr(0, newline);
    buffer.erase(0, newline + 1);
    scan_from = 0;
    if (trim(line).empty()) continue;
    // In-flight guarantee: once a request is being handled it runs to
    // completion and its response is flushed, stop or no stop; the loop
    // condition only gates picking up the *next* request.
    if (!send_all(fd, respond(line, state))) break;
    if (single_request) break;
  }
  ::close(fd);
}

void Server::serve_socket() {
  if (listen_fd_ < 0) listen_fd_ = open_listen_socket(options_.socket_path);

  struct SessionHandle {
    std::thread thread;
    std::shared_ptr<std::atomic<bool>> done;
  };
  std::vector<SessionHandle> sessions;
  const auto reap = [&sessions](bool join_all) {
    for (auto it = sessions.begin(); it != sessions.end();) {
      if (join_all || it->done->load(std::memory_order_acquire)) {
        it->thread.join();
        it = sessions.erase(it);
      } else {
        ++it;
      }
    }
  };

  while (!stop_requested()) {
    pollfd fds[2] = {{listen_fd_, POLLIN, 0}, {stop_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (stop_requested()) break;
    // POLLERR/POLLHUP fall through to accept(), whose failure breaks the
    // loop — `continue` on them would spin at 100% CPU (poll returns
    // immediately with the same revents forever).
    if ((fds[0].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;
    }
    ::fcntl(client, F_SETFD, FD_CLOEXEC);
    auto done = std::make_shared<std::atomic<bool>>(false);
    sessions.push_back({std::thread([this, client, done] {
                          session(client);
                          done->store(true, std::memory_order_release);
                        }),
                        done});
    reap(false);
    while (sessions.size() >= options_.max_sessions && !stop_requested()) {
      // Saturated: apply backpressure until a session finishes (50 ms
      // naps, woken early by the stop pipe). New connections are still
      // served — inline, one request each — so control ops (ping, stats,
      // and above all shutdown) stay reachable when every slot is held
      // by an idle client.
      pollfd fds[2] = {{stop_pipe_[0], POLLIN, 0}, {listen_fd_, POLLIN, 0}};
      ::poll(fds, 2, 50);
      reap(false);
      if (stop_requested() || sessions.size() < options_.max_sessions) break;
      if ((fds[1].revents & POLLIN) != 0) {
        const int extra = ::accept(listen_fd_, nullptr, nullptr);
        if (extra >= 0) {
          ::fcntl(extra, F_SETFD, FD_CLOEXEC);
          session(extra, /*single_request=*/true);
        }
      }
    }
  }

  // Graceful drain: make stop visible to every session before joining —
  // the accept loop can also get here via its own error paths (poll or
  // accept failing), where the flag is not yet set and idle sessions
  // would otherwise block in poll forever.
  request_stop();
  // Then drain the admission queue before joining: sessions can be
  // blocked in submit/wait on jobs queued behind a running dispatch.
  // shutdown() flushes them as soon as that dispatch ends and joins the
  // dispatcher, so every blocked session resolves before reap() joins it;
  // a session that races one more submission in gets an error response,
  // which is what an almost-stopped daemon owes it.
  engine_.shutdown();
  reap(true);
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::unlink(options_.socket_path.c_str());
}

}  // namespace mpsched::service
