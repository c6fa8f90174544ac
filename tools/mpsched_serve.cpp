// mpsched_serve — long-running scheduling daemon over the batch engine.
//
// One process, one engine: the in-memory analysis cache (and, with
// --cache-dir, the shared disk tier) stays warm across requests, so a
// corpus answered twice computes its analyses at most once. Requests and
// responses are newline-delimited JSON (io/service_io): submit a corpus,
// submit a single job, query stats, trim the cache directory, shut down.
//
// Usage:
//   mpsched_serve --socket PATH [--threads N] [--no-cache] [--cache-dir DIR]
//                 [--max-clients N] [--daemonize] [--trace-out FILE]
//   mpsched_serve --stdio [same engine flags]
//
// --trace-out enables structured tracing (src/obs) for the daemon's whole
// lifetime and writes the span ring as Chrome trace-event JSON on graceful
// shutdown — load the file in chrome://tracing or Perfetto to see queue
// waits, dispatches, per-shard enumeration, and cache-tier access across
// every session. Use an absolute path with --daemonize.
//
// Coalescing: every submission (blocking or async, any session) rides the
// engine's admission queue. A lone job dispatches immediately, and jobs
// that arrive while a dispatch is executing share the next one.
//
// --socket serves concurrent clients on a Unix-domain socket
// (mpsched_client is the matching CLI); --stdio serves a single session
// on stdin/stdout (handy for piping and tests). --daemonize binds the
// socket, forks, and returns once the listener is live — the socket is
// accepting before the parent exits, so a caller can connect immediately.
//
// Shutdown is graceful on SIGINT, SIGTERM, or a shutdown request:
// in-flight jobs finish, responses flush, the socket file is unlinked,
// and the cache directory is left with no orphaned temp files.
#include <cstdio>
#include <stdexcept>
#include <string>

#include <fcntl.h>
#include <unistd.h>

#include "cli_common.hpp"
#include "engine/cache_store.hpp"
#include "obs/trace.hpp"
#include "service/server.hpp"
#include "util/thread_pool.hpp"

using namespace mpsched;
using cli::size_flag;

namespace {

int usage(const char* argv0) {
  std::printf(
      "usage:\n"
      "  %s --socket PATH [--threads N] [--no-cache] [--cache-dir DIR]\n"
      "     [--max-clients N] [--daemonize] [--trace-out FILE]\n"
      "  %s --stdio [same engine flags]\n",
      argv0, argv0);
  return 2;
}

/// Forks into the background: the child keeps running (new session,
/// stdio on /dev/null), the parent exits 0. Called only after the
/// listening socket is bound, so "parent returned" means "daemon is
/// accepting". Must run before the Server (and its thread pool) exists —
/// threads do not survive fork.
bool daemonize_or_exit_parent(const std::string& socket_path) {
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("--daemonize: fork failed");
  if (pid > 0) {
    std::printf("mpsched_serve: daemon pid %ld listening on %s\n",
                static_cast<long>(pid), socket_path.c_str());
    return false;  // parent: exit cleanly
  }
  ::setsid();
  const int devnull = ::open("/dev/null", O_RDWR);
  if (devnull >= 0) {
    ::dup2(devnull, 0);
    ::dup2(devnull, 1);
    ::dup2(devnull, 2);
    if (devnull > 2) ::close(devnull);
  }
  return true;  // child: keep serving
}

/// Flushes the trace ring to --trace-out after a graceful stop. The write
/// is best-effort: under --daemonize stdout is already on /dev/null, so a
/// failure surfaces as a nonzero exit, not a message.
int flush_trace(const std::string& trace_out) {
  if (trace_out.empty()) return 0;
  if (!obs::write_trace(trace_out)) {
    std::printf("error: cannot write trace to %s\n", trace_out.c_str());
    return 1;
  }
  std::printf("trace written to %s (%zu spans, %zu dropped)\n", trace_out.c_str(),
              obs::trace_span_count(), obs::trace_dropped());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string socket_path, cache_dir, trace_out;
  std::size_t threads = 0, max_clients = 16;
  bool no_cache = false, stdio = false, daemonize = false;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto value = [&] { return cli::flag_value(argc, argv, i, arg); };
      if (arg == "--socket") socket_path = value();
      else if (arg == "--stdio") stdio = true;
      else if (arg == "--threads") threads = size_flag(arg, value(), ThreadPool::kMaxThreads);
      else if (arg == "--no-cache") no_cache = true;
      else if (arg == "--cache-dir") cache_dir = value();
      else if (arg == "--max-clients") max_clients = size_flag(arg, value(), 1024);
      else if (arg == "--daemonize") daemonize = true;
      else if (arg == "--trace-out") trace_out = value();
      else if (arg == "--help" || arg == "-h") return usage(argv[0]);
      else {
        std::printf("error: unknown argument '%s'\n", arg.c_str());
        return usage(argv[0]);
      }
    }

    if (stdio == !socket_path.empty()) {
      std::printf("error: exactly one of --socket / --stdio is required\n");
      return usage(argv[0]);
    }
    if (max_clients == 0) {
      std::printf("error: --max-clients must be at least 1\n");
      return 2;
    }
    if (no_cache && !cache_dir.empty()) {
      std::printf("error: --no-cache and --cache-dir are mutually exclusive\n");
      return 2;
    }
    if (daemonize && stdio) {
      std::printf("error: --daemonize requires --socket\n");
      return 2;
    }

    // Tracing is enabled for the daemon's whole lifetime and the ring is
    // flushed once, after the graceful drain — spans from every session
    // land in one file.
    if (!trace_out.empty()) obs::set_tracing_enabled(true);

    service::ServerOptions options;
    options.engine.threads = threads;
    options.engine.use_cache = !no_cache;
    options.engine.cache_dir = cache_dir;
    options.socket_path = socket_path;
    options.max_sessions = max_clients;

    if (stdio) {
      service::Server server(options);
      server.install_signal_handlers();
      server.serve_stream(STDIN_FILENO, STDOUT_FILENO);
      return flush_trace(trace_out);
    }

    // Bind before fork and before the engine's threads exist: the parent
    // may exit as soon as the kernel queues connections for the child.
    // Probe the cache dir before forking too — after --daemonize the
    // child's stderr is on /dev/null, so a startup failure there would
    // be invisible while the parent has already reported success.
    // (CacheStore holds no threads, so constructing one pre-fork is safe;
    // this also runs the orphan-temp sweep once, up front.)
    if (!cache_dir.empty()) engine::CacheStore probe(cache_dir);
    const int listen_fd = service::open_listen_socket(socket_path);
    if (daemonize && !daemonize_or_exit_parent(socket_path)) return 0;
    service::Server server(options);
    server.adopt_socket(listen_fd);
    server.install_signal_handlers();
    if (!daemonize)
      std::printf("mpsched_serve: listening on %s (ctrl-C for graceful shutdown)\n",
                  socket_path.c_str());
    server.serve_socket();
    return flush_trace(trace_out);
  } catch (const std::exception& e) {
    std::printf("error: %s\n", e.what());
    return 1;
  }
}
