// Client side of the service protocol: connect to a running
// mpsched_serve socket, exchange one NDJSON line per call. Used by the
// mpsched_client tool and the service tests; small enough that embedding
// it in another process (a load generator, a language binding) is a
// #include away.
//
// The v2 async flow pipelines naturally over the one connection: several
// submit_async requests first (each answered at once with its
// server-assigned request id), then poll()/wait_request() in whatever
// order suits the caller — the session keeps every submitted request in
// flight at once, sharing coalesced engine dispatches with every other
// session.
#pragma once

#include <cstdint>
#include <string>

#include "io/service_io.hpp"

namespace mpsched::service {

class Client {
 public:
  /// Connects to the server's Unix-domain socket; throws
  /// std::runtime_error when nothing is listening.
  explicit Client(const std::string& socket_path);
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// One round trip: send the request line, block for the response line.
  /// Throws std::runtime_error on a broken connection and
  /// std::invalid_argument on an unparseable response. A response with
  /// ok=false is returned, not thrown — protocol errors are data.
  Response call(const Request& request);

  /// Raw variant for tests that need to send malformed documents.
  Json call_raw(const Json& request);

  // -- v2 async convenience (thin Request builders over call()) ----------
  /// Non-blocking status of an async request.
  Response poll(std::uint64_t request, std::int64_t id = 0);
  /// Blocks until the request finishes; the response body carries the
  /// results document. Consumes the request server-side.
  Response wait_request(std::uint64_t request, std::int64_t id = 0);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Polls until the server socket stops accepting and its file is gone —
/// i.e. the daemon actually exited after a shutdown request. True on
/// success, false on timeout.
bool wait_for_server_exit(const std::string& socket_path, int timeout_ms);

}  // namespace mpsched::service
