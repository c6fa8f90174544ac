// Request/response envelope of the mpsched service layer (src/service) on
// top of io/json: newline-delimited JSON, one request object per line in,
// one response object per line out. Shared by the server session loop,
// the mpsched_client tool, and the service tests, so both ends agree on
// one schema.
//
// Protocol mpsched.serve/v2:
//
// Requests ({"op": ..., "id": ...}):
//   ping                       liveness + protocol tag
//   submit                     run a whole corpus, blocking ("corpus":
//                              corpus doc, optional "diagnostics": bool)
//   submit_job                 run a single job, blocking ("job": one
//                              corpus entry)
//   submit_async               enqueue a corpus on the engine's admission
//                              queue and return immediately with a
//                              server-assigned "request" id; the jobs may
//                              share a coalesced dispatch with any other
//                              session's
//   poll                       non-blocking status of an async request
//                              ("request": id) — done flag + completion
//                              count; a request resolves whole, so
//                              "completed" is 0 or "jobs"
//   wait                       block until an async request finishes and
//                              return its results document; consumes the
//                              request (a second wait is an error)
//   cancel                     cancel a still-queued async request, all
//                              of its jobs or none: "cancelled" is 0 or
//                              "jobs" (a dispatched request finishes;
//                              wait still collects every result)
//   stats                      engine/cache/queue/server counter snapshot
//   metrics                    process-wide observability registry: the
//                              full metrics document ("metrics") plus a
//                              Prometheus-style text page ("text")
//   cache_trim                 age/size-based disk-cache maintenance
//                              ("max_age_seconds" / "max_total_bytes",
//                              0 = that limit disabled)
//   shutdown                   graceful stop: in-flight work finishes,
//                              every session drains, the socket unlinks
//
// Responses echo {"id", "op"} and carry "ok"; failures add "error",
// successes add op-specific payload ("results" is a full
// mpsched.batch.results/v1 document, byte-compatible with what
// mpsched_batch --out writes — re-serializing it with the same indent
// reproduces the one-shot file exactly, however the jobs were coalesced).
//
// Pipelining: "id" is a client-chosen correlation id echoed verbatim, so
// a session may keep many async requests in flight and match responses
// by id; "request" ids are server-assigned, session-owned, and never
// reused — referencing another session's request id is rejected exactly
// like an unknown one.
//
// The envelope is strict the same way corpus files are: unknown ops and
// unknown keys are rejected, so a typo'd request fails loudly instead of
// half-running.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "engine/job.hpp"
#include "io/graph_intern.hpp"
#include "io/json.hpp"

namespace mpsched::service {

/// Protocol tag answered by ping (bump on breaking envelope changes).
inline constexpr const char* kProtocol = "mpsched.serve/v2";

enum class Op {
  Ping,
  Submit,
  SubmitJob,
  SubmitAsync,
  Poll,
  Wait,
  Cancel,
  Stats,
  Metrics,
  CacheTrim,
  Shutdown,
};

/// Wire name of an op ("ping", "submit", ...).
const char* to_text(Op op);
/// Inverse of to_text; throws std::invalid_argument on an unknown name.
Op op_from(const std::string& name);

struct Request {
  Op op = Op::Ping;
  /// Client-chosen correlation id, echoed verbatim in the response.
  std::int64_t id = 0;
  /// Submit/SubmitAsync: the whole corpus. SubmitJob: exactly one entry.
  std::vector<engine::Job> jobs;
  /// Submit/SubmitJob/SubmitAsync: include per-phase timings + cache
  /// counters in the results payload (off by default — diagnostics vary
  /// run to run).
  bool diagnostics = false;
  /// Poll/Wait/Cancel: the server-assigned async request id.
  std::uint64_t request = 0;
  /// CacheTrim: 0 disables the respective limit.
  std::uint64_t trim_max_age_seconds = 0;
  std::uint64_t trim_max_total_bytes = 0;
};

/// Serializes a request to its wire object (client side).
Json request_to_json(const Request& request);

/// Parses and validates a request object; throws std::invalid_argument /
/// std::runtime_error on unknown ops, unknown keys, or a missing/invalid
/// payload for the op. Job graphs come from `graphs`
/// (io/graph_intern.hpp).
Request request_from_json(const Json& doc, GraphIntern& graphs);

/// Parsed response envelope (client side). `body` keeps the whole
/// response object so op-specific payload stays reachable.
struct Response {
  std::int64_t id = 0;
  std::string op;
  bool ok = false;
  std::string error;  ///< set when !ok
  Json body;
};

/// Envelope builders (server side). make_ok returns {"id","op","ok":true};
/// the dispatcher set()s payload keys onto it.
Json make_ok(const Request& request);
Json make_error(std::int64_t id, const std::string& op, const std::string& message);

/// Parses a response object; throws on a malformed envelope.
Response response_from_json(Json doc);

/// Human-readable rendering of a stats response body (the engine / cache
/// / queue / server sections the stats op returns) — what
/// `mpsched_client --stats` prints. Unknown or missing sections are
/// simply skipped, so the formatter tolerates older servers.
std::string format_stats(const Json& body);

}  // namespace mpsched::service
