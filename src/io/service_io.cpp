#include "io/service_io.hpp"

#include <cstdio>
#include <stdexcept>

#include "io/result_io.hpp"

namespace mpsched::service {

namespace {

std::uint64_t non_negative(const Json& v, const char* what) {
  const std::int64_t raw = v.as_int();
  if (raw < 0)
    throw std::invalid_argument(std::string("request: ") + what + " must be >= 0");
  return static_cast<std::uint64_t>(raw);
}

}  // namespace

const char* to_text(Op op) {
  switch (op) {
    case Op::Ping: return "ping";
    case Op::Submit: return "submit";
    case Op::SubmitJob: return "submit_job";
    case Op::SubmitAsync: return "submit_async";
    case Op::Poll: return "poll";
    case Op::Wait: return "wait";
    case Op::Cancel: return "cancel";
    case Op::Stats: return "stats";
    case Op::Metrics: return "metrics";
    case Op::CacheTrim: return "cache_trim";
    case Op::Shutdown: return "shutdown";
  }
  return "ping";
}

Op op_from(const std::string& name) {
  if (name == "ping") return Op::Ping;
  if (name == "submit") return Op::Submit;
  if (name == "submit_job") return Op::SubmitJob;
  if (name == "submit_async") return Op::SubmitAsync;
  if (name == "poll") return Op::Poll;
  if (name == "wait") return Op::Wait;
  if (name == "cancel") return Op::Cancel;
  if (name == "stats") return Op::Stats;
  if (name == "metrics") return Op::Metrics;
  if (name == "cache_trim") return Op::CacheTrim;
  if (name == "shutdown") return Op::Shutdown;
  throw std::invalid_argument("request: unknown op '" + name + "'");
}

Json request_to_json(const Request& request) {
  Json doc = Json::object();
  doc.set("op", to_text(request.op));
  if (request.id != 0) doc.set("id", request.id);
  switch (request.op) {
    case Op::Submit:
    case Op::SubmitAsync:
      doc.set("corpus", corpus_to_json(request.jobs));
      if (request.diagnostics) doc.set("diagnostics", true);
      break;
    case Op::SubmitJob:
      if (request.jobs.size() != 1)
        throw std::invalid_argument("request: submit_job carries exactly one job");
      doc.set("job", job_to_json(request.jobs.front()));
      if (request.diagnostics) doc.set("diagnostics", true);
      break;
    case Op::Poll:
    case Op::Wait:
    case Op::Cancel:
      doc.set("request", request.request);
      break;
    case Op::CacheTrim:
      if (request.trim_max_age_seconds != 0)
        doc.set("max_age_seconds", request.trim_max_age_seconds);
      if (request.trim_max_total_bytes != 0)
        doc.set("max_total_bytes", request.trim_max_total_bytes);
      break;
    case Op::Ping:
    case Op::Stats:
    case Op::Metrics:
    case Op::Shutdown: break;
  }
  return doc;
}

Request request_from_json(const Json& doc, GraphIntern& graphs) {
  if (!doc.is_object()) throw std::invalid_argument("request: expected a JSON object");
  Request request;
  request.op = op_from(doc.at("op").as_string());
  if (const Json* id = doc.find("id")) request.id = id->as_int();

  switch (request.op) {
    case Op::Submit:
    case Op::SubmitAsync: {
      reject_unknown_keys(doc, {"op", "id", "corpus", "diagnostics"},
                          std::string(to_text(request.op)) + " request");
      request.jobs = corpus_from_json(doc.at("corpus"), graphs);
      if (const Json* d = doc.find("diagnostics")) request.diagnostics = d->as_bool();
      break;
    }
    case Op::SubmitJob: {
      reject_unknown_keys(doc, {"op", "id", "job", "diagnostics"}, "submit_job request");
      request.jobs.push_back(job_from_json(doc.at("job"), 0, graphs));
      if (const Json* d = doc.find("diagnostics")) request.diagnostics = d->as_bool();
      break;
    }
    case Op::Poll:
    case Op::Wait:
    case Op::Cancel: {
      reject_unknown_keys(doc, {"op", "id", "request"},
                          std::string(to_text(request.op)) + " request");
      request.request = non_negative(doc.at("request"), "request");
      break;
    }
    case Op::CacheTrim: {
      reject_unknown_keys(doc, {"op", "id", "max_age_seconds", "max_total_bytes"},
                          "cache_trim request");
      if (const Json* v = doc.find("max_age_seconds"))
        request.trim_max_age_seconds = non_negative(*v, "max_age_seconds");
      if (const Json* v = doc.find("max_total_bytes"))
        request.trim_max_total_bytes = non_negative(*v, "max_total_bytes");
      break;
    }
    case Op::Ping:
    case Op::Stats:
    case Op::Metrics:
    case Op::Shutdown:
      reject_unknown_keys(doc, {"op", "id"}, "request");
      break;
  }
  return request;
}

Json make_ok(const Request& request) {
  Json doc = Json::object();
  doc.set("id", request.id);
  doc.set("op", to_text(request.op));
  doc.set("ok", true);
  return doc;
}

Json make_error(std::int64_t id, const std::string& op, const std::string& message) {
  Json doc = Json::object();
  doc.set("id", id);
  doc.set("op", op);
  doc.set("ok", false);
  doc.set("error", message);
  return doc;
}

Response response_from_json(Json doc) {
  Response response;
  response.id = doc.at("id").as_int();
  response.op = doc.at("op").as_string();
  response.ok = doc.at("ok").as_bool();
  if (const Json* e = doc.find("error")) response.error = e->as_string();
  response.body = std::move(doc);
  return response;
}

std::string format_stats(const Json& body) {
  std::string out;
  char line[256];
  const auto emit = [&out, &line] { out += line; };
  // Every field goes through find() so the formatter never throws on a
  // section an older (or newer) server does not send.
  const auto i64 = [](const Json* obj, const char* key) -> long long {
    if (obj == nullptr) return 0;
    const Json* v = obj->find(key);
    return v != nullptr && v->is_int() ? static_cast<long long>(v->as_int()) : 0;
  };

  if (const Json* eng = body.find("engine")) {
    std::snprintf(line, sizeof line,
                  "engine:  %lld dispatches (%lld coalesced), %lld jobs (%lld "
                  "succeeded)\n",
                  i64(eng, "batches"), i64(eng, "coalesced_dispatches"),
                  i64(eng, "jobs"), i64(eng, "jobs_succeeded"));
    emit();
    std::snprintf(line, sizeof line,
                  "  analyses:  %lld computed, %lld reused\n",
                  i64(eng, "analyses_computed"), i64(eng, "analyses_reused"));
    emit();
    std::snprintf(line, sizeof line,
                  "  queue:     depth %lld (max %lld), %lld submitted, %lld "
                  "cancelled\n",
                  i64(eng, "queue_depth"), i64(eng, "max_queue_depth"),
                  i64(eng, "jobs_submitted"), i64(eng, "jobs_cancelled"));
    emit();
  }
  if (const Json* cache = body.find("cache")) {
    std::snprintf(line, sizeof line,
                  "cache:   graph %lld hits / %lld misses, analysis %lld hits / "
                  "%lld misses, %lld in memory\n",
                  i64(cache, "graph_hits"), i64(cache, "graph_misses"),
                  i64(cache, "analysis_hits"), i64(cache, "analysis_misses"),
                  i64(cache, "analyses_in_memory"));
    emit();
  }
  if (const Json* disk = body.find("disk")) {
    std::string directory;
    if (const Json* d = disk->find("directory"); d != nullptr && d->is_string())
      directory = d->as_string();
    // The directory path is arbitrarily long, so this line is assembled
    // on the string directly — a fixed buffer would silently truncate
    // the trailing counters for deep cache-dir paths.
    out += "disk:    " + directory;
    std::snprintf(line, sizeof line,
                  " — %lld entries, %lld hits, %lld misses, %lld stores (%lld "
                  "failed), %lld corrupt, %lld temp swept\n",
                  i64(disk, "entries"), i64(disk, "hits"), i64(disk, "misses"),
                  i64(disk, "stores"), i64(disk, "store_failures"), i64(disk, "corrupt"),
                  i64(disk, "temp_swept"));
    emit();
  }
  if (const Json* server = body.find("server")) {
    std::snprintf(line, sizeof line,
                  "server:  %lld requests (%lld errors), %lld sessions, %lld "
                  "async requests\n",
                  i64(server, "requests"), i64(server, "errors"),
                  i64(server, "sessions"), i64(server, "async_requests"));
    emit();
  }
  return out;
}

}  // namespace mpsched::service
