// mpsched_trace_check — schema gate for exported Chrome trace-event JSON.
//
// Usage:
//   mpsched_trace_check FILE [--require NAME]... [--require-nested OUTER INNER]...
//
// Validates what chrome://tracing / Perfetto require of a trace produced
// by --trace-out (mpsched_serve / mpsched_batch): a traceEvents array
// whose duration events carry name/cat/ph/ts/pid/tid, globally
// non-decreasing timestamps, and strict B/E nesting per track — every E
// closes the innermost open B of the same name on its tid, and nothing
// stays open at the end. --require NAME asserts that at least one B event
// with that span name is present, so the ctest flow can insist the trace
// actually covers queue waits, dispatches, shard enumeration, and cache
// access rather than merely parsing. --require-nested OUTER INNER asserts
// that at least one INNER span opens while an OUTER span is open on the
// same tid — e.g. a dispatch run on a session's thread inside its request.
//
// Exit status: 0 valid, 1 invalid (first violation printed), 2 usage.
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "io/json.hpp"

using mpsched::Json;
using mpsched::load_json;

namespace {

int fail(const std::string& message) {
  std::printf("trace-check: FAIL: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string path;
  std::vector<std::string> required;
  // (outer, inner) pairs, and whether each was seen nested.
  std::vector<std::pair<std::string, std::string>> nested;
  std::vector<bool> nested_seen;
  const auto usage = [&] {
    std::printf("usage: %s FILE [--require NAME]... [--require-nested OUTER INNER]...\n",
                argv[0]);
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--require") {
      if (i + 1 >= argc) {
        std::printf("trace-check: --require needs a span name\n");
        return 2;
      }
      required.push_back(argv[++i]);
    } else if (arg == "--require-nested") {
      if (i + 2 >= argc) {
        std::printf("trace-check: --require-nested needs two span names\n");
        return 2;
      }
      nested.emplace_back(argv[i + 1], argv[i + 2]);
      i += 2;
    } else if (arg == "--help" || arg == "-h" || !path.empty()) {
      return usage();
    } else {
      path = arg;
    }
  }
  if (path.empty()) return usage();
  nested_seen.assign(nested.size(), false);

  try {
    const Json doc = load_json(path);
    const Json* events = doc.find("traceEvents");
    if (events == nullptr || !events->is_array())
      return fail("no traceEvents array");

    // Per-(tid) stack of open span names: B pushes, E must pop a matching
    // name, and every stack must drain — that is exactly the discipline a
    // trace viewer needs to reconstruct the flame graph.
    std::map<std::int64_t, std::vector<std::string>> open;
    std::map<std::string, std::size_t> begins_by_name;
    double last_ts = 0.0;
    bool have_ts = false;
    std::size_t duration_events = 0;
    const Json::Array& arr = events->as_array();
    for (std::size_t i = 0; i < arr.size(); ++i) {
      const Json& e = arr[i];
      const std::string where = "event #" + std::to_string(i);
      if (!e.is_object()) return fail(where + " is not an object");
      const Json* ph = e.find("ph");
      if (ph == nullptr || !ph->is_string())
        return fail(where + " has no ph");
      const Json* name = e.find("name");
      if (name == nullptr || !name->is_string())
        return fail(where + " has no name");
      if (e.find("pid") == nullptr || e.find("tid") == nullptr)
        return fail(where + " has no pid/tid");
      const std::string phase = ph->as_string();
      if (phase == "M") continue;  // metadata rows carry no timestamp
      if (phase != "B" && phase != "E")
        return fail(where + " has unknown phase '" + phase + "'");
      const Json* ts = e.find("ts");
      if (ts == nullptr || !ts->is_number())
        return fail(where + " has no numeric ts");
      const double ts_us = ts->as_double();
      if (have_ts && ts_us < last_ts)
        return fail(where + " ts goes backwards (" + std::to_string(ts_us) +
                    " after " + std::to_string(last_ts) + ")");
      last_ts = ts_us;
      have_ts = true;
      ++duration_events;
      const std::int64_t tid = e.at("tid").as_int();
      std::vector<std::string>& stack = open[tid];
      if (phase == "B") {
        for (std::size_t n = 0; n < nested.size(); ++n)
          if (!nested_seen[n] && nested[n].second == name->as_string())
            for (const std::string& outer : stack)
              if (outer == nested[n].first) nested_seen[n] = true;
        stack.push_back(name->as_string());
        ++begins_by_name[name->as_string()];
      } else {
        if (stack.empty())
          return fail(where + " E event '" + name->as_string() +
                      "' on tid " + std::to_string(tid) + " with no open B");
        if (stack.back() != name->as_string())
          return fail(where + " E event '" + name->as_string() +
                      "' does not match open B '" + stack.back() + "' on tid " +
                      std::to_string(tid));
        stack.pop_back();
      }
    }
    for (const auto& [tid, stack] : open)
      if (!stack.empty())
        return fail("tid " + std::to_string(tid) + " ends with '" +
                    stack.back() + "' still open");
    if (duration_events == 0) return fail("trace holds no duration events");

    for (const std::string& name : required)
      if (begins_by_name.find(name) == begins_by_name.end())
        return fail("required span '" + name + "' is absent");
    for (std::size_t n = 0; n < nested.size(); ++n)
      if (!nested_seen[n])
        return fail("no '" + nested[n].second + "' span opens inside '" +
                    nested[n].first + "' on one tid");

    std::printf("trace-check: %s ok (%zu duration events, %zu span names)\n",
                path.c_str(), duration_events, begins_by_name.size());
    return 0;
  } catch (const std::exception& e) {
    return fail(e.what());
  }
}
