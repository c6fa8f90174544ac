// io/json: the engine's interchange format. Round-trips must be exact and
// serialization deterministic — corpus fixpoints and the engine's
// "identical JSON" guarantee both stand on this. JsonWriter, the one
// emitter, must write what dump() of the same tree writes, and the results
// layout (io/result_io) must reproduce a golden document byte for byte.
#include "io/json.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <string>

#include "io/result_io.hpp"

namespace mpsched {
namespace {

TEST(Json, PrimitivesDumpCanonically) {
  EXPECT_EQ(Json(nullptr).dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(std::int64_t{42}).dump(), "42");
  EXPECT_EQ(Json(std::int64_t{-7}).dump(), "-7");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
  EXPECT_EQ(Json(1.5).dump(), "1.5");
  // Integral doubles keep their double-ness visible.
  EXPECT_EQ(Json(2.0).dump(), "2.0");
}

TEST(Json, IntAndDoubleAreDistinct) {
  const Json i = Json::parse("10");
  const Json d = Json::parse("10.0");
  EXPECT_TRUE(i.is_int());
  EXPECT_TRUE(d.is_double());
  EXPECT_EQ(i.as_int(), 10);
  EXPECT_DOUBLE_EQ(d.as_double(), 10.0);
  // as_int tolerates integral doubles; as_double tolerates ints.
  EXPECT_EQ(d.as_int(), 10);
  EXPECT_DOUBLE_EQ(i.as_double(), 10.0);
}

TEST(Json, LargeCountsRoundTripExactly) {
  const std::uint64_t count = 123456789012345ULL;
  const Json j(count);
  const Json back = Json::parse(j.dump());
  EXPECT_EQ(static_cast<std::uint64_t>(back.as_int()), count);
}

TEST(Json, Uint64LiteralsAboveInt64MaxParseBitCast) {
  // A uint64 seed written literally in a corpus must load; it is stored
  // bit-cast as a negative int64 and read back by uint64 consumers.
  const Json big = Json::parse("12345678901234567890");
  EXPECT_EQ(static_cast<std::uint64_t>(big.as_int()), 12345678901234567890ULL);
  // Beyond uint64 max is a clean range error, not UB or truncation.
  EXPECT_THROW(Json::parse("123456789012345678901234"), std::invalid_argument);
  EXPECT_THROW(Json::parse("-99999999999999999999"), std::invalid_argument);
}

TEST(Json, StringEscapes) {
  const std::string raw = "a\"b\\c\nd\te\rf\bg\fh";
  const Json j(raw);
  EXPECT_EQ(Json::parse(j.dump()).as_string(), raw);
  // Control characters serialize as \u escapes and parse back.
  const std::string ctl("\x01\x1f", 2);
  EXPECT_EQ(Json::parse(Json(ctl).dump()).as_string(), ctl);
}

TEST(Json, UnicodeEscapesDecodeToUtf8) {
  EXPECT_EQ(Json::parse("\"\\u0041\"").as_string(), "A");
  EXPECT_EQ(Json::parse("\"\\u00e9\"").as_string(), "\xc3\xa9");    // é
  EXPECT_EQ(Json::parse("\"\\u20ac\"").as_string(), "\xe2\x82\xac");  // €
  // Surrogate pairs combine into one valid UTF-8 sequence (U+1D11E, 𝄞).
  EXPECT_EQ(Json::parse("\"\\ud834\\udd1e\"").as_string(), "\xf0\x9d\x84\x9e");
  // Lone or mismatched surrogates are errors, never CESU-8 output.
  EXPECT_THROW(Json::parse("\"\\ud834\""), std::invalid_argument);
  EXPECT_THROW(Json::parse("\"\\ud834x\""), std::invalid_argument);
  EXPECT_THROW(Json::parse("\"\\ud834\\u0041\""), std::invalid_argument);
  EXPECT_THROW(Json::parse("\"\\udd1e\""), std::invalid_argument);
}

TEST(Json, ObjectPreservesInsertionOrder) {
  Json obj = Json::object();
  obj.set("zebra", 1);
  obj.set("alpha", 2);
  obj.set("mid", 3);
  EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"alpha\":2,\"mid\":3}");
  // Overwrite keeps the original slot.
  obj.set("alpha", 9);
  EXPECT_EQ(obj.dump(), "{\"zebra\":1,\"alpha\":9,\"mid\":3}");
}

TEST(Json, NestedRoundTripIsFixpoint) {
  const std::string text =
      R"({"a":[1,2.5,"x",null,true],"b":{"c":[],"d":{}},"e":-3})";
  const Json doc = Json::parse(text);
  EXPECT_EQ(doc.dump(), text);
  EXPECT_EQ(Json::parse(doc.dump(2)).dump(), text);  // pretty → compact fixpoint
}

TEST(Json, PrettyPrintIndents) {
  Json obj = Json::object();
  obj.set("k", Json::array());
  obj.as_object()[0].second.push_back(1);
  EXPECT_EQ(obj.dump(2), "{\n  \"k\": [\n    1\n  ]\n}");
}

TEST(Json, FindAtAndTypeErrors) {
  const Json doc = Json::parse(R"({"x":1})");
  ASSERT_NE(doc.find("x"), nullptr);
  EXPECT_EQ(doc.find("y"), nullptr);
  EXPECT_EQ(doc.at("x").as_int(), 1);
  EXPECT_THROW(doc.at("y"), std::runtime_error);
  EXPECT_THROW(doc.at("x").as_string(), std::runtime_error);
  EXPECT_THROW(Json(1.5).as_int(), std::runtime_error);
}

TEST(Json, ParseErrorsCarryLineNumbers) {
  try {
    Json::parse("{\n  \"a\": 1,\n  \"a\": 2\n}");
    FAIL() << "duplicate key accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("line 3"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("duplicate key"), std::string::npos);
  }
}

TEST(Json, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse(""), std::invalid_argument);
  EXPECT_THROW(Json::parse("{"), std::invalid_argument);
  EXPECT_THROW(Json::parse("[1,]"), std::invalid_argument);
  EXPECT_THROW(Json::parse("tru"), std::invalid_argument);
  EXPECT_THROW(Json::parse("1 2"), std::invalid_argument);
  EXPECT_THROW(Json::parse("\"unterminated"), std::invalid_argument);
  EXPECT_THROW(Json::parse("{\"a\" 1}"), std::invalid_argument);
  EXPECT_THROW(Json::parse("0x10"), std::invalid_argument);
  EXPECT_THROW(Json::parse("--1"), std::invalid_argument);
  // Whole-token number validation: no silent prefix truncation.
  EXPECT_THROW(Json::parse("1.2.3"), std::invalid_argument);
  EXPECT_THROW(Json::parse("1-1"), std::invalid_argument);
  EXPECT_THROW(Json::parse("[1e]"), std::invalid_argument);
  EXPECT_THROW(Json::parse("1ee5"), std::invalid_argument);
  // RFC 8259 number grammar: no leading zeros / '+' / bare '.'.
  EXPECT_THROW(Json::parse("01"), std::invalid_argument);
  EXPECT_THROW(Json::parse("+1"), std::invalid_argument);
  EXPECT_THROW(Json::parse(".5"), std::invalid_argument);
  EXPECT_THROW(Json::parse("1."), std::invalid_argument);
  EXPECT_THROW(Json::parse("-"), std::invalid_argument);
  // Valid forms still parse.
  EXPECT_EQ(Json::parse("0").as_int(), 0);
  EXPECT_EQ(Json::parse("-0.5").as_double(), -0.5);
  EXPECT_EQ(Json::parse("1e2").as_double(), 100.0);
  EXPECT_EQ(Json::parse("-1E+2").as_double(), -100.0);
}

TEST(Json, AsIntRejectsOutOfRangeDoubles) {
  EXPECT_THROW(Json(1e300).as_int(), std::runtime_error);
  EXPECT_THROW(Json(-1e300).as_int(), std::runtime_error);
  EXPECT_THROW(Json(9.3e18).as_int(), std::runtime_error);  // just past int64 max
  EXPECT_EQ(Json(-9.0e18).as_int(), -9000000000000000000LL);
}

TEST(Json, DeepNestingFailsCleanly) {
  // 100k unbalanced brackets must produce a parse error, not a stack
  // overflow; the parser caps container depth at 256.
  EXPECT_THROW(Json::parse(std::string(100000, '[')), std::invalid_argument);
  EXPECT_THROW(Json::parse(std::string(100000, '{')), std::invalid_argument);
  // 200 levels is fine.
  const std::string ok = std::string(200, '[') + "1" + std::string(200, ']');
  EXPECT_EQ(Json::parse(ok).dump(), ok);
}

TEST(Json, FileSaveLoadRoundTrip) {
  const std::string path = testing::TempDir() + "json_test_roundtrip.json";
  Json doc = Json::object();
  doc.set("jobs", Json::array());
  doc.set("n", 3);
  save_json(doc, path);
  EXPECT_EQ(load_json(path).dump(), doc.dump());
  std::remove(path.c_str());
}

TEST(Json, LoadMissingFileThrows) {
  EXPECT_THROW(load_json("/nonexistent/dir/x.json"), std::runtime_error);
}

// -- the writer ---------------------------------------------------------------

TEST(JsonWriter, WritesWhatDumpWritesForTheSameTree) {
  Json doc = Json::object();
  doc.set("empty_array", Json::array());
  doc.set("empty_object", Json::object());
  Json values = Json::array();
  values.push_back(nullptr);
  values.push_back(true);
  values.push_back(std::numeric_limits<std::int64_t>::min());
  values.push_back(std::numeric_limits<std::uint64_t>::max());  // a double above INT64_MAX
  values.push_back(-0.0);
  values.push_back(1e21);
  values.push_back("tab\t\x7f\x1f");
  doc.set("values", std::move(values));
  Json nested = Json::object();
  nested.set("inner", Json::array());
  doc.set("nested", std::move(nested));

  for (const int indent : {-1, 0, 2}) {
    SCOPED_TRACE(indent);
    std::string text;
    JsonWriter out(text, indent);
    out.begin_object();
    out.key("empty_array").begin_array().end_array();
    out.key("empty_object").begin_object().end_object();
    out.key("values").begin_array();
    out.null();
    out.value(true);
    out.value(std::numeric_limits<std::int64_t>::min());
    out.value(std::numeric_limits<std::uint64_t>::max());
    out.value(-0.0);
    out.value(1e21);
    out.value("tab\t\x7f\x1f");
    out.end_array();
    out.key("nested").begin_object().key("inner").begin_array().end_array().end_object();
    out.end_object();
    EXPECT_EQ(text, doc.dump(indent));

    std::string walked;
    JsonWriter(walked, indent).value(doc);
    EXPECT_EQ(walked, text);
  }
}

TEST(JsonWriter, NonFiniteDoublesThrow) {
  for (const double hostile : {std::nan(""), std::numeric_limits<double>::infinity()}) {
    std::string text;
    JsonWriter out(text);
    out.begin_array();
    EXPECT_THROW(out.value(hostile), std::runtime_error);
  }
}

TEST(JsonWriter, SpliceAppendsMembersAsOneItem) {
  const auto compact = [](bool member_before) {
    std::string text;
    JsonWriter out(text);
    out.begin_object();
    if (member_before) out.field("a", 1);
    EXPECT_TRUE(out.splice(R"("b":2,"c":[3])"));
    out.field("d", 4).end_object();
    return text;
  };
  EXPECT_EQ(compact(true), R"({"a":1,"b":2,"c":[3],"d":4})");
  EXPECT_EQ(compact(false), R"({"b":2,"c":[3],"d":4})");

  std::string pretty;
  JsonWriter out(pretty, 2);
  out.begin_object();
  EXPECT_FALSE(out.splice(R"("b":2)"));
  out.field("d", 4).end_object();
  EXPECT_EQ(pretty, "{\n  \"d\": 4\n}");
}

/// A results batch that exercises every optional field of the results
/// layout: a non-default backend and a transform echo, a failed job with
/// an error and empty arrays, a name that needs every kind of escape, a
/// count above INT64_MAX, and diagnostics with fixed timings.
engine::BatchResult golden_batch() {
  engine::BatchResult batch;
  batch.wall_ms = 2.0;
  batch.analyses_computed = 1;
  batch.analyses_reused = 2;
  batch.cache_stats.graph_hits = 3;
  batch.cache_stats.graph_misses = 1;
  batch.cache_stats.analysis_hits = 4;
  batch.cache_stats.analysis_misses = 1;

  engine::JobResult solved;
  solved.job = "q\"b\\s\tc\x01" " \xcf\x80";  // quote, backslash, tab, 0x01, UTF-8 pi
  solved.workload = "fir(8)";
  solved.backend = "list";
  solved.transforms = {"strip_redundant_edges"};
  solved.nodes = 3;
  solved.edges = 2;
  solved.success = true;
  solved.patterns = {"aab", "c"};
  solved.cycles = 4;
  solved.critical_path = 3;
  solved.antichains = std::numeric_limits<std::uint64_t>::max();
  solved.candidate_patterns = 7;
  solved.refine_swaps = 1;
  solved.node_cycles = {0, 1, 2};
  solved.analysis_cache_hit = true;
  solved.timings.prepare_ms = 0.1;
  solved.timings.analysis_ms = 2.0;
  solved.timings.select_ms = 1e-7;
  solved.timings.refine_ms = 3.25;
  solved.shard_ms = {0.5, 1e-7, 2.0};

  engine::JobResult failed;
  failed.job = "broken";
  failed.backend = "multi_pattern";
  failed.nodes = 5;
  failed.edges = 4;
  failed.error = "analysis: max_size must be at least 1";
  failed.timings.prepare_ms = 0.25;

  batch.jobs = {solved, failed};
  return batch;
}

// The results layout of golden_batch(), as batch_to_json(...).dump(...)
// and result_to_json(jobs[0], true).dump(-1) render it: with and without
// diagnostics, compact and pretty. Results files and service responses are
// compared byte for byte across releases, so these bytes must not move.
const char* const kGoldenCompact =
    R"json({"schema":"mpsched.batch.results/v1","summary":{"jobs":2,"succeeded":1},"diagnostics":{"wall_ms":2.0,"analyses_computed":1,"analyses_reused":2,"cache_graph_hits":3,"cache_analysis_hits":4,"cache_analysis_misses":1},"jobs":[{"job":"q\"b\\s\tc\u0001 π","workload":"fir(8)","backend":"list","transforms":["strip_redundant_edges"],"nodes":3,"edges":2,"success":true,"patterns":["aab","c"],"cycles":4,"critical_path":3,"antichains":1.8446744073709552e+19,"candidate_patterns":7,"refine_swaps":1,"node_cycles":[0,1,2],"cache_hit":true,"timings":{"prepare_ms":0.10000000000000001,"analysis_ms":2.0,"select_ms":9.9999999999999995e-08,"schedule_ms":0.0,"refine_ms":3.25},"shard_ms":[0.5,9.9999999999999995e-08,2.0]},{"job":"broken","workload":"","nodes":5,"edges":4,"success":false,"error":"analysis: max_size must be at least 1","patterns":[],"cycles":0,"critical_path":0,"antichains":0,"candidate_patterns":0,"refine_swaps":0,"node_cycles":[],"cache_hit":false,"timings":{"prepare_ms":0.25,"analysis_ms":0.0,"select_ms":0.0,"schedule_ms":0.0,"refine_ms":0.0}}]})json";
const char* const kGoldenPretty = R"json({
  "schema": "mpsched.batch.results/v1",
  "summary": {
    "jobs": 2,
    "succeeded": 1
  },
  "diagnostics": {
    "wall_ms": 2.0,
    "analyses_computed": 1,
    "analyses_reused": 2,
    "cache_graph_hits": 3,
    "cache_analysis_hits": 4,
    "cache_analysis_misses": 1
  },
  "jobs": [
    {
      "job": "q\"b\\s\tc\u0001 π",
      "workload": "fir(8)",
      "backend": "list",
      "transforms": [
        "strip_redundant_edges"
      ],
      "nodes": 3,
      "edges": 2,
      "success": true,
      "patterns": [
        "aab",
        "c"
      ],
      "cycles": 4,
      "critical_path": 3,
      "antichains": 1.8446744073709552e+19,
      "candidate_patterns": 7,
      "refine_swaps": 1,
      "node_cycles": [
        0,
        1,
        2
      ],
      "cache_hit": true,
      "timings": {
        "prepare_ms": 0.10000000000000001,
        "analysis_ms": 2.0,
        "select_ms": 9.9999999999999995e-08,
        "schedule_ms": 0.0,
        "refine_ms": 3.25
      },
      "shard_ms": [
        0.5,
        9.9999999999999995e-08,
        2.0
      ]
    },
    {
      "job": "broken",
      "workload": "",
      "nodes": 5,
      "edges": 4,
      "success": false,
      "error": "analysis: max_size must be at least 1",
      "patterns": [],
      "cycles": 0,
      "critical_path": 0,
      "antichains": 0,
      "candidate_patterns": 0,
      "refine_swaps": 0,
      "node_cycles": [],
      "cache_hit": false,
      "timings": {
        "prepare_ms": 0.25,
        "analysis_ms": 0.0,
        "select_ms": 0.0,
        "schedule_ms": 0.0,
        "refine_ms": 0.0
      }
    }
  ]
})json";
const char* const kGoldenPlain =
    R"json({"schema":"mpsched.batch.results/v1","summary":{"jobs":2,"succeeded":1},"jobs":[{"job":"q\"b\\s\tc\u0001 π","workload":"fir(8)","backend":"list","transforms":["strip_redundant_edges"],"nodes":3,"edges":2,"success":true,"patterns":["aab","c"],"cycles":4,"critical_path":3,"antichains":1.8446744073709552e+19,"candidate_patterns":7,"refine_swaps":1,"node_cycles":[0,1,2]},{"job":"broken","workload":"","nodes":5,"edges":4,"success":false,"error":"analysis: max_size must be at least 1","patterns":[],"cycles":0,"critical_path":0,"antichains":0,"candidate_patterns":0,"refine_swaps":0,"node_cycles":[]}]})json";
const char* const kGoldenResult =
    R"json({"job":"q\"b\\s\tc\u0001 π","workload":"fir(8)","backend":"list","transforms":["strip_redundant_edges"],"nodes":3,"edges":2,"success":true,"patterns":["aab","c"],"cycles":4,"critical_path":3,"antichains":1.8446744073709552e+19,"candidate_patterns":7,"refine_swaps":1,"node_cycles":[0,1,2],"cache_hit":true,"timings":{"prepare_ms":0.10000000000000001,"analysis_ms":2.0,"select_ms":9.9999999999999995e-08,"schedule_ms":0.0,"refine_ms":3.25},"shard_ms":[0.5,9.9999999999999995e-08,2.0]})json";

TEST(ResultsWriter, ReproducesTheGoldenDocument) {
  const engine::BatchResult batch = golden_batch();
  struct Case {
    bool diagnostics;
    int indent;
    const char* golden;
  };
  for (const Case& c : {Case{true, -1, kGoldenCompact}, Case{true, 2, kGoldenPretty},
                        Case{false, -1, kGoldenPlain}}) {
    SCOPED_TRACE(c.indent);
    std::string text;
    JsonWriter out(text, c.indent);
    write_batch(out, batch, c.diagnostics);
    EXPECT_EQ(text, c.golden);
    EXPECT_EQ(batch_to_json(batch, c.diagnostics).dump(c.indent), c.golden);
  }

  std::string one;
  JsonWriter out(one);
  write_result(out, batch.jobs.front(), true);
  EXPECT_EQ(one, kGoldenResult);
  EXPECT_EQ(result_to_json(batch.jobs.front(), true).dump(-1), kGoldenResult);

  // The results file is the same bytes plus a newline.
  const std::string path = testing::TempDir() + "json_test_results.json";
  save_batch_results(batch, path, true, 2);
  std::ifstream in(path);
  std::ostringstream file;
  file << in.rdbuf();
  EXPECT_EQ(file.str(), std::string(kGoldenPretty) + "\n");
  std::remove(path.c_str());
}

/// Gives every result of `batch` a memo entry holding its own solved
/// fields and their rendered text, as the engine hands out a memo hit.
engine::BatchResult with_memo(engine::BatchResult batch) {
  for (engine::JobResult& r : batch.jobs) {
    auto entry = std::make_shared<engine::SolvedEntry>();
    entry->result = r;
    entry->text = render_solved(r);
    r.memo = std::move(entry);
  }
  return batch;
}

/// write_result's compact bytes.
std::string compact_result(const engine::JobResult& r) {
  std::string text;
  JsonWriter out(text);
  write_result(out, r);
  return text;
}

TEST(ResultsWriter, MemoTextReproducesTheGoldenDocument) {
  // Compact writers splice each entry's text, with and without
  // diagnostics; the pretty writer ignores it and writes the members.
  const engine::BatchResult batch = with_memo(golden_batch());
  struct Case {
    bool diagnostics;
    int indent;
    const char* golden;
  };
  for (const Case& c : {Case{true, -1, kGoldenCompact}, Case{true, 2, kGoldenPretty},
                        Case{false, -1, kGoldenPlain}}) {
    SCOPED_TRACE(c.indent);
    std::string text;
    JsonWriter out(text, c.indent);
    write_batch(out, batch, c.diagnostics);
    EXPECT_EQ(text, c.golden);
  }
  std::string one;
  JsonWriter out(one);
  write_result(out, batch.jobs.front(), true);
  EXPECT_EQ(one, kGoldenResult);
}

TEST(ResultsWriter, SplicesMemoTextOnlyWhileTheFieldsMatch) {
  const engine::JobResult plain = golden_batch().jobs.front();
  const engine::JobResult memoized = with_memo(golden_batch()).jobs.front();

  // The entry's text is what a matching result writes: a marker text in
  // an entry with the same fields shows up in place of the members.
  engine::JobResult marked = memoized;
  auto entry = std::make_shared<engine::SolvedEntry>(*memoized.memo);
  entry->text = R"("spliced":true)";
  marked.memo = entry;
  EXPECT_EQ(compact_result(marked),
            R"json({"job":"q\"b\\s\tc\u0001 π","workload":"fir(8)","backend":"list",)json"
            R"json("transforms":["strip_redundant_edges"],"nodes":3,"edges":2,"spliced":true})json");

  // A result edited after it got its entry writes its own values.
  engine::JobResult cycles_edited = memoized;
  cycles_edited.cycles = 5;
  engine::JobResult expected = plain;
  expected.cycles = 5;
  EXPECT_EQ(compact_result(cycles_edited), compact_result(expected));
  EXPECT_EQ(result_to_json(cycles_edited).at("cycles").as_int(), 5);

  engine::JobResult node_cycles_edited = memoized;
  node_cycles_edited.node_cycles = {0, 2, 3};
  expected = plain;
  expected.node_cycles = {0, 2, 3};
  EXPECT_EQ(compact_result(node_cycles_edited), compact_result(expected));
  EXPECT_NE(compact_result(node_cycles_edited).find(R"("node_cycles":[0,2,3])"),
            std::string::npos);
}

}  // namespace
}  // namespace mpsched
