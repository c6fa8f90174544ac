#include "obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <mutex>
#include <vector>

namespace mpsched::obs {

namespace {

/// Synthetic-track spans (record_span) carry this sentinel until the
/// exporter lays them out on non-overlapping track tids above this base.
constexpr std::uint32_t kTrackSentinel = 0;
constexpr std::uint32_t kTrackBase = 1000000;

struct SpanRecord {
  const char* name;
  std::string arg;
  std::uint32_t tid;
  std::int64_t start_ns;
  std::int64_t end_ns;
};

struct TraceBuffer {
  std::mutex mutex;
  std::vector<SpanRecord> ring;
  std::size_t capacity = 65536;
  std::size_t next = 0;  // overwrite cursor once the ring is full
  std::uint64_t dropped = 0;
};

TraceBuffer& buffer() {
  static TraceBuffer b;
  return b;
}

std::uint32_t current_tid() {
  static std::atomic<std::uint32_t> next_tid{1};
  thread_local const std::uint32_t tid =
      next_tid.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

std::chrono::steady_clock::time_point trace_epoch() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return epoch;
}

void push_record(SpanRecord record) {
  TraceBuffer& b = buffer();
  std::lock_guard<std::mutex> lock(b.mutex);
  if (b.ring.size() < b.capacity) {
    b.ring.push_back(std::move(record));
  } else {
    b.ring[b.next] = std::move(record);
    b.next = (b.next + 1) % b.capacity;
    ++b.dropped;
  }
}

/// Copies the held spans oldest-first.
std::vector<SpanRecord> snapshot() {
  TraceBuffer& b = buffer();
  std::lock_guard<std::mutex> lock(b.mutex);
  std::vector<SpanRecord> out;
  out.reserve(b.ring.size());
  if (b.ring.size() == b.capacity && b.next != 0) {
    out.insert(out.end(), b.ring.begin() + static_cast<std::ptrdiff_t>(b.next), b.ring.end());
    out.insert(out.end(), b.ring.begin(), b.ring.begin() + static_cast<std::ptrdiff_t>(b.next));
  } else {
    out = b.ring;
  }
  return out;
}

}  // namespace

void set_tracing_enabled(bool on) {
  if (on) (void)trace_epoch();  // pin the epoch before the first span
  detail::g_tracing_enabled.store(on, std::memory_order_relaxed);
}

std::int64_t trace_now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - trace_epoch())
      .count();
}

std::int64_t trace_ns_of(std::chrono::steady_clock::time_point tp) {
  const std::int64_t ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                              tp - trace_epoch())
                              .count();
  return ns < 0 ? 0 : ns;
}

void record_span(const char* name, std::int64_t start_ns, std::int64_t end_ns,
                 std::string arg) {
  if (!tracing_enabled()) return;
  if (end_ns < start_ns) end_ns = start_ns;
  push_record({name, std::move(arg), kTrackSentinel, start_ns, end_ns});
}

Span::~Span() {
  if (start_ns_ < 0) return;
  push_record({name_, std::move(arg_), current_tid(), start_ns_, trace_now_ns()});
}

void set_trace_capacity(std::size_t spans) {
  TraceBuffer& b = buffer();
  std::lock_guard<std::mutex> lock(b.mutex);
  const std::size_t capacity = std::max<std::size_t>(1, spans);
  // Restore oldest-first order (the ring may be mid-rotation), then chop
  // the oldest spans if the new capacity no longer holds them all.
  if (b.ring.size() == b.capacity && b.next != 0)
    std::rotate(b.ring.begin(), b.ring.begin() + static_cast<std::ptrdiff_t>(b.next),
                b.ring.end());
  if (capacity < b.ring.size())
    b.ring.erase(b.ring.begin(),
                 b.ring.begin() + static_cast<std::ptrdiff_t>(b.ring.size() - capacity));
  b.capacity = capacity;
  // Oldest-first order means overwriting (which resumes once push_back
  // has refilled the ring) restarts at the front.
  b.next = 0;
}

std::size_t trace_span_count() {
  TraceBuffer& b = buffer();
  std::lock_guard<std::mutex> lock(b.mutex);
  return b.ring.size();
}

std::uint64_t trace_dropped() {
  TraceBuffer& b = buffer();
  std::lock_guard<std::mutex> lock(b.mutex);
  return b.dropped;
}

void clear_trace() {
  TraceBuffer& b = buffer();
  std::lock_guard<std::mutex> lock(b.mutex);
  b.ring.clear();
  b.next = 0;
  b.dropped = 0;
}

namespace {

struct Event {
  const char* name;
  const std::string* arg;  // only on B events
  char phase;              // 'B' or 'E'
  std::uint32_t tid;
  std::int64_t ts_ns;
  // Sort keys so ties keep B/E pairs nested: the partner timestamp, and
  // the span's index (pairs a zero-length span's B with its own E).
  std::int64_t other_ns;
  std::size_t span;
};

/// Where an event goes among the events at its ts: 0 for the E of a span
/// that started earlier, 1 for the B of a span that ends later, 2 for
/// either event of a zero-length span.
int tie_rank(const Event& e) {
  if (e.other_ns == e.ts_ns) return 2;
  return e.phase == 'E' ? 0 : 1;
}

}  // namespace

Json trace_to_json() {
  std::vector<SpanRecord> spans = snapshot();

  // Lay retroactive spans out on synthetic tracks: greedy interval
  // partitioning (start-sorted, first track whose last end fits) keeps
  // every track overlap-free so B/E pairs nest there too.
  std::vector<SpanRecord*> loose;
  for (SpanRecord& s : spans)
    if (s.tid == kTrackSentinel) loose.push_back(&s);
  std::stable_sort(loose.begin(), loose.end(),
                   [](const SpanRecord* a, const SpanRecord* b) {
                     if (a->start_ns != b->start_ns) return a->start_ns < b->start_ns;
                     return a->end_ns > b->end_ns;
                   });
  std::vector<std::int64_t> track_end;
  for (SpanRecord* s : loose) {
    std::size_t track = track_end.size();
    for (std::size_t t = 0; t < track_end.size(); ++t) {
      if (track_end[t] <= s->start_ns) {
        track = t;
        break;
      }
    }
    if (track == track_end.size()) track_end.push_back(s->end_ns);
    track_end[track] = std::max(track_end[track], s->end_ns);
    s->tid = kTrackBase + static_cast<std::uint32_t>(track);
  }

  std::vector<Event> events;
  events.reserve(spans.size() * 2);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    events.push_back({s.name, &s.arg, 'B', s.tid, s.start_ns, s.end_ns, i});
    events.push_back({s.name, nullptr, 'E', s.tid, s.end_ns, s.start_ns, i});
  }
  // Global non-decreasing ts. Ties (tie_rank): first the Es of spans that
  // started earlier, the latest-started (innermost) closing first; then
  // the Bs of spans that end later, the latest-ending (outermost) opening
  // first; then each zero-length span's B and its own E. So a span that
  // ends where another begins closes first, and a zero-length span opens
  // before it closes.
  std::stable_sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (a.ts_ns != b.ts_ns) return a.ts_ns < b.ts_ns;
    const int rank = tie_rank(a);
    if (rank != tie_rank(b)) return rank < tie_rank(b);
    if (rank < 2) return a.other_ns > b.other_ns;
    if (a.span != b.span) return a.span < b.span;
    return a.phase == 'B' && b.phase == 'E';
  });

  Json trace_events = Json::array();
  // Metadata rows naming the synthetic queue tracks, so the viewer shows
  // "queue wait" lanes instead of bare million-range tids.
  for (std::size_t t = 0; t < track_end.size(); ++t) {
    Json meta = Json::object();
    meta.set("name", Json("thread_name"));
    meta.set("ph", Json("M"));
    meta.set("pid", Json(1));
    meta.set("tid", Json(static_cast<std::int64_t>(kTrackBase + t)));
    Json args = Json::object();
    args.set("name", Json("queue wait #" + std::to_string(t)));
    meta.set("args", std::move(args));
    trace_events.push_back(std::move(meta));
  }
  for (const Event& e : events) {
    Json event = Json::object();
    event.set("name", Json(e.name));
    event.set("cat", Json("mpsched"));
    event.set("ph", Json(e.phase == 'B' ? "B" : "E"));
    event.set("ts", Json(static_cast<double>(e.ts_ns) / 1000.0));
    event.set("pid", Json(1));
    event.set("tid", Json(static_cast<std::int64_t>(e.tid)));
    if (e.phase == 'B' && e.arg != nullptr && !e.arg->empty()) {
      Json args = Json::object();
      args.set("detail", Json(*e.arg));
      event.set("args", std::move(args));
    }
    trace_events.push_back(std::move(event));
  }

  Json doc = Json::object();
  doc.set("traceEvents", std::move(trace_events));
  doc.set("displayTimeUnit", Json("ms"));
  return doc;
}

bool write_trace(const std::string& path) {
  try {
    save_json(trace_to_json(), path, 1);
    return true;
  } catch (const std::exception&) {
    return false;
  }
}

}  // namespace mpsched::obs
