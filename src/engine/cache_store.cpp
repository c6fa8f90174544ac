#include "engine/cache_store.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <system_error>
#include <vector>

#include <unistd.h>

#include "engine/analysis_cache.hpp"
#include "io/analysis_io.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/timer.hpp"

namespace mpsched::engine {

namespace fs = std::filesystem;

namespace {

bool is_committed_entry(const std::string& name) {
  return name.size() == 36 && name.ends_with(".mpa") && !name.starts_with("tmp-");
}

/// `.cost.json` temps are left over from older releases' cost files.
bool is_temp_entry(const std::string& name) {
  return name.starts_with("tmp-") &&
         (name.ends_with(".mpa") || name.ends_with(".cost.json"));
}

/// File age in whole seconds by mtime; 0 for unreadable or future mtimes,
/// so errors never make a fresh file look stale.
std::uint64_t age_seconds_of(const fs::path& path) {
  std::error_code ec;
  const fs::file_time_type mtime = fs::last_write_time(path, ec);
  if (ec) return 0;
  const auto age = fs::file_time_type::clock::now() - mtime;
  if (age.count() < 0) return 0;
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::seconds>(age).count());
}

}  // namespace

CacheStore::CacheStore(std::string directory) : dir_(std::move(directory)) {
  std::error_code ec;
  fs::create_directories(dir_, ec);
  if (ec || !fs::is_directory(dir_))
    throw std::runtime_error("cache store: cannot use directory '" + dir_ +
                             "': " + (ec ? ec.message() : "not a directory"));
  // Orphan recovery: a process killed between temp write and rename left
  // debris no committed-entry path ever looks at again; reclaim it here.
  sweep_temp_files(kOrphanTempAgeSeconds);
}

std::size_t CacheStore::sweep_temp_files(std::uint64_t min_age_seconds) {
  static obs::Counter& swept = obs::Registry::global().counter("cache.disk.temp_swept");
  std::size_t removed = 0;
  std::error_code ec;
  for (fs::directory_iterator it(dir_, ec), end; !ec && it != end; it.increment(ec)) {
    const fs::path path = it->path();
    if (!is_temp_entry(path.filename().string())) continue;
    if (age_seconds_of(path) < min_age_seconds) continue;
    std::error_code rm;
    if (fs::remove(path, rm) && !rm) ++removed;
  }
  swept.add(removed);
  return removed;
}

TrimResult CacheStore::trim(const TrimOptions& options) {
  TrimResult result;
  result.temp_swept = sweep_temp_files(kOrphanTempAgeSeconds);

  struct Entry {
    fs::path path;
    std::uint64_t age_seconds = 0;
    std::uint64_t bytes = 0;
  };
  std::vector<Entry> entries;
  std::error_code ec;
  for (fs::directory_iterator it(dir_, ec), end; !ec && it != end; it.increment(ec)) {
    const fs::path path = it->path();
    if (!is_committed_entry(path.filename().string())) continue;
    std::error_code sz;
    const std::uint64_t bytes = fs::file_size(path, sz);
    entries.push_back({path, age_seconds_of(path), sz ? 0 : bytes});
  }
  // Oldest first; ties (age granularity is a second) break on the content
  // key in the filename so the eviction order is deterministic.
  std::sort(entries.begin(), entries.end(), [](const Entry& a, const Entry& b) {
    if (a.age_seconds != b.age_seconds) return a.age_seconds > b.age_seconds;
    return a.path.filename().string() < b.path.filename().string();
  });

  std::uint64_t total_bytes = 0;
  for (const Entry& e : entries) total_bytes += e.bytes;

  const auto remove_entry = [&](const Entry& e) {
    std::error_code rm;
    if (!fs::remove(e.path, rm) || rm) return;  // already gone / unremovable
    ++result.entries_removed;
    result.bytes_removed += e.bytes;
    total_bytes -= e.bytes;
    // Cache dirs written by older releases hold a `<key>.cost.json` too.
    fs::path sidecar = e.path;
    sidecar.replace_extension();  // "<key>.mpa" -> "<key>"
    sidecar += ".cost.json";
    fs::remove(sidecar, rm);
  };

  std::size_t next = 0;
  if (options.max_age_seconds > 0)
    while (next < entries.size() && entries[next].age_seconds > options.max_age_seconds)
      remove_entry(entries[next++]);
  if (options.max_total_bytes > 0)
    while (next < entries.size() && total_bytes > options.max_total_bytes)
      remove_entry(entries[next++]);

  result.entries_kept = entries.size() - result.entries_removed;
  result.bytes_kept = total_bytes;
  return result;
}

std::string CacheStore::entry_filename(const CacheKey& key) {
  return key.to_string() + ".mpa";
}

std::shared_ptr<const AntichainAnalysis> CacheStore::load(const CacheKey& key) {
  static obs::Counter& hit_count =
      obs::Registry::global().counter("cache.disk.hits");
  static obs::Counter& miss_count =
      obs::Registry::global().counter("cache.disk.misses");
  static obs::Counter& corrupt_count =
      obs::Registry::global().counter("cache.disk.corrupt");
  static obs::Histogram& read_ms =
      obs::Registry::global().histogram("cache.disk.read_ms");
  obs::Span span("cache.disk.load",
                 obs::tracing_enabled() ? key.to_string() : std::string());
  Timer timer;

  const fs::path path = fs::path(dir_) / entry_filename(key);
  std::error_code ec;
  if (!fs::exists(path, ec) || ec) {
    miss_count.add();
    read_ms.record(timer.millis());
    return nullptr;
  }
  std::string error;
  std::optional<AntichainAnalysis> loaded = load_analysis(path.string(), &error);
  read_ms.record(timer.millis());
  if (!loaded) {
    // Present but invalid: torn write from a crashed copy, bit rot, or a
    // format bump. A miss either way; the recompute's store() overwrites.
    corrupt_count.add();
    miss_count.add();
    return nullptr;
  }
  hit_count.add();
  return std::make_shared<AntichainAnalysis>(std::move(*loaded));
}

void CacheStore::store(const CacheKey& key, const AntichainAnalysis& analysis) {
  static obs::Counter& store_count =
      obs::Registry::global().counter("cache.disk.stores");
  static obs::Counter& failure_count =
      obs::Registry::global().counter("cache.disk.store_failures");
  static obs::Histogram& write_ms =
      obs::Registry::global().histogram("cache.disk.write_ms");
  obs::Span span("cache.disk.store",
                 obs::tracing_enabled() ? key.to_string() : std::string());
  Timer timer;
  store_count.add();

  // Unique temp name per (process, store, write): concurrent writers —
  // threads or whole processes — never collide on the temp file, and the
  // rename is atomic within one directory, so readers see only absent or
  // complete entries.
  const std::uint64_t seq = temp_seq_.fetch_add(1, std::memory_order_relaxed) + 1;
  const fs::path dir(dir_);
  const fs::path tmp = dir / ("tmp-" + std::to_string(::getpid()) + "-" +
                              std::to_string(seq) + "-" + key.to_string() + ".mpa");
  const fs::path final_path = dir / entry_filename(key);
  bool stored = false;
  try {
    save_analysis(analysis, tmp.string());
    std::error_code ec;
    fs::rename(tmp, final_path, ec);
    stored = !ec;
  } catch (const std::exception&) {
  }
  if (!stored) {
    // Disk full / permissions / directory gone: drop the entry, keep the
    // batch running, and leave a trace in the registry.
    failure_count.add();
    std::error_code ec;
    fs::remove(tmp, ec);
  }
  write_ms.record(timer.millis());
}

std::size_t CacheStore::entry_count() const {
  std::size_t n = 0;
  std::error_code ec;
  for (fs::directory_iterator it(dir_, ec), end; !ec && it != end; it.increment(ec))
    if (is_committed_entry(it->path().filename().string())) ++n;
  return n;
}

}  // namespace mpsched::engine
