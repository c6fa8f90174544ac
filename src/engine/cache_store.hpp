// Disk-backed tier of the analysis cache: analyses persist across
// processes in a shared cache directory (ROADMAP's cross-process cache
// persistence item).
//
// Layout: one file per analysis, named by the 128-bit content key —
//
//   <dir>/<32-hex-digit key>.mpa          committed entries
//   <dir>/tmp-<pid>-<seq>-<key>.mpa       in-flight writes
//
// Because the key already covers the canonical graph structure (including
// the per-node color-name sequence, which pins ColorId interning) plus the
// generation options, an entry written by any process is sound for any
// other process that derives the same key — the exact argument that makes
// the in-memory tier content-addressed, carried across the process
// boundary by io/analysis_io's bit-exact round-trip.
//
// Concurrency: writes go to a uniquely-named temp file in the same
// directory and are published with an atomic rename, so concurrent
// mpsched_batch processes can share one directory safely — readers only
// ever see absent or complete entries, and racing writers of the same key
// overwrite each other with identical bytes. Corrupt, truncated or
// version-mismatched entries (torn disks, interrupted copies, format
// upgrades) are detected by analysis_io's envelope and degrade to misses;
// the next store() simply overwrites them. There is no eviction: entries
// are immutable and content-addressed, so a cache directory is trimmed by
// deleting files (or the whole directory) at any time, even mid-run.
//
// Counters: the store keeps none of its own. It counts into the metrics
// registry — cache.disk.hits / misses / corrupt (an entry that existed but
// failed validation, on top of the miss it degrades to) / stores /
// store_failures (a store whose write or rename failed) / temp_swept —
// which the serve `stats` op and `mpsched_batch --cache-stats` read.
//
// Thread safety: all methods are safe to call concurrently.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "antichain/enumerate.hpp"

namespace mpsched::engine {

struct CacheKey;

/// Age/size limits for trim(); 0 disables the respective limit.
struct TrimOptions {
  /// Committed entries older than this (by mtime) are removed.
  std::uint64_t max_age_seconds = 0;
  /// Total committed bytes are reduced to at most this, oldest entry
  /// first (mtime, then filename, so the eviction order is deterministic).
  std::uint64_t max_total_bytes = 0;
};

struct TrimResult {
  std::size_t entries_removed = 0;
  std::uint64_t bytes_removed = 0;
  std::size_t entries_kept = 0;
  std::uint64_t bytes_kept = 0;
  /// Stale in-flight temp files swept alongside the trim.
  std::size_t temp_swept = 0;
};

class CacheStore {
 public:
  /// Binds the store to `directory`, creating it (and parents) if absent.
  /// Throws std::runtime_error when the path exists but is not a
  /// directory, or cannot be created.
  explicit CacheStore(std::string directory);

  const std::string& directory() const noexcept { return dir_; }

  /// Reads the entry for `key`; nullptr when absent or invalid (absent and
  /// corrupt both count as misses — the caller recomputes either way).
  std::shared_ptr<const AntichainAnalysis> load(const CacheKey& key);

  /// Publishes the entry for `key` (write temp + atomic rename).
  /// IO failures are swallowed and counted as cache.disk.store_failures —
  /// the disk tier is an accelerator, never a correctness dependency, so
  /// a full disk must not fail the batch.
  void store(const CacheKey& key, const AntichainAnalysis& analysis);

  /// Number of committed entries currently in the directory.
  std::size_t entry_count() const;

  /// In-flight temp files older than this are considered debris from a
  /// killed process (a healthy write holds its temp file for
  /// milliseconds) and are removed by the open-time sweep and by trim().
  static constexpr std::uint64_t kOrphanTempAgeSeconds = 3600;

  /// Removes in-flight temp files older than `min_age_seconds`. Safe
  /// while other processes write to the directory — their temp files are
  /// seconds old, the sweep only touches cold ones. Returns the number
  /// removed (also counted as cache.disk.temp_swept). The constructor runs this with kOrphanTempAgeSeconds so a
  /// process killed between temp write and rename cannot leave debris
  /// behind forever.
  std::size_t sweep_temp_files(std::uint64_t min_age_seconds);

  /// Age/size-based maintenance over committed entries. Entries are
  /// immutable and content-addressed, so removal is always safe: a
  /// concurrent reader of a trimmed entry degrades to a miss and
  /// recomputes. Also sweeps stale temp files (kOrphanTempAgeSeconds).
  TrimResult trim(const TrimOptions& options);

  /// "<32 hex digits>.mpa" — exposed so tests and tools can locate entries.
  static std::string entry_filename(const CacheKey& key);

 private:
  std::string dir_;
  std::atomic<std::uint64_t> temp_seq_{0};
};

}  // namespace mpsched::engine
