// The disk cache tier (io/analysis_io + engine/cache_store): serialized
// round-trips are bit-identical, corrupt/truncated/version-mismatched
// entries degrade to misses (never crash), failed writes are counted and
// change no result, and a second engine on the same cache directory — a
// stand-in for a second process — reproduces byte-identical results with
// zero recomputed analyses. The tier counts into the process-wide metrics
// registry, so every count here is a before/after delta.
#include "engine/cache_store.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>

#include "antichain/analytic.hpp"
#include "antichain/enumerate.hpp"
#include "engine/engine.hpp"
#include "io/analysis_io.hpp"
#include "io/result_io.hpp"
#include "obs/metrics.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"
#include "workloads/paper_graphs.hpp"

namespace mpsched {
namespace {

namespace fs = std::filesystem;

using engine::AnalysisCache;
using engine::CacheKey;
using engine::CacheStore;
using engine::Engine;
using engine::EngineOptions;
using engine::Job;
using test::expect_analysis_identical;

/// Fresh directory under the test's working directory (the build tree),
/// removed on teardown.
class CacheStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::path("cache_store_test.tmp") /
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    fs::remove_all(dir_);
    fs::create_directories(dir_);
  }
  // Remove only this test's directory — gtest_discover_tests runs each
  // case as its own ctest process, so sibling cases share the parent
  // directory concurrently under `ctest -j`.
  void TearDown() override { fs::remove_all(dir_); }

  std::string dir() const { return dir_.string(); }

  fs::path dir_;
};

/// A cache.disk.* registry counter.
obs::Counter& disk_counter(const std::string& name) {
  return obs::Registry::global().counter("cache.disk." + name);
}

/// Before/after reader of one registry counter.
class Delta {
 public:
  explicit Delta(const std::string& name)
      : counter_(disk_counter(name)), start_(counter_.value()) {}
  std::uint64_t operator()() const { return counter_.value() - start_; }

 private:
  obs::Counter& counter_;
  std::uint64_t start_;
};

AntichainAnalysis analysis_of(const Dfg& dfg, bool collect_members = false) {
  EnumerateOptions options;
  options.max_size = 5;
  options.span_limit = 1;
  options.collect_members = collect_members;
  options.parallel = false;
  return enumerate_antichains(dfg, options);
}

std::vector<Job> seeded_jobs() {
  std::vector<Job> jobs;
  for (const std::uint64_t seed : {11u, 23u, 37u}) {
    Job job;
    job.name = "random_dag(" + std::to_string(seed) + ")";
    job.dfg = test::random_dag(seed);
    jobs.push_back(std::move(job));
  }
  jobs.push_back(Job::from_workload("paper_3dft"));
  jobs.push_back(jobs.back());  // duplicate: dedup + disk must agree
  return jobs;
}

TEST_F(CacheStoreTest, SerializedRoundTripIsBitIdentical) {
  // Property over seeded random DAGs: analysis → bytes → analysis is
  // bit-identical field by field, members included.
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const AntichainAnalysis original = analysis_of(test::random_dag(seed));
    const std::string bytes = analysis_to_bytes(original);
    std::string error;
    const auto restored = analysis_from_bytes(bytes, &error);
    ASSERT_TRUE(restored.has_value()) << "seed " << seed << ": " << error;
    expect_analysis_identical(original, *restored);
  }

  // Member lists and the analytic generator's output round-trip too.
  const AntichainAnalysis with_members = analysis_of(workloads::small_example(), true);
  ASSERT_FALSE(with_members.per_pattern.empty());
  ASSERT_FALSE(with_members.per_pattern.front().members.empty());
  const auto members_restored = analysis_from_bytes(analysis_to_bytes(with_members));
  ASSERT_TRUE(members_restored.has_value());
  expect_analysis_identical(with_members, *members_restored);

  const Dfg dfg = workloads::paper_3dft();
  const AntichainAnalysis analytic =
      analytic_level_analysis(dfg, compute_levels(dfg), 5);
  const auto analytic_restored = analysis_from_bytes(analysis_to_bytes(analytic));
  ASSERT_TRUE(analytic_restored.has_value());
  expect_analysis_identical(analytic, *analytic_restored);
}

TEST_F(CacheStoreTest, EveryTruncationIsARejectionNotACrash) {
  const std::string bytes = analysis_to_bytes(analysis_of(test::random_dag(7)));
  ASSERT_GT(bytes.size(), 32u);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::string error;
    EXPECT_EQ(analysis_from_bytes(std::string_view(bytes).substr(0, len), &error),
              std::nullopt)
        << "prefix of " << len << " bytes parsed";
  }
  // The untruncated document still parses (the loop above must not have
  // been vacuously passing on a broken fixture).
  EXPECT_TRUE(analysis_from_bytes(bytes).has_value());
}

TEST_F(CacheStoreTest, BitFlipsAndJunkAreRejected) {
  const std::string bytes = analysis_to_bytes(analysis_of(test::random_dag(8)));
  Rng rng(0xC0FFEE);

  // Seeded single-bit flips across the whole envelope: header flips break
  // magic/version/size, payload flips break the 128-bit checksum.
  for (int trial = 0; trial < 200; ++trial) {
    std::string mutated = bytes;
    const std::size_t byte = rng.below(mutated.size());
    mutated[byte] = static_cast<char>(static_cast<unsigned char>(mutated[byte]) ^
                                      (1u << rng.below(8)));
    EXPECT_EQ(analysis_from_bytes(mutated), std::nullopt)
        << "flip at byte " << byte << " parsed";
  }

  // Junk splices and appends.
  for (int trial = 0; trial < 50; ++trial) {
    std::string mutated = bytes;
    const std::size_t at = rng.below(mutated.size());
    mutated.insert(at, 1 + rng.below(9), static_cast<char>(rng.below(256)));
    EXPECT_EQ(analysis_from_bytes(mutated), std::nullopt);
  }
  EXPECT_EQ(analysis_from_bytes(bytes + "x"), std::nullopt);
  EXPECT_EQ(analysis_from_bytes(std::string(1024, '\xff')), std::nullopt);
  EXPECT_EQ(analysis_from_bytes(""), std::nullopt);
}

TEST_F(CacheStoreTest, VersionAndMagicMismatchesAreMisses) {
  std::string bytes = analysis_to_bytes(analysis_of(workloads::small_example()));
  std::string error;

  std::string wrong_version = bytes;
  wrong_version[4] = static_cast<char>(kAnalysisFormatVersion + 1);
  EXPECT_EQ(analysis_from_bytes(wrong_version, &error), std::nullopt);
  EXPECT_EQ(error, "version mismatch");

  std::string wrong_magic = bytes;
  wrong_magic[0] = 'X';
  EXPECT_EQ(analysis_from_bytes(wrong_magic, &error), std::nullopt);
  EXPECT_EQ(error, "bad magic");
}

TEST_F(CacheStoreTest, StoreRoundTripsAndCountsTiers) {
  CacheStore store(dir());
  const Delta hits("hits"), misses("misses"), corrupt("corrupt"), stores("stores");
  const Dfg dfg = workloads::paper_3dft();
  const CacheKey key =
      AnalysisCache::content_keys(dfg, PatternGeneration::SpanLimitedEnumeration, 5, 1).second;
  EXPECT_EQ(store.load(key), nullptr);  // absent
  EXPECT_EQ(misses(), 1u);

  const AntichainAnalysis analysis = analysis_of(dfg);
  store.store(key, analysis);
  EXPECT_EQ(stores(), 1u);
  EXPECT_EQ(store.entry_count(), 1u);
  const auto loaded = store.load(key);
  ASSERT_NE(loaded, nullptr);
  expect_analysis_identical(analysis, *loaded);
  EXPECT_EQ(hits(), 1u);
  EXPECT_EQ(corrupt(), 0u);

  // These loads counted disk hits and misses no memory lookup preceded.
  // An engine's derived cache fields are sums of registry counters, never
  // differences, so they cannot wrap around here.
  const engine::CacheStats derived = Engine().stats().cache;
  EXPECT_EQ(derived.analysis_misses,
            obs::Registry::global().counter("cache.mem.misses").value());
  EXPECT_GE(derived.analysis_hits, hits());

  // Re-storing the same key overwrites in place; still one entry.
  store.store(key, analysis);
  EXPECT_EQ(store.entry_count(), 1u);
  // No temp files left behind.
  for (const auto& entry : fs::directory_iterator(dir()))
    EXPECT_FALSE(entry.path().filename().string().starts_with("tmp-"));
}

TEST_F(CacheStoreTest, CorruptEntriesDegradeToMissesAndAreOverwritten) {
  CacheStore store(dir());
  const Dfg dfg = workloads::small_example();
  const CacheKey key =
      AnalysisCache::content_keys(dfg, PatternGeneration::SpanLimitedEnumeration, 5, 1).second;
  const AntichainAnalysis analysis = analysis_of(dfg);
  store.store(key, analysis);

  const fs::path entry = fs::path(dir()) / CacheStore::entry_filename(key);
  ASSERT_TRUE(fs::exists(entry));
  const Delta corrupt("corrupt"), misses("misses");

  // Truncate to half: a torn write.
  const auto full_size = fs::file_size(entry);
  fs::resize_file(entry, full_size / 2);
  EXPECT_EQ(store.load(key), nullptr);
  EXPECT_EQ(corrupt(), 1u);

  // Overwrite with garbage.
  std::ofstream(entry, std::ios::binary) << "not an analysis";
  EXPECT_EQ(store.load(key), nullptr);
  EXPECT_EQ(corrupt(), 2u);
  EXPECT_EQ(misses(), 2u);  // each corrupt entry is a miss too

  // The next store repairs the entry.
  store.store(key, analysis);
  const auto repaired = store.load(key);
  ASSERT_NE(repaired, nullptr);
  expect_analysis_identical(analysis, *repaired);
}

TEST_F(CacheStoreTest, SecondEngineOnSharedDirRecomputesNothing) {
  const std::vector<Job> jobs = seeded_jobs();

  EngineOptions options;
  options.threads = 2;
  options.cache_dir = dir();

  // First process: cold disk, computes and populates.
  Engine first(options);
  const engine::BatchResult cold = first.run_batch(jobs);
  EXPECT_EQ(cold.succeeded(), jobs.size());
  EXPECT_GT(cold.analyses_computed, 0u);
  const std::string reference = batch_to_json(cold).dump();

  // Second process (fresh engine, empty memory tier): everything must come
  // off the shared directory, byte-identically, and the load time is
  // charged to the jobs (analysis_ms, a diagnostics field).
  Engine second(options);
  const Delta hits("hits"), corrupt("corrupt");
  const engine::BatchResult warm = second.run_batch(jobs);
  EXPECT_EQ(warm.succeeded(), jobs.size());
  EXPECT_EQ(warm.analyses_computed, 0u);
  EXPECT_EQ(warm.analyses_reused, jobs.size());
  for (const engine::JobResult& r : warm.jobs) {
    EXPECT_TRUE(r.analysis_cache_hit);
    EXPECT_GT(r.timings.analysis_ms, 0.0) << r.job;
  }
  EXPECT_EQ(batch_to_json(warm).dump(), reference);
  EXPECT_GT(hits(), 0u);
  EXPECT_EQ(corrupt(), 0u);

  // Third process over a vandalized directory: corrupt entries degrade to
  // misses, get recomputed and overwritten, and results stay identical.
  for (const auto& entry : fs::directory_iterator(dir()))
    fs::resize_file(entry.path(), fs::file_size(entry.path()) / 3);
  Engine third(options);
  const engine::BatchResult repaired = third.run_batch(jobs);
  EXPECT_EQ(repaired.succeeded(), jobs.size());
  EXPECT_GT(repaired.analyses_computed, 0u);
  EXPECT_EQ(batch_to_json(repaired).dump(), reference);
  EXPECT_GT(corrupt(), 0u);

  // And a fourth over the repaired directory is fully warm again.
  Engine fourth(options);
  const engine::BatchResult rewarmed = fourth.run_batch(jobs);
  EXPECT_EQ(rewarmed.analyses_computed, 0u);
  EXPECT_EQ(batch_to_json(rewarmed).dump(), reference);
}

TEST_F(CacheStoreTest, FailedStoresAreCountedAndChangeNoResult) {
  // A store whose directory is removed underneath it (as a full disk
  // would) drops each write, counting one failure per store() call.
  CacheStore store(dir());
  fs::remove_all(dir());
  const Delta stores("stores"), failures("store_failures");
  for (std::uint64_t i = 1; i <= 3; ++i) {
    store.store(CacheKey{i, 8}, analysis_of(test::random_dag(81)));
    EXPECT_EQ(failures(), i);
  }
  EXPECT_EQ(stores(), 3u);

  // An engine on such a directory fails every store and still answers
  // byte-identically to a memory-only engine.
  const std::vector<Job> jobs = seeded_jobs();
  Engine memory_only;
  const std::string reference = batch_to_json(memory_only.run_batch(jobs)).dump();
  EngineOptions options;
  options.threads = 2;
  options.cache_dir = dir();
  Engine eng(options);
  fs::remove_all(dir());
  const Delta engine_stores("stores"), engine_failures("store_failures");
  const engine::BatchResult run = eng.run_batch(jobs);
  EXPECT_EQ(run.succeeded(), jobs.size());
  EXPECT_EQ(batch_to_json(run).dump(), reference);
  EXPECT_GT(engine_stores(), 0u);
  EXPECT_EQ(engine_failures(), engine_stores());
  EXPECT_FALSE(fs::exists(dir()));
}

TEST_F(CacheStoreTest, UnusableDirectoryIsAnError) {
  const fs::path file = fs::path(dir()) / "a_file";
  std::ofstream(file) << "occupied";
  EXPECT_THROW(CacheStore{file.string()}, std::runtime_error);

  EngineOptions options;
  options.cache_dir = file.string();
  EXPECT_THROW(Engine{std::move(options)}, std::runtime_error);
}

/// Backdates a file's mtime by `seconds`.
void age_file(const fs::path& path, std::uint64_t seconds) {
  fs::last_write_time(path, fs::last_write_time(path) - std::chrono::seconds(seconds));
}

TEST_F(CacheStoreTest, OrphanTempFilesAreSweptOnOpen) {
  // A process killed between temp write and atomic rename leaves
  // tmp-<pid>-<seq>-<key>.mpa debris behind. Plant two stale orphans and
  // one fresh temp (a live writer elsewhere): opening the store must
  // reclaim the stale ones only.
  // A committed entry must be untouched by the sweep.
  CacheStore writer(dir());
  const CacheKey key{0x1234, 0x5678};
  writer.store(key, analysis_of(test::random_dag(31)));
  ASSERT_EQ(writer.entry_count(), 1u);

  const std::string key_hex(32, 'a');
  const fs::path stale1 = fs::path(dir()) / ("tmp-999-1-" + key_hex + ".mpa");
  const fs::path stale2 = fs::path(dir()) / ("tmp-999-2-" + key_hex + ".mpa");
  const fs::path fresh = fs::path(dir()) / ("tmp-999-3-" + key_hex + ".mpa");
  for (const fs::path& p : {stale1, stale2, fresh}) std::ofstream(p) << "partial write";
  age_file(stale1, 2 * CacheStore::kOrphanTempAgeSeconds);
  age_file(stale2, CacheStore::kOrphanTempAgeSeconds + 60);

  const Delta swept("temp_swept");
  CacheStore reopened(dir());
  EXPECT_FALSE(fs::exists(stale1));
  EXPECT_FALSE(fs::exists(stale2));
  EXPECT_TRUE(fs::exists(fresh));
  EXPECT_EQ(reopened.entry_count(), 1u);
  EXPECT_EQ(swept(), 2u);
  EXPECT_NE(reopened.load(key), nullptr);
}

TEST_F(CacheStoreTest, TrimByAgeRemovesOnlyStaleEntries) {
  CacheStore store(dir());
  const CacheKey old_key{1, 1}, new_key{2, 2};
  store.store(old_key, analysis_of(test::random_dag(41)));
  store.store(new_key, analysis_of(test::random_dag(42)));
  age_file(fs::path(dir()) / CacheStore::entry_filename(old_key), 7200);

  engine::TrimOptions options;
  options.max_age_seconds = 3600;
  const engine::TrimResult r = store.trim(options);
  EXPECT_EQ(r.entries_removed, 1u);
  EXPECT_EQ(r.entries_kept, 1u);
  EXPECT_GT(r.bytes_removed, 0u);
  EXPECT_EQ(store.load(old_key), nullptr);   // trimmed: a miss again
  EXPECT_NE(store.load(new_key), nullptr);   // kept: still served
}

TEST_F(CacheStoreTest, TrimBySizeEvictsOldestFirst) {
  CacheStore store(dir());
  const CacheKey oldest{1, 0}, middle{2, 0}, newest{3, 0};
  std::uint64_t entry_bytes = 0;
  for (const auto& [key, age] :
       {std::pair{oldest, std::uint64_t{3000}}, {middle, 2000}, {newest, 0}}) {
    store.store(key, analysis_of(test::random_dag(51)));
    const fs::path path = fs::path(dir()) / CacheStore::entry_filename(key);
    entry_bytes = fs::file_size(path);
    if (age > 0) age_file(path, age);
  }

  // Cap to two entries' worth: only the oldest is evicted.
  engine::TrimOptions options;
  options.max_total_bytes = 2 * entry_bytes;
  engine::TrimResult r = store.trim(options);
  EXPECT_EQ(r.entries_removed, 1u);
  EXPECT_EQ(store.load(oldest), nullptr);
  EXPECT_NE(store.load(middle), nullptr);
  EXPECT_NE(store.load(newest), nullptr);

  // Cap below one entry: everything goes, and the store keeps working.
  options.max_total_bytes = 1;
  r = store.trim(options);
  EXPECT_EQ(r.entries_removed, 2u);
  EXPECT_EQ(r.entries_kept, 0u);
  EXPECT_EQ(r.bytes_kept, 0u);
  EXPECT_EQ(store.entry_count(), 0u);
  store.store(newest, analysis_of(test::random_dag(51)));
  EXPECT_NE(store.load(newest), nullptr);
}

TEST_F(CacheStoreTest, TrimWithNoLimitsOnlySweepsTemps) {
  CacheStore store(dir());
  store.store(CacheKey{9, 9}, analysis_of(test::random_dag(61)));
  const engine::TrimResult r = store.trim(engine::TrimOptions{});
  EXPECT_EQ(r.entries_removed, 0u);
  EXPECT_EQ(r.entries_kept, 1u);
  EXPECT_GT(r.bytes_kept, 0u);
}

TEST_F(CacheStoreTest, TrimRemovesALegacyCostFileWithItsEntry) {
  // Cache directories written by older releases hold a `<key>.cost.json`
  // beside each entry, plus the occasional stale temp of one. trim()
  // removes an entry's cost file together with the entry, keeps a kept
  // entry's, and sweeps the stale temps like any other.
  CacheStore store(dir());
  const CacheKey evicted{7, 1}, kept{7, 2};
  store.store(evicted, analysis_of(test::random_dag(71)));
  store.store(kept, analysis_of(test::random_dag(72)));
  const fs::path entry = fs::path(dir()) / CacheStore::entry_filename(evicted);
  age_file(entry, 7200);
  const auto cost_file = [&](const CacheKey& key) {
    return fs::path(dir()) / (key.to_string() + ".cost.json");
  };
  for (const CacheKey& key : {evicted, kept}) std::ofstream(cost_file(key)) << "{}";
  const fs::path stale_temp =
      fs::path(dir()) / ("tmp-999-1-" + evicted.to_string() + ".cost.json");
  std::ofstream(stale_temp) << "{";
  age_file(stale_temp, 2 * CacheStore::kOrphanTempAgeSeconds);

  engine::TrimOptions options;
  options.max_age_seconds = 3600;
  const engine::TrimResult r = store.trim(options);
  EXPECT_EQ(r.entries_removed, 1u);
  EXPECT_EQ(r.temp_swept, 1u);
  EXPECT_FALSE(fs::exists(entry));
  EXPECT_FALSE(fs::exists(cost_file(evicted)));
  EXPECT_TRUE(fs::exists(cost_file(kept)));
  EXPECT_FALSE(fs::exists(stale_temp));
  EXPECT_NE(store.load(kept), nullptr);
}

TEST_F(CacheStoreTest, CacheDirWithCacheDisabledIsAnError) {
  // With use_cache off, nothing would ever read or write the store; an
  // engine that silently dropped the requested persistence would defeat
  // the point of asking for it.
  // The engine rejects the configuration before it builds its disk tier,
  // so the directory it names is never created.
  const fs::path never = fs::path(dir()) / "never";
  EngineOptions options;
  options.cache_dir = never.string();
  options.use_cache = false;
  EXPECT_THROW(Engine{std::move(options)}, std::invalid_argument);
  EXPECT_FALSE(fs::exists(never));
}

}  // namespace
}  // namespace mpsched
