// Tests for the component-query result cache and incremental view
// maintenance (DESIGN.md §15):
//
//  - ResultCache unit behaviour: hit/miss, structural invalidation through
//    version-vector keys, key-space separation, replace-in-place, byte
//    budget eviction, oversized-entry admission control;
//  - the Table version counter's unification with index maintenance: every
//    insert path (validated and unchecked) must keep the primary-key set,
//    secondary indexes, and the version counter in lockstep, because any
//    drift would silently serve stale cached documents;
//  - NormalizeSql pinning: the cache's keying function (a changed
//    normalization would orphan every cache key in the wild);
//  - concurrent readers + writers over one cache (the TSan target);
//  - end to end: cache-on publishes byte-identical to cache-off at
//    concurrency 1 and 8, the unchanged-view republish served from the
//    document cache, a single-table delta re-executing ONLY the components
//    that name the dirty table, and a seeded differential harness that
//    randomly interleaves table mutations with republishes.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/string_util.h"
#include "engine/result_cache.h"
#include "relational/database.h"
#include "service/publishing_service.h"
#include "silkroute/publisher.h"
#include "silkroute/queries.h"
#include "tests/test_util.h"

namespace silkroute {
namespace {

// ---------------------------------------------------------------------------
// ResultCache unit behaviour
// ---------------------------------------------------------------------------

engine::CacheEntry MakeEntry(std::string payload, size_t num_tuples = 1) {
  engine::CacheEntry entry;
  entry.bytes = std::make_shared<const std::string>(std::move(payload));
  entry.num_tuples = num_tuples;
  return entry;
}

TEST(ResultCacheTest, HitMissAndVersionInvalidation) {
  engine::ResultCache cache(engine::ResultCache::Options{1 << 20, 2, nullptr});
  const std::string key_v3 =
      engine::ResultCache::FragmentKey("select a from T", {{"T", 3}});
  EXPECT_EQ(cache.Lookup(key_v3), nullptr);
  cache.Insert(key_v3, MakeEntry("payload", 7));

  auto hit = cache.Lookup(key_v3);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit->bytes, "payload");
  EXPECT_EQ(hit->num_tuples, 7u);

  // A bumped table version is a *different key*: the stale entry is simply
  // unreachable. No purge, nothing to coordinate with writers.
  const std::string key_v4 =
      engine::ResultCache::FragmentKey("select a from T", {{"T", 4}});
  EXPECT_EQ(cache.Lookup(key_v4), nullptr);

  auto stats = cache.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 2u);
  EXPECT_EQ(stats.insertions, 1u);
  EXPECT_EQ(stats.entries, 1u);
}

TEST(ResultCacheTest, FragmentAndDocumentKeySpacesAreDisjoint) {
  const engine::TableVersionVector versions = {{"T", 1}, {"U", 2}};
  EXPECT_NE(engine::ResultCache::FragmentKey("same text", versions),
            engine::ResultCache::DocumentKey("same text", versions));
  // The packed segments are self-delimiting: moving a version between the
  // text and the vector cannot produce the same key.
  EXPECT_NE(engine::ResultCache::FragmentKey("q", {{"T", 12}}),
            engine::ResultCache::FragmentKey("q", {{"T1", 2}}));
}

TEST(ResultCacheTest, ReinsertReplacesInPlace) {
  engine::ResultCache cache(engine::ResultCache::Options{1 << 20, 1, nullptr});
  const std::string key =
      engine::ResultCache::FragmentKey("select 1", {{"T", 1}});
  cache.Insert(key, MakeEntry("old"));
  cache.Insert(key, MakeEntry("new"));
  auto hit = cache.Lookup(key);
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(*hit->bytes, "new");
  EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(ResultCacheTest, EvictsColdEntriesUnderByteBudget) {
  // One shard so the whole budget is one LRU list. Each entry costs
  // key + payload + fixed overhead; a 4 KiB budget holds only a few
  // 512-byte payloads.
  engine::ResultCache cache(engine::ResultCache::Options{4096, 1, nullptr});
  std::vector<std::string> keys;
  for (int i = 0; i < 16; ++i) {
    keys.push_back(engine::ResultCache::FragmentKey(
        "q" + std::to_string(i), {{"T", static_cast<uint64_t>(i)}}));
    cache.Insert(keys.back(), MakeEntry(std::string(512, 'x')));
  }
  auto stats = cache.stats();
  EXPECT_GT(stats.evictions, 0u);
  EXPECT_LE(stats.resident_bytes, 4096u);
  EXPECT_EQ(stats.entries + stats.evictions, 16u);
  // The most recent insert survived; the oldest was evicted.
  EXPECT_NE(cache.Lookup(keys.back()), nullptr);
  EXPECT_EQ(cache.Lookup(keys.front()), nullptr);
}

TEST(ResultCacheTest, OversizedEntryIsRejectedAtAdmission) {
  engine::ResultCache cache(engine::ResultCache::Options{1024, 1, nullptr});
  const std::string key =
      engine::ResultCache::FragmentKey("big", {{"T", 1}});
  cache.Insert(key, MakeEntry(std::string(4096, 'x')));
  auto stats = cache.stats();
  EXPECT_EQ(stats.admission_rejects, 1u);
  EXPECT_EQ(stats.entries, 0u);
  EXPECT_EQ(cache.Lookup(key), nullptr);
}

TEST(ResultCacheTest, ConcurrentReadersAndWritersAreSafe) {
  // The TSan target: readers, writers, and the stats scan all race over a
  // budget small enough to keep eviction churning. Entries are immutable
  // shared_ptrs, so a reader may outlive its entry's eviction.
  engine::ResultCache cache(engine::ResultCache::Options{64 << 10, 4,
                                                         nullptr});
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      std::mt19937 rng(static_cast<unsigned>(1000 + t));
      for (int i = 0; i < 2000; ++i) {
        std::string sql = "q";
        sql += std::to_string(rng() % 64);
        const std::string key = engine::ResultCache::FragmentKey(
            sql, {{"T", static_cast<uint64_t>(rng() % 4)}});
        if (rng() % 2 == 0) {
          cache.Insert(key, MakeEntry(std::string(200 + rng() % 200, 'x')));
        } else if (auto entry = cache.Lookup(key)) {
          // Hold the borrowed bytes across the next eviction window.
          EXPECT_GE(entry->bytes->size(), 200u);
        }
      }
    });
  }
  threads.emplace_back([&cache] {
    for (int i = 0; i < 200; ++i) {
      auto stats = cache.stats();
      EXPECT_LE(stats.resident_bytes, (64u << 10) + 1024u);
      cache.RecordSplices(1);
    }
  });
  for (auto& thread : threads) thread.join();
  auto stats = cache.stats();
  EXPECT_GT(stats.hits + stats.misses, 0u);
  EXPECT_EQ(stats.splices, 200u);
}

// ---------------------------------------------------------------------------
// Table versioning: one CommitRow path for every insert
// ---------------------------------------------------------------------------

TEST(TableVersionTest, EveryInsertPathMaintainsVersionAndKeys) {
  TableSchema schema("T", {{"k", DataType::kInt64, false},
                           {"v", DataType::kString, false}});
  ASSERT_TRUE(schema.SetPrimaryKey({"k"}).ok());
  Table table(schema);
  EXPECT_EQ(table.version(), 0u);

  ASSERT_TRUE(table.Insert({Value::Int64(1), Value::String("a")}).ok());
  EXPECT_EQ(table.version(), 1u);
  // The unchecked (bulk-load) path goes through the same CommitRow: the
  // version bumps and the primary-key set records the key.
  ASSERT_TRUE(
      table.InsertUnchecked({Value::Int64(2), Value::String("b")}).ok());
  EXPECT_EQ(table.version(), 2u);

  // Duplicate of the *unchecked* row's key must still be caught by the
  // validated path — the regression that motivated unifying the paths.
  EXPECT_FALSE(table.Insert({Value::Int64(2), Value::String("c")}).ok());
  EXPECT_EQ(table.version(), 2u) << "a rejected insert must not bump";

  // Append-only store: the version doubles as the row high-water mark.
  EXPECT_EQ(table.RowsAppendedSince(0), 2u);
  EXPECT_EQ(table.RowsAppendedSince(1), 1u);
  EXPECT_EQ(table.RowsAppendedSince(2), 0u);
  EXPECT_EQ(table.RowsAppendedSince(99), 0u);
}

// ---------------------------------------------------------------------------
// NormalizeSql: the cache's keying function
// ---------------------------------------------------------------------------

TEST(NormalizeSqlTest, PinsTheKeyingNormalization) {
  // The result cache keys fragments on this exact output; changing it
  // silently orphans cached entries, so the behaviour is pinned.
  EXPECT_EQ(NormalizeSql("SELECT a FROM T"), "SELECT a FROM T");
  EXPECT_EQ(NormalizeSql("  SELECT   a,\n\tb\nFROM  T  "),
            "SELECT a, b FROM T");
  EXPECT_EQ(NormalizeSql("  select  a\n from\t b  "), "select a from b");
  EXPECT_EQ(NormalizeSql("select a from b"),
            NormalizeSql("select a\n  from b"));
  EXPECT_EQ(NormalizeSql("\n\t "), "");
  EXPECT_EQ(NormalizeSql(" \t\n "), "");
  EXPECT_EQ(NormalizeSql(""), "");
}

}  // namespace
}  // namespace silkroute

// ---------------------------------------------------------------------------
// End to end: publisher + service with a live cache
// ---------------------------------------------------------------------------

namespace silkroute::core {
namespace {

using testutil::MakeTinyTpch;

PublishOptions BaseOptions() {
  PublishOptions opt;
  // Fully partitioned = one query per view-tree node: the most components,
  // hence the sharpest dirty-table attribution.
  opt.strategy = PlanStrategy::kFullyPartitioned;
  opt.document_element = "suppliers";
  return opt;
}

std::string MustPublish(Publisher* publisher, const PublishOptions& opt,
                        PlanMetrics* metrics = nullptr) {
  std::ostringstream out;
  auto result = publisher->Publish(Query1Rxl(), opt, &out);
  EXPECT_TRUE(result.ok()) << result.status();
  if (result.ok() && metrics != nullptr) *metrics = result->metrics;
  return out.str();
}

TEST(ResultCacheE2ETest, CacheOnMatchesCacheOffAndRepublishDocHits) {
  auto db = MakeTinyTpch(0.001);
  Publisher publisher(db.get());
  const std::string cold = MustPublish(&publisher, BaseOptions());

  engine::ResultCache cache(
      engine::ResultCache::Options{8 << 20, 4, nullptr});
  PublishOptions cached = BaseOptions();
  cached.result_cache = &cache;

  PlanMetrics first;
  EXPECT_EQ(MustPublish(&publisher, cached, &first), cold);
  EXPECT_FALSE(first.served_from_doc_cache);
  EXPECT_EQ(first.cache_hits, 0u);
  EXPECT_GT(first.cache_misses, 0u);

  PlanMetrics second;
  EXPECT_EQ(MustPublish(&publisher, cached, &second), cold);
  EXPECT_TRUE(second.served_from_doc_cache);
  EXPECT_EQ(second.xml_bytes, first.xml_bytes);
  EXPECT_EQ(second.rows, first.rows);
}

TEST(ResultCacheE2ETest, SingleTableDeltaReexecutesOnlyDirtyComponents) {
  auto db = MakeTinyTpch(0.001);
  Publisher publisher(db.get());

  engine::ResultCache cache(
      engine::ResultCache::Options{8 << 20, 4, nullptr});
  PublishOptions cached = BaseOptions();
  cached.result_cache = &cache;

  PlanMetrics cold;
  MustPublish(&publisher, cached, &cold);
  const size_t total = cold.components.size();
  ASSERT_GT(total, 1u);

  // Dirty exactly one backend table (append a delta row), then count how
  // many components name it.
  const std::string victim = "Region";
  auto table = db->GetTable(victim);
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->InsertUnchecked((*table)->Row(0)).ok());

  size_t dirty = 0;
  for (const auto& component : cold.components) {
    for (const auto& t : component.tables) {
      if (t == victim) {
        ++dirty;
        break;
      }
    }
  }
  ASSERT_GT(dirty, 0u);
  ASSERT_LT(dirty, total);

  PlanMetrics warm;
  const std::string incremental = MustPublish(&publisher, cached, &warm);
  EXPECT_FALSE(warm.served_from_doc_cache);
  // The incremental republish executed ONLY the components naming the
  // dirty table; everything else was a fragment hit spliced back in by
  // the tagger.
  EXPECT_EQ(warm.cache_misses, dirty);
  EXPECT_EQ(warm.cache_hits, total - dirty);
  EXPECT_EQ(warm.cache_splices, total - dirty);
  EXPECT_EQ(warm.exec_report.queries.size(), dirty);

  // Differential proof: byte-identical to an uncached publish over the
  // same mutated database.
  const std::string reference = MustPublish(&publisher, BaseOptions());
  EXPECT_EQ(incremental, reference);
  EXPECT_NE(incremental, "");
}

TEST(ResultCacheE2ETest, ServiceConcurrency8IsByteIdenticalColdAndWarm) {
  auto db = MakeTinyTpch(0.001);
  Publisher publisher(db.get());
  const std::string cold = MustPublish(&publisher, BaseOptions());

  engine::ResultCache cache(
      engine::ResultCache::Options{8 << 20, 8, nullptr});
  service::ServiceOptions service_options;
  service_options.workers = 8;
  service_options.result_cache = &cache;
  service::PublishingService service(db.get(), service_options);

  for (int round = 0; round < 2; ++round) {
    std::vector<service::ServiceRequest> batch(8);
    for (auto& request : batch) {
      request.rxl = Query1Rxl();
      request.options = BaseOptions();
    }
    auto responses = service.PublishAll(std::move(batch));
    ASSERT_EQ(responses.size(), 8u);
    for (size_t i = 0; i < responses.size(); ++i) {
      ASSERT_TRUE(responses[i].status.ok())
          << "round " << round << " request " << i << ": "
          << responses[i].status;
      EXPECT_EQ(responses[i].xml, cold)
          << "round " << round << " request " << i;
    }
  }
  // The warm round (and stragglers of the cold one) must have been served
  // from cache.
  EXPECT_GT(cache.stats().hits, 0u);
}

TEST(ResultCacheE2ETest, DifferentialHarnessInterleavesMutationsAndPublishes) {
  // The randomized harness: republish through a warm cache while a seeded
  // writer appends delta rows to random tables between publishes. Every
  // iteration the cached document must be byte-identical to a fresh
  // uncached publish of the same database state.
  auto db = MakeTinyTpch(0.001);
  Publisher publisher(db.get());

  engine::ResultCache cache(
      engine::ResultCache::Options{8 << 20, 4, nullptr});
  PublishOptions cached = BaseOptions();
  cached.result_cache = &cache;

  std::vector<std::string> tables = db->catalog().TableNames();
  ASSERT_FALSE(tables.empty());
  std::mt19937 rng(0xC0FFEE);
  size_t mutations = 0;
  for (int i = 0; i < 40; ++i) {
    if (rng() % 2 == 0) {
      const std::string& victim = tables[rng() % tables.size()];
      auto table = db->GetTable(victim);
      ASSERT_TRUE(table.ok());
      if ((*table)->num_rows() > 0) {
        Tuple row = (*table)->Row(rng() % (*table)->num_rows());
        ASSERT_TRUE((*table)->InsertUnchecked(row).ok());
        ++mutations;
      }
    }
    const std::string warm = MustPublish(&publisher, cached);
    const std::string reference = MustPublish(&publisher, BaseOptions());
    ASSERT_EQ(warm, reference) << "iteration " << i;
  }
  ASSERT_GT(mutations, 0u);
  auto stats = cache.stats();
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.splices, 0u);
}

}  // namespace
}  // namespace silkroute::core
