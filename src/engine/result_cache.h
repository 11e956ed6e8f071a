// ResultCache: the component-query result cache behind incremental view
// maintenance (DESIGN.md §15). The middle-ware scenario is read-heavy —
// one materialized XML view published over and over against slowly-changing
// relational bases — so re-executing every component query on every publish
// wastes almost all of the work. This cache remembers, per component query,
// the *bound* result (the TupleStream's wire bytes, serialization already
// paid) keyed by the normalized SQL text plus the version vector of the
// tables the query names. Table versions are monotonic mutation counters
// (relational/table.h), so any write to a named table changes the key and
// the stale entry simply stops being reachable: invalidation is structural,
// never an explicit (and racy) purge.
//
// Two entry levels share one store and one byte budget:
//
//  - fragment entries ('F' keyspace): one component query's RelSchema +
//    wire bytes + tuple count. A hit builds a TupleStream that *borrows*
//    the bytes (shared_ptr), skipping SQL execution and binding;
//  - document entries ('D' keyspace): the finished XML of a whole publish,
//    keyed by the plan fingerprint (every component's normalized SQL plus
//    the tagging options) and the full version vector. A hit streams the
//    document straight out — the unchanged-view republish costs a map
//    lookup and a write.
//
// A republish after a partial delta therefore misses on the document key,
// re-runs only the component queries whose tables bumped, serves every
// untouched component from its fragment entry, and lets the deterministic
// tagger merge splice cached and fresh fragments back into one document —
// byte-identical to a cold publish because the tagger consumes identical
// streams in identical order either way.
//
// Keys are packed with the order-preserving key codec (DESIGN.md §10):
// self-delimiting segments, so (sql, table, version, table, version...)
// tuples can never collide across boundaries. Entries are immutable once
// inserted (shared_ptr<const>), which is what makes concurrent readers +
// eviction safe: an evicted entry lives on until its last borrowing
// TupleStream drops it.
//
// Thread-safe via sharding: keys hash across kShards independent maps,
// each with its own mutex, LRU list, and slice of the byte budget, so
// 8-worker PublishingService traffic does not serialize on one lock.
// Eviction is LRU with a frequency second chance: a tail entry that was
// hit since its last brush with eviction gets its frequency halved and
// moves back to the front; cold entries leave immediately.
#ifndef SILKROUTE_ENGINE_RESULT_CACHE_H_
#define SILKROUTE_ENGINE_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "engine/rel_schema.h"
#include "obs/metrics.h"

namespace silkroute::engine {

/// (table name, Table::version()) pairs, sorted by name — the freshness
/// half of every cache key. Executors produce it (SqlExecutor::
/// FetchTableVersions); remote backends ship it over the wire.
using TableVersionVector = std::vector<std::pair<std::string, uint64_t>>;

/// One immutable cached payload. Fragment entries use schema / bytes /
/// row_index / num_tuples; document entries use bytes (the XML) plus the counters the
/// publisher needs to rebuild PlanMetrics on a hit (rows, wire_bytes, ...,
/// packed as name/value pairs so the engine layer stays ignorant of the
/// publisher's metric struct).
struct CacheEntry {
  RelSchema schema;
  std::shared_ptr<const std::string> bytes;
  /// The row index recorded as `bytes` were bound (TupleStream), so that a
  /// hit can be cut into tagger ranges; null for a document.
  std::shared_ptr<const std::vector<uint64_t>> row_index;
  size_t num_tuples = 0;
  std::vector<std::pair<std::string, uint64_t>> counters;

  size_t ByteSize() const;
};

class ResultCache {
 public:
  struct Options {
    /// Total byte budget across all shards. Entries larger than one
    /// shard's slice are rejected at admission (never admitted only to
    /// evict everything else).
    size_t budget_bytes = 64ull << 20;
    size_t shards = 8;
    /// Mirrors silkroute_cache_* series (borrowed, may be null).
    obs::MetricsRegistry* metrics = nullptr;
  };

  explicit ResultCache(Options options);

  ResultCache(const ResultCache&) = delete;
  ResultCache& operator=(const ResultCache&) = delete;

  /// Packed fragment key: 'F' + encoded normalized SQL + encoded (table,
  /// version) segments. `sql` must already be normalized (NormalizeSql);
  /// `versions` must be sorted by table name.
  static std::string FragmentKey(std::string_view normalized_sql,
                                 const TableVersionVector& versions);

  /// Packed document key: 'D' + encoded plan fingerprint (the publisher
  /// concatenates every component's normalized SQL and the tagging
  /// options) + encoded (table, version) segments over *all* tables the
  /// plan touches.
  static std::string DocumentKey(std::string_view plan_fingerprint,
                                 const TableVersionVector& versions);

  /// Returns the entry (bumping its recency/frequency) or null on miss.
  std::shared_ptr<const CacheEntry> Lookup(const std::string& key);

  /// Admits `entry` under `key`, evicting colder entries if the shard is
  /// over budget. Re-inserting an existing key replaces the payload.
  /// Oversized entries (> shard budget) are dropped, counted in
  /// admission_rejects.
  void Insert(const std::string& key, CacheEntry entry);

  /// Counts cached fragments spliced into a republished document (the
  /// incremental-maintenance path's signature metric).
  void RecordSplices(uint64_t n);

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
    uint64_t admission_rejects = 0;
    uint64_t splices = 0;
    size_t resident_bytes = 0;
    size_t entries = 0;
  };
  Stats stats() const;

  size_t budget_bytes() const { return options_.budget_bytes; }

 private:
  struct Node {
    std::string key;
    std::shared_ptr<const CacheEntry> entry;
    size_t bytes = 0;
    uint32_t freq = 0;
  };
  struct Shard {
    std::mutex mu;
    std::list<Node> lru;  // front = most recent
    std::unordered_map<std::string_view, std::list<Node>::iterator> index;
    size_t resident_bytes = 0;
  };

  Shard& ShardFor(const std::string& key);

  const Options options_;
  const size_t shard_budget_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> insertions_{0};
  std::atomic<uint64_t> evictions_{0};
  std::atomic<uint64_t> admission_rejects_{0};
  std::atomic<uint64_t> splices_{0};

  // Registry mirrors (null when metrics are disabled).
  obs::Counter* m_hits_ = nullptr;
  obs::Counter* m_misses_ = nullptr;
  obs::Counter* m_evictions_ = nullptr;
  obs::Counter* m_bytes_ = nullptr;  // cumulative bytes admitted
  obs::Counter* m_splices_ = nullptr;
  obs::Gauge* m_resident_ = nullptr;
  obs::Gauge* m_entries_ = nullptr;
};

}  // namespace silkroute::engine

#endif  // SILKROUTE_ENGINE_RESULT_CACHE_H_
