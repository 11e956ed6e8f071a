// Table: an in-memory base relation with schema type-checking and
// primary-key uniqueness enforcement.
//
// Storage is dual-representation (DESIGN.md §16): every committed row
// lands both in the legacy row vector (`rows()`, which borrowed scans,
// secondary indexes, and intermediate-result copies read) and in N
// hash-sharded column-major ColumnarShards keyed on the primary join
// column (which filtered scans and join-key encoding read). The two
// views are maintained eagerly inside the single CommitRow commit point,
// so they can never drift and no query-time state transition exists.
#ifndef SILKROUTE_RELATIONAL_TABLE_H_
#define SILKROUTE_RELATIONAL_TABLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "relational/columnar.h"
#include "relational/schema.h"
#include "relational/tuple.h"

namespace silkroute {

class Table {
 public:
  /// Hash index: value -> row positions.
  using Index = std::unordered_multimap<Value, size_t, ValueHash>;

  /// Where a table-global row lives in the sharded columnar view.
  struct RowLoc {
    uint32_t shard;
    uint32_t pos;
  };

  explicit Table(TableSchema schema, size_t shard_count = 1);

  const TableSchema& schema() const { return schema_; }
  const std::vector<Tuple>& rows() const { return rows_; }
  size_t num_rows() const { return rows_.size(); }

  /// The sharded columnar view. Shard routing hashes the first primary-key
  /// column (column 0 when the schema declares no key); NULL keys pool in
  /// shard 0. Global ids within each shard ascend in insertion order.
  size_t shard_count() const { return shards_.size(); }
  const ColumnarShard& shard(size_t i) const { return shards_[i]; }
  size_t shard_key_column() const { return shard_key_col_; }
  RowLoc row_loc(size_t global_row) const { return row_locs_[global_row]; }

  /// True while every committed cell is represented exactly in the
  /// columnar view. An unrepresentable row (wrong arity or a type outside
  /// the column's domain, possible only through InsertUnchecked) clears
  /// this permanently and the executor's columnar fast paths step aside —
  /// the row store remains authoritative either way.
  bool columnar_exact() const { return columnar_exact_; }

  /// Monotonic mutation counter: bumped once per committed row, on every
  /// insert path (validated and bulk). Since the store is append-only the
  /// version doubles as the row high-water mark, so the delta since
  /// version v is exactly rows [v, num_rows()). The result cache keys
  /// component results on the version vector of the tables a query names
  /// (engine/result_cache.h); any drift between this counter and the
  /// actual row/index state would silently serve stale documents, which is
  /// why every mutation funnels through one CommitRow helper.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  /// Rows appended since `version` (the delta a republish must re-read).
  size_t RowsAppendedSince(uint64_t version) const {
    return version >= rows_.size() ? 0 : rows_.size() - version;
  }

  /// Builds (or rebuilds) a hash index on one column. Maintained by later
  /// inserts. The executor uses it for literal-equality scans.
  Status CreateIndex(const std::string& column);

  /// The index on `column`, or nullptr if none was created.
  const Index* GetIndex(const std::string& column) const;

  /// Validates arity, types, nullability, and primary-key uniqueness, then
  /// appends the row.
  Status Insert(Tuple row);

  /// Appends without validation. Used by the bulk loader after generation,
  /// where rows are constructed schema-correct by code. Shares CommitRow
  /// with Insert, so bulk loads maintain the primary-key set, secondary
  /// indexes, and the version counter exactly like validated inserts —
  /// the paths can never drift.
  void InsertUnchecked(Tuple row) { CommitRow(std::move(row)); }

  /// Pre-sizes the row vector, primary-key set, every index, and each
  /// columnar shard for `expected_rows` additional rows, so a bulk load
  /// pays one allocation per container instead of incremental regrowth
  /// and rehashing. Shards split the budget evenly (hash routing keeps
  /// them balanced to within noise).
  void Reserve(size_t expected_rows) {
    rows_.reserve(rows_.size() + expected_rows);
    row_locs_.reserve(row_locs_.size() + expected_rows);
    const size_t per_shard = expected_rows / shards_.size() + 1;
    for (ColumnarShard& shard : shards_) shard.Reserve(per_shard);
    if (!key_indices_.empty()) {
      key_set_.reserve(key_set_.size() + expected_rows);
    }
    for (auto& [col, index] : indexes_) {
      index.reserve(index.size() + expected_rows);
    }
  }

  /// Total serialized size of all rows, in bytes.
  size_t DataByteSize() const;

 private:
  struct KeyHash {
    size_t operator()(const Tuple& t) const {
      size_t h = 0;
      for (const auto& v : t.values()) h = h * 1315423911u + v.Hash();
      return h;
    }
  };

  Tuple ExtractKey(const Tuple& row) const;
  void IndexRow(size_t row_position);
  /// The single mutation commit point: appends the row to the columnar
  /// shard it hashes into and to the row view, records its primary key,
  /// maintains every secondary index, and bumps the version counter —
  /// all-or-nothing, so version/index/key/shard state stay in lock step
  /// on every insert path.
  void CommitRow(Tuple row);

  TableSchema schema_;
  std::vector<Tuple> rows_;
  std::vector<ColumnarShard> shards_;
  std::vector<RowLoc> row_locs_;  // global row -> (shard, position)
  size_t shard_key_col_ = 0;
  bool columnar_exact_ = true;
  std::vector<size_t> key_indices_;
  std::unordered_set<Tuple, KeyHash> key_set_;
  std::map<size_t, Index> indexes_;  // column position -> index
  /// Atomic so a publisher thread can snapshot the version vector while
  /// another request's writer commits (writers themselves are serialized
  /// by the caller; the table is not a concurrent structure).
  std::atomic<uint64_t> version_{0};
};

}  // namespace silkroute

#endif  // SILKROUTE_RELATIONAL_TABLE_H_
