// Table: an in-memory base relation with schema type-checking and
// primary-key uniqueness enforcement.
//
// Storage is one column store (DESIGN.md §16): one ColumnVector per schema
// column, rows in insertion order (row id = position). Every insert path
// checks the row's shape (arity, nullability, column types) before any
// cell is appended, so each committed row is represented exactly and no
// second copy of it exists.
#ifndef SILKROUTE_RELATIONAL_TABLE_H_
#define SILKROUTE_RELATIONAL_TABLE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "common/status.h"
#include "relational/columnar.h"
#include "relational/schema.h"
#include "relational/tuple.h"

namespace silkroute {

class Table {
 public:
  explicit Table(TableSchema schema);

  const TableSchema& schema() const { return schema_; }
  size_t num_rows() const { return row_count_; }

  /// Column `c` (schema position), holding one cell per row.
  const ColumnVector& column(size_t c) const { return columns_[c]; }

  /// Materializes row `i`, representation-exact (the Values that were
  /// inserted, bit for bit).
  Tuple Row(size_t i) const;

  /// Monotonic mutation counter: bumped once per committed row, on every
  /// insert path (validated and bulk). Since the store is append-only the
  /// version doubles as the row high-water mark, so the delta since
  /// version v is exactly rows [v, num_rows()). The result cache keys
  /// component results on the version vector of the tables a query names
  /// (engine/result_cache.h); any drift between this counter and the
  /// actual row/key state would silently serve stale documents, which is
  /// why every mutation funnels through one CommitRow helper.
  uint64_t version() const { return version_.load(std::memory_order_acquire); }

  /// Rows appended since `version` (the delta a republish must re-read).
  size_t RowsAppendedSince(uint64_t version) const {
    return version >= row_count_ ? 0 : row_count_ - version;
  }

  /// Validates the row's shape (see InsertUnchecked) and primary-key
  /// uniqueness, then appends it.
  Status Insert(const Tuple& row);

  /// Bulk-load path for rows built schema-correct by code: checks arity,
  /// nullability, and column types exactly like Insert and skips only the
  /// primary-key probe (the key is still recorded, so a later validated
  /// insert of the same key is refused). A rejected row leaves the table
  /// untouched.
  Status InsertUnchecked(const Tuple& row);

  /// Pre-sizes every column and the primary-key set for `expected_rows`
  /// additional rows, so a bulk load pays one allocation per container
  /// instead of incremental regrowth and rehashing.
  void Reserve(size_t expected_rows);

  /// Total serialized size of all rows in bytes (ColumnVector::ByteSize,
  /// summed over the columns).
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
  /// Arity, nullability, and column-type check shared by both insert paths.
  Status CheckShape(const Tuple& row) const;
  /// The single mutation commit point: appends the row's cells to the
  /// columns, records its primary key, and bumps the version counter, so
  /// version/key/column state stay in lock step on every insert path.
  void CommitRow(const Tuple& row, Tuple key);

  TableSchema schema_;
  std::vector<ColumnVector> columns_;
  size_t row_count_ = 0;
  std::vector<size_t> key_indices_;
  std::unordered_set<Tuple, KeyHash> key_set_;
  /// Atomic so a publisher thread can snapshot the version vector while
  /// another request's writer commits (writers themselves are serialized
  /// by the caller; the table is not a concurrent structure).
  std::atomic<uint64_t> version_{0};
};

}  // namespace silkroute

#endif  // SILKROUTE_RELATIONAL_TABLE_H_
