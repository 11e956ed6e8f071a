// Columnar shard storage for base tables (DESIGN.md §16). A Table is
// hash-sharded on its primary join column into N ColumnarShards; each
// shard stores its rows column-major as contiguous typed arrays — 8-byte
// words for numerics, string-pool offsets for strings, plus a null
// bitmap — so filtered scans and join-key encoding run over flat
// memory instead of dispatching through one std::variant per cell.
//
// Representation invariants the executor relies on:
//  - Exact Value round-trip. A kDouble column legally holds int64 cells
//    (Table::Insert widens the type check, not the value), and the
//    differential harness demands exact representation identity
//    (Int64(3) != Double(3.0), -0.0 != 0.0 bitwise). Numeric columns
//    therefore keep the raw 8-byte payload plus a per-cell int64-subtype
//    bitmap, never a widened double.
//  - Ascending global ids. Each shard records the table-global row id of
//    every appended row in insertion order, so a scan can merge per-shard
//    survivors back into global insertion order and the tuple stream is
//    byte-identical at any shard count.
//  - Append-only. Like the row store, shards never move or rewrite a
//    committed cell; string-pool offsets stay valid across growth.
#ifndef SILKROUTE_RELATIONAL_COLUMNAR_H_
#define SILKROUTE_RELATIONAL_COLUMNAR_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "relational/schema.h"
#include "relational/tuple.h"
#include "relational/value.h"

namespace silkroute {

/// One column of one shard: a typed contiguous array plus a null bitmap.
/// Numeric columns (kInt64 and kDouble alike) store raw 8-byte payloads in
/// `words_` with `int_cells_` marking which cells hold an int64; string
/// columns store (offset, length) into an append-only byte pool.
class ColumnVector {
 public:
  explicit ColumnVector(DataType type) : type_(type) {}

  DataType type() const { return type_; }
  size_t size() const { return size_; }

  /// Pre-sizes the arrays for `additional` more cells.
  void Reserve(size_t additional);

  /// Appends one cell. Returns false when `v` cannot be represented in a
  /// column of this type (e.g. a string smuggled into a numeric column via
  /// InsertUnchecked): a placeholder NULL keeps positions aligned and the
  /// owning Table drops to the row-store path for good.
  bool Append(const Value& v);

  bool IsNull(size_t i) const { return GetBit(nulls_, i); }
  /// Exact subtype of a non-null numeric cell.
  bool CellIsInt64(size_t i) const { return GetBit(int_cells_, i); }

  /// Raw 8-byte payload of a numeric cell (int64 or double bit pattern).
  uint64_t WordAt(size_t i) const { return words_[i]; }
  int64_t Int64At(size_t i) const {
    int64_t v;
    std::memcpy(&v, &words_[i], sizeof(v));
    return v;
  }
  double DoubleAt(size_t i) const {
    double v;
    std::memcpy(&v, &words_[i], sizeof(v));
    return v;
  }
  /// Widened numeric view of a non-null numeric cell (Value::AsNumeric).
  double NumericAt(size_t i) const {
    return CellIsInt64(i) ? static_cast<double>(Int64At(i)) : DoubleAt(i);
  }
  /// View into the string pool; valid until the ColumnVector is destroyed
  /// (offsets are re-resolved on every call, so pool growth is safe).
  std::string_view StringAt(size_t i) const {
    return std::string_view(pool_.data() + offsets_[i], lens_[i]);
  }

  /// Exact Value round-trip of cell `i` (same representation that was
  /// appended, bit for bit).
  Value ValueAt(size_t i) const;

  const uint64_t* words() const { return words_.data(); }
  size_t pool_bytes() const { return pool_.size(); }

 private:
  static bool GetBit(const std::vector<uint64_t>& bits, size_t i) {
    const size_t word = i >> 6;
    return word < bits.size() && (bits[word] >> (i & 63)) & 1;
  }
  static void SetBit(std::vector<uint64_t>* bits, size_t i) {
    const size_t word = i >> 6;
    if (word >= bits->size()) bits->resize(word + 1, 0);
    (*bits)[word] |= uint64_t{1} << (i & 63);
  }

  DataType type_;
  size_t size_ = 0;
  std::vector<uint64_t> nulls_;      // bit set => SQL NULL
  std::vector<uint64_t> words_;      // numeric payloads, raw bit patterns
  std::vector<uint64_t> int_cells_;  // bit set => cell is an int64
  std::vector<uint64_t> offsets_;    // string cells: offset into pool_
  std::vector<uint32_t> lens_;       // string cells: byte length
  std::string pool_;                 // append-only string bytes
};

/// One hash shard of a Table: one ColumnVector per schema column plus the
/// ascending table-global row ids of the rows routed here.
class ColumnarShard {
 public:
  explicit ColumnarShard(const TableSchema* schema);

  size_t size() const { return global_ids_.size(); }
  size_t num_columns() const { return columns_.size(); }
  const ColumnVector& column(size_t c) const { return columns_[c]; }
  uint64_t global_id(size_t pos) const { return global_ids_[pos]; }
  const std::vector<uint64_t>& global_ids() const { return global_ids_; }

  void Reserve(size_t additional);

  /// Appends `row` (which must match the schema arity) as position
  /// size(). Returns false if any cell could not be represented exactly.
  bool Append(const Tuple& row, uint64_t global_id);

  /// Exact Value of cell (col, pos).
  Value ValueAt(size_t col, size_t pos) const {
    return columns_[col].ValueAt(pos);
  }

  /// Materializes the full row at `pos`, representation-exact.
  Tuple MaterializeTuple(size_t pos) const;

 private:
  std::vector<ColumnVector> columns_;
  std::vector<uint64_t> global_ids_;
};

/// Which of `shard_count` shards a key value routes to. NULL keys pool in
/// shard 0; everything else routes by Value::Hash, so values that compare
/// equal across representations (3 vs 3.0) co-locate.
inline size_t ShardOf(const Value& key, size_t shard_count) {
  if (shard_count <= 1 || key.is_null()) return 0;
  return key.Hash() % shard_count;
}

}  // namespace silkroute

#endif  // SILKROUTE_RELATIONAL_COLUMNAR_H_
