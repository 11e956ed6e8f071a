// Column storage for base tables (DESIGN.md §16). A Table keeps one
// ColumnVector per schema column, in insertion order (row id = position):
// 8-byte words for numerics, string-pool offsets for strings, plus a null
// bitmap, so filtered scans and join-key encoding run over flat memory
// instead of dispatching through one std::variant per cell.
//
// Representation invariants the executor relies on:
//  - Exact Value round-trip. A kDouble column legally holds int64 cells
//    (Table::Insert widens the type check, not the value), and the
//    executor must reproduce the inserted representation exactly
//    (Int64(3) != Double(3.0), -0.0 != 0.0 bitwise). Numeric columns
//    therefore keep the raw 8-byte payload plus a per-cell int64-subtype
//    bitmap, never a widened double.
//  - Append-only. A committed cell never moves or changes; string-pool
//    offsets stay valid across growth.
#ifndef SILKROUTE_RELATIONAL_COLUMNAR_H_
#define SILKROUTE_RELATIONAL_COLUMNAR_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "relational/value.h"

namespace silkroute {

/// One table column: a typed contiguous array plus a null bitmap.
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

  /// Appends one cell. Precondition: `v` is NULL or of the column's type
  /// (a numeric column takes int64 and double alike); Table checks every
  /// row's shape before any cell is appended.
  void Append(const Value& v);

  bool IsNull(size_t i) const { return GetBit(nulls_, i); }
  /// Exact subtype of a non-null numeric cell.
  bool CellIsInt64(size_t i) const { return GetBit(int_cells_, i); }

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

  size_t null_count() const { return null_count_; }

  /// Serialized size of every cell by Value::ByteSize's rule (1 byte per
  /// NULL, 8 per numeric cell, length + 4 per string), from counts alone.
  size_t ByteSize() const {
    const size_t present = size_ - null_count_;
    return null_count_ + (type_ == DataType::kString
                              ? pool_.size() + 4 * present
                              : 8 * present);
  }

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
  size_t null_count_ = 0;
  std::vector<uint64_t> nulls_;      // bit set => SQL NULL
  std::vector<uint64_t> words_;      // numeric payloads, raw bit patterns
  std::vector<uint64_t> int_cells_;  // bit set => cell is an int64
  std::vector<uint64_t> offsets_;    // string cells: offset into pool_
  std::vector<uint32_t> lens_;       // string cells: byte length
  std::string pool_;                 // append-only string bytes
};

}  // namespace silkroute

#endif  // SILKROUTE_RELATIONAL_COLUMNAR_H_
