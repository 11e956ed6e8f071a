// Order-preserving byte encoding for Value rows — the packed-key execution
// hot path. Instead of dispatching through std::variant and Value::Compare
// per cell in every join probe, sort comparison, and DISTINCT check, the
// executor encodes each key row once into a flat byte string whose memcmp
// order equals the row's Value::Compare order. Comparing, hashing, and
// deduplicating keys then become single cache-friendly byte passes.
//
// Encoding (one self-delimiting segment per value, concatenated per row):
//
//   NULL     0x00
//   numeric  0x01 + 8 bytes: the value's double image, sign-flipped into
//            an unsigned big-endian integer whose order matches numeric
//            order (int64 and double widen to this common form, so 3 and
//            3.0 encode identically — exactly Value::Compare / Value::Hash
//            cross-type semantics). When the image magnitude reaches 2^53
//            — the first point where distinct int64s collapse onto one
//            double — the segment appends 8 more bytes: the value's exact
//            int64 in offset-binary (doubles clamp into int64, saturating
//            beyond ±2^63). Tie presence is a pure function of the image,
//            so equal-image segments have equal lengths and composite keys
//            stay self-delimiting.
//   string   0x02 + body with 0x00 escaped as {0x00 0xFF} + {0x00 0x00}
//            terminator (prefixes order correctly; no segment is a strict
//            prefix of a different one)
//
// Tag order 0x00 < 0x01 < 0x02 reproduces NULL < numerics < strings.
//
// With the tiebreaker, memcmp order matches int64-vs-int64 Value::Compare
// exactly over the whole domain (INT64_MIN..INT64_MAX), where the image
// alone used to collapse ±2^53-and-beyond neighbours into one key. The
// remaining (unavoidable) divergence is mixed-type: Value::Compare widens
// an int64 beyond 2^53 to its inexact double image and calls it equal to
// that double, a relation that is not transitive (2^53 == 2^53.0 ==
// 2^53+1 but 2^53 < 2^53+1), so no byte encoding can agree with it
// everywhere. Here such cross-type near-ties resolve to a stable order by
// exact integer value; an int64 and a double still encode byte-equal iff
// the double is exactly that integer.
#ifndef SILKROUTE_ENGINE_KEY_CODEC_H_
#define SILKROUTE_ENGINE_KEY_CODEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "relational/columnar.h"
#include "relational/table.h"
#include "relational/tuple.h"
#include "relational/value.h"

namespace silkroute::engine {

/// Appends the order-preserving encoding of `v` to `out`.
/// memcmp(Encode(a), Encode(b)) agrees in sign with a.Compare(b).
void EncodeValue(const Value& v, std::string* out);

/// Like EncodeValue but with every emitted byte complemented, so memcmp
/// order is reversed (ORDER BY ... DESC segments). Safe to mix ascending
/// and descending segments in one composite key: segments are
/// self-delimiting, so the first byte difference between two equal-arity
/// keys always falls inside the differing segment.
void EncodeValueDescending(const Value& v, std::string* out);

/// Encodes `row[cols[0]], row[cols[1]], ...` as a join key. Returns false
/// without touching `out` beyond partial writes if any key column is SQL
/// NULL — equality joins never match NULLs (SqlEquals semantics), so such
/// rows are skipped rather than encoded.
bool EncodeJoinKey(const Tuple& row, const std::vector<size_t>& cols,
                   std::string* out);

/// Encodes every column of `row` (NULLs allowed). Two whole-row encodings
/// are byte-equal iff the rows compare equal under Tuple::Compare — the
/// DISTINCT identity, where NULL == NULL.
void EncodeRowKey(const Tuple& row, std::string* out);

/// Appends the encoding of cell `row` straight from the typed column
/// arrays — byte-identical to EncodeValue(column.ValueAt(row)) with no
/// Value materialized (key_codec_test pins the identity over the full type
/// corpus, tiebreaker regime included).
void EncodeColumnValue(const ColumnVector& column, size_t row,
                       std::string* out);

/// Descending counterpart (every byte complemented), for sort keys
/// encoded straight from column data. Byte-identical to
/// EncodeValueDescending on the materialized Value.
void EncodeColumnValueDescending(const ColumnVector& column, size_t row,
                                 std::string* out);

/// Join key for row `row` encoded from the table's columns — byte-identical
/// to EncodeJoinKey on table.Row(row), including the false-on-NULL-key
/// contract.
bool EncodeTableJoinKey(const Table& table, size_t row,
                        const std::vector<size_t>& cols, std::string* out);

/// The 8-byte payload a non-null numeric Value contributes to its encoded
/// segment, as a host integer: unsigned comparison of two payloads equals
/// numeric order. Lets all-numeric sort keys pack into machine words and
/// skip the byte buffer entirely. Precondition: v.is_int64() or
/// v.is_double().
uint64_t OrderedNumericBits(const Value& v);

/// True when OrderedNumericBits alone is order-exact for `v` among
/// numerics — i.e. the encoded segment carries no tiebreaker. False at
/// image magnitudes >= 2^53; word-packed sort keys must fall back to the
/// byte path there so the two paths order giant keys identically.
/// Precondition: v.is_int64() or v.is_double().
bool NumericFitsWord(const Value& v);

/// Bump-pointer arena giving encoded keys stable, contiguous storage for
/// the duration of one query operator. Interned keys are returned as
/// string_views into large chunks, so a hash table over them touches
/// tightly packed memory instead of one heap node per key. Views stay
/// valid until the arena is destroyed; the arena never reallocates a
/// chunk in place.
class KeyArena {
 public:
  explicit KeyArena(size_t chunk_bytes = 64 * 1024)
      : chunk_bytes_(chunk_bytes) {}

  /// Copies `bytes` into the arena and returns a stable view of the copy.
  std::string_view Intern(std::string_view bytes);

  uint64_t keys_interned() const { return keys_; }
  uint64_t bytes_interned() const { return bytes_; }

 private:
  size_t chunk_bytes_;
  std::vector<std::unique_ptr<char[]>> chunks_;
  char* cur_ = nullptr;
  size_t cur_left_ = 0;
  uint64_t keys_ = 0;
  uint64_t bytes_ = 0;
};

}  // namespace silkroute::engine

#endif  // SILKROUTE_ENGINE_KEY_CODEC_H_
