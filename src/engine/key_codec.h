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
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "relational/columnar.h"
#include "relational/tuple.h"
#include "relational/value.h"

namespace silkroute::engine {

/// Appends the order-preserving encoding of `v` to `out`.
/// memcmp(Encode(a), Encode(b)) agrees in sign with a.Compare(b).
void EncodeValue(const Value& v, std::string* out);

/// Typed forms of EncodeValue for callers that read cells without a Value
/// (the tagger reads wire fields in place): each is byte-identical to
/// EncodeValue on the matching non-null Value.
void EncodeInt64(int64_t v, std::string* out);
void EncodeDouble(double v, std::string* out);
void EncodeString(std::string_view v, std::string* out);

/// A numeric value's segment as machine words: `image` is the 8 bytes after
/// the 0x01 tag as a host integer (unsigned order is numeric order), and
/// `tie` the int64 tiebreaker the
/// segment appends when `has_tie` (image magnitude >= 2^53; 0 otherwise).
/// Two numeric segments are byte-equal iff their images and ties are
/// equal; `has_tie` is a function of the image.
struct NumericSegment {
  uint64_t image = 0;
  uint64_t tie = 0;
  bool has_tie = false;
};

// Inline: the hash join reads a segment per key cell.
namespace codec_detail {

// Maps a double onto a uint64 whose unsigned order equals the double's
// numeric order: negative values flip all bits (reversing their two's-
// complement-style descending magnitude), non-negatives just set the sign
// bit so they sort above every negative. -0.0 is normalized to 0.0 first,
// mirroring Value::Hash, so the two zeros encode identically.
inline uint64_t OrderedDoubleBits(double d) {
  if (d == 0.0) d = 0.0;
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  if (bits & 0x8000000000000000ULL) return ~bits;
  return bits | 0x8000000000000000ULL;
}

// 2^53: the first magnitude where distinct int64s share a double image, so
// the 8-byte image alone stops being order-exact for integers.
constexpr double kExactIntLimit = 9007199254740992.0;

// Whether a numeric segment with image `d` carries the 8-byte integer
// tiebreaker. The predicate is a pure function of the image: two segments
// with equal image bytes always have equal lengths, which keeps composite
// keys self-delimiting (the first differing byte between two keys still
// falls inside the differing segment).
inline bool ImageNeedsTie(double d) {
  return d >= kExactIntLimit || d <= -kExactIntLimit;
}

// Offset-binary image of an int64: unsigned order equals signed order.
inline uint64_t Int64TieBits(int64_t v) {
  return static_cast<uint64_t>(v) ^ 0x8000000000000000ULL;
}

// Tiebreaker for a double in the tie regime. Every such double is an
// integer; clamping into int64 orders it exactly like the integers that
// share its image. At or beyond ±2^63 the image is unique among doubles
// (and ties with the saturated int64 extremes, matching Value::Compare's
// via-double verdict there), so saturation never mis-orders anything —
// it only avoids an out-of-range cast.
inline uint64_t DoubleTieBits(double d) {
  if (!(d == d)) return 0;                       // NaN: defensive only
  if (d >= 9223372036854775808.0) return ~0ULL;  // >= 2^63
  if (d < -9223372036854775808.0) return 0;      // < -2^63
  return Int64TieBits(static_cast<int64_t>(d));
}

}  // namespace codec_detail

inline NumericSegment Int64Segment(int64_t v) {
  const double image = static_cast<double>(v);
  NumericSegment seg;
  seg.image = codec_detail::OrderedDoubleBits(image);
  seg.has_tie = codec_detail::ImageNeedsTie(image);
  if (seg.has_tie) seg.tie = codec_detail::Int64TieBits(v);
  return seg;
}

inline NumericSegment DoubleSegment(double v) {
  NumericSegment seg;
  seg.image = codec_detail::OrderedDoubleBits(v);
  seg.has_tie = codec_detail::ImageNeedsTie(v);
  if (seg.has_tie) seg.tie = codec_detail::DoubleTieBits(v);
  return seg;
}

/// A key cell as one word, for the sort and the tagger (DESIGN.md §10):
/// NULL is 0 and a numeric is its segment's image, so unsigned word order
/// is the codec's byte order. False for a numeric no word carries: one
/// whose segment has a tiebreaker (magnitude at or above 2^53), or the one
/// NaN whose image is 0, NULL's word. A string has no word either.
inline bool NumericKeyWord(const NumericSegment& seg, uint64_t* word) {
  *word = seg.image;
  return !seg.has_tie && seg.image != 0;
}

/// Appends the segment a key word stands for: the NULL segment for 0, else
/// the numeric segment of that image. Byte-identical to EncodeValue on any
/// value whose word it is.
void AppendKeyWord(uint64_t word, std::string* out);

/// Like EncodeValue but with every emitted byte complemented, so memcmp
/// order is reversed (ORDER BY ... DESC segments). Safe to mix ascending
/// and descending segments in one composite key: segments are
/// self-delimiting, so the first byte difference between two equal-arity
/// keys always falls inside the differing segment.
void EncodeValueDescending(const Value& v, std::string* out);

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
