#include "engine/key_codec.h"

#include <cstring>

namespace silkroute::engine {

namespace {

constexpr char kTagNull = '\x00';
constexpr char kTagNumber = '\x01';
constexpr char kTagString = '\x02';

// Maps a double onto a uint64 whose unsigned order equals the double's
// numeric order: negative values flip all bits (reversing their two's-
// complement-style descending magnitude), non-negatives just set the sign
// bit so they sort above every negative. -0.0 is normalized to 0.0 first,
// mirroring Value::Hash, so the two zeros encode identically.
uint64_t OrderedDoubleBits(double d) {
  if (d == 0.0) d = 0.0;
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  if (bits & 0x8000000000000000ULL) return ~bits;
  return bits | 0x8000000000000000ULL;
}

void AppendBigEndian(uint64_t u, std::string* out) {
  char buf[8];
  for (int i = 7; i >= 0; --i) {
    buf[i] = static_cast<char>(u & 0xFF);
    u >>= 8;
  }
  out->append(buf, 8);
}

// 2^53: the first magnitude where distinct int64s share a double image, so
// the 8-byte image alone stops being order-exact for integers.
constexpr double kExactIntLimit = 9007199254740992.0;

// Whether a numeric segment with image `d` carries the 8-byte integer
// tiebreaker. The predicate is a pure function of the image: two segments
// with equal image bytes always have equal lengths, which keeps composite
// keys self-delimiting (the first differing byte between two keys still
// falls inside the differing segment).
bool ImageNeedsTie(double d) {
  return d >= kExactIntLimit || d <= -kExactIntLimit;
}

// Offset-binary image of an int64: unsigned order equals signed order.
uint64_t Int64TieBits(int64_t v) {
  return static_cast<uint64_t>(v) ^ 0x8000000000000000ULL;
}

// Tiebreaker for a double in the tie regime. Every such double is an
// integer; clamping into int64 orders it exactly like the integers that
// share its image. At or beyond ±2^63 the image is unique among doubles
// (and ties with the saturated int64 extremes, matching Value::Compare's
// via-double verdict there), so saturation never mis-orders anything —
// it only avoids an out-of-range cast.
uint64_t DoubleTieBits(double d) {
  if (!(d == d)) return 0;                       // NaN: defensive only
  if (d >= 9223372036854775808.0) return ~0ULL;  // >= 2^63
  if (d < -9223372036854775808.0) return 0;      // < -2^63
  return Int64TieBits(static_cast<int64_t>(d));
}

void AppendNumber(double d, std::string* out) {
  out->push_back(kTagNumber);
  AppendBigEndian(OrderedDoubleBits(d), out);
}

// Body bytes with 0x00 escaped as {0x00 0xFF}, then a {0x00 0x00}
// terminator. A shorter string is always a strict byte-prefix of its
// extensions up to the terminator, and 0x00 0x00 < 0x00 0xFF < any other
// continuation, so memcmp order over encodings equals string order — and
// no encoded segment is a prefix of a different segment. Takes a view so
// string-pool cells encode without materializing a std::string.
void AppendString(std::string_view s, std::string* out) {
  out->push_back(kTagString);
  size_t start = 0;
  for (;;) {
    size_t nul = s.find('\0', start);
    if (nul == std::string_view::npos) {
      out->append(s, start, s.size() - start);
      break;
    }
    out->append(s, start, nul - start);
    out->push_back('\x00');
    out->push_back('\xFF');
    start = nul + 1;
  }
  out->push_back('\x00');
  out->push_back('\x00');
}

// Shared by the Value path and the column path: the numeric segment for an
// exact int64 payload.
void AppendInt64Cell(int64_t i, std::string* out) {
  const double image = static_cast<double>(i);
  AppendNumber(image, out);
  if (ImageNeedsTie(image)) AppendBigEndian(Int64TieBits(i), out);
}

void AppendDoubleCell(double d, std::string* out) {
  AppendNumber(d, out);
  if (ImageNeedsTie(d)) AppendBigEndian(DoubleTieBits(d), out);
}

}  // namespace

void EncodeValue(const Value& v, std::string* out) {
  if (v.is_null()) {
    out->push_back(kTagNull);
  } else if (v.is_int64()) {
    AppendInt64Cell(v.AsInt64(), out);
  } else if (v.is_double()) {
    AppendDoubleCell(v.AsDouble(), out);
  } else {
    AppendString(v.AsString(), out);
  }
}

void EncodeValueDescending(const Value& v, std::string* out) {
  size_t start = out->size();
  EncodeValue(v, out);
  for (size_t i = start; i < out->size(); ++i) {
    (*out)[i] = static_cast<char>(~static_cast<unsigned char>((*out)[i]));
  }
}

bool EncodeJoinKey(const Tuple& row, const std::vector<size_t>& cols,
                   std::string* out) {
  for (size_t c : cols) {
    const Value& v = row.values()[c];
    if (v.is_null()) return false;
    EncodeValue(v, out);
  }
  return true;
}

void EncodeRowKey(const Tuple& row, std::string* out) {
  for (const Value& v : row.values()) EncodeValue(v, out);
}

uint64_t OrderedNumericBits(const Value& v) {
  return OrderedDoubleBits(v.is_int64() ? static_cast<double>(v.AsInt64())
                                        : v.AsDouble());
}

bool NumericFitsWord(const Value& v) {
  return !ImageNeedsTie(v.is_int64() ? static_cast<double>(v.AsInt64())
                                     : v.AsDouble());
}

void EncodeColumnValue(const ColumnVector& column, size_t row,
                       std::string* out) {
  if (column.IsNull(row)) {
    out->push_back(kTagNull);
  } else if (column.type() == DataType::kString) {
    AppendString(column.StringAt(row), out);
  } else if (column.CellIsInt64(row)) {
    AppendInt64Cell(column.Int64At(row), out);
  } else {
    AppendDoubleCell(column.DoubleAt(row), out);
  }
}

void EncodeColumnValueDescending(const ColumnVector& column, size_t row,
                                 std::string* out) {
  const size_t start = out->size();
  EncodeColumnValue(column, row, out);
  for (size_t i = start; i < out->size(); ++i) {
    (*out)[i] = static_cast<char>(~static_cast<unsigned char>((*out)[i]));
  }
}

bool EncodeTableJoinKey(const Table& table, size_t row,
                        const std::vector<size_t>& cols, std::string* out) {
  for (size_t c : cols) {
    const ColumnVector& column = table.column(c);
    if (column.IsNull(row)) return false;
    EncodeColumnValue(column, row, out);
  }
  return true;
}

std::string_view KeyArena::Intern(std::string_view bytes) {
  if (bytes.size() > cur_left_) {
    size_t chunk = chunk_bytes_ > bytes.size() ? chunk_bytes_ : bytes.size();
    chunks_.push_back(std::make_unique<char[]>(chunk));
    cur_ = chunks_.back().get();
    cur_left_ = chunk;
  }
  char* dst = cur_;
  std::memcpy(dst, bytes.data(), bytes.size());
  cur_ += bytes.size();
  cur_left_ -= bytes.size();
  ++keys_;
  bytes_ += bytes.size();
  return std::string_view(dst, bytes.size());
}

}  // namespace silkroute::engine
