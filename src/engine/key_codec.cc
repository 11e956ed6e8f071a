#include "engine/key_codec.h"

#include <cstring>

namespace silkroute::engine {

namespace {

constexpr char kTagNull = '\x00';
constexpr char kTagNumber = '\x01';
constexpr char kTagString = '\x02';

// Writes `u` big-endian into dst[0..8).
void StoreBigEndian(uint64_t u, char* dst) {
  for (int i = 7; i >= 0; --i) {
    dst[i] = static_cast<char>(u & 0xFF);
    u >>= 8;
  }
}

// A numeric segment (its tag, image and any tiebreaker) in one append.
void AppendNumber(const NumericSegment& seg, std::string* out) {
  char buf[17];
  buf[0] = kTagNumber;
  StoreBigEndian(seg.image, buf + 1);
  if (seg.has_tie) StoreBigEndian(seg.tie, buf + 9);
  out->append(buf, seg.has_tie ? 17 : 9);
}

}  // namespace

// Body bytes with 0x00 escaped as {0x00 0xFF}, then a {0x00 0x00}
// terminator. A shorter string is always a strict byte-prefix of its
// extensions up to the terminator, and 0x00 0x00 < 0x00 0xFF < any other
// continuation, so memcmp order over encodings equals string order — and
// no encoded segment is a prefix of a different segment. Takes a view so
// string-pool cells encode without materializing a std::string.
void EncodeString(std::string_view s, std::string* out) {
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

void EncodeInt64(int64_t i, std::string* out) {
  AppendNumber(Int64Segment(i), out);
}

void EncodeDouble(double d, std::string* out) {
  AppendNumber(DoubleSegment(d), out);
}

void AppendKeyWord(uint64_t word, std::string* out) {
  if (word == 0) {
    out->push_back(kTagNull);
  } else {
    AppendNumber(NumericSegment{word, 0, false}, out);
  }
}

void EncodeValue(const Value& v, std::string* out) {
  if (v.is_null()) {
    out->push_back(kTagNull);
  } else if (v.is_int64()) {
    EncodeInt64(v.AsInt64(), out);
  } else if (v.is_double()) {
    EncodeDouble(v.AsDouble(), out);
  } else {
    EncodeString(v.AsString(), out);
  }
}

void EncodeValueDescending(const Value& v, std::string* out) {
  size_t start = out->size();
  EncodeValue(v, out);
  for (size_t i = start; i < out->size(); ++i) {
    (*out)[i] = static_cast<char>(~static_cast<unsigned char>((*out)[i]));
  }
}

void EncodeRowKey(const Tuple& row, std::string* out) {
  for (const Value& v : row.values()) EncodeValue(v, out);
}

void EncodeColumnValue(const ColumnVector& column, size_t row,
                       std::string* out) {
  if (column.IsNull(row)) {
    out->push_back(kTagNull);
  } else if (column.type() == DataType::kString) {
    EncodeString(column.StringAt(row), out);
  } else if (column.CellIsInt64(row)) {
    EncodeInt64(column.Int64At(row), out);
  } else {
    EncodeDouble(column.DoubleAt(row), out);
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
