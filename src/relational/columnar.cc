#include "relational/columnar.h"

namespace silkroute {

void ColumnVector::Reserve(size_t additional) {
  const size_t target = size_ + additional;
  if (type_ == DataType::kString) {
    offsets_.reserve(target);
    lens_.reserve(target);
  } else {
    words_.reserve(target);
  }
  nulls_.reserve((target + 63) / 64);
}

void ColumnVector::Append(const Value& v) {
  const size_t pos = size_++;
  if (v.is_null()) {
    SetBit(&nulls_, pos);
    ++null_count_;
  }
  if (type_ == DataType::kString) {
    offsets_.push_back(pool_.size());
    if (v.is_null()) {
      lens_.push_back(0);
      return;
    }
    const std::string& s = v.AsString();
    lens_.push_back(static_cast<uint32_t>(s.size()));
    pool_.append(s);
    return;
  }
  // Numeric column: raw payload word + subtype bit. Both kInt64 and
  // kDouble columns accept either numeric representation, mirroring the
  // widened type check in Table::Insert.
  uint64_t word = 0;
  if (v.is_int64()) {
    const int64_t i = v.AsInt64();
    std::memcpy(&word, &i, sizeof(word));
    SetBit(&int_cells_, pos);
  } else if (v.is_double()) {
    const double d = v.AsDouble();
    std::memcpy(&word, &d, sizeof(word));
  }
  words_.push_back(word);
}

Value ColumnVector::ValueAt(size_t i) const {
  if (IsNull(i)) return Value::Null();
  if (type_ == DataType::kString) return Value::String(std::string(StringAt(i)));
  return CellIsInt64(i) ? Value::Int64(Int64At(i)) : Value::Double(DoubleAt(i));
}

}  // namespace silkroute
