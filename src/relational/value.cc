#include "relational/value.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>

namespace silkroute {

namespace {
[[noreturn]] void TypePanic(const char* want, const Value& v) {
  std::cerr << "Value type error: wanted " << want << ", value is "
            << v.ToString() << "\n";
  std::abort();
}

std::string FormatDouble(double d) {
  char buf[kNumberTextMax];
  return std::string(DoubleXmlText(d, buf));
}
}  // namespace

const char* DataTypeToString(DataType type) {
  switch (type) {
    case DataType::kInt64:
      return "INT64";
    case DataType::kDouble:
      return "DOUBLE";
    case DataType::kString:
      return "STRING";
  }
  return "UNKNOWN";
}

int64_t Value::AsInt64() const {
  if (!is_int64()) TypePanic("int64", *this);
  return std::get<int64_t>(rep_);
}

double Value::AsDouble() const {
  if (!is_double()) TypePanic("double", *this);
  return std::get<double>(rep_);
}

const std::string& Value::AsString() const {
  if (!is_string()) TypePanic("string", *this);
  return std::get<std::string>(rep_);
}

double Value::AsNumeric() const {
  if (is_int64()) return static_cast<double>(std::get<int64_t>(rep_));
  if (is_double()) return std::get<double>(rep_);
  TypePanic("numeric", *this);
}

int Value::Compare(const Value& other) const {
  // NULLs first.
  if (is_null() && other.is_null()) return 0;
  if (is_null()) return -1;
  if (other.is_null()) return 1;

  const bool a_num = is_int64() || is_double();
  const bool b_num = other.is_int64() || other.is_double();
  if (a_num && b_num) {
    if (is_int64() && other.is_int64()) {
      int64_t a = std::get<int64_t>(rep_);
      int64_t b = std::get<int64_t>(other.rep_);
      return a < b ? -1 : (a > b ? 1 : 0);
    }
    double a = AsNumeric();
    double b = other.AsNumeric();
    return a < b ? -1 : (a > b ? 1 : 0);
  }
  if (a_num && !b_num) return -1;  // numerics before strings
  if (!a_num && b_num) return 1;
  return AsString().compare(other.AsString()) < 0
             ? -1
             : (AsString() == other.AsString() ? 0 : 1);
}

size_t Value::Hash() const {
  if (is_null()) return 0x9E3779B9u;
  if (is_string()) return std::hash<std::string>()(AsString());
  // Hash numerics via their double image so 3 and 3.0 collide (they compare
  // equal).
  double d = AsNumeric();
  if (d == 0.0) d = 0.0;  // normalize -0.0
  return std::hash<double>()(d);
}

size_t Value::ByteSize() const {
  if (is_null()) return 1;
  if (is_int64() || is_double()) return 8;
  return AsString().size() + 4;  // payload + length prefix
}

std::string Value::ToString() const {
  if (is_null()) return "NULL";
  if (is_int64()) return std::to_string(std::get<int64_t>(rep_));
  if (is_double()) return FormatDouble(std::get<double>(rep_));
  std::string out = "'";
  for (char c : AsString()) {
    if (c == '\'') out += "''";
    else out += c;
  }
  out += "'";
  return out;
}

std::string_view Int64XmlText(int64_t v, char* buf) {
  char* end = std::to_chars(buf, buf + kNumberTextMax, v).ptr;
  return std::string_view(buf, static_cast<size_t>(end - buf));
}

std::string_view DoubleXmlText(double d, char* buf) {
  // Canonical shortest-ish representation: integral doubles print without
  // trailing zeros, others with up to 6 significant decimals. The range
  // check comes first: casting a double outside int64 is undefined.
  int n;
  if (std::fabs(d) < 1e15 && d == std::trunc(d)) {
    n = std::snprintf(buf, kNumberTextMax, "%lld.0",
                      static_cast<long long>(static_cast<int64_t>(d)));
  } else {
    n = std::snprintf(buf, kNumberTextMax, "%.6g", d);
  }
  return std::string_view(buf, static_cast<size_t>(n));
}

std::ostream& operator<<(std::ostream& os, const Value& v) {
  return os << v.ToString();
}

}  // namespace silkroute
