// Value: the dynamically-typed cell of the relational engine.
//
// SQL semantics implemented here:
//  - NULL is a distinct marker, not a value of any type.
//  - Equality joins never match NULLs (SqlEquals(NULL, x) is false).
//  - ORDER BY places NULLs first; Compare() treats two NULLs as equal so
//    sorted streams group correctly.
#ifndef SILKROUTE_RELATIONAL_VALUE_H_
#define SILKROUTE_RELATIONAL_VALUE_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>

namespace silkroute {

enum class DataType {
  kInt64,
  kDouble,
  kString,
};

const char* DataTypeToString(DataType type);

class Value {
 public:
  /// Constructs SQL NULL.
  Value() : rep_(NullTag{}) {}

  static Value Null() { return Value(); }
  static Value Int64(int64_t v) { return Value(Rep(v)); }
  static Value Double(double v) { return Value(Rep(v)); }
  static Value String(std::string v) { return Value(Rep(std::move(v))); }

  bool is_null() const { return std::holds_alternative<NullTag>(rep_); }
  bool is_int64() const { return std::holds_alternative<int64_t>(rep_); }
  bool is_double() const { return std::holds_alternative<double>(rep_); }
  bool is_string() const { return std::holds_alternative<std::string>(rep_); }

  /// Typed accessors; calling the wrong one aborts (programming error).
  int64_t AsInt64() const;
  double AsDouble() const;
  const std::string& AsString() const;

  /// Numeric view: int64 widened to double. Aborts on string/null.
  double AsNumeric() const;

  /// Total order used by ORDER BY: NULL < int/double (numeric order) <
  /// string (lexicographic). Cross numeric types compare numerically.
  /// Returns <0, 0, >0.
  int Compare(const Value& other) const;

  /// SQL equality: false if either side is NULL.
  bool SqlEquals(const Value& other) const {
    if (is_null() || other.is_null()) return false;
    return Compare(other) == 0;
  }

  /// Identity equality used by tests and hashing: NULL == NULL here.
  bool operator==(const Value& other) const { return Compare(other) == 0; }

  /// Hash consistent with Compare()==0 (numeric 3 and 3.0 hash alike).
  size_t Hash() const;

  /// Approximate serialized width in bytes (used by the cost model and the
  /// wire serializer).
  size_t ByteSize() const;

  /// Rendering used in SQL literals and test output. Strings are quoted.
  std::string ToString() const;

 private:
  struct NullTag {
    bool operator==(const NullTag&) const { return true; }
  };
  using Rep = std::variant<NullTag, int64_t, double, std::string>;
  explicit Value(Rep rep) : rep_(std::move(rep)) {}

  Rep rep_;
};

std::ostream& operator<<(std::ostream& os, const Value& v);

/// XML text of a number (canonical: integral doubles keep a ".0", others
/// print up to 6 significant digits), written into a caller buffer of at
/// least kNumberTextMax bytes; returns a view of the text. Lets the tagger
/// emit cells with no Value and no temporary string.
inline constexpr size_t kNumberTextMax = 32;
std::string_view Int64XmlText(int64_t v, char* buf);
std::string_view DoubleXmlText(double d, char* buf);

struct ValueHash {
  size_t operator()(const Value& v) const { return v.Hash(); }
};

}  // namespace silkroute

#endif  // SILKROUTE_RELATIONAL_VALUE_H_
