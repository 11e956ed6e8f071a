#include "engine/expr_eval.h"

#include <cstdlib>
#include <iostream>

namespace silkroute::engine {

namespace {

using sql::BinaryOp;

Tribool FromBool(bool b) { return b ? Tribool::kTrue : Tribool::kFalse; }

class ColumnBound final : public BoundExpr {
 public:
  explicit ColumnBound(size_t index) : index_(index) {}
  Value Eval(const Tuple& row) const override { return row[index_]; }

 private:
  size_t index_;
};

class LiteralBound final : public BoundExpr {
 public:
  explicit LiteralBound(Value v) : value_(std::move(v)) {}
  Value Eval(const Tuple& row) const override { return value_; }

 private:
  Value value_;
};

class BinaryBound final : public BoundExpr {
 public:
  BinaryBound(BinaryOp op, BoundExprPtr left, BoundExprPtr right)
      : op_(op), left_(std::move(left)), right_(std::move(right)) {}

  Value Eval(const Tuple& row) const override {
    switch (op_) {
      case BinaryOp::kAnd:
      case BinaryOp::kOr: {
        Tribool t = Test(row);
        if (t == Tribool::kUnknown) return Value::Null();
        return Value::Int64(t == Tribool::kTrue ? 1 : 0);
      }
      case BinaryOp::kEq:
      case BinaryOp::kNe:
      case BinaryOp::kLt:
      case BinaryOp::kLe:
      case BinaryOp::kGt:
      case BinaryOp::kGe: {
        Tribool t = Test(row);
        if (t == Tribool::kUnknown) return Value::Null();
        return Value::Int64(t == Tribool::kTrue ? 1 : 0);
      }
      case BinaryOp::kAdd:
      case BinaryOp::kSub:
      case BinaryOp::kMul:
      case BinaryOp::kDiv: {
        Value l = left_->Eval(row);
        Value r = right_->Eval(row);
        if (l.is_null() || r.is_null()) return Value::Null();
        if (l.is_string() || r.is_string()) {
          non_numeric_ = true;
          return Value::Null();
        }
        if (l.is_int64() && r.is_int64() && op_ != BinaryOp::kDiv) {
          const int64_t a = l.AsInt64(), b = r.AsInt64();
          int64_t exact = 0;
          bool overflow = false;
          switch (op_) {
            case BinaryOp::kAdd:
              overflow = __builtin_add_overflow(a, b, &exact);
              break;
            case BinaryOp::kSub:
              overflow = __builtin_sub_overflow(a, b, &exact);
              break;
            default:
              overflow = __builtin_mul_overflow(a, b, &exact);
              break;
          }
          if (!overflow) return Value::Int64(exact);
        }
        double a = l.AsNumeric(), b = r.AsNumeric();
        switch (op_) {
          case BinaryOp::kAdd:
            return Value::Double(a + b);
          case BinaryOp::kSub:
            return Value::Double(a - b);
          case BinaryOp::kMul:
            return Value::Double(a * b);
          case BinaryOp::kDiv:
            return Value::Double(b == 0 ? 0 : a / b);
          default:
            break;
        }
      }
    }
    return Value::Null();
  }

  Status status() const override {
    if (non_numeric_) {
      return Status::InvalidArgument(
          std::string("arithmetic on a non-numeric value: '") +
          sql::BinaryOpToSql(op_) + "' needs numbers");
    }
    SILK_RETURN_IF_ERROR(left_->status());
    return right_->status();
  }

  Tribool Test(const Tuple& row) const override {
    switch (op_) {
      case BinaryOp::kAnd: {
        Tribool l = left_->Test(row);
        if (l == Tribool::kFalse) return Tribool::kFalse;
        Tribool r = right_->Test(row);
        if (r == Tribool::kFalse) return Tribool::kFalse;
        if (l == Tribool::kUnknown || r == Tribool::kUnknown) {
          return Tribool::kUnknown;
        }
        return Tribool::kTrue;
      }
      case BinaryOp::kOr: {
        Tribool l = left_->Test(row);
        if (l == Tribool::kTrue) return Tribool::kTrue;
        Tribool r = right_->Test(row);
        if (r == Tribool::kTrue) return Tribool::kTrue;
        if (l == Tribool::kUnknown || r == Tribool::kUnknown) {
          return Tribool::kUnknown;
        }
        return Tribool::kFalse;
      }
      default: {
        Value l = left_->Eval(row);
        Value r = right_->Eval(row);
        if (l.is_null() || r.is_null()) return Tribool::kUnknown;
        int c = l.Compare(r);
        switch (op_) {
          case BinaryOp::kEq:
            return FromBool(c == 0);
          case BinaryOp::kNe:
            return FromBool(c != 0);
          case BinaryOp::kLt:
            return FromBool(c < 0);
          case BinaryOp::kLe:
            return FromBool(c <= 0);
          case BinaryOp::kGt:
            return FromBool(c > 0);
          case BinaryOp::kGe:
            return FromBool(c >= 0);
          default: {
            // Arithmetic used as predicate: nonzero is true.
            Value v = Eval(row);
            if (v.is_null()) return Tribool::kUnknown;
            return FromBool(v.AsNumeric() != 0);
          }
        }
      }
    }
  }

 private:
  BinaryOp op_;
  BoundExprPtr left_;
  BoundExprPtr right_;
  mutable bool non_numeric_ = false;  // see status()
};

class NotBound final : public BoundExpr {
 public:
  explicit NotBound(BoundExprPtr operand) : operand_(std::move(operand)) {}

  Value Eval(const Tuple& row) const override {
    Tribool t = Test(row);
    if (t == Tribool::kUnknown) return Value::Null();
    return Value::Int64(t == Tribool::kTrue ? 1 : 0);
  }

  Tribool Test(const Tuple& row) const override {
    Tribool t = operand_->Test(row);
    if (t == Tribool::kUnknown) return Tribool::kUnknown;
    return t == Tribool::kTrue ? Tribool::kFalse : Tribool::kTrue;
  }

  Status status() const override { return operand_->status(); }

 private:
  BoundExprPtr operand_;
};

class IsNullBound final : public BoundExpr {
 public:
  IsNullBound(BoundExprPtr operand, bool negated)
      : operand_(std::move(operand)), negated_(negated) {}

  Value Eval(const Tuple& row) const override {
    return Value::Int64(Test(row) == Tribool::kTrue ? 1 : 0);
  }

  Tribool Test(const Tuple& row) const override {
    bool is_null = operand_->Eval(row).is_null();
    return FromBool(negated_ ? !is_null : is_null);
  }

  Status status() const override { return operand_->status(); }

 private:
  BoundExprPtr operand_;
  bool negated_;
};

}  // namespace

Tribool BoundExpr::Test(const Tuple& row) const {
  Value v = Eval(row);
  if (v.is_null()) return Tribool::kUnknown;
  if (v.is_string()) return Tribool::kTrue;  // non-null string is truthy
  return v.AsNumeric() != 0 ? Tribool::kTrue : Tribool::kFalse;
}

Result<BoundExprPtr> BindExpr(const sql::Expr& expr, const RelSchema& schema) {
  using Kind = sql::Expr::Kind;
  switch (expr.kind()) {
    case Kind::kColumnRef: {
      const auto& c = static_cast<const sql::ColumnRefExpr&>(expr);
      SILK_ASSIGN_OR_RETURN(size_t idx, schema.Resolve(c.qualifier(), c.name()));
      return BoundExprPtr(std::make_unique<ColumnBound>(idx));
    }
    case Kind::kLiteral: {
      const auto& l = static_cast<const sql::LiteralExpr&>(expr);
      return BoundExprPtr(std::make_unique<LiteralBound>(l.value()));
    }
    case Kind::kBinary: {
      const auto& b = static_cast<const sql::BinaryExpr&>(expr);
      SILK_ASSIGN_OR_RETURN(BoundExprPtr left, BindExpr(b.left(), schema));
      SILK_ASSIGN_OR_RETURN(BoundExprPtr right, BindExpr(b.right(), schema));
      return BoundExprPtr(std::make_unique<BinaryBound>(
          b.op(), std::move(left), std::move(right)));
    }
    case Kind::kNot: {
      const auto& n = static_cast<const sql::NotExpr&>(expr);
      SILK_ASSIGN_OR_RETURN(BoundExprPtr operand, BindExpr(n.operand(), schema));
      return BoundExprPtr(std::make_unique<NotBound>(std::move(operand)));
    }
    case Kind::kIsNull: {
      const auto& n = static_cast<const sql::IsNullExpr&>(expr);
      SILK_ASSIGN_OR_RETURN(BoundExprPtr operand, BindExpr(n.operand(), schema));
      return BoundExprPtr(
          std::make_unique<IsNullBound>(std::move(operand), n.negated()));
    }
  }
  return Status::Internal("unknown expression kind");
}

}  // namespace silkroute::engine
