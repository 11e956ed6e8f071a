#include "engine/executor.h"

#include <algorithm>
#include <cstring>
#include <unordered_map>
#include <unordered_set>

#include "engine/expr_eval.h"
#include "engine/key_codec.h"
#include "relational/columnar.h"
#include "obs/trace.h"
#include "sql/parser.h"

namespace silkroute::engine {

namespace {

using sql::BinaryOp;
using sql::Expr;

/// Collects every column reference in an expression tree.
void CollectColumnRefs(const Expr& e, std::vector<const sql::ColumnRefExpr*>* out) {
  switch (e.kind()) {
    case Expr::Kind::kColumnRef:
      out->push_back(static_cast<const sql::ColumnRefExpr*>(&e));
      return;
    case Expr::Kind::kLiteral:
      return;
    case Expr::Kind::kBinary: {
      const auto& b = static_cast<const sql::BinaryExpr&>(e);
      CollectColumnRefs(b.left(), out);
      CollectColumnRefs(b.right(), out);
      return;
    }
    case Expr::Kind::kNot:
      CollectColumnRefs(static_cast<const sql::NotExpr&>(e).operand(), out);
      return;
    case Expr::Kind::kIsNull:
      CollectColumnRefs(static_cast<const sql::IsNullExpr&>(e).operand(), out);
      return;
  }
}

/// Which single relation (by index into `schemas`) does `e` reference?
/// Returns -1 if it references none or more than one, or a ref is ambiguous.
int SoleReferencedRelation(const Expr& e,
                           const std::vector<const RelSchema*>& schemas) {
  std::vector<const sql::ColumnRefExpr*> refs;
  CollectColumnRefs(e, &refs);
  int sole = -2;  // -2: none seen yet
  for (const auto* ref : refs) {
    int owner = -1;
    for (size_t i = 0; i < schemas.size(); ++i) {
      if (schemas[i]->Resolve(ref->qualifier(), ref->name()).ok()) {
        if (owner >= 0) return -1;  // ambiguous across relations
        owner = static_cast<int>(i);
      }
    }
    if (owner < 0) return -1;  // unresolved here; defer to residual binding
    if (sole == -2) {
      sole = owner;
    } else if (sole != owner) {
      return -1;
    }
  }
  return sole == -2 ? -1 : sole;
}

struct EquiPair {
  const sql::ColumnRefExpr* left;
  const sql::ColumnRefExpr* right;
};

/// If `e` is `colA = colB`, returns the two refs.
bool AsColumnEquality(const Expr& e, EquiPair* out) {
  if (e.kind() != Expr::Kind::kBinary) return false;
  const auto& b = static_cast<const sql::BinaryExpr&>(e);
  if (b.op() != BinaryOp::kEq) return false;
  if (b.left().kind() != Expr::Kind::kColumnRef ||
      b.right().kind() != Expr::Kind::kColumnRef) {
    return false;
  }
  out->left = static_cast<const sql::ColumnRefExpr*>(&b.left());
  out->right = static_cast<const sql::ColumnRefExpr*>(&b.right());
  return true;
}

// ---------------------------------------------------------------------------
// Compiled column predicates (DESIGN.md §16). A pushed-down filter of the
// shape `col <op> literal` (either orientation), `col IS [NOT] NULL`, or a
// NOT over those compiles into a ColPred: one branch-light comparison
// against pre-classified literal payloads, evaluated straight off a
// column's typed arrays with no BoundExpr dispatch and no Value
// materialized per row. Semantics replicate BoundExpr::Test over
// Value::Compare exactly: a NULL cell fails every comparison (three-valued
// unknown), int64-vs-int64 compares exactly, mixed numerics widen to
// double, numerics order before strings.
// ---------------------------------------------------------------------------

enum class ColOp {
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
  kIsNull,
  kIsNotNull,
  kNever,  // comparison against a NULL literal: no row ever passes
};

struct ColPred {
  enum class LitKind { kInt, kDouble, kString, kNone };

  size_t col = 0;
  ColOp op = ColOp::kNever;
  LitKind lit_kind = LitKind::kNone;
  int64_t lit_i = 0;     // kInt payload
  double lit_num = 0.0;  // widened numeric payload (kInt and kDouble)
  std::string lit_s;     // kString payload
};

/// `not (col <op> lit)` strengthens to the inverted comparison: for
/// non-null cells the inversion is exact, and a NULL cell fails both the
/// original (kUnknown) and the inversion, matching NotBound's kUnknown
/// pass-through. kNever stays kNever (NOT unknown is unknown).
ColOp InvertColOp(ColOp op) {
  switch (op) {
    case ColOp::kEq: return ColOp::kNe;
    case ColOp::kNe: return ColOp::kEq;
    case ColOp::kLt: return ColOp::kGe;
    case ColOp::kLe: return ColOp::kGt;
    case ColOp::kGt: return ColOp::kLe;
    case ColOp::kGe: return ColOp::kLt;
    case ColOp::kIsNull: return ColOp::kIsNotNull;
    case ColOp::kIsNotNull: return ColOp::kIsNull;
    case ColOp::kNever: return ColOp::kNever;
  }
  return ColOp::kNever;
}

bool FillLiteral(const Value& v, ColPred* out) {
  if (v.is_null()) {
    // `col <op> NULL` is kUnknown for every row; only kTrue passes.
    out->op = ColOp::kNever;
    out->lit_kind = ColPred::LitKind::kNone;
    return true;
  }
  if (v.is_int64()) {
    out->lit_kind = ColPred::LitKind::kInt;
    out->lit_i = v.AsInt64();
    out->lit_num = static_cast<double>(out->lit_i);
  } else if (v.is_double()) {
    out->lit_kind = ColPred::LitKind::kDouble;
    out->lit_num = v.AsDouble();
  } else {
    out->lit_kind = ColPred::LitKind::kString;
    out->lit_s = v.AsString();
  }
  return true;
}

/// Compiles `e` into a single ColPred. Returns false when the expression
/// is not of a compilable shape (the caller then keeps the whole filter
/// set on the bound-expression path).
bool CompileColPred(const Expr& e, const RelSchema& schema, ColPred* out) {
  switch (e.kind()) {
    case Expr::Kind::kBinary: {
      const auto& b = static_cast<const sql::BinaryExpr&>(e);
      ColOp op;
      switch (b.op()) {
        case BinaryOp::kEq: op = ColOp::kEq; break;
        case BinaryOp::kNe: op = ColOp::kNe; break;
        case BinaryOp::kLt: op = ColOp::kLt; break;
        case BinaryOp::kLe: op = ColOp::kLe; break;
        case BinaryOp::kGt: op = ColOp::kGt; break;
        case BinaryOp::kGe: op = ColOp::kGe; break;
        default: return false;  // And/Or arrive pre-split into conjuncts
      }
      const sql::ColumnRefExpr* col = nullptr;
      const sql::LiteralExpr* lit = nullptr;
      if (b.left().kind() == Expr::Kind::kColumnRef &&
          b.right().kind() == Expr::Kind::kLiteral) {
        col = static_cast<const sql::ColumnRefExpr*>(&b.left());
        lit = static_cast<const sql::LiteralExpr*>(&b.right());
      } else if (b.right().kind() == Expr::Kind::kColumnRef &&
                 b.left().kind() == Expr::Kind::kLiteral) {
        col = static_cast<const sql::ColumnRefExpr*>(&b.right());
        lit = static_cast<const sql::LiteralExpr*>(&b.left());
        // lit <op> col reads as col <flipped-op> lit.
        if (op == ColOp::kLt) op = ColOp::kGt;
        else if (op == ColOp::kLe) op = ColOp::kGe;
        else if (op == ColOp::kGt) op = ColOp::kLt;
        else if (op == ColOp::kGe) op = ColOp::kLe;
      } else {
        return false;
      }
      auto idx = schema.Resolve(col->qualifier(), col->name());
      if (!idx.ok()) return false;
      out->col = *idx;
      out->op = op;
      FillLiteral(lit->value(), out);  // may override op to kNever
      return true;
    }
    case Expr::Kind::kIsNull: {
      const auto& isn = static_cast<const sql::IsNullExpr&>(e);
      if (isn.operand().kind() != Expr::Kind::kColumnRef) return false;
      const auto& col =
          static_cast<const sql::ColumnRefExpr&>(isn.operand());
      auto idx = schema.Resolve(col.qualifier(), col.name());
      if (!idx.ok()) return false;
      out->col = *idx;
      out->op = isn.negated() ? ColOp::kIsNotNull : ColOp::kIsNull;
      out->lit_kind = ColPred::LitKind::kNone;
      return true;
    }
    case Expr::Kind::kNot: {
      const auto& n = static_cast<const sql::NotExpr&>(e);
      if (!CompileColPred(n.operand(), schema, out)) return false;
      out->op = InvertColOp(out->op);
      return true;
    }
    default:
      return false;
  }
}

/// All-or-nothing: every filter must compile or none is used, so a scan
/// tests either compiled predicates or bound expressions, never a mix.
bool CompileColumnPreds(const std::vector<const Expr*>& filters,
                        const RelSchema& schema, std::vector<ColPred>* out) {
  out->clear();
  out->reserve(filters.size());
  for (const Expr* e : filters) {
    ColPred p;
    if (!CompileColPred(*e, schema, &p)) return false;
    out->push_back(std::move(p));
  }
  return true;
}

/// One predicate against cell `pos` of a column. Mirrors
/// BinaryBound::Test over Value::Compare: NULL cells fail comparisons,
/// pass/fail IS NULL directly.
bool EvalColPred(const ColumnVector& cv, size_t pos, const ColPred& p) {
  switch (p.op) {
    case ColOp::kIsNull: return cv.IsNull(pos);
    case ColOp::kIsNotNull: return !cv.IsNull(pos);
    case ColOp::kNever: return false;
    default: break;
  }
  if (cv.IsNull(pos)) return false;
  int c;
  if (cv.type() != DataType::kString) {
    if (p.lit_kind == ColPred::LitKind::kString) {
      c = -1;  // numerics order before strings
    } else if (p.lit_kind == ColPred::LitKind::kInt && cv.CellIsInt64(pos)) {
      const int64_t a = cv.Int64At(pos);
      c = a < p.lit_i ? -1 : (a > p.lit_i ? 1 : 0);
    } else {
      const double a = cv.NumericAt(pos);
      c = a < p.lit_num ? -1 : (a > p.lit_num ? 1 : 0);
    }
  } else {
    if (p.lit_kind != ColPred::LitKind::kString) {
      c = 1;  // strings order after numerics
    } else {
      const int r = cv.StringAt(pos).compare(p.lit_s);
      c = r < 0 ? -1 : (r > 0 ? 1 : 0);
    }
  }
  switch (p.op) {
    case ColOp::kEq: return c == 0;
    case ColOp::kNe: return c != 0;
    case ColOp::kLt: return c < 0;
    case ColOp::kLe: return c <= 0;
    case ColOp::kGt: return c > 0;
    case ColOp::kGe: return c >= 0;
    default: return false;
  }
}

/// Chained hash index over packed join keys (key_codec.h): one map entry
/// per distinct key, rows with equal keys threaded through `next_` links
/// in insertion order. Probes therefore walk matches in ascending build-
/// row order for free — hash-table iteration order never leaks out — and
/// key bytes live contiguously in the arena instead of one
/// vector<Value> node per build row. Row ids are uint32 (a build side
/// anywhere near 4B rows would have exhausted memory long before).
class EncodedKeyIndex {
 public:
  static constexpr uint32_t kNil = 0xFFFFFFFFu;

  void Reserve(size_t rows) {
    map_.reserve(rows);
    next_.assign(rows, kNil);
  }

  void Insert(std::string_view key, uint32_t row) {
    auto it = map_.find(key);
    if (it == map_.end()) {
      map_.emplace(arena_.Intern(key), Chain{row, row});
    } else {
      next_[it->second.tail] = row;
      it->second.tail = row;
    }
  }

  /// Head of the chain for `key`, or kNil; advance with NextRow.
  uint32_t Find(std::string_view key) const {
    auto it = map_.find(key);
    return it == map_.end() ? kNil : it->second.head;
  }
  uint32_t NextRow(uint32_t row) const { return next_[row]; }

 private:
  struct Chain {
    uint32_t head;
    uint32_t tail;
  };
  KeyArena arena_;
  std::unordered_map<std::string_view, Chain> map_;
  std::vector<uint32_t> next_;
};

Tuple NullPadded(const Tuple& left, size_t right_width) {
  Tuple out = left;
  for (size_t i = 0; i < right_width; ++i) out.Append(Value::Null());
  return out;
}

/// The build and probe halves HashJoin and HashJoinPairs share: the
/// constructor indexes the build (right) side on its key columns, and
/// First encodes one probe (left) row's key and looks it up. Only the
/// output step differs between the two joins. Every non-NULL key encoded
/// on either side counts into `stats`. `Side` is QueryExecutor::Input
/// (size() and EncodeKey are all the index reads).
template <typename Side>
class EquiJoinIndex {
 public:
  EquiJoinIndex(const Side& probe, const Side& build,
                const std::vector<std::pair<size_t, size_t>>& keys,
                ExecStats* stats)
      : probe_(probe), stats_(stats) {
    std::vector<size_t> build_cols;
    probe_cols_.reserve(keys.size());
    build_cols.reserve(keys.size());
    for (const auto& [li, ri] : keys) {
      probe_cols_.push_back(li);
      build_cols.push_back(ri);
    }
    index_.Reserve(build.size());
    for (size_t r = 0; r < build.size(); ++r) {
      scratch_.clear();
      // EncodeKey returns false on a NULL key column: such rows can
      // never match, so they are simply not indexed.
      if (!build.EncodeKey(r, build_cols, &scratch_)) continue;
      CountKey();
      index_.Insert(scratch_, static_cast<uint32_t>(r));
    }
  }

  /// First build row matching probe row `l`, or kNil when there is none
  /// or the probe key is NULL; advance with Next. The chain yields matches
  /// in ascending build-row order (rows were inserted in row order), so
  /// equal-key output is deterministic in build-row order — which fused
  /// streams rely on.
  uint32_t First(size_t l) {
    scratch_.clear();
    if (!probe_.EncodeKey(l, probe_cols_, &scratch_)) {
      return EncodedKeyIndex::kNil;
    }
    CountKey();
    return index_.Find(scratch_);
  }
  uint32_t Next(uint32_t r) const { return index_.NextRow(r); }

 private:
  void CountKey() {
    ++stats_->keys_encoded;
    stats_->bytes_encoded += scratch_.size();
  }

  const Side& probe_;
  std::vector<size_t> probe_cols_;
  ExecStats* stats_;
  EncodedKeyIndex index_;
  std::string scratch_;
};

}  // namespace

size_t QueryExecutor::Input::size() const {
  if (table == nullptr) return rel.rows.size();
  return selection ? selection->size() : table->num_rows();
}

Value QueryExecutor::Input::Cell(size_t i, size_t c) const {
  if (table == nullptr) return rel.rows[i].values()[c];
  return table->column(c).ValueAt(RowId(i));
}

void QueryExecutor::Input::AppendRow(size_t i, Tuple* out) const {
  if (table == nullptr) {
    for (const Value& v : rel.rows[i].values()) out->Append(v);
    return;
  }
  const size_t row = RowId(i);
  for (size_t c = 0; c < rel.schema.size(); ++c) {
    out->Append(read_columns.empty() || read_columns[c]
                    ? table->column(c).ValueAt(row)
                    : Value::Null());
  }
}

const Tuple& QueryExecutor::Input::RowRef(size_t i, Tuple* scratch) const {
  if (table == nullptr) return rel.rows[i];
  *scratch = table->Row(RowId(i));
  return *scratch;
}

Tuple QueryExecutor::Input::TakeRow(size_t i) {
  return table == nullptr ? std::move(rel.rows[i]) : table->Row(RowId(i));
}

bool QueryExecutor::Input::EncodeKey(size_t i, const std::vector<size_t>& cols,
                                     std::string* out) const {
  if (table == nullptr) return EncodeJoinKey(rel.rows[i], cols, out);
  return EncodeTableJoinKey(*table, RowId(i), cols, out);
}

void QueryExecutor::Input::EncodeCell(size_t i, size_t c, bool descending,
                                      std::string* out) const {
  if (table != nullptr) {
    if (descending) {
      EncodeColumnValueDescending(table->column(c), RowId(i), out);
    } else {
      EncodeColumnValue(table->column(c), RowId(i), out);
    }
    return;
  }
  const Value& v = rel.rows[i].values()[c];
  if (descending) {
    EncodeValueDescending(v, out);
  } else {
    EncodeValue(v, out);
  }
}

Result<Relation> QueryExecutor::ExecuteSql(std::string_view sql_text) {
  // The timeout caps each query, not the executor: re-arm the deadline so a
  // reused executor does not charge query N+1 for query N's elapsed time.
  has_deadline_ = false;
  SILK_ASSIGN_OR_RETURN(sql::QueryPtr q, sql::ParseQuery(sql_text));
  auto result = Execute(*q);
  // Attach this query's physical-plan counters to the enclosing attempt
  // span, if one is installed (the string building is gated on the span so
  // untraced runs pay only the thread-local load).
  if (result.ok() && obs::CurrentSpan() != nullptr) {
    obs::AnnotateCurrent("rows_scanned", std::to_string(stats_.rows_scanned));
    obs::AnnotateCurrent("rows_joined", std::to_string(stats_.rows_joined));
    obs::AnnotateCurrent("hash_joins", std::to_string(stats_.hash_joins));
    obs::AnnotateCurrent("nested_loop_joins",
                         std::to_string(stats_.nested_loop_joins));
    obs::AnnotateCurrent("keys_encoded", std::to_string(stats_.keys_encoded));
    obs::AnnotateCurrent("bytes_encoded",
                         std::to_string(stats_.bytes_encoded));
    obs::AnnotateCurrent("result_rows",
                         std::to_string(result.value().rows.size()));
  }
  return result;
}

Status QueryExecutor::CheckDeadline() const {
  if (!has_deadline_) return Status::OK();
  if (std::chrono::steady_clock::now() > deadline_) {
    return Status::Timeout("query exceeded " +
                           std::to_string(timeout_ms_) + " ms");
  }
  return Status::OK();
}

Result<Relation> QueryExecutor::Execute(const sql::Query& query) {
  if (query.cores.empty()) {
    return Status::InvalidArgument("query has no SELECT cores");
  }
  if (timeout_ms_ > 0 && !has_deadline_) {
    has_deadline_ = true;
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::microseconds(
                    static_cast<int64_t>(timeout_ms_ * 1000));
  }
  Relation result;
  // ORDER BY keys outside the select list read the aligned input of a
  // single-core query.
  std::optional<Input> aligned;
  for (size_t i = 0; i < query.cores.size(); ++i) {
    SILK_ASSIGN_OR_RETURN(CoreResult part,
                          ExecuteCore(query.cores[i], query.order_by));
    if (i == 0) {
      result = std::move(part.output);
      if (query.cores.size() == 1) aligned = std::move(part.aligned_input);
    } else {
      if (part.output.schema.size() != result.schema.size()) {
        return Status::InvalidArgument(
            "UNION operands have different arities (" +
            std::to_string(result.schema.size()) + " vs " +
            std::to_string(part.output.schema.size()) + ")");
      }
      result.rows.insert(result.rows.end(),
                         std::make_move_iterator(part.output.rows.begin()),
                         std::make_move_iterator(part.output.rows.end()));
    }
  }
  if (!query.order_by.empty()) {
    SILK_RETURN_IF_ERROR(ApplyOrderBy(
        query, aligned.has_value() ? &*aligned : nullptr, &result));
  }
  return result;
}

Result<QueryExecutor::CoreResult> QueryExecutor::ExecuteCore(
    const sql::SelectCore& core, const std::vector<sql::OrderItem>& order_by) {
  SILK_ASSIGN_OR_RETURN(Input in, JoinFromList(core, order_by));
  CoreResult result;
  Relation& out = result.output;
  const size_t n = in.size();
  if (core.select_star) {
    out.schema = std::move(in.rel.schema);
    out.rows.reserve(n);
    for (size_t i = 0; i < n; ++i) out.rows.push_back(in.TakeRow(i));
    return result;
  }

  // Bind projection expressions.
  std::vector<BoundExprPtr> exprs;
  exprs.reserve(core.select_list.size());
  for (const auto& item : core.select_list) {
    SILK_ASSIGN_OR_RETURN(BoundExprPtr bound,
                          BindExpr(*item.expr, in.rel.schema));
    exprs.push_back(std::move(bound));
    if (!item.alias.empty()) {
      out.schema.Add({"", item.alias});
    } else if (item.expr->kind() == Expr::Kind::kColumnRef) {
      const auto& c = static_cast<const sql::ColumnRefExpr&>(*item.expr);
      out.schema.Add({c.qualifier(), c.name()});
    } else {
      out.schema.Add({"", "col" + std::to_string(out.schema.size() + 1)});
    }
  }

  // Column refs (the view composer's usual select items) copy cells by
  // index — a borrowed table's straight from its columns, so filter and
  // projection fuse with no intermediate row copy. Other items evaluate
  // their bound expression, against the whole row only when one of them
  // reads a column (a literal tag such as `1 as t` needs none).
  std::vector<int> direct_cols(core.select_list.size(), -1);
  bool needs_row = false;
  for (size_t j = 0; j < core.select_list.size(); ++j) {
    const Expr& e = *core.select_list[j].expr;
    if (e.kind() == Expr::Kind::kColumnRef) {
      const auto& c = static_cast<const sql::ColumnRefExpr&>(e);
      direct_cols[j] =
          static_cast<int>(*in.rel.schema.Resolve(c.qualifier(), c.name()));
      continue;
    }
    std::vector<const sql::ColumnRefExpr*> refs;
    CollectColumnRefs(e, &refs);
    needs_row = needs_row || !refs.empty();
  }

  if (in.projected) {
    // JoinFromList already produced the projected rows.
    out.rows = std::move(in.rel.rows);
  } else {
    out.rows.reserve(n);
    Tuple scratch;
    const Tuple no_columns;
    for (size_t i = 0; i < n; ++i) {
      const Tuple& row = needs_row ? in.RowRef(i, &scratch) : no_columns;
      Tuple projected;
      projected.mutable_values().reserve(exprs.size());
      for (size_t j = 0; j < exprs.size(); ++j) {
        projected.Append(direct_cols[j] >= 0
                             ? in.Cell(i, static_cast<size_t>(direct_cols[j]))
                             : exprs[j]->Eval(row));
      }
      out.rows.push_back(std::move(projected));
    }
  }
  if (core.distinct) {
    // Dedup on packed whole-row keys: each row is encoded once into a
    // contiguous byte string, so hashing and equality are single byte
    // passes instead of a variant walk of t.values() per probe. NULL ==
    // NULL here, as before (Tuple::Compare identity, not SqlEquals).
    // DISTINCT breaks row alignment, so no aligned input survives it.
    KeyArena arena;
    std::unordered_set<std::string_view> seen;
    seen.reserve(out.rows.size());
    std::vector<Tuple> unique;
    unique.reserve(out.rows.size());
    std::string scratch;
    for (auto& row : out.rows) {
      scratch.clear();
      EncodeRowKey(row, &scratch);
      ++stats_.keys_encoded;
      stats_.bytes_encoded += scratch.size();
      if (seen.find(scratch) == seen.end()) {
        seen.insert(arena.Intern(scratch));
        unique.push_back(std::move(row));
      }
    }
    out.rows = std::move(unique);
  } else if (!in.projected) {
    result.aligned_input = std::move(in);
  }
  return result;
}

Result<QueryExecutor::Input> QueryExecutor::JoinFromList(
    const sql::SelectCore& core, const std::vector<sql::OrderItem>& order_by) {
  if (core.from.empty()) {
    // `select <literals>`: one empty source row.
    Input none;
    none.rel.rows.emplace_back();
    return none;
  }

  // Every reference that can read a base-table cell of this core: the
  // select list, WHERE, and ORDER BY (which may sort on the input).
  std::vector<const sql::ColumnRefExpr*> refs;
  for (const auto& item : core.select_list) {
    CollectColumnRefs(*item.expr, &refs);
  }
  if (core.where) CollectColumnRefs(*core.where, &refs);
  for (const auto& o : order_by) CollectColumnRefs(*o.expr, &refs);

  // Evaluate each FROM item. Base tables stay in place (schema only): the
  // pushdown filters below scan them into row-id selections.
  std::vector<Input> items;
  items.reserve(core.from.size());
  for (const auto& ref : core.from) {
    if (ref->kind() == sql::TableRef::Kind::kBaseTable) {
      const auto& base = static_cast<const sql::BaseTableRef&>(*ref);
      SILK_ASSIGN_OR_RETURN(const Table* table, db_->GetTable(base.table()));
      Input item;
      for (const auto& col : table->schema().columns()) {
        item.rel.schema.Add({base.binding_name(), col.name});
      }
      item.table = table;
      if (!core.select_star) {
        item.read_columns.assign(table->schema().num_columns(), false);
        for (const sql::ColumnRefExpr* r : refs) {
          auto c = table->schema().FindColumn(r->name());
          if (c && (r->qualifier().empty() ||
                    r->qualifier() == base.binding_name())) {
            item.read_columns[*c] = true;
          }
        }
      }
      items.push_back(std::move(item));
      continue;
    }
    SILK_ASSIGN_OR_RETURN(Relation rel, EvalTableRef(*ref));
    items.push_back(Input{std::move(rel)});
  }

  // Classify WHERE conjuncts.
  std::vector<const Expr*> conjuncts;
  if (core.where) CollectConjuncts(*core.where, &conjuncts);

  std::vector<const RelSchema*> schemas;
  schemas.reserve(items.size());
  for (const auto& it : items) schemas.push_back(&it.rel.schema);

  struct JoinPred {
    const Expr* expr;
    int item_a;
    const sql::ColumnRefExpr* ref_a;
    int item_b;
    const sql::ColumnRefExpr* ref_b;
    bool used = false;
  };
  std::vector<JoinPred> join_preds;
  std::vector<const Expr*> residual;
  std::vector<std::vector<const Expr*>> pushdown(items.size());

  for (const Expr* c : conjuncts) {
    int sole = SoleReferencedRelation(*c, schemas);
    if (sole >= 0) {
      pushdown[static_cast<size_t>(sole)].push_back(c);
      continue;
    }
    EquiPair pair;
    if (AsColumnEquality(*c, &pair)) {
      int owner_l = SoleReferencedRelation(*pair.left, schemas);
      int owner_r = SoleReferencedRelation(*pair.right, schemas);
      if (owner_l >= 0 && owner_r >= 0 && owner_l != owner_r) {
        join_preds.push_back({c, owner_l, pair.left, owner_r, pair.right});
        continue;
      }
    }
    residual.push_back(c);
  }

  // Push single-item filters down. A base table scans into a selection
  // and stays borrowed; other items filter their own rows.
  for (size_t i = 0; i < items.size(); ++i) {
    if (items[i].table != nullptr) {
      SILK_RETURN_IF_ERROR(ScanBaseTable(pushdown[i], &items[i]));
      continue;
    }
    if (pushdown[i].empty()) continue;
    std::vector<BoundExprPtr> filters;
    for (const Expr* e : pushdown[i]) {
      SILK_ASSIGN_OR_RETURN(BoundExprPtr b, BindExpr(*e, items[i].rel.schema));
      filters.push_back(std::move(b));
    }
    std::vector<Tuple> kept;
    kept.reserve(items[i].rel.rows.size());
    for (auto& row : items[i].rel.rows) {
      bool pass = true;
      for (const auto& f : filters) {
        if (f->Test(row) != Tribool::kTrue) {
          pass = false;
          break;
        }
      }
      if (pass) kept.push_back(std::move(row));
    }
    items[i].rel.rows = std::move(kept);
  }

  // Projection fusion: when every select item is a plain column ref, the
  // final greedy join can emit row-id pairs and project straight off its
  // inputs, skipping the wide concatenated tuples entirely (provided no
  // residual predicate survives — checked after the join loop).
  const bool can_fuse =
      order_by.empty() && !core.select_star && items.size() > 1 &&
      std::all_of(core.select_list.begin(), core.select_list.end(),
                  [](const sql::SelectItem& item) {
                    return item.expr->kind() == Expr::Kind::kColumnRef;
                  });
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  bool have_pairs = false;
  size_t pair_cand = 0;
  std::vector<size_t> fuse_cols;  // select columns in the wide schema

  // Greedy hash-join order: start with item 0, repeatedly join the smallest
  // connected unjoined item.
  std::vector<bool> joined(items.size(), false);
  Input current = std::move(items[0]);
  joined[0] = true;
  size_t num_joined = 1;

  auto pred_connects = [&](const JoinPred& p, size_t candidate) {
    bool a_in = joined[static_cast<size_t>(p.item_a)];
    bool b_in = joined[static_cast<size_t>(p.item_b)];
    return (!p.used) &&
           ((a_in && static_cast<size_t>(p.item_b) == candidate) ||
            (b_in && static_cast<size_t>(p.item_a) == candidate));
  };

  while (num_joined < items.size()) {
    // Choose the smallest connected candidate.
    int best = -1;
    for (size_t cand = 0; cand < items.size(); ++cand) {
      if (joined[cand]) continue;
      bool connected = std::any_of(join_preds.begin(), join_preds.end(),
                                   [&](const JoinPred& p) {
                                     return pred_connects(p, cand);
                                   });
      if (!connected) continue;
      if (best < 0 ||
          items[cand].size() < items[static_cast<size_t>(best)].size()) {
        best = static_cast<int>(cand);
      }
    }
    bool cross_product = false;
    if (best < 0) {
      // No connected item: cross product with the first unjoined one.
      for (size_t cand = 0; cand < items.size(); ++cand) {
        if (!joined[cand]) {
          best = static_cast<int>(cand);
          break;
        }
      }
      cross_product = true;
    }
    size_t cand = static_cast<size_t>(best);
    const Input& right = items[cand];

    if (cross_product) {
      // No up-front reserve: the output can be far larger than memory, and
      // the deadline (checked every 256 emitted rows) is what bounds it.
      Relation combined;
      combined.schema = RelSchema::Concat(current.rel.schema, right.rel.schema);
      size_t emitted = 0;
      for (size_t l = 0; l < current.size(); ++l) {
        for (size_t r = 0; r < right.size(); ++r) {
          Tuple row;
          row.mutable_values().reserve(combined.schema.size());
          current.AppendRow(l, &row);
          right.AppendRow(r, &row);
          combined.rows.push_back(std::move(row));
          if ((++emitted & 0xFF) == 0) SILK_RETURN_IF_ERROR(CheckDeadline());
        }
      }
      current = Input{std::move(combined)};
    } else {
      // Gather all usable predicates between the joined set and `cand`.
      std::vector<std::pair<size_t, size_t>> keys;
      for (auto& p : join_preds) {
        if (!pred_connects(p, cand)) continue;
        const sql::ColumnRefExpr* left_ref =
            joined[static_cast<size_t>(p.item_a)] ? p.ref_a : p.ref_b;
        const sql::ColumnRefExpr* right_ref =
            joined[static_cast<size_t>(p.item_a)] ? p.ref_b : p.ref_a;
        auto li = current.rel.schema.Resolve(left_ref->qualifier(),
                                             left_ref->name());
        auto ri =
            right.rel.schema.Resolve(right_ref->qualifier(), right_ref->name());
        if (!li.ok() || !ri.ok()) continue;
        keys.emplace_back(*li, *ri);
        p.used = true;
      }
      if (can_fuse && num_joined + 1 == items.size()) {
        RelSchema wide =
            RelSchema::Concat(current.rel.schema, right.rel.schema);
        fuse_cols.clear();
        bool resolved = true;
        for (const auto& item : core.select_list) {
          const auto& c = static_cast<const sql::ColumnRefExpr&>(*item.expr);
          auto idx = wide.Resolve(c.qualifier(), c.name());
          if (!idx.ok()) {
            resolved = false;
            break;
          }
          fuse_cols.push_back(*idx);
        }
        if (resolved) {
          SILK_ASSIGN_OR_RETURN(pairs, HashJoinPairs(current, right, keys));
          have_pairs = true;
          pair_cand = cand;
          joined[cand] = true;
          ++num_joined;
          continue;  // num_joined == items.size(): exits the loop
        }
      }
      SILK_ASSIGN_OR_RETURN(
          Relation joined_rel,
          HashJoin(sql::JoinType::kInner, current, right, keys,
                   /*residual=*/nullptr));
      current = Input{std::move(joined_rel)};
    }
    joined[cand] = true;
    ++num_joined;
  }

  // Residual predicates (including any join predicates never used).
  std::vector<const Expr*> leftover = residual;
  for (const auto& p : join_preds) {
    if (!p.used) leftover.push_back(p.expr);
  }
  if (have_pairs) {
    const Input& right = items[pair_cand];
    const size_t left_width = current.rel.schema.size();
    Relation joined_rel;
    joined_rel.schema = RelSchema::Concat(current.rel.schema, right.rel.schema);
    joined_rel.rows.reserve(pairs.size());
    if (leftover.empty()) {
      // Project straight off the join inputs: the wide tuples never exist.
      for (const auto& [li, ri] : pairs) {
        Tuple t;
        t.mutable_values().reserve(fuse_cols.size());
        for (size_t c : fuse_cols) {
          t.Append(c < left_width ? current.Cell(li, c)
                                  : right.Cell(ri, c - left_width));
        }
        joined_rel.rows.push_back(std::move(t));
      }
      Input fused{std::move(joined_rel)};
      fused.projected = true;
      return fused;
    }
    // A residual predicate needs the wide rows after all: materialize them
    // from the pairs (same order HashJoin would have emitted).
    for (const auto& [li, ri] : pairs) {
      Tuple t;
      t.mutable_values().reserve(joined_rel.schema.size());
      current.AppendRow(li, &t);
      right.AppendRow(ri, &t);
      joined_rel.rows.push_back(std::move(t));
    }
    current = Input{std::move(joined_rel)};
  }
  if (!leftover.empty()) {
    std::vector<BoundExprPtr> filters;
    for (const Expr* e : leftover) {
      SILK_ASSIGN_OR_RETURN(BoundExprPtr b, BindExpr(*e, current.rel.schema));
      filters.push_back(std::move(b));
    }
    std::vector<Tuple> kept;
    for (size_t i = 0; i < current.size(); ++i) {
      Tuple row = current.TakeRow(i);
      bool pass = true;
      for (const auto& f : filters) {
        if (f->Test(row) != Tribool::kTrue) {
          pass = false;
          break;
        }
      }
      if (pass) kept.push_back(std::move(row));
    }
    current.rel.rows = std::move(kept);
    current.table = nullptr;
    current.selection.reset();
  }
  return current;
}

Status QueryExecutor::ScanBaseTable(
    const std::vector<const sql::Expr*>& filters, Input* in) {
  const Table& table = *in->table;
  const size_t n = table.num_rows();
  stats_.rows_scanned += n;
  if (filters.empty()) return Status::OK();  // every row, in place

  std::vector<uint32_t> selection;
  std::vector<ColPred> preds;
  if (CompileColumnPreds(filters, in->rel.schema, &preds)) {
    // A NULL-literal comparison passes no row.
    const bool never =
        std::any_of(preds.begin(), preds.end(),
                    [](const ColPred& p) { return p.op == ColOp::kNever; });
    for (size_t r = 0; r < n && !never; ++r) {
      bool pass = true;
      for (const ColPred& p : preds) {
        if (!EvalColPred(table.column(p.col), r, p)) {
          pass = false;
          break;
        }
      }
      if (pass) selection.push_back(static_cast<uint32_t>(r));
    }
  } else {
    std::vector<BoundExprPtr> bound;
    bound.reserve(filters.size());
    for (const sql::Expr* e : filters) {
      SILK_ASSIGN_OR_RETURN(BoundExprPtr b, BindExpr(*e, in->rel.schema));
      bound.push_back(std::move(b));
    }
    for (size_t r = 0; r < n; ++r) {
      const Tuple row = table.Row(r);
      bool pass = true;
      for (const auto& f : bound) {
        if (f->Test(row) != Tribool::kTrue) {
          pass = false;
          break;
        }
      }
      if (pass) selection.push_back(static_cast<uint32_t>(r));
    }
  }
  in->selection = std::move(selection);
  return Status::OK();
}

Result<Relation> QueryExecutor::EvalTableRef(const sql::TableRef& ref) {
  switch (ref.kind()) {
    case sql::TableRef::Kind::kBaseTable: {
      const auto& base = static_cast<const sql::BaseTableRef&>(ref);
      SILK_ASSIGN_OR_RETURN(const Table* table, db_->GetTable(base.table()));
      Relation rel;
      for (const auto& col : table->schema().columns()) {
        rel.schema.Add({base.binding_name(), col.name});
      }
      // Intermediate results are mutable: materialize from the columns.
      rel.rows.reserve(table->num_rows());
      for (size_t r = 0; r < table->num_rows(); ++r) {
        rel.rows.push_back(table->Row(r));
      }
      stats_.rows_scanned += rel.rows.size();
      return rel;
    }
    case sql::TableRef::Kind::kDerivedTable: {
      const auto& derived = static_cast<const sql::DerivedTableRef&>(ref);
      // Execute keeps no per-query state beyond the counters and the
      // already-armed deadline, so the subquery runs on this executor and
      // its counters accumulate into this query's.
      SILK_ASSIGN_OR_RETURN(Relation rel, Execute(derived.query()));
      rel.schema = rel.schema.WithQualifier(derived.alias());
      return rel;
    }
    case sql::TableRef::Kind::kJoin:
      return EvalJoin(static_cast<const sql::JoinRef&>(ref));
  }
  return Status::Internal("unknown table ref kind");
}

Result<Relation> QueryExecutor::EvalJoin(const sql::JoinRef& join) {
  SILK_ASSIGN_OR_RETURN(Relation left, EvalTableRef(join.left()));
  SILK_ASSIGN_OR_RETURN(Relation right, EvalTableRef(join.right()));
  return JoinRelations(join.join_type(), std::move(left), std::move(right),
                       join.on());
}

Result<Relation> QueryExecutor::JoinRelations(sql::JoinType type,
                                              Relation left, Relation right,
                                              const sql::Expr& on) {
  // Case 1: conjunction with at least one column equality -> hash join.
  {
    std::vector<const Expr*> conjuncts;
    CollectConjuncts(on, &conjuncts);
    std::vector<std::pair<size_t, size_t>> keys;
    std::vector<const Expr*> residual_parts;
    for (const Expr* c : conjuncts) {
      EquiPair pair;
      if (AsColumnEquality(*c, &pair)) {
        auto li = left.schema.Resolve(pair.left->qualifier(), pair.left->name());
        auto ri =
            right.schema.Resolve(pair.right->qualifier(), pair.right->name());
        if (li.ok() && ri.ok()) {
          keys.emplace_back(*li, *ri);
          continue;
        }
        // Try swapped orientation.
        li = left.schema.Resolve(pair.right->qualifier(), pair.right->name());
        ri = right.schema.Resolve(pair.left->qualifier(), pair.left->name());
        if (li.ok() && ri.ok()) {
          keys.emplace_back(*li, *ri);
          continue;
        }
      }
      residual_parts.push_back(c);
    }
    if (!keys.empty()) {
      sql::ExprPtr residual_expr;
      if (!residual_parts.empty()) {
        std::vector<sql::ExprPtr> clones;
        clones.reserve(residual_parts.size());
        for (const Expr* e : residual_parts) clones.push_back(e->Clone());
        residual_expr = sql::AndAll(std::move(clones));
      }
      return HashJoin(type, Input{std::move(left)}, Input{std::move(right)},
                      keys, residual_expr.get());
    }
  }

  // Case 2: OR of conjunctions, each with column equalities -> disjunctive
  // hash join (the unified outer-join query shape).
  {
    auto result = DisjunctiveHashJoin(type, left, right, on);
    if (result.ok()) return result;
    // fall through to nested loop on decomposition failure
  }

  return NestedLoopJoin(type, left, right, on);
}

Result<Relation> QueryExecutor::HashJoin(
    sql::JoinType type, const Input& left, const Input& right,
    const std::vector<std::pair<size_t, size_t>>& keys,
    const sql::Expr* residual) {
  Relation out;
  out.schema = RelSchema::Concat(left.rel.schema, right.rel.schema);

  BoundExprPtr residual_bound;
  if (residual != nullptr) {
    SILK_ASSIGN_OR_RETURN(residual_bound, BindExpr(*residual, out.schema));
  }

  EquiJoinIndex<Input> join(left, right, keys, &stats_);
  ++stats_.hash_joins;
  const size_t left_width = left.rel.schema.size();
  const size_t width = out.schema.size();
  size_t deadline_check = 0;
  for (size_t l = 0; l < left.size(); ++l) {
    if ((++deadline_check & 0xFF) == 0) {
      SILK_RETURN_IF_ERROR(CheckDeadline());
    }
    bool matched = false;
    for (uint32_t r = join.First(l); r != EncodedKeyIndex::kNil;
         r = join.Next(r)) {
      Tuple combined;
      combined.mutable_values().reserve(width);
      left.AppendRow(l, &combined);
      right.AppendRow(r, &combined);
      if (residual_bound &&
          residual_bound->Test(combined) != Tribool::kTrue) {
        continue;
      }
      matched = true;
      out.rows.push_back(std::move(combined));
    }
    if (!matched && type == sql::JoinType::kLeftOuter) {
      Tuple padded;
      padded.mutable_values().reserve(width);
      left.AppendRow(l, &padded);
      for (size_t c = left_width; c < width; ++c) padded.Append(Value::Null());
      out.rows.push_back(std::move(padded));
    }
  }
  stats_.rows_joined += out.rows.size();
  return out;
}

Result<std::vector<std::pair<uint32_t, uint32_t>>> QueryExecutor::HashJoinPairs(
    const Input& left, const Input& right,
    const std::vector<std::pair<size_t, size_t>>& keys) {
  EquiJoinIndex<Input> join(left, right, keys, &stats_);
  ++stats_.hash_joins;
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  size_t deadline_check = 0;
  for (uint32_t l = 0; l < left.size(); ++l) {
    if ((++deadline_check & 0xFF) == 0) {
      SILK_RETURN_IF_ERROR(CheckDeadline());
    }
    for (uint32_t r = join.First(l); r != EncodedKeyIndex::kNil;
         r = join.Next(r)) {
      pairs.emplace_back(l, r);
    }
  }
  stats_.rows_joined += pairs.size();
  return pairs;
}

Result<Relation> QueryExecutor::DisjunctiveHashJoin(sql::JoinType type,
                                                    Relation& left,
                                                    Relation& right,
                                                    const sql::Expr& on) {
  std::vector<const Expr*> disjuncts;
  CollectDisjuncts(on, &disjuncts);
  if (disjuncts.size() < 2) {
    return Status::Unimplemented("not a disjunction");
  }

  struct Disjunct {
    std::vector<size_t> left_cols;   // key columns on the probe side
    std::vector<size_t> right_cols;  // key columns on the build side
    std::vector<BoundExprPtr> left_filters;
    std::vector<BoundExprPtr> right_filters;
    EncodedKeyIndex index;
  };
  std::vector<Disjunct> plans;
  plans.reserve(disjuncts.size());

  for (const Expr* d : disjuncts) {
    Disjunct plan;
    std::vector<const Expr*> conjuncts;
    CollectConjuncts(*d, &conjuncts);
    for (const Expr* c : conjuncts) {
      EquiPair pair;
      if (AsColumnEquality(*c, &pair)) {
        auto li = left.schema.Resolve(pair.left->qualifier(), pair.left->name());
        auto ri =
            right.schema.Resolve(pair.right->qualifier(), pair.right->name());
        if (li.ok() && ri.ok()) {
          plan.left_cols.push_back(*li);
          plan.right_cols.push_back(*ri);
          continue;
        }
        li = left.schema.Resolve(pair.right->qualifier(), pair.right->name());
        ri = right.schema.Resolve(pair.left->qualifier(), pair.left->name());
        if (li.ok() && ri.ok()) {
          plan.left_cols.push_back(*li);
          plan.right_cols.push_back(*ri);
          continue;
        }
      }
      // Single-side predicate?
      std::vector<const RelSchema*> schemas = {&left.schema, &right.schema};
      int sole = SoleReferencedRelation(*c, schemas);
      if (sole == 0) {
        SILK_ASSIGN_OR_RETURN(BoundExprPtr b, BindExpr(*c, left.schema));
        plan.left_filters.push_back(std::move(b));
      } else if (sole == 1) {
        SILK_ASSIGN_OR_RETURN(BoundExprPtr b, BindExpr(*c, right.schema));
        plan.right_filters.push_back(std::move(b));
      } else {
        return Status::Unimplemented(
            "disjunct has a cross-side non-equality predicate");
      }
    }
    if (plan.left_cols.empty()) {
      return Status::Unimplemented("disjunct has no column equality");
    }
    plans.push_back(std::move(plan));
  }

  // Build one packed-key index per disjunct.
  std::string scratch;
  for (auto& plan : plans) {
    plan.index.Reserve(right.rows.size());
    for (size_t r = 0; r < right.rows.size(); ++r) {
      bool pass = true;
      for (const auto& f : plan.right_filters) {
        if (f->Test(right.rows[r]) != Tribool::kTrue) {
          pass = false;
          break;
        }
      }
      if (!pass) continue;
      scratch.clear();
      if (!EncodeJoinKey(right.rows[r], plan.right_cols, &scratch)) continue;
      ++stats_.keys_encoded;
      stats_.bytes_encoded += scratch.size();
      plan.index.Insert(scratch, static_cast<uint32_t>(r));
    }
  }

  ++stats_.hash_joins;
  Relation out;
  out.schema = RelSchema::Concat(left.schema, right.schema);
  const size_t right_width = right.schema.size();
  std::vector<uint32_t> match_ids;
  size_t deadline_check = 0;
  for (const auto& lrow : left.rows) {
    if ((++deadline_check & 0xFF) == 0) {
      SILK_RETURN_IF_ERROR(CheckDeadline());
    }
    match_ids.clear();
    for (const auto& plan : plans) {
      bool pass = true;
      for (const auto& f : plan.left_filters) {
        if (f->Test(lrow) != Tribool::kTrue) {
          pass = false;
          break;
        }
      }
      if (!pass) continue;
      scratch.clear();
      if (!EncodeJoinKey(lrow, plan.left_cols, &scratch)) continue;
      ++stats_.keys_encoded;
      stats_.bytes_encoded += scratch.size();
      for (uint32_t r = plan.index.Find(scratch);
           r != EncodedKeyIndex::kNil; r = plan.index.NextRow(r)) {
        match_ids.push_back(r);
      }
    }
    // Each disjunct's chain is already ascending, but the per-disjunct
    // match lists are concatenated and two disjuncts can select the same
    // right row, so this normalization pass is still required: it both
    // dedups across disjuncts and restores global right-row order (pinned
    // by the DisjunctiveJoinStreamOrder regression test).
    std::sort(match_ids.begin(), match_ids.end());
    match_ids.erase(std::unique(match_ids.begin(), match_ids.end()),
                    match_ids.end());
    if (match_ids.empty()) {
      if (type == sql::JoinType::kLeftOuter) {
        out.rows.push_back(NullPadded(lrow, right_width));
      }
      continue;
    }
    for (size_t r : match_ids) {
      out.rows.push_back(Tuple::Concat(lrow, right.rows[r]));
    }
  }
  stats_.rows_joined += out.rows.size();
  return out;
}

Result<Relation> QueryExecutor::NestedLoopJoin(sql::JoinType type,
                                               Relation& left, Relation& right,
                                               const sql::Expr& on) {
  Relation out;
  out.schema = RelSchema::Concat(left.schema, right.schema);
  SILK_ASSIGN_OR_RETURN(BoundExprPtr pred, BindExpr(on, out.schema));
  ++stats_.nested_loop_joins;
  const size_t right_width = right.schema.size();
  for (const auto& lrow : left.rows) {
    SILK_RETURN_IF_ERROR(CheckDeadline());
    bool matched = false;
    for (const auto& rrow : right.rows) {
      Tuple combined = Tuple::Concat(lrow, rrow);
      if (pred->Test(combined) == Tribool::kTrue) {
        matched = true;
        out.rows.push_back(std::move(combined));
      }
    }
    if (!matched && type == sql::JoinType::kLeftOuter) {
      out.rows.push_back(NullPadded(lrow, right_width));
    }
  }
  stats_.rows_joined += out.rows.size();
  return out;
}

Status QueryExecutor::ApplyOrderBy(const sql::Query& query,
                                   const Input* aligned, Relation* result) {
  const size_t n = result->rows.size();
  // Bind each key against the output schema; fall back to the aligned
  // input's schema (single-core queries only).
  struct Key {
    BoundExprPtr expr;  // null when direct_col applies
    bool ascending;
    bool from_aligned;
    int direct_col = -1;  // plain column ref: read the cell, skip Eval
  };
  std::vector<Key> bound_keys;
  for (const auto& o : query.order_by) {
    // A bare column ref resolves against the same schemas BindExpr would
    // use; encoding then reads the cell in place instead of paying a
    // bound-expression dispatch and a Value copy per row.
    if (o.expr->kind() == Expr::Kind::kColumnRef) {
      const auto& c = static_cast<const sql::ColumnRefExpr&>(*o.expr);
      auto idx = result->schema.Resolve(c.qualifier(), c.name());
      if (idx.ok()) {
        bound_keys.push_back(
            {nullptr, o.ascending, false, static_cast<int>(*idx)});
        continue;
      }
      if (aligned != nullptr) {
        idx = aligned->rel.schema.Resolve(c.qualifier(), c.name());
        if (idx.ok()) {
          bound_keys.push_back(
              {nullptr, o.ascending, true, static_cast<int>(*idx)});
          continue;
        }
      }
    }
    auto out_bound = BindExpr(*o.expr, result->schema);
    if (out_bound.ok()) {
      bound_keys.push_back({std::move(out_bound).value(), o.ascending, false});
      continue;
    }
    if (aligned != nullptr) {
      auto pre_bound = BindExpr(*o.expr, aligned->rel.schema);
      if (pre_bound.ok()) {
        bound_keys.push_back({std::move(pre_bound).value(), o.ascending, true});
        continue;
      }
    }
    return Status::InvalidArgument("cannot resolve ORDER BY key '" +
                                   o.expr->ToSql() + "'");
  }
  // Cell of direct-column key `k` in row i.
  auto cell = [&](const Key& k, size_t i) {
    const size_t col = static_cast<size_t>(k.direct_col);
    return k.from_aligned ? aligned->Cell(i, col)
                          : result->rows[i].values()[col];
  };

  // Fast path: at most two keys, all direct columns holding only non-null
  // numerics (the shape the view composer's skolem-key ORDER BYs take).
  // Each key packs into one machine word whose unsigned order equals the
  // encoded-segment order, so the sort runs over flat PODs and never
  // builds a byte buffer.
  if (!bound_keys.empty() && bound_keys.size() <= 2 &&
      std::all_of(bound_keys.begin(), bound_keys.end(),
                  [](const Key& k) { return k.direct_col >= 0; })) {
    bool numeric = true;
    for (const auto& k : bound_keys) {
      for (size_t i = 0; i < n && numeric; ++i) {
        const Value v = cell(k, i);
        // Tiebreaker-carrying magnitudes (>= 2^53) must take the byte
        // path: the word alone would order them differently.
        if (!(v.is_int64() || v.is_double()) || !NumericFitsWord(v)) {
          numeric = false;
        }
      }
      if (!numeric) break;
    }
    if (numeric) {
      struct WordRec {
        uint64_t k0;
        uint64_t k1;
        uint32_t idx;
      };
      std::vector<WordRec> recs(n);
      for (size_t i = 0; i < n; ++i) {
        uint64_t words[2] = {0, 0};
        for (size_t j = 0; j < bound_keys.size(); ++j) {
          const Key& k = bound_keys[j];
          const uint64_t bits = OrderedNumericBits(cell(k, i));
          words[j] = k.ascending ? bits : ~bits;
        }
        recs[i] = {words[0], words[1], static_cast<uint32_t>(i)};
      }
      stats_.keys_encoded += n;
      stats_.bytes_encoded += n * 8 * bound_keys.size();
      std::sort(recs.begin(), recs.end(),
                [](const WordRec& a, const WordRec& b) {
                  if (a.k0 != b.k0) return a.k0 < b.k0;
                  if (a.k1 != b.k1) return a.k1 < b.k1;
                  return a.idx < b.idx;  // stable order on full ties
                });
      std::vector<Tuple> sorted;
      sorted.reserve(n);
      for (const WordRec& r : recs) {
        sorted.push_back(std::move(result->rows[r.idx]));
      }
      result->rows = std::move(sorted);
      stats_.rows_sorted += n;
      return Status::OK();
    }
  }

  // Encode one packed sort key per row (key_codec.h): ascending segments
  // use the order-preserving encoding directly, descending segments are
  // byte-complemented, so the whole composite key sorts by memcmp —
  // no variant dispatch in the comparator. Keys are packed back-to-back
  // in one flat buffer; `ends[i]` marks where row i's key stops.
  std::string buf;
  std::vector<size_t> ends(n + 1, 0);
  buf.reserve(n * 9 * bound_keys.size());  // a numeric segment is 9 bytes
  auto encode = [&buf](const Value& v, bool ascending) {
    if (ascending) {
      EncodeValue(v, &buf);
    } else {
      EncodeValueDescending(v, &buf);
    }
  };
  Tuple scratch;
  for (size_t i = 0; i < n; ++i) {
    for (const auto& k : bound_keys) {
      if (k.direct_col < 0) {
        encode(k.expr->Eval(k.from_aligned ? aligned->RowRef(i, &scratch)
                                           : result->rows[i]),
               k.ascending);
      } else if (k.from_aligned) {
        aligned->EncodeCell(i, static_cast<size_t>(k.direct_col),
                            !k.ascending, &buf);
      } else {
        encode(result->rows[i].values()[static_cast<size_t>(k.direct_col)],
               k.ascending);
      }
    }
    ends[i + 1] = buf.size();
  }
  stats_.keys_encoded += n;
  stats_.bytes_encoded += buf.size();
  const char* base = buf.data();
  // Sort flat records instead of a bare permutation: each record inlines
  // the first eight key bytes (big-endian, zero-padded) so the vast
  // majority of comparisons resolve on one integer compare without
  // touching the key buffer.
  struct SortRec {
    uint64_t prefix;
    uint64_t off;
    uint32_t len;
    uint32_t idx;
  };
  std::vector<SortRec> recs(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t off = ends[i];
    const size_t len = ends[i + 1] - off;
    const auto* p = reinterpret_cast<const unsigned char*>(base + off);
    const size_t m = len < 8 ? len : 8;
    uint64_t prefix = 0;
    for (size_t b = 0; b < m; ++b) prefix = (prefix << 8) | p[b];
    prefix <<= 8 * (8 - m);
    recs[i] = {prefix, off, static_cast<uint32_t>(len),
               static_cast<uint32_t>(i)};
  }
  std::sort(recs.begin(), recs.end(),
            [base](const SortRec& a, const SortRec& b) {
              if (a.prefix != b.prefix) return a.prefix < b.prefix;
              if (a.len > 8 && b.len > 8) {
                const size_t m = (a.len < b.len ? a.len : b.len) - 8;
                const int c =
                    std::memcmp(base + a.off + 8, base + b.off + 8, m);
                if (c != 0) return c < 0;
              }
              if (a.len != b.len) return a.len < b.len;
              // Index tiebreak keeps equal-key rows in input order — the
              // same result stable_sort gave, without its merge buffer.
              return a.idx < b.idx;
            });
  std::vector<Tuple> sorted;
  sorted.reserve(n);
  for (const SortRec& r : recs) {
    sorted.push_back(std::move(result->rows[r.idx]));
  }
  result->rows = std::move(sorted);
  stats_.rows_sorted += n;
  return Status::OK();
}

Result<std::vector<std::pair<std::string, uint64_t>>>
DatabaseExecutor::FetchTableVersions(const std::vector<std::string>& tables) {
  std::vector<std::pair<std::string, uint64_t>> versions;
  versions.reserve(tables.size());
  for (const std::string& name : tables) {
    SILK_ASSIGN_OR_RETURN(const Table* table, db_->GetTable(name));
    versions.emplace_back(name, table->version());
  }
  std::sort(versions.begin(), versions.end());
  return versions;
}

}  // namespace silkroute::engine
