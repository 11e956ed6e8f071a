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
// shard's typed arrays with no BoundExpr dispatch and no Value
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
/// set on the legacy bound-expression path).
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

/// All-or-nothing: every filter must compile or none is used, so a scan is
/// either fully columnar or fully legacy (never a mix with different
/// short-circuit order).
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

/// One predicate against cell `pos` of a shard column. Mirrors
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

/// A literal-equality filter with an index on its column, if any: the index
/// path beats every flavour of full scan, so both MaterializeBaseTable and
/// the columnar selection scan consult this first.
struct IndexProbe {
  const Table::Index* index = nullptr;
  const Value* probe = nullptr;
};

IndexProbe FindIndexProbe(const Table& table,
                          const std::vector<const Expr*>& filters) {
  for (const sql::Expr* e : filters) {
    if (e->kind() != Expr::Kind::kBinary) continue;
    const auto& b = static_cast<const sql::BinaryExpr&>(*e);
    if (b.op() != BinaryOp::kEq) continue;
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
    } else {
      continue;
    }
    const Table::Index* candidate = table.GetIndex(col->name());
    if (candidate != nullptr && !lit->value().is_null()) {
      return {candidate, &lit->value()};
    }
  }
  return {};
}

/// One side of a hash join: the rows plus, when they borrow a base table
/// whose columnar layout is exact, the table itself — keys then encode
/// straight from the shard columns (EncodeTableJoinKey), byte-identical
/// to the row encoding, so chains, probes, and key counters never change.
struct JoinSide {
  const std::vector<Tuple>* rows;
  const Table* table = nullptr;

  size_t size() const { return rows->size(); }
  bool EncodeKey(size_t i, const std::vector<size_t>& cols,
                 std::string* out) const {
    if (table != nullptr) return EncodeTableJoinKey(*table, i, cols, out);
    return EncodeJoinKey((*rows)[i], cols, out);
  }
};

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
/// on either side counts into `stats`.
class EquiJoinIndex {
 public:
  EquiJoinIndex(const JoinSide& probe, const JoinSide& build,
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

  JoinSide probe_;
  std::vector<size_t> probe_cols_;
  ExecStats* stats_;
  EncodedKeyIndex index_;
  std::string scratch_;
};

}  // namespace

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
    obs::AnnotateCurrent("index_probes", std::to_string(stats_.index_probes));
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
  // With no ORDER BY the aligned pre-projection rows are never consulted,
  // so the final join of each core may fuse with the projection.
  const bool allow_fusion = query.order_by.empty();
  for (size_t i = 0; i < query.cores.size(); ++i) {
    SILK_ASSIGN_OR_RETURN(Relation part,
                          ExecuteCore(query.cores[i], allow_fusion));
    if (i == 0) {
      result = std::move(part);
    } else {
      if (part.schema.size() != result.schema.size()) {
        return Status::InvalidArgument(
            "UNION operands have different arities (" +
            std::to_string(result.schema.size()) + " vs " +
            std::to_string(part.schema.size()) + ")");
      }
      result.rows.insert(result.rows.end(),
                         std::make_move_iterator(part.rows.begin()),
                         std::make_move_iterator(part.rows.end()));
    }
  }
  if (!query.order_by.empty()) {
    const bool single = query.cores.size() == 1;
    const RelSchema& preproj_schema =
        single ? last_preprojection_.schema : result.schema;
    const std::vector<Tuple>& preproj_rows =
        single ? (last_preprojection_rows_ != nullptr
                      ? *last_preprojection_rows_
                      : last_preprojection_.rows)
               : result.rows;
    SILK_RETURN_IF_ERROR(
        ApplyOrderBy(query, preproj_schema, preproj_rows, &result));
  }
  last_preprojection_ = Relation();  // release memory
  last_preprojection_rows_ = nullptr;
  return result;
}

Result<Relation> QueryExecutor::ExecuteCore(const sql::SelectCore& core,
                                            bool allow_fusion) {
  const std::vector<Tuple>* borrowed = nullptr;
  const Table* borrowed_table = nullptr;
  bool fused = false;
  scan_selection_active_ = false;
  SILK_ASSIGN_OR_RETURN(
      Relation combined,
      JoinFromList(core, allow_fusion && !core.select_star, &borrowed,
                   &borrowed_table, &fused));
  // Selection-borrowed scan (TryColumnarSelectionScan via JoinFromList):
  // `borrowed` spans the FULL table and `selection` lists the surviving
  // global row ids in ascending order. Consume the member state here so
  // recursive cores (derived tables) can never observe it.
  bool have_selection = scan_selection_active_;
  std::vector<uint32_t> selection = std::move(scan_selection_);
  scan_selection_active_ = false;
  scan_selection_.clear();

  if (core.select_star) {
    if (borrowed != nullptr) {
      last_preprojection_.schema = combined.schema;
      last_preprojection_.rows.clear();
      last_preprojection_rows_ = borrowed;  // aligned: result copies these rows
      combined.rows = *borrowed;
    } else {
      last_preprojection_ = combined;
      last_preprojection_rows_ = &last_preprojection_.rows;
    }
    return combined;
  }

  // Bind projection expressions.
  std::vector<BoundExprPtr> exprs;
  RelSchema out_schema;
  exprs.reserve(core.select_list.size());
  for (const auto& item : core.select_list) {
    SILK_ASSIGN_OR_RETURN(BoundExprPtr bound,
                          BindExpr(*item.expr, combined.schema));
    exprs.push_back(std::move(bound));
    if (!item.alias.empty()) {
      out_schema.Add({"", item.alias});
    } else if (item.expr->kind() == Expr::Kind::kColumnRef) {
      const auto& c = static_cast<const sql::ColumnRefExpr&>(*item.expr);
      out_schema.Add({c.qualifier(), c.name()});
    } else {
      out_schema.Add({"", "col" + std::to_string(out_schema.size() + 1)});
    }
  }

  // Pure column projections (the shape SilkRoute's view composer emits)
  // copy cells by index instead of dispatching a bound expression per cell.
  std::vector<size_t> direct_cols;
  direct_cols.reserve(core.select_list.size());
  bool all_direct = true;
  for (const auto& item : core.select_list) {
    if (item.expr->kind() != Expr::Kind::kColumnRef) {
      all_direct = false;
      break;
    }
    const auto& c = static_cast<const sql::ColumnRefExpr&>(*item.expr);
    auto idx = combined.schema.Resolve(c.qualifier(), c.name());
    if (!idx.ok()) {
      all_direct = false;
      break;
    }
    direct_cols.push_back(*idx);
  }

  if (have_selection && !all_direct) {
    // Rare shape behind a selection scan (expression projection):
    // materialize the survivors so the generic paths below see exactly
    // the filtered rows — same copies MaterializeBaseTable would have
    // made, so this never regresses the pre-selection behaviour.
    combined.rows.reserve(selection.size());
    for (uint32_t gid : selection) combined.rows.push_back((*borrowed)[gid]);
    borrowed = nullptr;
    borrowed_table = nullptr;
    have_selection = false;
  }
  const std::vector<Tuple>& in_rows =
      borrowed != nullptr ? *borrowed : combined.rows;

  Relation out;
  out.schema = std::move(out_schema);
  if (fused) {
    // JoinFromList already produced the projected rows.
    out.rows = std::move(combined.rows);
  } else if (all_direct && borrowed_table != nullptr) {
    // Borrowed base scan + pure column projection: gather the selected
    // cells straight from the table's columnar shards (row_loc maps each
    // global row to its shard position) instead of walking the row-store
    // tuples. ValueAt reproduces the stored Value representation exactly
    // (columnar_exact is a precondition of borrowed_table), so the
    // projected stream is unchanged. With a selection the gather visits
    // only the surviving global ids, in order — filter and projection
    // fuse with no intermediate row copy at all.
    const Table& t = *borrowed_table;
    const size_t n = have_selection ? selection.size() : in_rows.size();
    out.rows.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      const Table::RowLoc loc = t.row_loc(have_selection ? selection[i] : i);
      const ColumnarShard& shard = t.shard(loc.shard);
      Tuple projected;
      projected.mutable_values().reserve(direct_cols.size());
      for (size_t c : direct_cols) projected.Append(shard.ValueAt(c, loc.pos));
      out.rows.push_back(std::move(projected));
    }
  } else if (all_direct) {
    out.rows.reserve(in_rows.size());
    for (const auto& row : in_rows) {
      Tuple projected;
      projected.mutable_values().reserve(direct_cols.size());
      for (size_t c : direct_cols) projected.Append(row.values()[c]);
      out.rows.push_back(std::move(projected));
    }
  } else {
    out.rows.reserve(in_rows.size());
    for (const auto& row : in_rows) {
      Tuple projected;
      projected.mutable_values().reserve(exprs.size());
      for (const auto& e : exprs) projected.Append(e->Eval(row));
      out.rows.push_back(std::move(projected));
    }
  }
  if (core.distinct) {
    // Dedup on packed whole-row keys: each row is encoded once into a
    // contiguous byte string, so hashing and equality are single byte
    // passes instead of a variant walk of t.values() per probe. NULL ==
    // NULL here, as before (Tuple::Compare identity, not SqlEquals).
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
    // DISTINCT breaks row alignment; ORDER BY must use the output schema.
    last_preprojection_ = Relation();
    last_preprojection_rows_ = nullptr;
  } else if (fused || have_selection) {
    // Fusion and selection scans are only allowed when nothing downstream
    // reads the pre-projection rows (no ORDER BY in the enclosing query);
    // with a selection the borrowed rows span the whole table and are not
    // aligned with the output.
    last_preprojection_ = Relation();
    last_preprojection_rows_ = nullptr;
  } else if (borrowed != nullptr) {
    last_preprojection_.schema = std::move(combined.schema);
    last_preprojection_.rows.clear();
    last_preprojection_rows_ = borrowed;
  } else {
    last_preprojection_ = std::move(combined);
    last_preprojection_rows_ = &last_preprojection_.rows;
  }
  return out;
}

Result<Relation> QueryExecutor::JoinFromList(
    const sql::SelectCore& core, bool allow_fusion,
    const std::vector<Tuple>** borrowed_rows, const Table** borrowed_table,
    bool* fused) {
  *borrowed_rows = nullptr;
  *borrowed_table = nullptr;
  *fused = false;
  if (core.from.empty()) {
    // `select <literals>`: one empty source row.
    Relation r;
    r.rows.emplace_back();
    return r;
  }

  // Evaluate each FROM item. Base tables are deferred (schema only) so the
  // pushdown filters below can drive an index probe or a filtered scan
  // instead of copying the whole table.
  std::vector<Relation> items;
  std::vector<const Table*> deferred_base(core.from.size(), nullptr);
  // borrowed[i] non-null: items[i].rows stay empty and the item reads the
  // base table's rows in place — no per-query copy of the table.
  std::vector<const std::vector<Tuple>*> borrowed(core.from.size(), nullptr);
  items.reserve(core.from.size());
  for (const auto& ref : core.from) {
    if (ref->kind() == sql::TableRef::Kind::kBaseTable) {
      const auto& base = static_cast<const sql::BaseTableRef&>(*ref);
      SILK_ASSIGN_OR_RETURN(const Table* table, db_->GetTable(base.table()));
      Relation rel;
      for (const auto& col : table->schema().columns()) {
        rel.schema.Add({base.binding_name(), col.name});
      }
      deferred_base[items.size()] = table;
      items.push_back(std::move(rel));
      continue;
    }
    SILK_ASSIGN_OR_RETURN(Relation rel, EvalTableRef(*ref));
    items.push_back(std::move(rel));
  }

  // Classify WHERE conjuncts.
  std::vector<const Expr*> conjuncts;
  if (core.where) CollectConjuncts(*core.where, &conjuncts);

  std::vector<const RelSchema*> schemas;
  schemas.reserve(items.size());
  for (const auto& it : items) schemas.push_back(&it.schema);

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

  // Push single-item filters down. Deferred base tables materialize here,
  // through an index probe when a literal-equality filter has one.
  for (size_t i = 0; i < items.size(); ++i) {
    if (deferred_base[i] != nullptr) {
      if (pushdown[i].empty()) {
        // Unfiltered scan: borrow the table's rows instead of copying them.
        // Everything downstream reads the item until its rows land in an
        // owned join output, and the database outlives the query.
        borrowed[i] = &deferred_base[i]->rows();
        stats_.rows_scanned += borrowed[i]->size();
        continue;
      }
      if (allow_fusion && items.size() == 1 && residual.empty()) {
        // Single-table filtered scan feeding a pure projection (no joins,
        // no residual, no ORDER BY behind us — allow_fusion guarantees
        // nothing downstream reads aligned pre-projection rows): skip row
        // materialization entirely. The selection scan records surviving
        // global row ids; the table is borrowed and ExecuteCore's
        // projection gathers survivor cells straight from the shards, so
        // full-width survivor tuples are never copied.
        SILK_ASSIGN_OR_RETURN(
            const bool selected,
            TryColumnarSelectionScan(*deferred_base[i], pushdown[i],
                                     items[i].schema));
        if (selected) {
          borrowed[i] = &deferred_base[i]->rows();
          continue;
        }
      }
      SILK_RETURN_IF_ERROR(
          MaterializeBaseTable(*deferred_base[i], pushdown[i], &items[i]));
      continue;
    }
    if (pushdown[i].empty()) continue;
    std::vector<BoundExprPtr> filters;
    for (const Expr* e : pushdown[i]) {
      SILK_ASSIGN_OR_RETURN(BoundExprPtr b, BindExpr(*e, items[i].schema));
      filters.push_back(std::move(b));
    }
    std::vector<Tuple> kept;
    kept.reserve(items[i].rows.size());
    for (auto& row : items[i].rows) {
      bool pass = true;
      for (const auto& f : filters) {
        if (f->Test(row) != Tribool::kTrue) {
          pass = false;
          break;
        }
      }
      if (pass) kept.push_back(std::move(row));
    }
    items[i].rows = std::move(kept);
  }

  auto rows_of = [&](size_t i) -> const std::vector<Tuple>& {
    return borrowed[i] != nullptr ? *borrowed[i] : items[i].rows;
  };
  // The base table behind a borrowed item, when its columnar layout can
  // stand in for the rows (join keys then encode from shard columns).
  auto table_of = [&](size_t i) -> const Table* {
    return borrowed[i] != nullptr && deferred_base[i]->columnar_exact()
               ? deferred_base[i]
               : nullptr;
  };

  // Projection fusion: when every select item is a plain column ref, the
  // final greedy join can emit row-id pairs and project straight off its
  // inputs, skipping the wide concatenated tuples entirely (provided no
  // residual predicate survives — checked after the join loop).
  const bool can_fuse =
      allow_fusion && items.size() > 1 &&
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
  std::vector<int> item_of;  // which joined item each original index maps to
  Relation current;
  current.schema = std::move(items[0].schema);
  const std::vector<Tuple>* current_borrow = borrowed[0];
  const Table* current_table = table_of(0);
  if (current_borrow == nullptr) current.rows = std::move(items[0].rows);
  auto current_rows = [&]() -> const std::vector<Tuple>& {
    return current_borrow != nullptr ? *current_borrow : current.rows;
  };
  joined[0] = true;
  std::vector<size_t> joined_set = {0};
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
          rows_of(cand).size() < rows_of(static_cast<size_t>(best)).size()) {
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
    Relation& right = items[cand];

    if (cross_product) {
      Relation combined;
      combined.schema = RelSchema::Concat(current.schema, right.schema);
      const std::vector<Tuple>& lrows = current_rows();
      const std::vector<Tuple>& rrows = rows_of(cand);
      combined.rows.reserve(lrows.size() * rrows.size());
      for (const auto& l : lrows) {
        SILK_RETURN_IF_ERROR(CheckDeadline());
        for (const auto& r : rrows) {
          combined.rows.push_back(Tuple::Concat(l, r));
        }
      }
      current = std::move(combined);
      current_borrow = nullptr;
      current_table = nullptr;
    } else {
      // Gather all usable predicates between the joined set and `cand`.
      std::vector<std::pair<size_t, size_t>> keys;
      for (auto& p : join_preds) {
        if (!pred_connects(p, cand)) continue;
        const sql::ColumnRefExpr* left_ref =
            joined[static_cast<size_t>(p.item_a)] ? p.ref_a : p.ref_b;
        const sql::ColumnRefExpr* right_ref =
            joined[static_cast<size_t>(p.item_a)] ? p.ref_b : p.ref_a;
        auto li = current.schema.Resolve(left_ref->qualifier(), left_ref->name());
        auto ri = right.schema.Resolve(right_ref->qualifier(), right_ref->name());
        if (!li.ok() || !ri.ok()) continue;
        keys.emplace_back(*li, *ri);
        p.used = true;
      }
      if (can_fuse && num_joined + 1 == items.size()) {
        RelSchema wide = RelSchema::Concat(current.schema, right.schema);
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
          SILK_ASSIGN_OR_RETURN(
              pairs, HashJoinPairs(current_rows(), rows_of(cand), keys,
                                   current_table, table_of(cand)));
          have_pairs = true;
          pair_cand = cand;
          joined[cand] = true;
          ++num_joined;
          continue;  // num_joined == items.size(): exits the loop
        }
      }
      SILK_ASSIGN_OR_RETURN(
          current, HashJoin(sql::JoinType::kInner, current.schema,
                            current_rows(), right.schema, rows_of(cand), keys,
                            /*residual=*/nullptr, current_table,
                            table_of(cand)));
      current_borrow = nullptr;
      current_table = nullptr;
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
    const std::vector<Tuple>& lrows = current_rows();
    const std::vector<Tuple>& rrows = rows_of(pair_cand);
    const size_t left_width = current.schema.size();
    if (leftover.empty()) {
      // Project straight off the join inputs: the wide tuples never exist.
      std::vector<Tuple> projected;
      projected.reserve(pairs.size());
      for (const auto& [li, ri] : pairs) {
        Tuple t;
        t.mutable_values().reserve(fuse_cols.size());
        for (size_t c : fuse_cols) {
          t.Append(c < left_width ? lrows[li].values()[c]
                                  : rrows[ri].values()[c - left_width]);
        }
        projected.push_back(std::move(t));
      }
      current.schema =
          RelSchema::Concat(current.schema, items[pair_cand].schema);
      current.rows = std::move(projected);
      *fused = true;
      return current;
    }
    // A residual predicate needs the wide rows after all: materialize them
    // from the pairs (same order HashJoin would have emitted).
    std::vector<Tuple> wide;
    wide.reserve(pairs.size());
    for (const auto& [li, ri] : pairs) {
      wide.push_back(Tuple::Concat(lrows[li], rrows[ri]));
    }
    current.schema = RelSchema::Concat(current.schema, items[pair_cand].schema);
    current.rows = std::move(wide);
    current_borrow = nullptr;
  }
  if (!leftover.empty()) {
    std::vector<BoundExprPtr> filters;
    for (const Expr* e : leftover) {
      SILK_ASSIGN_OR_RETURN(BoundExprPtr b, BindExpr(*e, current.schema));
      filters.push_back(std::move(b));
    }
    auto passes = [&filters](const Tuple& row) {
      for (const auto& f : filters) {
        if (f->Test(row) != Tribool::kTrue) return false;
      }
      return true;
    };
    std::vector<Tuple> kept;
    if (current_borrow != nullptr) {
      // Borrowed rows belong to the table: copy the survivors.
      kept.reserve(current_rows().size());
      for (const auto& row : *current_borrow) {
        if (passes(row)) kept.push_back(row);
      }
      current_borrow = nullptr;
    } else {
      kept.reserve(current_rows().size());
      for (auto& row : current.rows) {
        if (passes(row)) kept.push_back(std::move(row));
      }
    }
    current.rows = std::move(kept);
  }
  *borrowed_rows = current_borrow;
  *borrowed_table = current_borrow != nullptr ? current_table : nullptr;
  return current;
}

Status QueryExecutor::MaterializeBaseTable(
    const Table& table, const std::vector<const sql::Expr*>& filters,
    Relation* out) {
  // Look for a literal-equality filter with an index on its column.
  const IndexProbe ip = FindIndexProbe(table, filters);

  if (ip.index != nullptr) {
    std::vector<BoundExprPtr> bound;
    bound.reserve(filters.size());
    for (const sql::Expr* e : filters) {
      SILK_ASSIGN_OR_RETURN(BoundExprPtr b, BindExpr(*e, out->schema));
      bound.push_back(std::move(b));
    }
    auto [begin, end] = ip.index->equal_range(*ip.probe);
    for (auto it = begin; it != end; ++it) {
      ++stats_.rows_scanned;
      ++stats_.index_probes;
      const Tuple& row = table.rows()[it->second];
      bool pass = true;
      for (const auto& f : bound) {
        if (f->Test(row) != Tribool::kTrue) {
          pass = false;
          break;
        }
      }
      if (pass) out->rows.push_back(row);
    }
    return Status::OK();
  }

  // Columnar scan: the selection pass evaluates compiled column-vs-literal
  // predicates over the shards' typed arrays and yields surviving global
  // row ids in ascending order; materializing rows in that order
  // reproduces the row-major scan's tuple stream byte for byte at any
  // shard count.
  SILK_ASSIGN_OR_RETURN(const bool columnar,
                        TryColumnarSelectionScan(table, filters, out->schema));
  if (columnar) {
    scan_selection_active_ = false;
    const std::vector<uint32_t> sel = std::move(scan_selection_);
    scan_selection_.clear();
    const std::vector<Tuple>& rows = table.rows();
    out->rows.reserve(out->rows.size() + sel.size());
    for (uint32_t gid : sel) out->rows.push_back(rows[gid]);
    return Status::OK();
  }
  stats_.rows_scanned += table.num_rows();

  std::vector<BoundExprPtr> bound;
  bound.reserve(filters.size());
  for (const sql::Expr* e : filters) {
    SILK_ASSIGN_OR_RETURN(BoundExprPtr b, BindExpr(*e, out->schema));
    bound.push_back(std::move(b));
  }
  auto passes = [&bound](const Tuple& row) {
    for (const auto& f : bound) {
      if (f->Test(row) != Tribool::kTrue) return false;
    }
    return true;
  };
  for (const Tuple& row : table.rows()) {
    if (passes(row)) out->rows.push_back(row);
  }
  return Status::OK();
}

Result<bool> QueryExecutor::TryColumnarSelectionScan(
    const Table& table, const std::vector<const sql::Expr*>& filters,
    const RelSchema& schema) {
  if (!table.columnar_exact()) return false;
  // An index probe beats any full scan; leave those filters to
  // MaterializeBaseTable's index path.
  if (FindIndexProbe(table, filters).index != nullptr) return false;
  std::vector<ColPred> preds;
  if (!CompileColumnPreds(filters, schema, &preds)) return false;

  stats_.rows_scanned += table.num_rows();
  scan_selection_.clear();
  scan_selection_active_ = true;
  const size_t n = table.num_rows();
  if (n == 0) return true;
  if (std::any_of(preds.begin(), preds.end(), [](const ColPred& p) {
        return p.op == ColOp::kNever;
      })) {
    return true;  // a NULL-literal comparison passes no rows
  }
  // Predicate evaluation reads the shard's typed arrays directly — no
  // bound-expression dispatch and no per-row Value materialization. Each
  // shard marks its survivors in a bitmap indexed by table-global row id;
  // walking the bitmap in ascending global id afterwards yields the same
  // survivor order a row-major scan would, at any shard count.
  std::vector<uint8_t> keep(n, 0);
  for (uint32_t s = 0; s < table.shard_count(); ++s) {
    const ColumnarShard& shard = table.shard(s);
    for (size_t pos = 0; pos < shard.size(); ++pos) {
      bool pass = true;
      for (const ColPred& p : preds) {
        if (!EvalColPred(shard.column(p.col), pos, p)) {
          pass = false;
          break;
        }
      }
      if (pass) keep[shard.global_id(pos)] = 1;
    }
  }
  size_t total = 0;
  for (size_t i = 0; i < n; ++i) total += keep[i];
  scan_selection_.reserve(total);
  for (size_t i = 0; i < n; ++i) {
    if (keep[i]) scan_selection_.push_back(static_cast<uint32_t>(i));
  }
  return true;
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
      rel.rows = table->rows();  // copy: intermediate results are mutable
      stats_.rows_scanned += rel.rows.size();
      return rel;
    }
    case sql::TableRef::Kind::kDerivedTable: {
      const auto& derived = static_cast<const sql::DerivedTableRef&>(ref);
      // Note: uses a nested executor so last_preprojection_ of the outer
      // query is not clobbered. The deadline is inherited as-is.
      QueryExecutor sub(db_);
      sub.timeout_ms_ = timeout_ms_;
      sub.has_deadline_ = has_deadline_;
      sub.deadline_ = deadline_;
      SILK_ASSIGN_OR_RETURN(Relation rel, sub.Execute(derived.query()));
      stats_.rows_scanned += sub.stats_.rows_scanned;
      stats_.rows_joined += sub.stats_.rows_joined;
      stats_.rows_sorted += sub.stats_.rows_sorted;
      stats_.hash_joins += sub.stats_.hash_joins;
      stats_.nested_loop_joins += sub.stats_.nested_loop_joins;
      stats_.index_probes += sub.stats_.index_probes;
      stats_.keys_encoded += sub.stats_.keys_encoded;
      stats_.bytes_encoded += sub.stats_.bytes_encoded;
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
      return HashJoin(type, left.schema, left.rows, right.schema, right.rows,
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
    sql::JoinType type, const RelSchema& left_schema,
    const std::vector<Tuple>& left_rows, const RelSchema& right_schema,
    const std::vector<Tuple>& right_rows,
    const std::vector<std::pair<size_t, size_t>>& keys,
    const sql::Expr* residual, const Table* left_table,
    const Table* right_table) {
  Relation out;
  out.schema = RelSchema::Concat(left_schema, right_schema);

  BoundExprPtr residual_bound;
  if (residual != nullptr) {
    SILK_ASSIGN_OR_RETURN(residual_bound, BindExpr(*residual, out.schema));
  }

  EquiJoinIndex join(JoinSide{&left_rows, left_table},
                     JoinSide{&right_rows, right_table}, keys, &stats_);
  ++stats_.hash_joins;
  const size_t right_width = right_schema.size();
  size_t deadline_check = 0;
  for (size_t l = 0; l < left_rows.size(); ++l) {
    const Tuple& lrow = left_rows[l];
    if ((++deadline_check & 0xFF) == 0) {
      SILK_RETURN_IF_ERROR(CheckDeadline());
    }
    bool matched = false;
    for (uint32_t r = join.First(l); r != EncodedKeyIndex::kNil;
         r = join.Next(r)) {
      Tuple combined = Tuple::Concat(lrow, right_rows[r]);
      if (residual_bound &&
          residual_bound->Test(combined) != Tribool::kTrue) {
        continue;
      }
      matched = true;
      out.rows.push_back(std::move(combined));
    }
    if (!matched && type == sql::JoinType::kLeftOuter) {
      out.rows.push_back(NullPadded(lrow, right_width));
    }
  }
  stats_.rows_joined += out.rows.size();
  return out;
}

Result<std::vector<std::pair<uint32_t, uint32_t>>> QueryExecutor::HashJoinPairs(
    const std::vector<Tuple>& left_rows, const std::vector<Tuple>& right_rows,
    const std::vector<std::pair<size_t, size_t>>& keys,
    const Table* left_table, const Table* right_table) {
  EquiJoinIndex join(JoinSide{&left_rows, left_table},
                     JoinSide{&right_rows, right_table}, keys, &stats_);
  ++stats_.hash_joins;
  std::vector<std::pair<uint32_t, uint32_t>> pairs;
  size_t deadline_check = 0;
  for (uint32_t l = 0; l < left_rows.size(); ++l) {
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
                                   const RelSchema& preproj_schema,
                                   const std::vector<Tuple>& preproj_rows,
                                   Relation* result) {
  const size_t n = result->rows.size();
  // Bind each key against the output schema; fall back to the
  // pre-projection schema (single-core queries only).
  struct Key {
    BoundExprPtr expr;  // null when direct_col applies
    bool ascending;
    bool from_preprojection;
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
      if (query.cores.size() == 1 && preproj_rows.size() == n) {
        idx = preproj_schema.Resolve(c.qualifier(), c.name());
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
    if (query.cores.size() == 1 && preproj_rows.size() == n) {
      auto pre_bound = BindExpr(*o.expr, preproj_schema);
      if (pre_bound.ok()) {
        bound_keys.push_back({std::move(pre_bound).value(), o.ascending, true});
        continue;
      }
    }
    return Status::InvalidArgument("cannot resolve ORDER BY key '" +
                                   o.expr->ToSql() + "'");
  }

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
      const std::vector<Tuple>& src =
          k.from_preprojection ? preproj_rows : result->rows;
      const size_t col = static_cast<size_t>(k.direct_col);
      for (size_t i = 0; i < n && numeric; ++i) {
        const Value& v = src[i].values()[col];
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
          const Tuple& row =
              k.from_preprojection ? preproj_rows[i] : result->rows[i];
          uint64_t bits = OrderedNumericBits(
              row.values()[static_cast<size_t>(k.direct_col)]);
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
  for (size_t i = 0; i < n; ++i) {
    for (const auto& k : bound_keys) {
      const Tuple& row =
          k.from_preprojection ? preproj_rows[i] : result->rows[i];
      if (k.direct_col >= 0) {
        const Value& v = row.values()[static_cast<size_t>(k.direct_col)];
        if (k.ascending) {
          EncodeValue(v, &buf);
        } else {
          EncodeValueDescending(v, &buf);
        }
        continue;
      }
      Value v = k.expr->Eval(row);
      if (k.ascending) {
        EncodeValue(v, &buf);
      } else {
        EncodeValueDescending(v, &buf);
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
