#include "engine/executor.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <unordered_set>

#include "engine/expr_eval.h"
#include "engine/key_codec.h"
#include "engine/tuple_stream.h"
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

/// If `e` equates a column of `left` with a column of `right`, in either
/// orientation, returns their indices.
bool CrossSideEquality(const Expr& e, const RelSchema& left,
                       const RelSchema& right,
                       std::pair<size_t, size_t>* out) {
  EquiPair pair;
  if (!AsColumnEquality(e, &pair)) return false;
  for (const auto& [l, r] : {std::pair{pair.left, pair.right},
                             std::pair{pair.right, pair.left}}) {
    auto li = left.Resolve(l->qualifier(), l->name());
    auto ri = right.Resolve(r->qualifier(), r->name());
    if (li.ok() && ri.ok()) {
      *out = {*li, *ri};
      return true;
    }
  }
  return false;
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

/// murmur3's 64-bit finalizer. Every output bit depends on every input
/// bit, which a join word needs: a small integer's double image has ~40
/// low zero bits, and a hash that leaves them unmixed piles its keys into
/// one probe run.
uint64_t Fmix64(uint64_t h) {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

/// A non-NULL join-key cell as the word index reads it (DESIGN.md §10): a
/// numeric's codec segment, or a string's bytes.
struct KeyCell {
  NumericSegment num;
  std::string_view str;
  bool is_string = false;

  static KeyCell Of(const ColumnVector& column, uint32_t id) {
    KeyCell cell;
    if (column.type() == DataType::kString) {
      cell.is_string = true;
      cell.str = column.StringAt(id);
    } else {
      cell.num = column.CellIsInt64(id) ? Int64Segment(column.Int64At(id))
                                        : DoubleSegment(column.DoubleAt(id));
    }
    return cell;
  }
  static KeyCell Of(const Value& v) {
    KeyCell cell;
    if (v.is_string()) {
      cell.is_string = true;
      cell.str = v.AsString();
    } else {
      cell.num = v.is_int64() ? Int64Segment(v.AsInt64())
                              : DoubleSegment(v.AsDouble());
    }
    return cell;
  }

  /// A numeric's ordered image, a string's 64-bit hash.
  uint64_t Word() const {
    return is_string ? std::hash<std::string_view>()(str) : num.image;
  }
  /// Whether the word is the whole segment (a numeric below 2^53), so
  /// equal words of two exact cells are equal segments.
  bool Exact() const { return !is_string && !num.has_tie; }
  /// Whether the two cells' codec segments are byte-equal.
  bool SameSegment(const KeyCell& other) const {
    if (is_string != other.is_string) return false;
    return is_string ? str == other.str
                     : num.image == other.num.image && num.tie == other.num.tie;
  }
};

/// An ascending sort-key cell as one word (NumericKeyWord, DESIGN.md §10),
/// `cell` null for NULL. False for a cell no word carries: a string, a
/// numeric whose segment has a tiebreaker (magnitude at or above 2^53),
/// and the one NaN pattern whose image is 0, NULL's word.
bool SortWord(const KeyCell* cell, uint64_t* word) {
  if (cell == nullptr) {
    *word = 0;
    return true;
  }
  return !cell->is_string && NumericKeyWord(cell->num, word);
}
bool SortWord(const Value& v, uint64_t* word) {
  if (v.is_null()) return SortWord(nullptr, word);
  const KeyCell cell = KeyCell::Of(v);
  return SortWord(&cell, word);
}

/// Whether rows 0..n-1 are already in order: no row sorts before the one
/// ahead of it under `less(a, b)`. Equal keys are in order, as the sort's
/// input-order tiebreak would leave them.
template <typename Less>
bool InOrder(size_t n, const Less& less) {
  for (size_t g = 1; g < n; ++g) {
    if (less(g, g - 1)) return false;
  }
  return true;
}

/// Flat open-addressing hash index over join keys of `width` words (one
/// KeyCell word per key column). Each distinct word tuple owns one chain
/// of row ids threaded through `next_` in insertion order, so a probe
/// walks candidates in ascending build-row order and hash-table order
/// never leaks out. Slots hold a 32-bit hash tag and the key's number;
/// the words live in one flat array. Equal words are a match only when
/// both keys are exact (Exact); the caller verifies every other candidate.
/// Row ids are uint32 (a build side anywhere near 4B rows would have
/// exhausted memory long before).
class WordKeyIndex {
 public:
  static constexpr uint32_t kNil = 0xFFFFFFFFu;

  WordKeyIndex(size_t width, size_t rows)
      : width_(width), next_(rows, kNil), exact_(rows, 0) {
    size_t capacity = 16;
    while (capacity < 2 * rows) capacity <<= 1;  // load factor <= 1/2
    slots_.assign(capacity, Slot{});
    mask_ = capacity - 1;
    words_.reserve(rows * width);
    heads_.reserve(rows);
    tails_.reserve(rows);
  }

  /// Appends `row` (rows arrive ascending) to the chain of `words`.
  void Insert(const uint64_t* words, bool exact, uint32_t row) {
    exact_[row] = exact;
    const auto [s, tag] = Locate(words);
    Slot& slot = slots_[s];
    if (slot.key == kNil) {
      slot = {tag, static_cast<uint32_t>(heads_.size())};
      heads_.push_back(row);
      tails_.push_back(row);
      words_.insert(words_.end(), words, words + width_);
    } else {
      next_[tails_[slot.key]] = row;
      tails_[slot.key] = row;
    }
  }

  /// Head of the chain for `words`, or kNil; advance with NextRow.
  uint32_t Find(const uint64_t* words) const {
    const Slot& slot = slots_[Locate(words).first];
    return slot.key == kNil ? kNil : heads_[slot.key];
  }
  uint32_t NextRow(uint32_t row) const { return next_[row]; }
  bool Exact(uint32_t row) const { return exact_[row] != 0; }

 private:
  struct Slot {
    uint32_t tag = 0;
    uint32_t key = kNil;  // kNil: empty
  };
  /// The slot of `words` (their key's, or the empty slot where a new key
  /// goes) and their hash tag. Each word mixes in through Fmix64.
  std::pair<size_t, uint32_t> Locate(const uint64_t* words) const {
    uint64_t h = 0;
    for (size_t k = 0; k < width_; ++k) {
      h = Fmix64(h * 0x9E3779B97F4A7C15ULL + words[k]);
    }
    const auto tag = static_cast<uint32_t>(h >> 32);
    for (size_t s = h & mask_;; s = (s + 1) & mask_) {
      const Slot& slot = slots_[s];
      if (slot.key == kNil ||
          (slot.tag == tag &&
           std::equal(words, words + width_,
                      &words_[size_t{slot.key} * width_]))) {
        return {s, tag};
      }
    }
  }

  size_t width_;
  size_t mask_ = 0;
  std::vector<Slot> slots_;
  std::vector<uint64_t> words_;  // key k's words at [k * width_, +width_)
  std::vector<uint32_t> heads_;  // per key
  std::vector<uint32_t> tails_;  // per key
  std::vector<uint32_t> next_;   // per row
  std::vector<uint8_t> exact_;   // per row
};

/// One hash join's index and probe, serving both hash-join kernels: the
/// constructor indexes the build rows `keep` accepts on their key columns,
/// and First/Next walk the build rows whose key equals probe row l's, in
/// ascending build-row order. A candidate whose words match but that is not
/// exact on both sides is verified against the codec segments. Every
/// non-NULL key read on either side counts into `stats` as one key of 8
/// bytes per word. `Side` is QueryExecutor::Input (size() and KeyCellAt
/// are all the index reads).
template <typename Side>
class EquiJoinIndex {
 public:
  template <typename Keep>
  EquiJoinIndex(const Side& probe, std::vector<size_t> probe_cols,
                const Side& build, std::vector<size_t> build_cols,
                ExecStats* stats, const Keep& keep)
      : probe_(probe),
        build_(build),
        probe_cols_(std::move(probe_cols)),
        build_cols_(std::move(build_cols)),
        stats_(stats),
        index_(build_cols_.size(), build.size()),
        words_(build_cols_.size()) {
    for (size_t r = 0; r < build.size(); ++r) {
      // A NULL key column never matches, so such rows are not indexed.
      if (!keep(r) || !ReadKey(build_, r, build_cols_)) continue;
      index_.Insert(words_.data(), exact_, static_cast<uint32_t>(r));
    }
  }

  /// First build row matching probe row `l`, or kNil when there is none
  /// or the probe key is NULL; advance with Next.
  uint32_t First(size_t l) {
    probe_row_ = l;
    if (!ReadKey(probe_, l, probe_cols_)) return WordKeyIndex::kNil;
    return Match(index_.Find(words_.data()));
  }
  uint32_t Next(uint32_t r) { return Match(index_.NextRow(r)); }

 private:
  /// Loads row i's key words and exactness; false on a NULL key column.
  bool ReadKey(const Side& side, size_t i, const std::vector<size_t>& cols) {
    exact_ = true;
    for (size_t k = 0; k < cols.size(); ++k) {
      KeyCell cell;
      if (!side.KeyCellAt(i, cols[k], &cell)) return false;
      words_[k] = cell.Word();
      exact_ = exact_ && cell.Exact();
    }
    ++stats_->keys_encoded;
    stats_->bytes_encoded += 8 * cols.size();
    return true;
  }

  /// The first candidate from `r` on whose key equals the probe row's.
  uint32_t Match(uint32_t r) {
    while (r != WordKeyIndex::kNil && !(exact_ && index_.Exact(r)) &&
           !Verify(r)) {
      r = index_.NextRow(r);
    }
    return r;
  }

  /// Whether build row r's key segments equal the probe row's.
  bool Verify(uint32_t r) {
    ++stats_->keys_verified;
    for (size_t k = 0; k < probe_cols_.size(); ++k) {
      KeyCell a, b;
      probe_.KeyCellAt(probe_row_, probe_cols_[k], &a);
      build_.KeyCellAt(r, build_cols_[k], &b);
      if (!a.SameSegment(b)) return false;
    }
    return true;
  }

  const Side& probe_;
  const Side& build_;
  std::vector<size_t> probe_cols_;
  std::vector<size_t> build_cols_;
  ExecStats* stats_;
  WordKeyIndex index_;
  std::vector<uint64_t> words_;  // the key being built or probed
  bool exact_ = true;
  size_t probe_row_ = 0;
};

/// ids[rows[i]] for each i; a kNil row gathers as kNil (outer-join padding).
std::vector<uint32_t> Gather(const std::vector<uint32_t>& ids,
                             const std::vector<uint32_t>& rows) {
  std::vector<uint32_t> out(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    out[i] = rows[i] == WordKeyIndex::kNil ? WordKeyIndex::kNil
                                           : ids[rows[i]];
  }
  return out;
}

std::vector<uint32_t> Iota(size_t n) {
  std::vector<uint32_t> ids(n);
  std::iota(ids.begin(), ids.end(), 0u);
  return ids;
}

void EncodeOrdered(const Value& v, bool descending, std::string* out) {
  if (descending) {
    EncodeValueDescending(v, out);
  } else {
    EncodeValue(v, out);
  }
}

const Value kNullValue;

/// Whether a derived table runs as a batch inlined into its parent's
/// (DESIGN.md §10): one SELECT core with a FROM list and no ORDER BY,
/// whose items are columns or read no column. UNION ALL, ORDER BY, a
/// computed item or a missing FROM materializes it into a Relation.
bool InlinesAsBatch(const sql::Query& query) {
  if (query.cores.size() != 1 || !query.order_by.empty()) return false;
  const sql::SelectCore& core = query.cores[0];
  if (core.from.empty()) return false;
  return std::all_of(core.select_list.begin(), core.select_list.end(),
                     [](const sql::SelectItem& item) {
                       if (item.expr->kind() == Expr::Kind::kColumnRef) {
                         return true;
                       }
                       std::vector<const sql::ColumnRefExpr*> refs;
                       CollectColumnRefs(*item.expr, &refs);
                       return refs.empty();
                     });
}

}  // namespace

// ---------------------------------------------------------------------------
// The row-id batch and its helpers (DESIGN.md §10)
// ---------------------------------------------------------------------------

/// A row-id batch, the executor's only intermediate. Each source is a base
/// table read in place or an owned relation (a derived table's result
/// that materializes), and has one id column: `ids[s][i]` is the source-s
/// row behind batch row i, or kNullRow for the NULL row an outer join pads
/// with. Batch column c is column `cols[c].col` of source `cols[c].source`,
/// or a constant column: an inlined derived table's literal item, whose
/// value the column holds and reads while `source` (that table's first
/// source) has a row, NULL on the padding. Joins and filters only move ids;
/// cells are read, encoded, or copied straight from the sources.
struct QueryExecutor::Input {
  static constexpr uint32_t kNullRow = WordKeyIndex::kNil;
  struct Source {
    const Table* table = nullptr;         // a borrowed base table, or
    std::shared_ptr<const Relation> rel;  // an owned relation
  };
  struct Column {
    uint32_t source;
    uint32_t col;
    std::optional<Value> constant;  // set: a constant column
  };

  RelSchema schema;
  std::vector<Source> sources;
  std::vector<std::vector<uint32_t>> ids;
  std::vector<Column> cols;
  size_t rows = 0;

  /// The columns of `table`, qualified by `binding`; no rows until
  /// ScanBaseTable selects them.
  static Input Borrow(const Table* table, const std::string& binding) {
    Input in;
    const auto& columns = table->schema().columns();
    for (size_t c = 0; c < columns.size(); ++c) {
      in.schema.Add({binding, columns[c].name});
      in.cols.push_back({0, static_cast<uint32_t>(c), std::nullopt});
    }
    in.sources.push_back({table, nullptr});
    in.ids.emplace_back();
    return in;
  }

  /// Every row of `rel`, which the batch takes over.
  static Input Own(Relation rel) {
    Input in;
    in.schema = std::move(rel.schema);
    for (size_t c = 0; c < in.schema.size(); ++c) {
      in.cols.push_back({0, static_cast<uint32_t>(c), std::nullopt});
    }
    in.rows = rel.rows.size();
    in.ids.push_back(Iota(in.rows));
    in.sources.push_back(
        {nullptr, std::make_shared<const Relation>(std::move(rel))});
    return in;
  }

  /// Row i pairs left row lrows[i] with right row rrows[i] (kNullRow: the
  /// right side's NULL row). Sources are shared, not copied.
  static Input Join(const Input& left, const Input& right,
                    const std::vector<uint32_t>& lrows,
                    const std::vector<uint32_t>& rrows) {
    Input out;
    out.schema = RelSchema::Concat(left.schema, right.schema);
    out.sources = left.sources;
    out.sources.insert(out.sources.end(), right.sources.begin(),
                       right.sources.end());
    out.cols = left.cols;
    const auto offset = static_cast<uint32_t>(left.sources.size());
    for (const Column& c : right.cols) {
      out.cols.push_back({c.source + offset, c.col, c.constant});
    }
    for (const auto& column : left.ids) {
      out.ids.push_back(Gather(column, lrows));
    }
    for (const auto& column : right.ids) {
      out.ids.push_back(Gather(column, rrows));
    }
    out.rows = lrows.size();
    return out;
  }

  size_t size() const { return rows; }

  /// Keeps rows `keep` (batch row indices), in that order.
  void Keep(const std::vector<uint32_t>& keep) {
    for (auto& column : ids) column = Gather(column, keep);
    rows = keep.size();
  }

  /// The table column behind `col`, or nullptr for a constant column or
  /// an owned relation's column (whose cells are Values: see Held).
  const ColumnVector* TableColumn(const Column& col) const {
    const Table* table = sources[col.source].table;
    return !col.constant && table != nullptr
               ? &table->column(col.col)
               : nullptr;
  }
  /// Cell `id` of a column TableColumn declines; kNullRow reads NULL.
  const Value& Held(const Column& col, uint32_t id) const {
    if (id == kNullRow) return kNullValue;
    return col.constant ? *col.constant
                        : sources[col.source].rel->rows[id].values()[col.col];
  }

  /// Cell (i, c), representation-exact.
  Value Cell(size_t i, size_t c) const {
    const Column& col = cols[c];
    const uint32_t id = ids[col.source][i];
    const ColumnVector* column = TableColumn(col);
    return column != nullptr && id != kNullRow ? column->ValueAt(id)
                                               : Held(col, id);
  }

  /// Join-key cell (i, c), or false when it is NULL.
  bool KeyCellAt(size_t i, size_t c, KeyCell* out) const {
    const Column& col = cols[c];
    const uint32_t id = ids[col.source][i];
    if (id == kNullRow) return false;
    if (const ColumnVector* column = TableColumn(col)) {
      if (column->IsNull(id)) return false;
      *out = KeyCell::Of(*column, id);
      return true;
    }
    const Value& v = Held(col, id);
    if (v.is_null()) return false;
    *out = KeyCell::Of(v);
    return true;
  }

  /// Column c's sort words (SortWord), XORed with `flip`: row i's at
  /// out[i * stride]. False at the first cell no word carries.
  bool SortWords(size_t c, uint64_t flip, uint64_t* out,
                 size_t stride) const {
    const Column& col = cols[c];
    const std::vector<uint32_t>& id = ids[col.source];
    const ColumnVector* column = TableColumn(col);
    for (size_t i = 0; i < rows; ++i, out += stride) {
      const uint32_t r = id[i];
      KeyCell cell;
      bool null = r == kNullRow;
      if (!null && column != nullptr) {
        null = column->IsNull(r);
        if (!null) cell = KeyCell::Of(*column, r);
      } else if (!null) {
        const Value& v = Held(col, r);
        null = v.is_null();
        if (!null) cell = KeyCell::Of(v);
      }
      if (!SortWord(null ? nullptr : &cell, out)) return false;
      *out ^= flip;
    }
    return true;
  }

  /// Appends the sort-key encoding of cell (i, c).
  void EncodeCell(size_t i, size_t c, bool descending,
                  std::string* out) const {
    const Column& col = cols[c];
    const uint32_t id = ids[col.source][i];
    const ColumnVector* column = TableColumn(col);
    if (column != nullptr && id != kNullRow) {
      if (descending) {
        EncodeColumnValueDescending(*column, id, out);
      } else {
        EncodeColumnValue(*column, id, out);
      }
      return;
    }
    EncodeOrdered(Held(col, id), descending, out);
  }
};

/// Expressions bound against a batch schema — or the concatenation of two,
/// for join predicates — evaluated on one reused scratch Tuple that holds
/// only the columns they read.
class QueryExecutor::RowExprs {
 public:
  Status Add(const Expr& e, const RelSchema& schema) {
    SILK_ASSIGN_OR_RETURN(BoundExprPtr bound, BindExpr(e, schema));
    exprs_.push_back(std::move(bound));
    std::vector<const sql::ColumnRefExpr*> refs;
    CollectColumnRefs(e, &refs);
    for (const auto* ref : refs) {
      // Binding succeeded, so every reference resolves.
      const size_t c = *schema.Resolve(ref->qualifier(), ref->name());
      if (std::find(read_.begin(), read_.end(), c) == read_.end()) {
        read_.push_back(c);
      }
    }
    if (scratch_.size() != schema.size()) scratch_ = Tuple(schema.size());
    return Status::OK();
  }

  bool empty() const { return exprs_.empty(); }
  size_t size() const { return exprs_.size(); }

  /// Loads the read columns through `cell(c)` into the scratch row.
  template <typename CellFn>
  const Tuple& LoadWith(const CellFn& cell) {
    for (size_t c : read_) scratch_[c] = cell(c);
    return scratch_;
  }
  const Tuple& Load(const Input& in, size_t i) {
    return LoadWith([&](size_t c) { return in.Cell(i, c); });
  }
  /// Left row l beside right row r (kNullRow: the right NULL row).
  const Tuple& Load(const Input& left, size_t l, const Input& right,
                    uint32_t r) {
    const size_t width = left.schema.size();
    return LoadWith([&](size_t c) {
      if (c < width) return left.Cell(l, c);
      return r == Input::kNullRow ? Value::Null() : right.Cell(r, c - width);
    });
  }

  Value Eval(size_t k, const Tuple& row) const { return exprs_[k]->Eval(row); }
  /// Every expression tests kTrue.
  bool AllTrue(const Tuple& row) const {
    for (const auto& e : exprs_) {
      if (e->Test(row) != Tribool::kTrue) return false;
    }
    return true;
  }
  bool Test(const Input& in, size_t i) { return AllTrue(Load(in, i)); }
  bool Test(const Input& left, size_t l, const Input& right, uint32_t r) {
    return AllTrue(Load(left, l, right, r));
  }
  /// The first failed expression's status (BoundExpr::status).
  Status status() const {
    for (const auto& e : exprs_) SILK_RETURN_IF_ERROR(e->status());
    return Status::OK();
  }

 private:
  std::vector<BoundExprPtr> exprs_;
  std::vector<size_t> read_;
  Tuple scratch_;
};

/// One SELECT core, joined and filtered but not projected: the batch plus,
/// per select item, where its values come from.
struct QueryExecutor::Core {
  /// Where a select item's values come from: batch column `index`,
  /// expression `index` of `exprs`, or `constants[index]`.
  struct Item {
    enum class Kind { kColumn, kExpr, kConstant } kind;
    size_t index;
  };

  Input in;
  RelSchema schema;  // the select list's output columns
  std::vector<Item> items;
  RowExprs exprs;
  std::vector<Value> constants;
  bool distinct = false;

  /// Output cell (i, j).
  Value ItemValue(size_t i, size_t j) {
    const Item& item = items[j];
    switch (item.kind) {
      case Item::Kind::kColumn:
        return in.Cell(i, item.index);
      case Item::Kind::kExpr:
        return exprs.Eval(item.index, exprs.Load(in, i));
      case Item::Kind::kConstant:
        break;
    }
    return constants[item.index];
  }

  /// Appends the ascending key encoding of output cell (i, j).
  void EncodeItem(size_t i, size_t j, std::string* out) {
    const Item& item = items[j];
    if (item.kind == Item::Kind::kColumn) {
      in.EncodeCell(i, item.index, false, out);
    } else {
      EncodeValue(ItemValue(i, j), out);
    }
  }

  /// The core as derived table `alias`, inlined (InlinesAsBatch holds, so
  /// every item is a column or a constant): item j becomes batch column j,
  /// a constant item a constant column of the core's first source. That
  /// source is never padded inside the core, because every join pads only
  /// its right side, so it has a row exactly when the derived row exists.
  Input TakeAsDerived(const std::string& alias) && {
    Input out = std::move(in);
    std::vector<Input::Column> cols;
    cols.reserve(items.size());
    for (const Item& item : items) {
      cols.push_back(item.kind == Item::Kind::kColumn
                         ? out.cols[item.index]
                         : Input::Column{0, 0, constants[item.index]});
    }
    out.cols = std::move(cols);
    out.schema = schema.WithQualifier(alias);
    return out;
  }
};

// ---------------------------------------------------------------------------
// QueryExecutor
// ---------------------------------------------------------------------------

Result<Rows> QueryExecutor::ParseAndExecute(std::string_view sql_text) {
  // The timeout caps each query, not the executor: re-arm the deadline so a
  // reused executor does not charge query N+1 for query N's elapsed time.
  has_deadline_ = false;
  SILK_ASSIGN_OR_RETURN(sql::QueryPtr q, sql::ParseQuery(sql_text));
  return Execute(*q);
}

void QueryExecutor::AnnotateSpan(size_t result_rows) const {
  // Attach this query's physical-plan counters to the enclosing attempt
  // span, if one is installed (the string building is gated on the span so
  // untraced runs pay only the thread-local load).
  if (obs::CurrentSpan() == nullptr) return;
  obs::AnnotateCurrent("rows_scanned", std::to_string(stats_.rows_scanned));
  obs::AnnotateCurrent("rows_joined", std::to_string(stats_.rows_joined));
  obs::AnnotateCurrent("cells_materialized",
                       std::to_string(stats_.cells_materialized));
  obs::AnnotateCurrent("hash_joins", std::to_string(stats_.hash_joins));
  obs::AnnotateCurrent("nested_loop_joins",
                       std::to_string(stats_.nested_loop_joins));
  obs::AnnotateCurrent("keys_encoded", std::to_string(stats_.keys_encoded));
  obs::AnnotateCurrent("bytes_encoded", std::to_string(stats_.bytes_encoded));
  obs::AnnotateCurrent("keys_verified", std::to_string(stats_.keys_verified));
  obs::AnnotateCurrent("sorts_in_order", std::to_string(stats_.sorts_in_order));
  obs::AnnotateCurrent("result_rows", std::to_string(result_rows));
}

Result<Relation> QueryExecutor::ExecuteSql(std::string_view sql_text) {
  SILK_ASSIGN_OR_RETURN(Rows rows, ParseAndExecute(sql_text));
  Relation relation = Materialize(std::move(rows));
  AnnotateSpan(relation.rows.size());
  return relation;
}

Result<Rows> QueryExecutor::ExecuteRows(std::string_view sql_text,
                                        double timeout_ms,
                                        CancelToken* cancel) {
  (void)cancel;
  timeout_ms_ = timeout_ms;
  SILK_ASSIGN_OR_RETURN(Rows rows, ParseAndExecute(sql_text));
  AnnotateSpan(rows.size());
  return rows;
}

Relation QueryExecutor::Materialize(Rows rows) {
  Relation relation = std::move(rows).ToRelation();
  stats_.cells_materialized += relation.rows.size() * relation.schema.size();
  return relation;
}

Status QueryExecutor::CheckDeadline() const {
  if (!has_deadline_) return Status::OK();
  if (std::chrono::steady_clock::now() > deadline_) {
    return Status::Timeout("query exceeded " +
                           std::to_string(timeout_ms_) + " ms");
  }
  return Status::OK();
}

Result<Rows> QueryExecutor::Execute(const sql::Query& query) {
  if (query.cores.empty()) {
    return Status::InvalidArgument("query has no SELECT cores");
  }
  if (timeout_ms_ > 0 && !has_deadline_) {
    has_deadline_ = true;
    deadline_ = std::chrono::steady_clock::now() +
                std::chrono::microseconds(
                    static_cast<int64_t>(timeout_ms_ * 1000));
  }
  std::vector<Core> cores;
  cores.reserve(query.cores.size());
  for (const auto& select : query.cores) {
    SILK_ASSIGN_OR_RETURN(Core core, ExecuteCore(select));
    if (!cores.empty() && core.items.size() != cores[0].items.size()) {
      return Status::InvalidArgument(
          "UNION operands have different arities (" +
          std::to_string(cores[0].items.size()) + " vs " +
          std::to_string(core.items.size()) + ")");
    }
    cores.push_back(std::move(core));
  }
  Rows rows;
  rows.schema_ = cores[0].schema;
  for (const Core& core : cores) rows.size_ += core.in.size();
  if (!query.order_by.empty()) {
    SILK_ASSIGN_OR_RETURN(rows.order_, SortRows(query.order_by, cores));
  }
  // Computed items are evaluated again when the rows are bound, which
  // cannot fail: evaluate them once here, so that arithmetic on a
  // non-numeric value is this query's error.
  for (Core& core : cores) {
    if (core.exprs.empty()) continue;
    for (size_t i = 0; i < core.in.size(); ++i) {
      SILK_RETURN_IF_ERROR(Tick());
      for (size_t j = 0; j < core.items.size(); ++j) {
        if (core.items[j].kind == Core::Item::Kind::kExpr) {
          (void)core.ItemValue(i, j);
        }
      }
    }
    SILK_RETURN_IF_ERROR(core.exprs.status());
  }
  rows.cores_ = std::move(cores);
  return rows;
}

Result<QueryExecutor::Core> QueryExecutor::ExecuteCore(
    const sql::SelectCore& select) {
  Core core;
  SILK_ASSIGN_OR_RETURN(core.in, JoinFromList(select));
  const RelSchema& in_schema = core.in.schema;
  if (select.select_star) {
    core.schema = in_schema;
    for (size_t c = 0; c < in_schema.size(); ++c) {
      core.items.push_back({Core::Item::Kind::kColumn, c});
    }
  }
  // Each item resolves once: a column ref to its batch column, an item
  // that reads no column (`1 as L1`, `NULL as v`) to its value, anything
  // else to an expression evaluated per row.
  for (const auto& item : select.select_list) {
    const Expr& e = *item.expr;
    std::vector<const sql::ColumnRefExpr*> refs;
    CollectColumnRefs(e, &refs);
    if (e.kind() == Expr::Kind::kColumnRef) {
      const auto& c = static_cast<const sql::ColumnRefExpr&>(e);
      SILK_ASSIGN_OR_RETURN(size_t idx,
                            in_schema.Resolve(c.qualifier(), c.name()));
      core.items.push_back({Core::Item::Kind::kColumn, idx});
    } else if (refs.empty()) {
      SILK_ASSIGN_OR_RETURN(BoundExprPtr bound, BindExpr(e, in_schema));
      core.items.push_back(
          {Core::Item::Kind::kConstant, core.constants.size()});
      core.constants.push_back(bound->Eval(Tuple()));
      SILK_RETURN_IF_ERROR(bound->status());
    } else {
      core.items.push_back({Core::Item::Kind::kExpr, core.exprs.size()});
      SILK_RETURN_IF_ERROR(core.exprs.Add(e, in_schema));
    }
    if (!item.alias.empty()) {
      core.schema.Add({"", item.alias});
    } else if (e.kind() == Expr::Kind::kColumnRef) {
      const auto& c = static_cast<const sql::ColumnRefExpr&>(e);
      core.schema.Add({c.qualifier(), c.name()});
    } else {
      core.schema.Add({"", "col" + std::to_string(core.schema.size() + 1)});
    }
  }
  core.distinct = select.distinct;
  if (select.distinct) {
    // Dedup on packed whole-row keys encoded straight from the batch: each
    // row is encoded once into a contiguous byte string, so hashing and
    // equality are single byte passes. NULL == NULL here (Tuple::Compare
    // identity, not SqlEquals); the first row of each group survives.
    KeyArena arena;
    std::unordered_set<std::string_view> seen;
    seen.reserve(core.in.size());
    std::vector<uint32_t> keep;
    std::string scratch;
    for (size_t i = 0; i < core.in.size(); ++i) {
      SILK_RETURN_IF_ERROR(Tick());
      scratch.clear();
      for (size_t j = 0; j < core.items.size(); ++j) {
        core.EncodeItem(i, j, &scratch);
      }
      ++stats_.keys_encoded;
      stats_.bytes_encoded += scratch.size();
      if (seen.find(scratch) == seen.end()) {
        seen.insert(arena.Intern(scratch));
        keep.push_back(static_cast<uint32_t>(i));
      }
    }
    core.in.Keep(keep);
  }
  return core;
}

Result<QueryExecutor::Input> QueryExecutor::JoinFromList(
    const sql::SelectCore& core) {
  if (core.from.empty()) {
    // `select <literals>`: one row of no columns.
    Input none;
    none.rows = 1;
    return none;
  }

  // Evaluate each FROM item. Base tables stay in place: the pushdown
  // filters below scan them into ascending row-id selections.
  std::vector<Input> items;
  std::vector<bool> is_base;
  items.reserve(core.from.size());
  for (const auto& ref : core.from) {
    is_base.push_back(ref->kind() == sql::TableRef::Kind::kBaseTable);
    if (is_base.back()) {
      const auto& base = static_cast<const sql::BaseTableRef&>(*ref);
      SILK_ASSIGN_OR_RETURN(const Table* table, db_->GetTable(base.table()));
      items.push_back(Input::Borrow(table, base.binding_name()));
      continue;
    }
    SILK_ASSIGN_OR_RETURN(Input item, EvalTableRef(*ref));
    items.push_back(std::move(item));
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

  // Push single-item filters down: a base table scans into a selection,
  // other items filter their own rows.
  for (size_t i = 0; i < items.size(); ++i) {
    SILK_RETURN_IF_ERROR(is_base[i] ? ScanBaseTable(pushdown[i], &items[i])
                                    : FilterRows(pushdown[i], &items[i]));
  }

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
      // the deadline (checked on emitted rows) is what bounds it.
      std::vector<uint32_t> lrows, rrows;
      for (uint32_t l = 0; l < current.size(); ++l) {
        for (uint32_t r = 0; r < right.size(); ++r) {
          SILK_RETURN_IF_ERROR(Tick());
          lrows.push_back(l);
          rrows.push_back(r);
        }
      }
      current = Input::Join(current, right, lrows, rrows);
    } else {
      // Gather all usable predicates between the joined set and `cand`.
      std::vector<std::pair<size_t, size_t>> keys;
      for (auto& p : join_preds) {
        if (!pred_connects(p, cand)) continue;
        const sql::ColumnRefExpr* left_ref =
            joined[static_cast<size_t>(p.item_a)] ? p.ref_a : p.ref_b;
        const sql::ColumnRefExpr* right_ref =
            joined[static_cast<size_t>(p.item_a)] ? p.ref_b : p.ref_a;
        auto li = current.schema.Resolve(left_ref->qualifier(),
                                         left_ref->name());
        auto ri =
            right.schema.Resolve(right_ref->qualifier(), right_ref->name());
        if (!li.ok() || !ri.ok()) continue;
        keys.emplace_back(*li, *ri);
        p.used = true;
      }
      SILK_ASSIGN_OR_RETURN(current, HashJoin(sql::JoinType::kInner, current,
                                              right, keys, {}, {}));
    }
    joined[cand] = true;
    ++num_joined;
  }

  // Residual predicates (including any join predicates never used).
  for (const auto& p : join_preds) {
    if (!p.used) residual.push_back(p.expr);
  }
  SILK_RETURN_IF_ERROR(FilterRows(residual, &current));
  return current;
}

Status QueryExecutor::FilterRows(const std::vector<const Expr*>& filters,
                                 Input* in) {
  if (filters.empty()) return Status::OK();
  RowExprs preds;
  for (const Expr* e : filters) {
    SILK_RETURN_IF_ERROR(preds.Add(*e, in->schema));
  }
  std::vector<uint32_t> keep;
  for (size_t i = 0; i < in->size(); ++i) {
    SILK_RETURN_IF_ERROR(Tick());
    if (preds.Test(*in, i)) keep.push_back(static_cast<uint32_t>(i));
  }
  SILK_RETURN_IF_ERROR(preds.status());
  in->Keep(keep);
  return Status::OK();
}

Status QueryExecutor::ScanBaseTable(
    const std::vector<const sql::Expr*>& filters, Input* in) {
  const Table& table = *in->sources[0].table;
  const size_t n = table.num_rows();
  stats_.rows_scanned += n;
  std::vector<ColPred> preds;
  if (filters.empty() || !CompileColumnPreds(filters, in->schema, &preds)) {
    in->ids[0] = Iota(n);
    in->rows = n;
    return FilterRows(filters, in);
  }
  std::vector<uint32_t> selection;
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
  in->ids[0] = std::move(selection);
  in->rows = in->ids[0].size();
  return Status::OK();
}

Result<QueryExecutor::Input> QueryExecutor::EvalTableRef(
    const sql::TableRef& ref) {
  switch (ref.kind()) {
    case sql::TableRef::Kind::kBaseTable: {
      const auto& base = static_cast<const sql::BaseTableRef&>(ref);
      SILK_ASSIGN_OR_RETURN(const Table* table, db_->GetTable(base.table()));
      Input in = Input::Borrow(table, base.binding_name());
      SILK_RETURN_IF_ERROR(ScanBaseTable({}, &in));
      return in;
    }
    case sql::TableRef::Kind::kDerivedTable: {
      const auto& derived = static_cast<const sql::DerivedTableRef&>(ref);
      // Execute and ExecuteCore keep no per-query state beyond the counters
      // and the already-armed deadline, so the subquery runs on this
      // executor and its counters accumulate into this query's.
      if (InlinesAsBatch(derived.query())) {
        SILK_ASSIGN_OR_RETURN(Core core,
                              ExecuteCore(derived.query().cores[0]));
        return std::move(core).TakeAsDerived(derived.alias());
      }
      SILK_ASSIGN_OR_RETURN(Rows rows, Execute(derived.query()));
      Relation rel = Materialize(std::move(rows));
      SILK_RETURN_IF_ERROR(CheckDeadline());
      rel.schema = rel.schema.WithQualifier(derived.alias());
      return Input::Own(std::move(rel));
    }
    case sql::TableRef::Kind::kJoin:
      return EvalJoin(static_cast<const sql::JoinRef&>(ref));
  }
  return Status::Internal("unknown table ref kind");
}

Result<QueryExecutor::Input> QueryExecutor::EvalJoin(const sql::JoinRef& join) {
  SILK_ASSIGN_OR_RETURN(Input left, EvalTableRef(join.left()));
  SILK_ASSIGN_OR_RETURN(Input right, EvalTableRef(join.right()));
  const sql::JoinType type = join.join_type();
  const sql::Expr& on = join.on();

  // Case 1: conjunction with at least one column equality -> hash join.
  // The other conjuncts split by side: one naming only the build side
  // filters it before indexing, one naming only the probe side gates
  // matching (an outer join still pads the row), the rest test each
  // candidate pair.
  std::vector<const Expr*> conjuncts;
  CollectConjuncts(on, &conjuncts);
  std::vector<std::pair<size_t, size_t>> keys;
  std::vector<const Expr*> probe_only, build_only, residual;
  const std::vector<const RelSchema*> schemas = {&left.schema, &right.schema};
  for (const Expr* c : conjuncts) {
    std::pair<size_t, size_t> key;
    if (CrossSideEquality(*c, left.schema, right.schema, &key)) {
      keys.push_back(key);
      continue;
    }
    switch (SoleReferencedRelation(*c, schemas)) {
      case 0:
        probe_only.push_back(c);
        break;
      case 1:
        build_only.push_back(c);
        break;
      default:
        residual.push_back(c);
    }
  }
  if (!keys.empty()) {
    SILK_RETURN_IF_ERROR(FilterRows(build_only, &right));
    return HashJoin(type, left, right, keys, probe_only, residual);
  }

  // Case 2: OR of conjunctions, each with column equalities -> disjunctive
  // hash join (the unified outer-join query shape).
  auto result = DisjunctiveHashJoin(type, left, right, on);
  if (result.ok()) return result;
  // fall through to nested loop on decomposition failure
  return NestedLoopJoin(type, left, right, on);
}

Result<QueryExecutor::Input> QueryExecutor::HashJoin(
    sql::JoinType type, const Input& left, const Input& right,
    const std::vector<std::pair<size_t, size_t>>& keys,
    const std::vector<const Expr*>& probe_only,
    const std::vector<const Expr*>& residual) {
  RowExprs gate;
  for (const Expr* e : probe_only) {
    SILK_RETURN_IF_ERROR(gate.Add(*e, left.schema));
  }
  RowExprs pair_preds;
  if (!residual.empty()) {
    const RelSchema both = RelSchema::Concat(left.schema, right.schema);
    for (const Expr* e : residual) {
      SILK_RETURN_IF_ERROR(pair_preds.Add(*e, both));
    }
  }

  std::vector<size_t> probe_cols, build_cols;
  for (const auto& [li, ri] : keys) {
    probe_cols.push_back(li);
    build_cols.push_back(ri);
  }
  EquiJoinIndex<Input> join(left, std::move(probe_cols), right,
                            std::move(build_cols), &stats_,
                            [](size_t) { return true; });
  ++stats_.hash_joins;
  std::vector<uint32_t> lrows, rrows;
  for (uint32_t l = 0; l < left.size(); ++l) {
    SILK_RETURN_IF_ERROR(Tick());
    bool matched = false;
    if (gate.empty() || gate.Test(left, l)) {
      for (uint32_t r = join.First(l); r != WordKeyIndex::kNil;
           r = join.Next(r)) {
        if (!pair_preds.empty() && !pair_preds.Test(left, l, right, r)) {
          continue;
        }
        SILK_RETURN_IF_ERROR(Tick());
        matched = true;
        lrows.push_back(l);
        rrows.push_back(r);
      }
    }
    if (!matched && type == sql::JoinType::kLeftOuter) {
      lrows.push_back(l);
      rrows.push_back(Input::kNullRow);
    }
  }
  SILK_RETURN_IF_ERROR(gate.status());
  SILK_RETURN_IF_ERROR(pair_preds.status());
  stats_.rows_joined += lrows.size();
  return Input::Join(left, right, lrows, rrows);
}

Result<QueryExecutor::Input> QueryExecutor::DisjunctiveHashJoin(
    sql::JoinType type, const Input& left, const Input& right,
    const sql::Expr& on) {
  std::vector<const Expr*> disjuncts;
  CollectDisjuncts(on, &disjuncts);
  if (disjuncts.size() < 2) {
    return Status::Unimplemented("not a disjunction");
  }

  struct Disjunct {
    std::vector<size_t> left_cols;   // key columns on the probe side
    std::vector<size_t> right_cols;  // key columns on the build side
    RowExprs left_filters;
    RowExprs right_filters;
  };
  std::vector<Disjunct> plans(disjuncts.size());
  const std::vector<const RelSchema*> schemas = {&left.schema, &right.schema};
  for (size_t d = 0; d < disjuncts.size(); ++d) {
    Disjunct& plan = plans[d];
    std::vector<const Expr*> conjuncts;
    CollectConjuncts(*disjuncts[d], &conjuncts);
    for (const Expr* c : conjuncts) {
      std::pair<size_t, size_t> key;
      if (CrossSideEquality(*c, left.schema, right.schema, &key)) {
        plan.left_cols.push_back(key.first);
        plan.right_cols.push_back(key.second);
        continue;
      }
      // Single-side predicate?
      const int sole = SoleReferencedRelation(*c, schemas);
      if (sole == 0) {
        SILK_RETURN_IF_ERROR(plan.left_filters.Add(*c, left.schema));
      } else if (sole == 1) {
        SILK_RETURN_IF_ERROR(plan.right_filters.Add(*c, right.schema));
      } else {
        return Status::Unimplemented(
            "disjunct has a cross-side non-equality predicate");
      }
    }
    if (plan.left_cols.empty()) {
      return Status::Unimplemented("disjunct has no column equality");
    }
  }

  // One index per disjunct, over the build rows its filters keep.
  std::vector<EquiJoinIndex<Input>> indexes;
  indexes.reserve(plans.size());
  for (Disjunct& plan : plans) {
    indexes.emplace_back(left, plan.left_cols, right, plan.right_cols, &stats_,
                         [&](size_t r) {
                           return plan.right_filters.empty() ||
                                  plan.right_filters.Test(right, r);
                         });
  }

  ++stats_.hash_joins;
  std::vector<uint32_t> lrows, rrows, match_ids;
  for (uint32_t l = 0; l < left.size(); ++l) {
    SILK_RETURN_IF_ERROR(Tick());
    match_ids.clear();
    for (size_t d = 0; d < plans.size(); ++d) {
      RowExprs& gate = plans[d].left_filters;
      if (!gate.empty() && !gate.Test(left, l)) continue;
      for (uint32_t r = indexes[d].First(l); r != WordKeyIndex::kNil;
           r = indexes[d].Next(r)) {
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
    if (match_ids.empty() && type == sql::JoinType::kLeftOuter) {
      match_ids.push_back(Input::kNullRow);
    }
    for (uint32_t r : match_ids) {
      SILK_RETURN_IF_ERROR(Tick());
      lrows.push_back(l);
      rrows.push_back(r);
    }
  }
  for (const Disjunct& plan : plans) {
    SILK_RETURN_IF_ERROR(plan.left_filters.status());
    SILK_RETURN_IF_ERROR(plan.right_filters.status());
  }
  stats_.rows_joined += lrows.size();
  return Input::Join(left, right, lrows, rrows);
}

Result<QueryExecutor::Input> QueryExecutor::NestedLoopJoin(
    sql::JoinType type, const Input& left, const Input& right,
    const sql::Expr& on) {
  RowExprs pred;
  SILK_RETURN_IF_ERROR(
      pred.Add(on, RelSchema::Concat(left.schema, right.schema)));
  ++stats_.nested_loop_joins;
  std::vector<uint32_t> lrows, rrows;
  for (uint32_t l = 0; l < left.size(); ++l) {
    SILK_RETURN_IF_ERROR(Tick());
    bool matched = false;
    for (uint32_t r = 0; r < right.size(); ++r) {
      SILK_RETURN_IF_ERROR(Tick());
      if (pred.Test(left, l, right, r)) {
        matched = true;
        lrows.push_back(l);
        rrows.push_back(r);
      }
    }
    if (!matched && type == sql::JoinType::kLeftOuter) {
      lrows.push_back(l);
      rrows.push_back(Input::kNullRow);
    }
  }
  SILK_RETURN_IF_ERROR(pred.status());
  stats_.rows_joined += lrows.size();
  return Input::Join(left, right, lrows, rrows);
}

Result<std::vector<uint32_t>> QueryExecutor::SortRows(
    const std::vector<sql::OrderItem>& order_by, std::vector<Core>& cores) {
  // Rows are numbered across the cores of a UNION: core k's row i is
  // `first[k] + i`. The sort permutes those numbers; no row moves.
  std::vector<size_t> first(cores.size() + 1, 0);
  for (size_t k = 0; k < cores.size(); ++k) {
    first[k + 1] = first[k] + cores[k].in.size();
  }
  const size_t n = first.back();

  // Resolve every key per core: against the output schema first, whose
  // column j is each core's item j; a single core without DISTINCT may
  // also sort on its input columns.
  struct KeySource {
    int col = -1;                       // a batch column, or
    const Value* constant = nullptr;    // a constant, or
    std::function<Value(size_t)> eval;  // a value computed per row
  };
  const RelSchema& out_schema = cores[0].schema;
  std::vector<std::vector<KeySource>> keys(cores.size());
  std::vector<std::unique_ptr<RowExprs>> computed;  // the evals' bindings
  for (size_t k = 0; k < cores.size(); ++k) {
    Core& core = cores[k];
    const bool input_keys = cores.size() == 1 && !core.distinct;
    for (const auto& o : order_by) {
      KeySource cell;
      bool found = false;
      if (o.expr->kind() == Expr::Kind::kColumnRef) {
        const auto& c = static_cast<const sql::ColumnRefExpr&>(*o.expr);
        auto idx = out_schema.Resolve(c.qualifier(), c.name());
        if (idx.ok()) {
          const size_t j = *idx;
          const Core::Item& item = core.items[j];
          switch (item.kind) {
            case Core::Item::Kind::kColumn:
              cell.col = static_cast<int>(item.index);
              break;
            case Core::Item::Kind::kExpr:
              cell.eval = [&core, j](size_t i) { return core.ItemValue(i, j); };
              break;
            case Core::Item::Kind::kConstant:
              cell.constant = &core.constants[item.index];
          }
          found = true;
        } else if (input_keys) {
          idx = core.in.schema.Resolve(c.qualifier(), c.name());
          if (idx.ok()) {
            cell.col = static_cast<int>(*idx);
            found = true;
          }
        }
      }
      if (!found) {
        auto exprs = std::make_unique<RowExprs>();
        RowExprs* e = exprs.get();
        if (e->Add(*o.expr, out_schema).ok()) {
          cell.eval = [e, &core](size_t i) {
            return e->Eval(0, e->LoadWith([&](size_t j) {
              return core.ItemValue(i, j);
            }));
          };
          found = true;
        } else if (input_keys && e->Add(*o.expr, core.in.schema).ok()) {
          cell.eval = [e, &core](size_t i) {
            return e->Eval(0, e->Load(core.in, i));
          };
          found = true;
        }
        computed.push_back(std::move(exprs));
      }
      if (!found) {
        return Status::InvalidArgument("cannot resolve ORDER BY key '" +
                                       o.expr->ToSql() + "'");
      }
      keys[k].push_back(std::move(cell));
    }
  }
  // Every row of one core ties on a constant key (a literal item such as
  // `L1`), so it cannot change the order: sort on the other keys only.
  std::vector<size_t> used;
  for (size_t j = 0; j < order_by.size(); ++j) {
    if (cores.size() > 1 || keys[0][j].constant == nullptr) used.push_back(j);
  }
  auto value_of = [&](size_t k, const KeySource& cell, size_t i) {
    if (cell.col >= 0) {
      return cores[k].in.Cell(i, static_cast<size_t>(cell.col));
    }
    return cell.constant != nullptr ? *cell.constant : cell.eval(i);
  };

  stats_.rows_sorted += n;
  stats_.keys_encoded += n;

  // The keys as words (DESIGN.md §10), read column by column straight from
  // the batch: row g's words at [g * width, +width), DESC ones
  // complemented, so unsigned word order is the codec's byte order.
  const size_t width = used.size();
  std::vector<uint64_t> words(n * width);
  bool on_words = true;
  for (size_t w = 0; w < width && on_words; ++w) {
    const size_t j = used[w];
    const uint64_t flip = order_by[j].ascending ? 0 : ~uint64_t{0};
    for (size_t k = 0; k < cores.size() && on_words; ++k) {
      const KeySource& key = keys[k][j];
      const Input& in = cores[k].in;
      uint64_t* out = words.data() + first[k] * width + w;
      if (key.col >= 0) {
        on_words = in.SortWords(static_cast<size_t>(key.col), flip, out, width);
      } else if (key.constant != nullptr) {
        uint64_t word = 0;
        on_words = SortWord(*key.constant, &word);
        for (size_t i = 0; i < in.size(); ++i, out += width) *out = word ^ flip;
      } else {
        on_words = false;  // a computed key
      }
    }
  }
  if (on_words) {
    stats_.bytes_encoded += n * 8 * width;
    const uint64_t* base = words.data();
    const auto less = [base, width](size_t a, size_t b) {
      return std::lexicographical_compare(base + a * width,
                                          base + (a + 1) * width,
                                          base + b * width,
                                          base + (b + 1) * width);
    };
    if (InOrder(n, less)) {
      ++stats_.sorts_in_order;
      return std::vector<uint32_t>{};
    }
    SILK_RETURN_IF_ERROR(CheckDeadline());
    // Records inline the first two words, so most comparisons never touch
    // the word array; a third word on is read only on a two-word tie.
    struct WordRec {
      uint64_t k0;
      uint64_t k1;
      uint32_t idx;
    };
    std::vector<WordRec> recs(n);
    for (size_t g = 0; g < n; ++g) {
      const uint64_t* row = base + g * width;
      recs[g] = {row[0], width > 1 ? row[1] : 0, static_cast<uint32_t>(g)};
    }
    std::sort(recs.begin(), recs.end(),
              [base, width](const WordRec& a, const WordRec& b) {
                if (a.k0 != b.k0) return a.k0 < b.k0;
                if (a.k1 != b.k1) return a.k1 < b.k1;
                for (size_t w = 2; w < width; ++w) {
                  const uint64_t x = base[a.idx * width + w];
                  const uint64_t y = base[b.idx * width + w];
                  if (x != y) return x < y;
                }
                return a.idx < b.idx;  // equal keys keep input order
              });
    std::vector<uint32_t> order(n);
    for (size_t g = 0; g < n; ++g) order[g] = recs[g].idx;
    return order;
  }
  words = {};

  // A string, a magnitude at or above 2^53 or a computed key: one packed
  // codec key per row (key_codec.h), DESC segments byte-complemented, so
  // the composite key sorts by memcmp. Keys are packed back-to-back in one
  // flat buffer; `ends[g]` marks where row g's key stops.
  ++stats_.sorts_on_bytes;
  std::string buf;
  std::vector<size_t> ends(n + 1, 0);
  buf.reserve(n * 9 * width);  // a numeric segment is 9 bytes
  for (size_t k = 0; k < cores.size(); ++k) {
    const Input& in = cores[k].in;
    for (size_t i = 0; i < in.size(); ++i) {
      for (size_t j : used) {
        const KeySource& key = keys[k][j];
        const bool descending = !order_by[j].ascending;
        if (key.col >= 0) {
          in.EncodeCell(i, static_cast<size_t>(key.col), descending, &buf);
        } else {
          EncodeOrdered(value_of(k, key, i), descending, &buf);
        }
      }
      ends[first[k] + i + 1] = buf.size();
    }
  }
  for (const auto& e : computed) SILK_RETURN_IF_ERROR(e->status());
  stats_.bytes_encoded += buf.size();
  const char* base = buf.data();
  const auto key_of = [base, &ends](size_t g) {
    return std::string_view(base + ends[g], ends[g + 1] - ends[g]);
  };
  if (InOrder(n, [&](size_t a, size_t b) { return key_of(a) < key_of(b); })) {
    ++stats_.sorts_in_order;
    return std::vector<uint32_t>{};
  }
  SILK_RETURN_IF_ERROR(CheckDeadline());
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
  for (size_t g = 0; g < n; ++g) {
    const size_t off = ends[g];
    const size_t len = ends[g + 1] - off;
    const auto* p = reinterpret_cast<const unsigned char*>(base + off);
    const size_t m = len < 8 ? len : 8;
    uint64_t prefix = 0;
    for (size_t b = 0; b < m; ++b) prefix = (prefix << 8) | p[b];
    prefix <<= 8 * (8 - m);
    recs[g] = {prefix, off, static_cast<uint32_t>(len),
               static_cast<uint32_t>(g)};
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
  std::vector<uint32_t> order(n);
  for (size_t g = 0; g < n; ++g) order[g] = recs[g].idx;
  return order;
}

// ---------------------------------------------------------------------------
// Rows: the handed-over result (DESIGN.md §10 "Handing over results")
// ---------------------------------------------------------------------------

Rows::Rows() = default;
Rows::Rows(Rows&&) noexcept = default;
Rows& Rows::operator=(Rows&&) noexcept = default;
Rows::~Rows() = default;

Rows::Rows(Relation relation)
    : schema_(std::move(relation.schema)),
      size_(relation.rows.size()),
      tuples_(std::move(relation.rows)) {}

template <typename Fn>
void Rows::ForEachRow(Fn&& fn) {
  if (order_.empty()) {
    for (size_t k = 0; k < cores_.size(); ++k) {
      for (size_t i = 0; i < cores_[k].in.size(); ++i) fn(k, i);
    }
    return;
  }
  for (size_t g : order_) {
    size_t k = 0;
    while (g >= cores_[k].in.size()) g -= cores_[k++].in.size();
    fn(k, g);
  }
}

Relation Rows::ToRelation() && {
  if (cores_.empty()) return Relation{std::move(schema_), std::move(tuples_)};
  Relation out;
  const size_t width = schema_.size();
  out.rows.reserve(size_);
  ForEachRow([&](size_t k, size_t i) {
    Tuple row;
    row.mutable_values().reserve(width);
    for (size_t j = 0; j < width; ++j) row.Append(cores_[k].ItemValue(i, j));
    out.rows.push_back(std::move(row));
  });
  out.schema = std::move(schema_);
  return out;
}

void Rows::AppendWire(std::string* out) {
  WireWriter writer(out);
  if (cores_.empty()) {
    size_t estimate = 0;
    for (const Tuple& t : tuples_) estimate += t.ByteSize() + 8;
    writer.Expect(estimate);
    for (const Tuple& t : tuples_) SerializeTuple(t, &writer);
    return;
  }
  using Input = QueryExecutor::Input;
  // Where each output field of a core reads its cells, resolved once: a
  // base-table column by id (numeric or string), a held column (an owned
  // relation's or a constant column) by id, a constant item, or a
  // computed item.
  struct Field {
    enum class Kind { kNumeric, kString, kHeld, kConstant, kComputed } kind;
    const ColumnVector* column = nullptr;  // kNumeric, kString
    const Input::Column* col = nullptr;    // kHeld
    const uint32_t* ids = nullptr;         // kNumeric, kString, kHeld
    const Value* constant = nullptr;       // kConstant
    size_t item = 0;                       // kComputed
  };
  std::vector<std::vector<Field>> fields(cores_.size());
  size_t estimate = 0;
  for (size_t k = 0; k < cores_.size(); ++k) {
    const Core& core = cores_[k];
    size_t row_bytes = 4;
    for (size_t j = 0; j < core.items.size(); ++j) {
      const Core::Item& item = core.items[j];
      Field field{Field::Kind::kComputed};
      field.item = j;
      size_t bytes = 9;  // a tag and an 8-byte payload
      if (item.kind == Core::Item::Kind::kConstant) {
        field.kind = Field::Kind::kConstant;
        field.constant = &core.constants[item.index];
      } else if (item.kind == Core::Item::Kind::kColumn) {
        const Input::Column& col = core.in.cols[item.index];
        field.ids = core.in.ids[col.source].data();
        field.column = core.in.TableColumn(col);
        field.col = &col;
        if (field.column == nullptr) {
          field.kind = Field::Kind::kHeld;
        } else if (field.column->type() != DataType::kString) {
          field.kind = Field::Kind::kNumeric;
        } else {
          field.kind = Field::Kind::kString;
          const size_t cells = std::max<size_t>(field.column->size(), 1);
          bytes = 1 + field.column->ByteSize() / cells;
        }
      }
      row_bytes += bytes;
      fields[k].push_back(field);
    }
    estimate += row_bytes * core.in.size();
  }
  writer.Expect(estimate);

  const auto width = static_cast<uint32_t>(schema_.size());
  ForEachRow([&](size_t k, size_t i) {
    Core& core = cores_[k];
    writer.Row(width);
    for (const Field& f : fields[k]) {
      switch (f.kind) {
        case Field::Kind::kNumeric: {
          const uint32_t id = f.ids[i];
          if (id == Input::kNullRow || f.column->IsNull(id)) {
            writer.Null();
          } else if (f.column->CellIsInt64(id)) {
            writer.Int64(f.column->Int64At(id));
          } else {
            writer.Double(f.column->DoubleAt(id));
          }
          break;
        }
        case Field::Kind::kString: {
          const uint32_t id = f.ids[i];
          if (id == Input::kNullRow || f.column->IsNull(id)) {
            writer.Null();
          } else {
            writer.String(f.column->StringAt(id));
          }
          break;
        }
        case Field::Kind::kHeld:
          writer.Field(core.in.Held(*f.col, f.ids[i]));
          break;
        case Field::Kind::kConstant:
          writer.Field(*f.constant);
          break;
        case Field::Kind::kComputed:
          writer.Field(core.ItemValue(i, f.item));
          break;
      }
    }
  });
}

Result<Rows> SqlExecutor::ExecuteRows(std::string_view sql, double timeout_ms,
                                      CancelToken* cancel) {
  SILK_ASSIGN_OR_RETURN(Relation relation,
                        ExecuteSqlCancellable(sql, timeout_ms, cancel));
  return Rows(std::move(relation));
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
