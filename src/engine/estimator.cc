#include "engine/estimator.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <optional>

#include "sql/parser.h"

namespace silkroute::engine {

namespace {

using sql::BinaryOp;
using sql::Expr;

constexpr double kDefaultDistinct = 10.0;
constexpr double kDefaultWidth = 8.0;
constexpr double kMiscSelectivity = 1.0 / 3.0;

double SortCost(double rows, double width) {
  if (rows < 2) return 0;
  return rows * std::log2(rows) * (width / 64.0);
}

/// The column of `schema` that `expr` references, if it is a column ref.
std::optional<size_t> ColumnOf(const Expr& expr, const RelSchema& schema) {
  if (expr.kind() != Expr::Kind::kColumnRef) return std::nullopt;
  const auto& ref = static_cast<const sql::ColumnRefExpr&>(expr);
  auto idx = schema.Resolve(ref.qualifier(), ref.name());
  if (!idx.ok()) return std::nullopt;
  return *idx;
}

/// The two columns a conjunct `a = b` equates, if it is one.
std::optional<std::pair<size_t, size_t>> EquatedColumns(
    const Expr& pred, const RelSchema& schema) {
  if (pred.kind() != Expr::Kind::kBinary) return std::nullopt;
  const auto& b = static_cast<const sql::BinaryExpr&>(pred);
  if (b.op() != BinaryOp::kEq) return std::nullopt;
  auto l = ColumnOf(b.left(), schema);
  auto r = ColumnOf(b.right(), schema);
  if (!l || !r) return std::nullopt;
  return std::make_pair(*l, *r);
}

}  // namespace

Result<QueryEstimate> CostEstimator::EstimateSql(std::string_view sql_text) {
  SILK_ASSIGN_OR_RETURN(sql::QueryPtr q, sql::ParseQuery(sql_text));
  return Estimate(*q);
}

Result<QueryEstimate> CostEstimator::Estimate(const sql::Query& query) {
  ++num_requests_;
  SILK_ASSIGN_OR_RETURN(EstRel rel, EstimateQueryRel(query));
  QueryEstimate out;
  out.rows = rel.rows;
  out.cost = rel.cost;
  out.width_bytes = rel.width;
  return out;
}

Result<CostEstimator::EstRel> CostEstimator::EstimateQueryRel(
    const sql::Query& query) {
  if (query.cores.empty()) {
    return Status::InvalidArgument("query has no SELECT cores");
  }
  EstRel total;
  bool first = true;
  for (const auto& core : query.cores) {
    SILK_ASSIGN_OR_RETURN(EstRel part, EstimateCore(core));
    if (first) {
      total = std::move(part);
      first = false;
    } else {
      total.rows += part.rows;
      total.cost += part.cost;
      total.width = std::max(total.width, part.width);
      // Two cores may repeat a row, and a column stays a literal column
      // only if every core fills it with a literal.
      total.keys.clear();
      for (size_t i = 0; i < total.literals.size(); ++i) {
        auto& mine = total.literals[i];
        const auto* theirs = i < part.literals.size() ? &part.literals[i]
                                                      : nullptr;
        if (theirs == nullptr || theirs->empty()) {
          mine.clear();
          continue;
        }
        for (const Value* v : *theirs) {
          if (!mine.empty() &&
              std::none_of(mine.begin(), mine.end(),
                           [&](const Value* m) { return *m == *v; })) {
            mine.push_back(v);
          }
        }
      }
    }
  }
  if (!query.order_by.empty()) {
    total.cost += SortCost(total.rows, total.width);
  }
  return total;
}

Result<CostEstimator::EstRel> CostEstimator::EstimateCore(
    const sql::SelectCore& core) {
  std::vector<EstRel> items;
  for (const auto& ref : core.from) {
    SILK_ASSIGN_OR_RETURN(EstRel item, EstimateTableRef(*ref));
    items.push_back(std::move(item));
  }
  EstRel combined = Join(std::move(items), core.where.get(),
                         /*left_outer=*/false);
  if (core.select_star) return combined;

  // Projection: recompute width, schema, provenance and constants; a key
  // survives if all its columns are selected.
  EstRel out;
  out.rows = combined.rows;
  out.cost = combined.cost;
  std::vector<size_t> output_of(combined.schema.size(), SIZE_MAX);
  for (const auto& item : core.select_list) {
    Provenance prov;
    std::vector<const Value*> literals;
    double width = kDefaultWidth;
    std::string out_name;
    std::string out_qual;
    if (item.expr->kind() == Expr::Kind::kColumnRef) {
      const auto& ref = static_cast<const sql::ColumnRefExpr&>(*item.expr);
      auto idx = combined.schema.Resolve(ref.qualifier(), ref.name());
      if (idx.ok()) {
        prov = combined.prov[*idx];
        literals = combined.literals[*idx];
        width = WidthOf(combined, *idx);
        if (output_of[*idx] == SIZE_MAX) output_of[*idx] = out.schema.size();
      }
      out_name = item.alias.empty() ? ref.name() : item.alias;
      if (item.alias.empty()) out_qual = ref.qualifier();
    } else {
      if (item.expr->kind() == Expr::Kind::kLiteral) {
        const auto& lit = static_cast<const sql::LiteralExpr&>(*item.expr);
        literals = {&lit.value()};
        width = static_cast<double>(lit.value().ByteSize());
      }
      out_name = item.alias.empty()
                     ? "col" + std::to_string(out.schema.size() + 1)
                     : item.alias;
    }
    out.schema.Add({out_qual, out_name});
    out.prov.push_back(prov);
    out.literals.push_back(std::move(literals));
    out.width += width;
  }
  for (const auto& key : combined.keys) {
    std::vector<size_t> projected;
    bool kept = true;
    for (size_t c : key) {
      kept = kept && output_of[c] != SIZE_MAX;
      if (kept) projected.push_back(output_of[c]);
    }
    if (kept) out.keys.push_back(std::move(projected));
  }
  if (core.distinct) {
    // Cap at the product of per-column distinct counts, and charge the
    // hashing pass.
    double cap = 1;
    bool have_cap = false;
    for (const auto& item : core.select_list) {
      if (item.expr->kind() != Expr::Kind::kColumnRef) continue;
      cap *= std::max(DistinctOf(combined, *item.expr), 1.0);
      have_cap = true;
      if (cap > out.rows) break;  // no tighter than the input
    }
    if (have_cap) out.rows = std::min(out.rows, cap);
    out.cost += out.rows;
  }
  return out;
}

Result<CostEstimator::EstRel> CostEstimator::EstimateTableRef(
    const sql::TableRef& ref) {
  switch (ref.kind()) {
    case sql::TableRef::Kind::kBaseTable: {
      const auto& base = static_cast<const sql::BaseTableRef&>(ref);
      SILK_ASSIGN_OR_RETURN(const TableSchema* schema,
                            catalog_->GetTable(base.table()));
      EstRel rel;
      rel.rows = stats_->RowCount(base.table());
      rel.cost = rel.rows;  // scan
      for (const auto& col : schema->columns()) {
        rel.schema.Add({base.binding_name(), col.name});
        rel.prov.emplace_back(std::make_pair(base.table(), col.name));
        rel.literals.emplace_back();
        const ColumnStats* cs = stats_->GetColumn(base.table(), col.name);
        rel.width += cs != nullptr ? cs->avg_width_bytes : kDefaultWidth;
      }
      if (schema->has_primary_key()) {
        std::vector<size_t> key;
        for (const auto& col : schema->primary_key()) {
          SILK_ASSIGN_OR_RETURN(size_t idx, schema->ColumnIndex(col));
          key.push_back(idx);
        }
        rel.keys.push_back(std::move(key));
      }
      return rel;
    }
    case sql::TableRef::Kind::kDerivedTable: {
      const auto& derived = static_cast<const sql::DerivedTableRef&>(ref);
      SILK_ASSIGN_OR_RETURN(EstRel rel, EstimateQueryRel(derived.query()));
      rel.schema = rel.schema.WithQualifier(derived.alias());
      return rel;
    }
    case sql::TableRef::Kind::kJoin: {
      const auto& join = static_cast<const sql::JoinRef&>(ref);
      std::vector<EstRel> sides(2);
      SILK_ASSIGN_OR_RETURN(sides[0], EstimateTableRef(join.left()));
      SILK_ASSIGN_OR_RETURN(sides[1], EstimateTableRef(join.right()));
      return Join(std::move(sides), &join.on(),
                  join.join_type() == sql::JoinType::kLeftOuter);
    }
  }
  return Status::Internal("unknown table ref kind");
}

CostEstimator::EstRel CostEstimator::Join(std::vector<EstRel> sides,
                                          const Expr* pred,
                                          bool left_outer) const {
  // Concatenate the sides; the cross product is the starting cardinality.
  EstRel out;
  out.rows = 1;
  std::vector<size_t> side_of;  // combined column -> side
  std::vector<size_t> offset;   // side -> its first combined column
  for (size_t s = 0; s < sides.size(); ++s) {
    EstRel& side = sides[s];
    offset.push_back(out.schema.size());
    out.cost += side.cost + side.rows;  // scan / hash build+probe work
    out.rows *= std::max(side.rows, 1.0);
    out.width += side.width;
    for (const auto& c : side.schema.columns()) {
      out.schema.Add(c);
      side_of.push_back(s);
    }
    out.prov.insert(out.prov.end(), side.prov.begin(), side.prov.end());
    out.literals.insert(out.literals.end(), side.literals.begin(),
                        side.literals.end());
    for (auto& key : side.keys) {
      for (size_t& c : key) c += offset[s];
    }
  }
  // A side has a key among `cols` (a per-column membership mask).
  auto keyed = [&](size_t s, const std::vector<bool>& cols) {
    return std::any_of(
        sides[s].keys.begin(), sides[s].keys.end(), [&](const auto& key) {
          return std::all_of(key.begin(), key.end(),
                             [&](size_t c) { return cols[c]; });
        });
  };

  // Equalities between two non-literal columns are grouped per pair of
  // sides; every other conjunct is priced alone.
  std::vector<const Expr*> conjuncts;
  if (pred != nullptr) sql::CollectConjuncts(*pred, &conjuncts);
  std::vector<std::pair<size_t, size_t>> equal;
  std::map<std::pair<size_t, size_t>, std::vector<std::pair<size_t, size_t>>>
      groups;
  for (const Expr* c : conjuncts) {
    if (auto cols = EquatedColumns(*c, out.schema)) {
      auto [a, b] = *cols;
      equal.push_back({a, b});
      if (side_of[a] != side_of[b] && out.literals[a].empty() &&
          out.literals[b].empty()) {
        if (side_of[a] > side_of[b]) std::swap(a, b);
        groups[{side_of[a], side_of[b]}].push_back({a, b});
        continue;
      }
    }
    out.rows *= Selectivity(*c, out);
  }
  for (const auto& [pair, cols] : groups) {
    // When one side's equated columns cover its key, each row of the other
    // side meets at most one of its rows: divide by that side's rows (or
    // by the other side's distinct values, if a filter left fewer rows).
    std::vector<bool> on_first(out.schema.size()), on_second(on_first);
    double first_distinct = 1, second_distinct = 1, product = 1;
    for (auto [a, b] : cols) {
      on_first[a] = on_second[b] = true;
      first_distinct = std::max(first_distinct, DistinctAt(out, a));
      second_distinct = std::max(second_distinct, DistinctAt(out, b));
      product *= std::max({DistinctAt(out, a), DistinctAt(out, b), 1.0});
    }
    double divisor = 0;
    if (keyed(pair.first, on_first)) {
      divisor = std::max(sides[pair.first].rows, second_distinct);
    }
    if (keyed(pair.second, on_second)) {
      divisor = std::max({divisor, sides[pair.second].rows, first_distinct});
    }
    out.rows /= divisor > 0 ? std::max(divisor, 1.0) : product;
  }
  out.rows = std::max(out.rows, 1.0);
  if (left_outer) out.rows = std::max(out.rows, sides[0].rows);
  out.cost += out.rows;  // output materialization

  // Keys of the result: a key of one side whose closure under the side
  // keys, the equalities and the constants reaches a key of every side
  // (of the left side only, for an outer join, whose right columns may be
  // null-padded); failing that, the union of one key of each side.
  auto closure = [&](const std::vector<size_t>& key) {
    std::vector<bool> in(out.schema.size());
    for (size_t c = 0; c < in.size(); ++c) in[c] = out.literals[c].size() == 1;
    for (size_t c : key) in[c] = true;
    for (bool grew = true; grew;) {
      grew = false;
      auto add = [&](size_t c) {
        grew = grew || !in[c];
        in[c] = true;
      };
      for (auto [a, b] : equal) {
        if (in[a]) add(b);
        if (in[b]) add(a);
      }
      for (size_t s = 0; s < sides.size(); ++s) {
        if (!keyed(s, in)) continue;
        for (size_t c = offset[s]; c < offset[s] + sides[s].schema.size(); ++c)
          add(c);
      }
    }
    return in;
  };
  const size_t roots = left_outer ? 1 : sides.size();
  for (size_t s = 0; s < roots; ++s) {
    for (const auto& key : sides[s].keys) {
      std::vector<bool> in = closure(key);
      bool all = true;
      for (size_t t = 0; t < sides.size() && all; ++t) all = keyed(t, in);
      if (all) out.keys.push_back(key);
    }
  }
  if (out.keys.empty() &&
      std::all_of(sides.begin(), sides.end(),
                  [](const EstRel& side) { return !side.keys.empty(); })) {
    std::vector<size_t> key;
    for (const auto& side : sides) {
      key.insert(key.end(), side.keys[0].begin(), side.keys[0].end());
    }
    out.keys.push_back(std::move(key));
  }
  return out;
}

double CostEstimator::Selectivity(const sql::Expr& pred,
                                  const EstRel& rel) const {
  switch (pred.kind()) {
    case Expr::Kind::kBinary: {
      const auto& b = static_cast<const sql::BinaryExpr&>(pred);
      if (b.op() == BinaryOp::kOr) {
        std::vector<const Expr*> disjuncts;
        sql::CollectDisjuncts(pred, &disjuncts);
        double s = 0;
        for (const Expr* d : disjuncts) s += Selectivity(*d, rel);
        return std::min(s, 1.0);
      }
      if (b.op() == BinaryOp::kAnd) {
        std::vector<const Expr*> conjuncts;
        sql::CollectConjuncts(pred, &conjuncts);
        double s = 1;
        for (const Expr* c : conjuncts) s *= Selectivity(*c, rel);
        return s;
      }
      if (b.op() == BinaryOp::kEq) {
        // Literals on both sides: the share of equal pairs.
        auto l = LiteralsOf(b.left(), rel);
        auto r = LiteralsOf(b.right(), rel);
        if (!l.empty() && !r.empty()) {
          double equal = 0;
          for (const Value* x : l) {
            for (const Value* y : r) equal += x->SqlEquals(*y) ? 1 : 0;
          }
          return equal / static_cast<double>(l.size() * r.size());
        }
        auto null = [](const auto& v) { return v.size() == 1 && v[0]->is_null(); };
        if (null(l) || null(r)) return 0;
        const bool l_col = b.left().kind() == Expr::Kind::kColumnRef;
        const bool r_col = b.right().kind() == Expr::Kind::kColumnRef;
        if (l_col || r_col) {
          return 1.0 / std::max({l_col ? DistinctOf(rel, b.left()) : 1.0,
                                 r_col ? DistinctOf(rel, b.right()) : 1.0,
                                 1.0});
        }
        return kMiscSelectivity;
      }
      return kMiscSelectivity;
    }
    case Expr::Kind::kIsNull:
      return kMiscSelectivity;
    case Expr::Kind::kNot:
      return std::max(
          0.0, 1.0 - Selectivity(
                         static_cast<const sql::NotExpr&>(pred).operand(),
                         rel));
    default:
      return kMiscSelectivity;
  }
}

std::vector<const Value*> CostEstimator::LiteralsOf(const sql::Expr& expr,
                                                    const EstRel& rel) const {
  if (expr.kind() == Expr::Kind::kLiteral) {
    return {&static_cast<const sql::LiteralExpr&>(expr).value()};
  }
  auto column = ColumnOf(expr, rel.schema);
  return column ? rel.literals[*column] : std::vector<const Value*>{};
}

double CostEstimator::DistinctOf(const EstRel& rel,
                                 const sql::Expr& expr) const {
  auto column = ColumnOf(expr, rel.schema);
  return column ? DistinctAt(rel, *column) : kDefaultDistinct;
}

double CostEstimator::DistinctAt(const EstRel& rel, size_t column) const {
  if (!rel.literals[column].empty()) {
    return static_cast<double>(rel.literals[column].size());
  }
  const Provenance& p = rel.prov[column];
  if (!p) return kDefaultDistinct;
  return stats_->DistinctCount(p->first, p->second, kDefaultDistinct);
}

double CostEstimator::WidthOf(const EstRel& rel, size_t column) const {
  const Provenance& p = rel.prov[column];
  if (!p) return kDefaultWidth;
  const ColumnStats* cs = stats_->GetColumn(p->first, p->second);
  return cs != nullptr ? cs->avg_width_bytes : kDefaultWidth;
}

}  // namespace silkroute::engine
