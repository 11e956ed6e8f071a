// Differential testing harness: the engine against an independent SQL
// reference. A seeded generator produces random schemas, NULL-heavy data,
// and random queries (multi-way comma joins, LEFT OUTER JOIN ... ON with
// one-sided ON conjuncts, derived tables — two of them outer-joined is the
// unified plan's shape; nested two deep, outer-joined or DISTINCT inside,
// which the engine inlines, or carrying UNION ALL, ORDER BY or a computed
// item, which it materializes — UNION ALL, literal select items,
// single-source filters, DISTINCT, ORDER BY over up to four mixed-type
// keys on tables stored in random, key, reversed or nearly key order;
// join keys over small integers, strings, and the DOUBLE column's mixed
// and tiebreaker-regime numerics). Every query exists twice: as SQL text
// for the engine, and as a structured description that a deliberately
// naive nested-loop evaluator in this file runs over the harness's own
// copy of the generated tuples — never the engine's tables, parser,
// planner, or key codec. The reference needs nothing but Value::Compare
// (WHERE under three-valued logic, ORDER BY) and Tuple::Compare
// (DISTINCT).
//
// Agreement rules:
//  - status: both succeed, or both fail (e.g. DISTINCT or UNION with an
//    ORDER BY key outside the select list);
//  - without DISTINCT (or over a UNION), equal multisets of
//    exactly-represented tuples (Int64(3) != Double(3.0), -0.0 != 0.0
//    bitwise);
//  - with DISTINCT, equal sets under Tuple::Compare;
//  - when every ORDER BY key is projected, the engine's rows are also
//    non-decreasing in the ASC/DESC keys, and they are the same query's
//    unordered rows stably sorted: equal keys keep their input order;
//  - the bind: the engine's result bound straight from its batch
//    (TupleStream(Rows)) is byte-identical to SerializeTuple over the same
//    query's Relation, NULLs, -0.0 and the DOUBLE column's int64 cells
//    included.
// Failures print the seed and the SQL, so a reproduction is one copy-paste
// away. SILK_DIFF_QUERIES overrides the query count for soak runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "engine/executor.h"
#include "engine/tuple_stream.h"
#include "relational/database.h"
#include "relational/schema.h"
#include "relational/value.h"

namespace silkroute::engine {
namespace {

// All randomness goes through rng() % n — never std::uniform_*_distribution,
// whose output is implementation-defined and would break seed reproduction
// across standard libraries.
using Rng = std::mt19937;

size_t Pick(Rng& rng, size_t n) { return static_cast<size_t>(rng() % n); }
bool Chance(Rng& rng, uint32_t percent) { return rng() % 100 < percent; }

// Every table is tN(k0 INT64 NULL, k1 INT64 NULL, d0 DOUBLE NULL,
// s0 STRING NULL), so any generated column reference is valid against any
// table; the small k domains make joins productive without exploding.
const char* const kCols[] = {"k0", "k1", "d0", "s0"};
constexpr size_t kK0 = 0, kK1 = 1, kD0 = 2, kS0 = 3;

Value RandomDoubleColValue(Rng& rng) {
  // A kDouble column accepts int64s too, so this column carries the
  // cross-type Compare/Hash semantics (3 vs 3.0) and the giant-magnitude
  // tiebreaker regime into join keys, DISTINCT, and ORDER BY. No double
  // here is the image of a different int64 (no 2^53 beside 2^53 + 1),
  // where Value::Compare and the key codec disagree by design.
  static const double kDoubles[] = {-1e300, -2.5,  -0.5, -0.0, 0.0,
                                    0.5,    3.0,   7.0,  1e15, 9007199254740994.0};
  constexpr int64_t kExact = int64_t{1} << 53;
  switch (rng() % 10) {
    case 0:
    case 1:
    case 2:
      return Value::Int64(static_cast<int64_t>(rng() % 8));
    case 3:
      return Value::Int64(kExact + static_cast<int64_t>(rng() % 3));
    case 4:
      return Value::Int64(-kExact - static_cast<int64_t>(rng() % 3));
    default:
      return Value::Double(kDoubles[rng() % 10]);
  }
}

Value RandomStringColValue(Rng& rng) {
  static const char* kStrings[] = {"", "a", "ab", "b", "x", "yy", "zzz"};
  return Value::String(kStrings[rng() % 7]);
}

/// The generated database plus the harness's own copy of every inserted
/// tuple, which is all the reference evaluator ever reads.
struct GenDb {
  Database db;
  std::vector<std::vector<Tuple>> data;  // data[t] = rows of table tN
};

void BuildDatabaseInto(Rng& rng, GenDb* gen) {
  const size_t num_tables = 2 + Pick(rng, 3);  // 2..4
  for (size_t t = 0; t < num_tables; ++t) {
    const std::string name = "t" + std::to_string(t);
    TableSchema schema(name, {
                                 {"k0", DataType::kInt64, /*nullable=*/true},
                                 {"k1", DataType::kInt64, true},
                                 {"d0", DataType::kDouble, true},
                                 {"s0", DataType::kString, true},
                             });
    ASSERT_TRUE(gen->db.CreateTable(std::move(schema)).ok())
        << "CreateTable " << name;
    const size_t rows = 20 + Pick(rng, 61);  // 20..80
    Table* table = *gen->db.GetTable(name);
    std::vector<Tuple> copy;
    for (size_t r = 0; r < rows; ++r) {
      copy.push_back(Tuple{
          Chance(rng, 15) ? Value::Null()
                          : Value::Int64(static_cast<int64_t>(rng() % 10)),
          Chance(rng, 15) ? Value::Null()
                          : Value::Int64(static_cast<int64_t>(rng() % 10)),
          Chance(rng, 30) ? Value::Null() : RandomDoubleColValue(rng),
          Chance(rng, 20) ? Value::Null() : RandomStringColValue(rng),
      });
    }
    // Scans emit rows in storage order, so a table stored in key order
    // (as TPC-H's are) hands ORDER BY input that is in order, reversed or
    // nearly in order (two adjacent pairs swapped).
    const uint32_t layout = rng() % 100;
    if (layout >= 60) {
      std::stable_sort(copy.begin(), copy.end(),
                       [](const Tuple& a, const Tuple& b) {
                         return a.Compare(b) < 0;
                       });
    }
    if (layout >= 75 && layout < 85) std::reverse(copy.begin(), copy.end());
    if (layout >= 85) {
      for (int swaps = 0; swaps < 2; ++swaps) {
        const size_t r = Pick(rng, rows - 1);
        std::swap(copy[r], copy[r + 1]);
      }
    }
    for (const Tuple& row : copy) ASSERT_TRUE(table->Insert(row).ok());
    gen->data.push_back(std::move(copy));
  }
}

// ---------------------------------------------------------------------------
// Query description and SQL rendering
// ---------------------------------------------------------------------------

struct CoreSpec;

/// One FROM item of a core: base table tN, or a derived table — a nested
/// core rendered `(SELECT ...) AS dI` whose columns are its items' aliases
/// (see CoreSpec::QuerySql for the UNION ALL and ORDER BY it may carry).
struct FromItem {
  size_t table = 0;
  std::shared_ptr<const CoreSpec> derived;
};

/// A column of one of a core's FROM items.
struct ColRef {
  size_t src;  // index into CoreSpec::from
  size_t col;  // kCols index for a base table, item index for a derived one
};

bool SameCol(const ColRef& a, const ColRef& b) {
  return a.src == b.src && a.col == b.col;
}

/// One WHERE / ON conjunct: `a = b`, `a = <literal>`, or `a IS NOT NULL`.
struct Pred {
  enum class Kind { kColEq, kColEqInt, kIsNotNull } kind;
  ColRef a;
  ColRef b{0, 0};     // kColEq
  int64_t literal = 0;  // kColEqInt
};

/// One select item: a column, a literal such as `1 AS lit0`, or (in a
/// derived core) the computed `<key column> + 1`.
struct Item {
  bool literal = false;
  bool plus_one = false;  // the column's value plus one; NULL stays NULL
  ColRef col{0, 0};
  Value value;        // literal
  std::string alias;  // every literal, and every item of a derived core
};

Item ColumnItem(ColRef col) {
  Item item;
  item.col = col;
  return item;
}

std::string ValueSql(const Value& v) {
  if (v.is_null()) return "NULL";
  if (v.is_int64()) return std::to_string(v.AsInt64());
  return "'" + v.AsString() + "'";
}

/// One SELECT core: a comma FROM list, or from[0] LEFT OUTER JOIN from[1].
/// A derived table's core may also carry a second core it is UNION ALL'd
/// with and an ORDER BY item; either makes the engine materialize it.
struct CoreSpec {
  std::vector<FromItem> from;
  bool outer = false;
  std::vector<Pred> on;
  std::vector<Item> select;
  std::vector<Pred> where;
  bool distinct = false;
  std::shared_ptr<const CoreSpec> union_all;  // derived tables only
  int order_item = -1;  // derived tables only: >= 0, ORDER BY this item

  std::string Binding(size_t src) const {
    return from[src].derived ? "d" + std::to_string(src)
                             : "t" + std::to_string(from[src].table);
  }
  std::string Column(const ColRef& c) const {
    const FromItem& f = from[c.src];
    return Binding(c.src) + "." +
           (f.derived ? f.derived->select[c.col].alias : kCols[c.col]);
  }
  size_t Width(size_t src) const {
    return from[src].derived ? from[src].derived->select.size() : 4;
  }
  /// Whether column `c` draws from the small integer key domain (in every
  /// core of a derived table's UNION ALL).
  bool IsKey(const ColRef& c) const {
    const FromItem& f = from[c.src];
    if (!f.derived) return c.col == kK0 || c.col == kK1;
    for (const CoreSpec* d : {f.derived.get(), f.derived->union_all.get()}) {
      if (d == nullptr) continue;
      const Item& item = d->select[c.col];
      if (!(item.literal ? item.value.is_int64() : d->IsKey(item.col))) {
        return false;
      }
    }
    return true;
  }
  /// Whether column `c` may carry d0's Int64 and Double forms of one
  /// number (3 vs 3.0). DISTINCT keeps whichever comes first, so a derived
  /// DISTINCT core must not select one: the reference cannot tell which.
  bool MayMixNumerics(const ColRef& c) const {
    const FromItem& f = from[c.src];
    if (!f.derived) return c.col == kD0;
    for (const CoreSpec* d : {f.derived.get(), f.derived->union_all.get()}) {
      if (d == nullptr) continue;
      const Item& item = d->select[c.col];
      if (!item.literal && d->MayMixNumerics(item.col)) return true;
    }
    return false;
  }
  /// Whether column `c` is a literal item of a derived table.
  bool IsDerivedLiteral(const ColRef& c) const {
    const FromItem& f = from[c.src];
    return f.derived != nullptr && f.derived->select[c.col].literal;
  }

  std::string PredSql(const Pred& p) const {
    switch (p.kind) {
      case Pred::Kind::kColEq:
        return Column(p.a) + " = " + Column(p.b);
      case Pred::Kind::kColEqInt:
        return Column(p.a) + " = " + std::to_string(p.literal);
      case Pred::Kind::kIsNotNull:
        return Column(p.a) + " IS NOT NULL";
    }
    return "";
  }

  std::string Sql() const {
    std::ostringstream sql;
    sql << "SELECT ";
    if (distinct) sql << "DISTINCT ";
    for (size_t i = 0; i < select.size(); ++i) {
      const Item& item = select[i];
      sql << (i > 0 ? ", " : "")
          << (item.literal ? ValueSql(item.value) : Column(item.col))
          << (item.plus_one ? " + 1" : "");
      if (!item.alias.empty()) sql << " AS " << item.alias;
    }
    auto from_sql = [&](size_t s) {
      return from[s].derived ? "(" + from[s].derived->QuerySql() + ") AS " +
                                   Binding(s)
                             : Binding(s);
    };
    sql << " FROM " << from_sql(0);
    if (outer) {
      sql << " LEFT OUTER JOIN " << from_sql(1) << " ON ";
      for (size_t i = 0; i < on.size(); ++i) {
        sql << (i > 0 ? " AND " : "") << PredSql(on[i]);
      }
    } else {
      for (size_t s = 1; s < from.size(); ++s) sql << ", " << from_sql(s);
    }
    for (size_t i = 0; i < where.size(); ++i) {
      sql << (i > 0 ? " AND " : " WHERE ") << PredSql(where[i]);
    }
    return sql.str();
  }

  /// A derived table's query: the core, its UNION ALL, its ORDER BY.
  std::string QuerySql() const {
    std::string sql = Sql();
    if (union_all) sql += " UNION ALL " + union_all->Sql();
    if (order_item >= 0) {
      sql += " ORDER BY " + select[static_cast<size_t>(order_item)].alias;
    }
    return sql;
  }
};

/// An ORDER BY key: a literal select item of the first core by its alias,
/// or a qualified column in that core's scope, or the computed `<key
/// column> + 0`, which orders as the column does.
struct OrderKey {
  int item = -1;  // >= 0: literal item, named by alias
  ColRef col{0, 0};
  bool plus_zero = false;
  bool ascending = true;
};

/// A query: one core, or several joined by UNION ALL, plus ORDER BY.
struct QuerySpec {
  std::vector<CoreSpec> cores;
  std::vector<OrderKey> order_by;

  const CoreSpec& first() const { return cores[0]; }

  std::string Sql() const {
    std::string sql;
    for (size_t i = 0; i < cores.size(); ++i) {
      sql += (i > 0 ? " UNION ALL " : "") + cores[i].Sql();
    }
    for (size_t i = 0; i < order_by.size(); ++i) {
      const OrderKey& k = order_by[i];
      sql += (i > 0 ? ", " : " ORDER BY ") +
             (k.item >= 0 ? first().select[static_cast<size_t>(k.item)].alias
                          : first().Column(k.col)) +
             (k.plus_zero ? " + 0" : "") + (k.ascending ? "" : " DESC");
    }
    return sql;
  }
};

ColRef RandomCol(Rng& rng, const CoreSpec& c) {
  const size_t src = Pick(rng, c.from.size());
  return {src, Pick(rng, c.Width(src))};
}

/// A random key-domain column of source `src` (every source has one).
ColRef RandomKeyCol(Rng& rng, const CoreSpec& c, size_t src) {
  std::vector<size_t> keys;
  for (size_t col = 0; col < c.Width(src); ++col) {
    if (c.IsKey({src, col})) keys.push_back(col);
  }
  return {src, keys[Pick(rng, keys.size())]};
}

/// `a = b` joining sources `a_src` and `b_src`: mostly key-domain columns;
/// between two base tables sometimes their strings, or the DOUBLE column
/// against itself or an integer key (the hash join then verifies word
/// matches of strings and of tiebreaker-regime numerics).
Pred RandomJoinPred(Rng& rng, const CoreSpec& c, size_t a_src, size_t b_src) {
  if (!c.from[a_src].derived && !c.from[b_src].derived) {
    const uint32_t kind = rng() % 100;
    if (kind < 12) {
      return {Pred::Kind::kColEq, {a_src, kS0}, {b_src, kS0}};
    }
    if (kind < 20) {
      return {Pred::Kind::kColEq, {a_src, kD0},
              {b_src, Chance(rng, 70) ? kD0 : kK0}};
    }
  }
  return {Pred::Kind::kColEq, RandomKeyCol(rng, c, a_src),
          RandomKeyCol(rng, c, b_src)};
}

/// `1 AS <alias>`, `2 AS ...`, `NULL AS ...`, or `'x' AS ...`.
Item RandomLiteral(Rng& rng, std::string alias) {
  Item item;
  item.literal = true;
  switch (rng() % 4) {
    case 0:
    case 1:
      item.value = Value::Int64(1 + static_cast<int64_t>(rng() % 2));
      break;
    case 2:
      item.value = Value::Null();
      break;
    default:
      item.value = Value::String("x");
  }
  item.alias = std::move(alias);
  return item;
}

/// FROM t0, ..., t{use-1} with an equijoin conjunct between neighbours;
/// unless `always_join`, 10% of conjuncts are dropped (a cross product).
void FillCommaCore(Rng& rng, size_t use, bool always_join, CoreSpec* c) {
  for (size_t t = 0; t < use; ++t) c->from.push_back({t, nullptr});
  for (size_t t = 0; t + 1 < use; ++t) {
    if (!always_join && Chance(rng, 10)) continue;
    c->where.push_back(RandomJoinPred(rng, *c, t, t + 1));
  }
}

/// Single-source filters, pushed down by the planner.
void AddFilters(Rng& rng, CoreSpec* c) {
  const size_t n = c->from.size();
  if (Chance(rng, 40)) {
    c->where.push_back({Pred::Kind::kColEqInt,
                        RandomKeyCol(rng, *c, Pick(rng, n)), {0, 0},
                        static_cast<int64_t>(rng() % 10)});
  }
  // IS NOT NULL and the cross-type DOUBLE filter name base-table columns.
  std::vector<size_t> base;
  for (size_t s = 0; s < n; ++s) {
    if (!c->from[s].derived) base.push_back(s);
  }
  if (base.empty()) return;
  if (Chance(rng, 20)) {
    c->where.push_back(
        {Pred::Kind::kIsNotNull, {base[Pick(rng, base.size())], kS0}});
  }
  if (Chance(rng, 15)) {  // cross-type: a DOUBLE column against 3
    c->where.push_back({Pred::Kind::kColEqInt,
                        {base[Pick(rng, base.size())], kD0}, {0, 0}, 3});
  }
}

/// `count` items: columns, and 20% literals named lit0, lit1, ...
void AddSelect(Rng& rng, size_t count, CoreSpec* c) {
  for (size_t i = 0; i < count; ++i) {
    if (Chance(rng, 20)) {
      c->select.push_back(RandomLiteral(rng, "lit" + std::to_string(i)));
    } else {
      c->select.push_back(ColumnItem(RandomCol(rng, *c)));
    }
  }
}

/// A conjunct naming only source `src` of an outer join's ON clause.
Pred OneSidePred(Rng& rng, const CoreSpec& c, size_t src) {
  if (!c.from[src].derived && Chance(rng, 40)) {
    return {Pred::Kind::kIsNotNull, {src, kS0}};
  }
  return {Pred::Kind::kColEqInt, RandomKeyCol(rng, c, src), {0, 0},
          static_cast<int64_t>(rng() % 3)};
}

/// Turns a comma core of two sources into from[0] LEFT OUTER JOIN from[1]
/// ON its WHERE conjuncts, sometimes plus one-sided ones.
void MakeOuter(Rng& rng, CoreSpec* c) {
  c->outer = true;
  c->on = std::move(c->where);
  c->where.clear();
  if (Chance(rng, 35)) c->on.push_back(OneSidePred(rng, *c, 1));
  if (Chance(rng, 25)) c->on.push_back(OneSidePred(rng, *c, 0));
  for (size_t i = c->on.size(); i > 1; --i) {
    std::swap(c->on[i - 1], c->on[Pick(rng, i)]);
  }
}

std::shared_ptr<CoreSpec> GenerateDerived(Rng& rng, size_t num_tables,
                                          int depth);

/// A derived table's core, every item aliased c0, c1, ...: a key column
/// first, then `width - 1` columns, literals and computed items (`width`
/// 0: 2-4 items). Its FROM is one or two comma-joined base tables, a base
/// table LEFT OUTER JOIN another (the padded side's literals stay
/// non-NULL), or — above `depth` 2 — a nested derived table joined to a
/// base table, the unified plan's two levels.
std::shared_ptr<CoreSpec> GenerateDerivedCore(Rng& rng, size_t num_tables,
                                              int depth, size_t width) {
  auto d = std::make_shared<CoreSpec>();
  const uint32_t shape = rng() % 100;
  if (depth < 2 && shape < 25) {
    d->from.push_back({0, GenerateDerived(rng, num_tables, depth + 1)});
    d->from.push_back({Pick(rng, num_tables), nullptr});
    d->where.push_back({Pred::Kind::kColEq, RandomKeyCol(rng, *d, 0),
                        RandomKeyCol(rng, *d, 1)});
    if (Chance(rng, 50)) MakeOuter(rng, d.get());
  } else if (shape < 50) {
    FillCommaCore(rng, 2, /*always_join=*/true, d.get());
    MakeOuter(rng, d.get());
    // Gate the probe side: most rows then pad.
    if (Chance(rng, 50)) d->on.push_back(OneSidePred(rng, *d, 0));
  } else {
    FillCommaCore(rng, 1 + Pick(rng, std::min<size_t>(2, num_tables)),
                  /*always_join=*/true, d.get());
  }
  AddFilters(rng, d.get());
  d->distinct = Chance(rng, 20);
  d->select.push_back(
      ColumnItem(RandomKeyCol(rng, *d, Pick(rng, d->from.size()))));
  const size_t more = width > 0 ? width - 1 : 1 + Pick(rng, 3);
  std::vector<size_t> base;
  for (size_t s = 0; s < d->from.size(); ++s) {
    if (!d->from[s].derived) base.push_back(s);
  }
  for (size_t i = 0; i < more; ++i) {
    const uint32_t kind = rng() % 100;
    if (kind < 35) {
      d->select.push_back(RandomLiteral(rng, ""));
    } else if (kind < 42) {
      Item item = ColumnItem(
          {base[Pick(rng, base.size())], Chance(rng, 50) ? kK0 : kK1});
      item.plus_one = true;
      d->select.push_back(item);
    } else {
      ColRef col = RandomCol(rng, *d);
      if (d->distinct && d->MayMixNumerics(col)) {
        col = RandomKeyCol(rng, *d, col.src);
      }
      d->select.push_back(ColumnItem(col));
    }
  }
  for (size_t i = 0; i < d->select.size(); ++i) {
    d->select[i].alias = "c" + std::to_string(i);
  }
  return d;
}

/// A derived table: a core, 10% of them UNION ALL'd with a second core of
/// the same width and 10% ordered by one of their items.
std::shared_ptr<CoreSpec> GenerateDerived(Rng& rng, size_t num_tables,
                                          int depth) {
  auto d = GenerateDerivedCore(rng, num_tables, depth, 0);
  if (Chance(rng, 10)) {
    d->union_all =
        GenerateDerivedCore(rng, num_tables, depth, d->select.size());
  }
  if (Chance(rng, 10)) {
    d->order_item = static_cast<int>(Pick(rng, d->select.size()));
  }
  return d;
}

/// One random query over tables t0..t{num_tables-1}. Shapes:
///  - comma FROM list with equijoin WHERE conjuncts (the greedy hash-join
///    planner; dropping a conjunct occasionally forces a cross product),
///  - t0 LEFT OUTER JOIN t1 ON key equalities, plus conjuncts naming only
///    the probe side (they gate matching) or only the build side (they
///    filter it),
///  - derived tables in FROM: two derived tables outer-joined (the unified
///    plan's shape) or comma-joined, or one beside a base table,
///  - UNION ALL of two comma cores,
/// plus literal select items, single-source filters, DISTINCT (single
/// core), and 1-4 ORDER BY keys (numerics and NULLs sort as words; a
/// string, a magnitude past 2^53 or a computed key, on codec bytes).
QuerySpec GenerateQuery(Rng& rng, size_t num_tables) {
  QuerySpec q;
  const uint32_t shape = rng() % 100;
  const size_t num_select = 1 + Pick(rng, 4);
  CoreSpec core;
  if (shape < 45 || shape >= 80) {
    FillCommaCore(rng, 2 + Pick(rng, num_tables - 1), false, &core);
  } else if (shape < 60) {
    FillCommaCore(rng, 2, true, &core);
    if (Chance(rng, 30)) core.where.push_back(RandomJoinPred(rng, core, 0, 1));
    MakeOuter(rng, &core);
  } else {
    core.from.push_back({0, GenerateDerived(rng, num_tables, 0)});
    if (Chance(rng, 75)) {
      core.from.push_back({0, GenerateDerived(rng, num_tables, 0)});
    } else {
      core.from.push_back({Pick(rng, num_tables), nullptr});
    }
    core.where.push_back({Pred::Kind::kColEq, RandomKeyCol(rng, core, 0),
                          RandomKeyCol(rng, core, 1)});
    if (Chance(rng, 60)) MakeOuter(rng, &core);
  }
  AddSelect(rng, num_select, &core);
  for (size_t src = 0; src < core.from.size(); ++src) {
    // Read a derived literal: NULL where an outer join padded its table,
    // its value wherever the table has a row, padded inside it or not.
    if (!core.from[src].derived || !Chance(rng, 50)) continue;
    const auto& items = core.from[src].derived->select;
    std::vector<size_t> literals;
    for (size_t i = 0; i < items.size(); ++i) {
      if (items[i].literal) literals.push_back(i);
    }
    if (!literals.empty()) {
      core.select.push_back(
          ColumnItem({src, literals[Pick(rng, literals.size())]}));
    }
  }
  AddFilters(rng, &core);
  const bool is_union = shape >= 80;
  core.distinct = !is_union && Chance(rng, 30);
  q.cores.push_back(std::move(core));
  if (is_union) {
    CoreSpec second;
    FillCommaCore(rng, 2 + Pick(rng, num_tables - 1), false, &second);
    AddSelect(rng, num_select, &second);
    AddFilters(rng, &second);
    q.cores.push_back(std::move(second));
  }

  if (Chance(rng, 50)) {
    const CoreSpec& first = q.first();
    const size_t num_keys =
        Chance(rng, 30) ? 3 + Pick(rng, 2) : 1 + (Chance(rng, 30) ? 1 : 0);
    std::vector<int> literals, columns;
    for (size_t i = 0; i < first.select.size(); ++i) {
      (first.select[i].literal ? literals : columns)
          .push_back(static_cast<int>(i));
    }
    for (size_t i = 0; i < num_keys; ++i) {
      OrderKey key;
      key.ascending = !Chance(rng, 40);
      if (!literals.empty() && Chance(rng, 15)) {
        key.item = literals[Pick(rng, literals.size())];
      } else if (is_union && !columns.empty() && Chance(rng, 70)) {
        key.col = first.select[static_cast<size_t>(
                                   columns[Pick(rng, columns.size())])]
                      .col;
      } else {
        key.col = RandomCol(rng, first);
      }
      // Over a UNION the key would be evaluated on the other core's item
      // in the same position, which may hold strings.
      key.plus_zero = !is_union && key.item < 0 && first.IsKey(key.col) &&
                      Chance(rng, 20);
      q.order_by.push_back(key);
    }
  }
  return q;
}

// ---------------------------------------------------------------------------
// The reference: nested loops over the harness's tuples
// ---------------------------------------------------------------------------

/// One source row: a row pointer per FROM item, null for outer-join
/// padding.
using Binding = std::vector<const Tuple*>;

Value CellOf(const Binding& b, const ColRef& c) {
  const Tuple* row = b[c.src];
  return row == nullptr ? Value::Null() : row->values()[c.col];
}

/// Three-valued: only kTrue passes, and a comparison with NULL is unknown.
bool PredTrue(const Pred& p, const Binding& b) {
  const Value a = CellOf(b, p.a);
  switch (p.kind) {
    case Pred::Kind::kIsNotNull:
      return !a.is_null();
    case Pred::Kind::kColEqInt:
      return !a.is_null() && a.Compare(Value::Int64(p.literal)) == 0;
    case Pred::Kind::kColEq: {
      const Value c = CellOf(b, p.b);
      return !a.is_null() && !c.is_null() && a.Compare(c) == 0;
    }
  }
  return false;
}

size_t MaxSource(const Pred& p) {
  return p.kind == Pred::Kind::kColEq ? std::max(p.a.src, p.b.src)
                                      : p.a.src;
}

using Rows = std::vector<Tuple>;

/// Binds sources level.. in turn, testing each WHERE conjunct as soon as
/// every source it names is bound (the conjunction is order-insensitive),
/// and hands every surviving binding to `emit`.
template <typename Emit>
void EnumerateInner(const std::vector<const Rows*>& sources,
                    const CoreSpec& c, size_t level, Binding* b,
                    const Emit& emit) {
  if (level == sources.size()) {
    emit(*b);
    return;
  }
  for (const Tuple& row : *sources[level]) {
    (*b)[level] = &row;
    bool pass = true;
    for (const Pred& p : c.where) {
      if (MaxSource(p) == level && !PredTrue(p, *b)) {
        pass = false;
        break;
      }
    }
    if (pass) EnumerateInner(sources, c, level + 1, b, emit);
  }
}

Rows RunDerived(const std::vector<Rows>& data, const CoreSpec& c);

/// One core's rows: derived tables first, recursively, then the joins.
Rows RunCore(const std::vector<Rows>& data, const CoreSpec& c) {
  std::vector<Rows> derived(c.from.size());
  std::vector<const Rows*> sources;
  for (size_t s = 0; s < c.from.size(); ++s) {
    if (c.from[s].derived) {
      derived[s] = RunDerived(data, *c.from[s].derived);
      sources.push_back(&derived[s]);
    } else {
      sources.push_back(&data[c.from[s].table]);
    }
  }
  Rows out;
  auto emit = [&](const Binding& b) {
    Tuple row;
    for (const Item& item : c.select) {
      Value v = item.literal ? item.value : CellOf(b, item.col);
      if (item.plus_one && !v.is_null()) v = Value::Int64(v.AsInt64() + 1);
      row.Append(std::move(v));
    }
    out.push_back(std::move(row));
  };
  if (c.outer) {
    // ON decides the matches (and the NULL padding); WHERE then filters
    // the joined rows.
    auto emit_if_where = [&](const Binding& b) {
      if (std::all_of(c.where.begin(), c.where.end(),
                      [&](const Pred& p) { return PredTrue(p, b); })) {
        emit(b);
      }
    };
    for (const Tuple& l : *sources[0]) {
      bool matched = false;
      for (const Tuple& r : *sources[1]) {
        const Binding b = {&l, &r};
        if (std::all_of(c.on.begin(), c.on.end(),
                        [&](const Pred& p) { return PredTrue(p, b); })) {
          matched = true;
          emit_if_where(b);
        }
      }
      if (!matched) emit_if_where({&l, nullptr});
    }
  } else {
    Binding b(sources.size(), nullptr);
    EnumerateInner(sources, c, 0, &b, emit);
  }
  if (c.distinct) {
    std::sort(out.begin(), out.end(),
              [](const Tuple& a, const Tuple& b) { return a.Compare(b) < 0; });
    out.erase(std::unique(out.begin(), out.end(),
                          [](const Tuple& a, const Tuple& b) {
                            return a.Compare(b) == 0;
                          }),
              out.end());
  }
  return out;
}

/// A derived table's rows: its core's, then its UNION ALL core's. Its
/// ORDER BY cannot change the multiset its parent reads.
Rows RunDerived(const std::vector<Rows>& data, const CoreSpec& c) {
  Rows rows = RunCore(data, c);
  if (c.union_all) {
    Rows more = RunCore(data, *c.union_all);
    rows.insert(rows.end(), std::make_move_iterator(more.begin()),
                std::make_move_iterator(more.end()));
  }
  return rows;
}

/// The reference's answer: its rows, or ok == false when it refuses the
/// query.
struct Reference {
  bool ok = true;
  Rows rows;
};

/// Output column of ORDER BY key `k`: its literal item, or the one column
/// item naming its column; -1 when none or several do.
int UniqueOutputColumn(const CoreSpec& c, const OrderKey& k) {
  if (k.item >= 0) return k.item;
  int found = -1;
  for (size_t i = 0; i < c.select.size(); ++i) {
    if (c.select[i].literal || !SameCol(c.select[i].col, k.col)) continue;
    if (found >= 0) return -1;
    found = static_cast<int>(i);
  }
  return found;
}

Reference RunReference(const std::vector<Rows>& data, const QuerySpec& q) {
  Reference ref;
  // After DISTINCT, and over a UNION, only the select list is left to
  // sort by, and a key has to name exactly one of its columns.
  if (q.first().distinct || q.cores.size() > 1) {
    for (const OrderKey& k : q.order_by) {
      if (UniqueOutputColumn(q.first(), k) < 0) ref.ok = false;
    }
    if (!ref.ok) return ref;
  }
  for (const CoreSpec& c : q.cores) {
    Rows rows = RunCore(data, c);
    ref.rows.insert(ref.rows.end(), std::make_move_iterator(rows.begin()),
                    std::make_move_iterator(rows.end()));
  }
  return ref;
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

/// Exact representation as bytes: type tag plus payload bits, so two
/// tuples serialize equal iff every value is identical.
std::string ExactKey(const Tuple& t) {
  std::string out;
  for (const Value& v : t.values()) {
    if (v.is_null()) {
      out += 'N';
    } else if (v.is_int64()) {
      const int64_t i = v.AsInt64();
      out += 'I';
      out.append(reinterpret_cast<const char*>(&i), sizeof(i));
    } else if (v.is_double()) {
      const double d = v.AsDouble();
      out += 'D';
      out.append(reinterpret_cast<const char*>(&d), sizeof(d));
    } else {
      out += 'S' + std::to_string(v.AsString().size()) + ':' + v.AsString();
    }
  }
  return out;
}

std::string ValueToString(const Value& v) {
  if (v.is_null()) return "NULL";
  if (v.is_int64()) return "i:" + std::to_string(v.AsInt64());
  if (v.is_double()) {
    std::ostringstream os;
    os << "d:" << v.AsDouble();
    return os.str();
  }
  return "s:'" + v.AsString() + "'";
}

std::string RowToString(const Tuple& t) {
  std::string out = "(";
  for (size_t i = 0; i < t.size(); ++i) {
    out += (i > 0 ? ", " : "") + ValueToString(t.values()[i]);
  }
  return out + ")";
}

/// The output column of every ORDER BY key, or false when a key is not
/// projected.
bool ProjectedKeys(const QuerySpec& q, std::vector<size_t>* key_cols) {
  const std::vector<Item>& select = q.first().select;
  for (const OrderKey& k : q.order_by) {
    if (k.item >= 0) {
      key_cols->push_back(static_cast<size_t>(k.item));
      continue;
    }
    const auto it =
        std::find_if(select.begin(), select.end(), [&](const Item& item) {
          return !item.literal && SameCol(item.col, k.col);
        });
    if (it == select.end()) return false;
    key_cols->push_back(static_cast<size_t>(it - select.begin()));
  }
  return true;
}

/// The tie check, when every ORDER BY key is projected: the ordered result
/// is the same query's unordered result (which the multiset check above
/// holds to the reference), stably sorted under Value::Compare, so rows
/// with equal keys (3 and 3.0, -0.0 and 0.0, two NULLs) keep the order
/// the cores produced them in. Returns the first disagreement, or "".
std::string TieDisagreement(const QuerySpec& q, const Relation& ordered,
                            const Database& db) {
  std::vector<size_t> key_cols;
  if (q.order_by.empty() || !ProjectedKeys(q, &key_cols)) return "";
  QuerySpec unordered = q;
  unordered.order_by.clear();
  QueryExecutor executor(&db);
  Result<Relation> plain = executor.ExecuteSql(unordered.Sql());
  if (!plain.ok()) return "unordered query fails: " + plain.status().ToString();
  std::vector<Tuple> expected = plain->rows;
  std::stable_sort(expected.begin(), expected.end(),
                   [&](const Tuple& a, const Tuple& b) {
                     for (size_t j = 0; j < key_cols.size(); ++j) {
                       const int c = a[key_cols[j]].Compare(b[key_cols[j]]);
                       if (c == 0) continue;
                       return q.order_by[j].ascending ? c < 0 : c > 0;
                     }
                     return false;
                   });
  if (expected.size() != ordered.rows.size()) return "row counts differ";
  for (size_t i = 0; i < expected.size(); ++i) {
    if (ExactKey(expected[i]) != ExactKey(ordered.rows[i])) {
      return "row " + std::to_string(i) + " is " +
             RowToString(ordered.rows[i]) + ", a stable sort of the "
             "unordered result puts " + RowToString(expected[i]) + " there";
    }
  }
  return "";
}

/// Compares the engine's rows against the reference's under the rules in
/// the file comment; returns the first disagreement, or "".
std::string Disagreement(const QuerySpec& q, const Reference& ref,
                         const Result<Relation>& engine) {
  if (ref.ok != engine.ok()) {
    return std::string("status: reference ") +
           (ref.ok ? "succeeds" : "refuses") + ", engine " +
           (engine.ok() ? "succeeds" : engine.status().ToString());
  }
  if (!ref.ok) {
    return engine.status().code() == StatusCode::kInvalidArgument
               ? ""
               : "engine refused with " + engine.status().ToString();
  }
  for (const Tuple& row : engine->rows) {
    if (row.size() != q.first().select.size()) {
      return "engine row " + RowToString(row) + " has the wrong arity";
    }
  }

  if (q.cores.size() == 1 && q.first().distinct) {
    std::vector<Tuple> got = engine->rows;
    std::sort(got.begin(), got.end(),
              [](const Tuple& a, const Tuple& b) { return a.Compare(b) < 0; });
    for (size_t i = 1; i < got.size(); ++i) {
      if (got[i - 1].Compare(got[i]) == 0) {
        return "DISTINCT output repeats " + RowToString(got[i]);
      }
    }
    for (size_t i = 0; i < std::min(got.size(), ref.rows.size()); ++i) {
      if (got[i].Compare(ref.rows[i]) != 0) {
        return "DISTINCT sets differ at sorted row " + std::to_string(i) +
               ": engine " + RowToString(got[i]) + " vs reference " +
               RowToString(ref.rows[i]);
      }
    }
  } else {
    std::vector<std::string> a, b;
    for (const Tuple& t : engine->rows) a.push_back(ExactKey(t));
    for (const Tuple& t : ref.rows) b.push_back(ExactKey(t));
    std::sort(a.begin(), a.end());
    std::sort(b.begin(), b.end());
    if (a != b) {
      // Name one row whose multiplicity differs.
      for (const Tuple& t : ref.rows) {
        const std::string key = ExactKey(t);
        const auto na = std::count(a.begin(), a.end(), key);
        const auto nb = std::count(b.begin(), b.end(), key);
        if (na != nb) {
          return "row " + RowToString(t) + " appears " + std::to_string(na) +
                 "x in the engine's output, " + std::to_string(nb) +
                 "x in the reference's";
        }
      }
      return "the engine emits a row the reference never does";
    }
  }
  if (engine->rows.size() != ref.rows.size()) {
    return "row counts differ: engine " + std::to_string(engine->rows.size()) +
           " vs reference " + std::to_string(ref.rows.size());
  }

  // Sortedness, when every ORDER BY key is projected.
  std::vector<size_t> key_cols;
  if (!ProjectedKeys(q, &key_cols)) return "";
  const std::vector<Tuple>& rows = engine->rows;
  for (size_t i = 1; i < rows.size(); ++i) {
    for (size_t j = 0; j < key_cols.size(); ++j) {
      int c = rows[i - 1].values()[key_cols[j]].Compare(
          rows[i].values()[key_cols[j]]);
      if (!q.order_by[j].ascending) c = -c;
      if (c < 0) break;
      if (c > 0) {
        return "rows " + std::to_string(i - 1) + " and " + std::to_string(i) +
               " are out of ORDER BY order: " + RowToString(rows[i - 1]) +
               " before " + RowToString(rows[i]);
      }
    }
  }
  return "";
}

/// The bind check: the engine's result bound straight from its batch
/// (TupleStream(Rows)) must be byte-identical to SerializeTuple over the
/// same query's Relation. Returns the first disagreement, or "".
std::string BindDisagreement(engine::Rows rows, const Relation& relation) {
  std::string expected;
  for (const Tuple& t : relation.rows) SerializeTuple(t, &expected);
  const TupleStream stream(std::move(rows));
  if (stream.num_tuples() != relation.rows.size() ||
      stream.schema().size() != relation.schema.size()) {
    return "bound " + std::to_string(stream.num_tuples()) + " row(s) of " +
           std::to_string(stream.schema().size()) + " column(s), expected " +
           std::to_string(relation.rows.size()) + " of " +
           std::to_string(relation.schema.size());
  }
  const std::string& bound = *stream.shared_wire();
  if (bound == expected) return "";
  const size_t at = static_cast<size_t>(
      std::mismatch(bound.begin(), bound.end(), expected.begin(),
                    expected.end())
          .first -
      bound.begin());
  return "bound bytes differ from SerializeTuple's at byte " +
         std::to_string(at) + " (" + std::to_string(bound.size()) + " vs " +
         std::to_string(expected.size()) + " bytes)";
}

/// Which representation edge cases a result carries, so the test can
/// insist that the bind check keeps seeing them.
struct CellShapes {
  bool null = false;
  bool negative_zero = false;
  bool mixed_column = false;  // int64 and double cells in one column
};

CellShapes CountCellShapes(const Relation& relation) {
  CellShapes out;
  for (size_t c = 0; c < relation.schema.size(); ++c) {
    bool ints = false, doubles = false;
    for (const Tuple& t : relation.rows) {
      const Value& v = t.values()[c];
      out.null |= v.is_null();
      ints |= v.is_int64();
      doubles |= v.is_double();
      out.negative_zero |=
          v.is_double() && v.AsDouble() == 0.0 && std::signbit(v.AsDouble());
    }
    out.mixed_column |= ints && doubles;
  }
  return out;
}

/// The derived-table shapes one query exercises: the engine inlines a
/// single-core derived table into its parent's batch and materializes the
/// rest, and the test insists that the generator keeps reaching both.
struct DerivedShapes {
  bool padded_literal = false;  // a derived literal read through a LEFT
                                // OUTER JOIN's padding (reads NULL)
  bool own_outer = false;  // a literal read from a derived table whose own
                           // LEFT OUTER JOIN pads (it stays non-NULL)
  bool nested = false;     // a derived table inside a derived table
  bool distinct = false;   // DISTINCT inside a derived table
  bool literal_key = false;  // a join or ORDER BY key on a derived literal
  // Materialized: UNION ALL, ORDER BY, a computed item.
  bool union_all = false;
  bool order_by = false;
  bool computed = false;
};

void CountDerived(const CoreSpec& d, int depth, DerivedShapes* out) {
  out->nested |= depth > 0;
  out->distinct |= d.distinct;
  out->union_all |= d.union_all != nullptr;
  out->order_by |= d.order_item >= 0;
  out->computed |= std::any_of(d.select.begin(), d.select.end(),
                               [](const Item& item) { return item.plus_one; });
  for (const CoreSpec* c : {&d, d.union_all.get()}) {
    if (c == nullptr) continue;
    for (const FromItem& f : c->from) {
      if (f.derived) CountDerived(*f.derived, depth + 1, out);
    }
  }
}

DerivedShapes CountDerivedShapes(const QuerySpec& q) {
  DerivedShapes out;
  const CoreSpec& c = q.first();
  for (const FromItem& f : c.from) {
    if (f.derived) CountDerived(*f.derived, 0, &out);
  }
  for (const Item& item : c.select) {
    if (item.literal || !c.IsDerivedLiteral(item.col)) continue;
    out.padded_literal |= c.outer && item.col.src == 1;
    out.own_outer |= c.from[item.col.src].derived->outer;
  }
  for (const auto* preds : {&c.on, &c.where}) {
    for (const Pred& p : *preds) {
      out.literal_key |= p.kind == Pred::Kind::kColEq &&
                         (c.IsDerivedLiteral(p.a) || c.IsDerivedLiteral(p.b));
    }
  }
  for (const OrderKey& k : q.order_by) {
    out.literal_key |= k.item < 0 && c.IsDerivedLiteral(k.col);
  }
  return out;
}

TEST(DifferentialTest, EngineMatchesNestedLoopReference) {
  int num_queries = 500;
  if (const char* env = std::getenv("SILK_DIFF_QUERIES")) {
    num_queries = std::atoi(env);
  }
  constexpr uint32_t kBaseSeed = 20260805;

  int executed = 0, refused = 0, ordered = 0;
  int derived = 0, unions = 0, literals = 0, long_keys = 0, one_sided_on = 0;
  int padded_literal = 0, own_outer = 0, nested = 0, derived_distinct = 0,
      literal_key = 0, derived_union = 0, derived_order = 0,
      derived_computed = 0;
  int word_matches = 0, verified = 0;
  int sorts_in_order = 0, word_sorts = 0, byte_sorts = 0, computed_keys = 0;
  int bound_nulls = 0, bound_negative_zeros = 0, bound_mixed_columns = 0;
  for (int i = 0; i < num_queries; ++i) {
    const uint32_t seed = kBaseSeed + static_cast<uint32_t>(i);
    Rng rng(seed);
    GenDb gen;
    {
      SCOPED_TRACE("seed=" + std::to_string(seed));
      Rng db_rng(seed * 2654435761u);
      BuildDatabaseInto(db_rng, &gen);
      if (::testing::Test::HasFatalFailure()) return;
    }
    const QuerySpec q = GenerateQuery(rng, gen.data.size());
    const std::string sql = q.Sql();

    QueryExecutor executor(&gen.db);
    const Result<Relation> engine = executor.ExecuteSql(sql);
    const Reference ref = RunReference(gen.data, q);
    const std::string diff = Disagreement(q, ref, engine);
    ASSERT_EQ(diff, "") << "seed=" << seed << "\nsql: " << sql;
    if (engine.ok()) {
      ASSERT_EQ(TieDisagreement(q, *engine, gen.db), "")
          << "seed=" << seed << "\nsql: " << sql;
    }
    QueryExecutor batch_executor(&gen.db);
    Result<engine::Rows> rows = batch_executor.ExecuteRows(sql, 0, nullptr);
    ASSERT_EQ(rows.ok(), engine.ok()) << "seed=" << seed << "\nsql: " << sql;
    if (rows.ok()) {
      ASSERT_EQ(BindDisagreement(std::move(rows).value(), *engine), "")
          << "seed=" << seed << "\nsql: " << sql;
      const CellShapes cells = CountCellShapes(*engine);
      bound_nulls += cells.null;
      bound_negative_zeros += cells.negative_zero;
      bound_mixed_columns += cells.mixed_column;
    }
    ++executed;
    refused += ref.ok ? 0 : 1;
    ordered += q.order_by.empty() ? 0 : 1;
    const CoreSpec& first = q.first();
    derived += first.from[0].derived ? 1 : 0;
    unions += q.cores.size() > 1 ? 1 : 0;
    literals += std::any_of(first.select.begin(), first.select.end(),
                            [](const Item& item) { return item.literal; });
    long_keys += q.order_by.size() >= 3 ? 1 : 0;
    computed_keys += std::any_of(q.order_by.begin(), q.order_by.end(),
                                 [](const OrderKey& k) { return k.plus_zero; });
    one_sided_on += std::any_of(first.on.begin(), first.on.end(),
                                [](const Pred& p) {
                                  return p.kind != Pred::Kind::kColEq;
                                });
    const DerivedShapes shapes = CountDerivedShapes(q);
    padded_literal += shapes.padded_literal;
    own_outer += shapes.own_outer;
    nested += shapes.nested;
    derived_distinct += shapes.distinct;
    literal_key += shapes.literal_key;
    derived_union += shapes.union_all;
    derived_order += shapes.order_by;
    derived_computed += shapes.computed;
    // The word index settles a match on words alone when both keys are
    // numerics below 2^53, and verifies every other candidate.
    const ExecStats& stats = executor.stats();
    verified += stats.keys_verified > 0;
    word_matches += stats.keys_verified == 0 && stats.hash_joins > 0 &&
                    engine.ok() && !engine->rows.empty();
    // The ORDER BY path of a query with at least two rows to order (and
    // no ORDER BY of its own in a derived table).
    if (!q.order_by.empty() && !shapes.order_by && engine.ok() &&
        engine->rows.size() >= 2) {
      sorts_in_order += stats.sorts_in_order > 0;
      word_sorts += stats.sorts_in_order == 0 && stats.sorts_on_bytes == 0;
      byte_sorts += stats.sorts_in_order == 0 && stats.sorts_on_bytes > 0;
    }
  }
  std::printf(
      "derived shapes: padded literal %d, own outer join %d, nested %d, "
      "distinct %d, literal key %d, union all %d, order by %d, computed "
      "%d\n",
      padded_literal, own_outer, nested, derived_distinct, literal_key,
      derived_union, derived_order, derived_computed);
  std::printf("join matches: words only %d, verified candidates %d\n",
              word_matches, verified);
  std::printf(
      "ORDER BY: in order %d, word sort %d, byte sort %d, computed key %d\n",
      sorts_in_order, word_sorts, byte_sorts, computed_keys);
  std::printf(
      "bound results with: NULL %d, -0.0 %d, int64 and double in one column "
      "%d\n",
      bound_nulls, bound_negative_zeros, bound_mixed_columns);
  EXPECT_EQ(executed, num_queries);
  // The generator must keep exercising both outcomes, ORDER BY, and every
  // shape it knows.
  if (num_queries >= 500) {
    EXPECT_GT(refused, 0);
    EXPECT_GT(ordered, num_queries / 4);
    EXPECT_GT(derived, num_queries / 10);
    EXPECT_GT(unions, num_queries / 10);
    EXPECT_GT(literals, num_queries / 10);
    EXPECT_GT(long_keys, num_queries / 20);
    EXPECT_GT(one_sided_on, num_queries / 20);
    EXPECT_GT(padded_literal, num_queries / 100);
    EXPECT_GT(own_outer, num_queries / 100);
    EXPECT_GT(nested, num_queries / 100);
    EXPECT_GT(derived_distinct, num_queries / 100);
    EXPECT_GT(literal_key, num_queries / 100);
    EXPECT_GT(derived_union, num_queries / 100);
    EXPECT_GT(derived_order, num_queries / 100);
    EXPECT_GT(derived_computed, num_queries / 100);
    EXPECT_GT(word_matches, num_queries / 100);
    EXPECT_GT(verified, num_queries / 100);
    EXPECT_GT(sorts_in_order, num_queries / 100);
    EXPECT_GT(word_sorts, num_queries / 100);
    EXPECT_GT(byte_sorts, num_queries / 100);
    EXPECT_GT(computed_keys, num_queries / 100);
    EXPECT_GT(bound_nulls, num_queries / 100);
    EXPECT_GT(bound_negative_zeros, num_queries / 100);
    EXPECT_GT(bound_mixed_columns, num_queries / 100);
  }
}

}  // namespace
}  // namespace silkroute::engine
