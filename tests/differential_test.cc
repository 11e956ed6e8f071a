// Differential testing harness: the engine against an independent SQL
// reference. A seeded generator produces random schemas, NULL-heavy data,
// and random queries (multi-way comma joins, LEFT OUTER JOIN ... ON,
// single-table filters, DISTINCT, ORDER BY over mixed-type keys). Every
// query exists twice: as SQL text for the engine, and as a structured
// description that a deliberately naive nested-loop evaluator in this file
// runs over the harness's own copy of the generated tuples — never the
// engine's tables, parser, planner, or key codec. The reference needs
// nothing but Value::Compare (WHERE under three-valued logic, ORDER BY)
// and Tuple::Compare (DISTINCT).
//
// Agreement rules:
//  - status: both succeed, or both fail (e.g. DISTINCT with an ORDER BY
//    key outside the select list);
//  - without DISTINCT, equal multisets of exactly-represented tuples
//    (Int64(3) != Double(3.0), -0.0 != 0.0 bitwise);
//  - with DISTINCT, equal sets under Tuple::Compare;
//  - when every ORDER BY key is projected, the engine's rows are also
//    non-decreasing in the ASC/DESC keys.
// Failures print the seed and the SQL, so a reproduction is one copy-paste
// away. SILK_DIFF_QUERIES overrides the query count for soak runs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "engine/executor.h"
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
  // tiebreaker regime into join keys, DISTINCT, and ORDER BY.
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
      Tuple row{
          Chance(rng, 15) ? Value::Null()
                          : Value::Int64(static_cast<int64_t>(rng() % 10)),
          Chance(rng, 15) ? Value::Null()
                          : Value::Int64(static_cast<int64_t>(rng() % 10)),
          Chance(rng, 30) ? Value::Null() : RandomDoubleColValue(rng),
          Chance(rng, 20) ? Value::Null() : RandomStringColValue(rng),
      };
      ASSERT_TRUE(table->Insert(row).ok());
      copy.push_back(std::move(row));
    }
    gen->data.push_back(std::move(copy));
  }
}

// ---------------------------------------------------------------------------
// Query description and SQL rendering
// ---------------------------------------------------------------------------

struct ColRef {
  size_t table;
  size_t col;  // index into kCols
};

bool SameCol(const ColRef& a, const ColRef& b) {
  return a.table == b.table && a.col == b.col;
}

std::string Qualified(const ColRef& c) {
  return "t" + std::to_string(c.table) + "." + kCols[c.col];
}

/// One WHERE / ON conjunct: `a = b`, `a = <literal>`, or `a IS NOT NULL`.
struct Pred {
  enum class Kind { kColEq, kColEqInt, kIsNotNull } kind;
  ColRef a;
  ColRef b{0, 0};     // kColEq
  int64_t literal = 0;  // kColEqInt
};

std::string PredSql(const Pred& p) {
  switch (p.kind) {
    case Pred::Kind::kColEq:
      return Qualified(p.a) + " = " + Qualified(p.b);
    case Pred::Kind::kColEqInt:
      return Qualified(p.a) + " = " + std::to_string(p.literal);
    case Pred::Kind::kIsNotNull:
      return Qualified(p.a) + " IS NOT NULL";
  }
  return "";
}

struct OrderKey {
  ColRef col;
  bool ascending;
};

struct QuerySpec {
  size_t use = 0;  // tables t0..t{use-1}
  bool distinct = false;
  bool outer = false;     // t0 LEFT OUTER JOIN t1 ON `on`
  std::vector<Pred> on;
  std::vector<ColRef> select;
  std::vector<Pred> where;
  std::vector<OrderKey> order_by;

  std::string Sql() const {
    std::ostringstream sql;
    sql << "SELECT ";
    if (distinct) sql << "DISTINCT ";
    for (size_t i = 0; i < select.size(); ++i) {
      sql << (i > 0 ? ", " : "") << Qualified(select[i]);
    }
    if (outer) {
      sql << " FROM t0 LEFT OUTER JOIN t1 ON ";
      for (size_t i = 0; i < on.size(); ++i) {
        sql << (i > 0 ? " AND " : "") << PredSql(on[i]);
      }
    } else {
      sql << " FROM ";
      for (size_t t = 0; t < use; ++t) sql << (t > 0 ? ", t" : "t") << t;
    }
    for (size_t i = 0; i < where.size(); ++i) {
      sql << (i > 0 ? " AND " : " WHERE ") << PredSql(where[i]);
    }
    for (size_t i = 0; i < order_by.size(); ++i) {
      sql << (i > 0 ? ", " : " ORDER BY ") << Qualified(order_by[i].col)
          << (order_by[i].ascending ? "" : " DESC");
    }
    return sql.str();
  }
};

ColRef RandomCol(Rng& rng, size_t use) {
  const size_t table = Pick(rng, use);
  return {table, Pick(rng, 4)};
}

size_t RandomKeyCol(Rng& rng) { return rng() % 2 ? kK0 : kK1; }

/// One random query over tables t0..t{use-1}. Shapes:
///  - comma FROM list with equijoin WHERE conjuncts (the greedy hash-join
///    planner; dropping a conjunct occasionally forces a cross product),
///  - LEFT OUTER JOIN ... ON (two tables),
/// plus optional single-table filters, DISTINCT, and 1-2 ORDER BY keys.
QuerySpec GenerateQuery(Rng& rng, size_t num_tables) {
  QuerySpec q;
  q.use = 2 + Pick(rng, num_tables - 1);  // 2..num_tables
  q.outer = q.use == 2 && Chance(rng, 25);
  q.distinct = Chance(rng, 30);
  const size_t num_select = 1 + Pick(rng, 4);
  for (size_t i = 0; i < num_select; ++i) {
    q.select.push_back(RandomCol(rng, q.use));
  }

  if (q.outer) {
    const size_t on_pairs = Chance(rng, 30) ? 2 : 1;
    for (size_t i = 0; i < on_pairs; ++i) {
      const size_t left = RandomKeyCol(rng);
      q.on.push_back({Pred::Kind::kColEq, {0, left}, {1, RandomKeyCol(rng)}});
    }
  } else {
    for (size_t t = 0; t + 1 < q.use; ++t) {
      // 10%: drop the conjunct, leaving a cross product.
      if (Chance(rng, 10)) continue;
      const size_t left = RandomKeyCol(rng);
      q.where.push_back(
          {Pred::Kind::kColEq, {t, left}, {t + 1, RandomKeyCol(rng)}});
    }
  }

  // Single-table filters, pushed down by the planner.
  if (Chance(rng, 40)) {
    const size_t table = Pick(rng, q.use);
    const size_t col = RandomKeyCol(rng);
    q.where.push_back({Pred::Kind::kColEqInt, {table, col}, {0, 0},
                       static_cast<int64_t>(rng() % 10)});
  }
  if (Chance(rng, 20)) {
    q.where.push_back({Pred::Kind::kIsNotNull, {Pick(rng, q.use), kS0}});
  }
  if (Chance(rng, 15)) {  // cross-type: a DOUBLE column against 3
    q.where.push_back(
        {Pred::Kind::kColEqInt, {Pick(rng, q.use), kD0}, {0, 0}, 3});
  }

  if (Chance(rng, 50)) {
    const size_t num_keys = 1 + (Chance(rng, 40) ? 1 : 0);
    for (size_t i = 0; i < num_keys; ++i) {
      const ColRef col = RandomCol(rng, q.use);
      q.order_by.push_back({col, !Chance(rng, 40)});
    }
  }
  return q;
}

// ---------------------------------------------------------------------------
// The reference: nested loops over the harness's tuples
// ---------------------------------------------------------------------------

/// One source row: a row pointer per table, null for outer-join padding.
using Binding = std::vector<const Tuple*>;

Value CellOf(const Binding& b, const ColRef& c) {
  const Tuple* row = b[c.table];
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

size_t MaxTable(const Pred& p) {
  return p.kind == Pred::Kind::kColEq ? std::max(p.a.table, p.b.table)
                                      : p.a.table;
}

/// Binds t{level}.. in turn, testing each WHERE conjunct as soon as every
/// table it names is bound (the conjunction is order-insensitive), and
/// hands every surviving binding to `emit`.
template <typename Emit>
void EnumerateInner(const std::vector<std::vector<Tuple>>& data,
                    const QuerySpec& q, size_t level, Binding* b,
                    const Emit& emit) {
  if (level == q.use) {
    emit(*b);
    return;
  }
  for (const Tuple& row : data[level]) {
    (*b)[level] = &row;
    bool pass = true;
    for (const Pred& p : q.where) {
      if (MaxTable(p) == level && !PredTrue(p, *b)) {
        pass = false;
        break;
      }
    }
    if (pass) EnumerateInner(data, q, level + 1, b, emit);
  }
}

/// The reference's answer: its rows, or ok == false when it refuses the
/// query.
struct Reference {
  bool ok = true;
  std::vector<Tuple> rows;
};

/// Output column of `key`'s column when exactly one select item names it;
/// -1 otherwise (absent or ambiguous).
int UniqueOutputColumn(const QuerySpec& q, const ColRef& key) {
  int found = -1;
  for (size_t i = 0; i < q.select.size(); ++i) {
    if (!SameCol(q.select[i], key)) continue;
    if (found >= 0) return -1;
    found = static_cast<int>(i);
  }
  return found;
}

Reference RunReference(const std::vector<std::vector<Tuple>>& data,
                       const QuerySpec& q) {
  Reference ref;
  // After DISTINCT only the select list is left to sort by, and a key has
  // to name exactly one of its columns.
  if (q.distinct) {
    for (const OrderKey& k : q.order_by) {
      if (UniqueOutputColumn(q, k.col) < 0) ref.ok = false;
    }
    if (!ref.ok) return ref;
  }

  auto emit = [&](const Binding& b) {
    Tuple row;
    for (const ColRef& c : q.select) row.Append(CellOf(b, c));
    ref.rows.push_back(std::move(row));
  };
  if (q.outer) {
    // ON decides the matches (and the NULL padding); WHERE then filters
    // the joined rows.
    auto emit_if_where = [&](const Binding& b) {
      if (std::all_of(q.where.begin(), q.where.end(),
                      [&](const Pred& p) { return PredTrue(p, b); })) {
        emit(b);
      }
    };
    for (const Tuple& l : data[0]) {
      bool matched = false;
      for (const Tuple& r : data[1]) {
        const Binding b = {&l, &r};
        if (std::all_of(q.on.begin(), q.on.end(),
                        [&](const Pred& p) { return PredTrue(p, b); })) {
          matched = true;
          emit_if_where(b);
        }
      }
      if (!matched) emit_if_where({&l, nullptr});
    }
  } else {
    Binding b(q.use, nullptr);
    EnumerateInner(data, q, 0, &b, emit);
  }
  if (q.distinct) {
    std::sort(ref.rows.begin(), ref.rows.end(),
              [](const Tuple& a, const Tuple& b) { return a.Compare(b) < 0; });
    ref.rows.erase(std::unique(ref.rows.begin(), ref.rows.end(),
                               [](const Tuple& a, const Tuple& b) {
                                 return a.Compare(b) == 0;
                               }),
                   ref.rows.end());
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
    if (row.size() != q.select.size()) {
      return "engine row " + RowToString(row) + " has the wrong arity";
    }
  }

  if (q.distinct) {
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
  for (const OrderKey& k : q.order_by) {
    const auto it = std::find_if(
        q.select.begin(), q.select.end(),
        [&](const ColRef& c) { return SameCol(c, k.col); });
    if (it == q.select.end()) return "";
    key_cols.push_back(static_cast<size_t>(it - q.select.begin()));
  }
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

TEST(DifferentialTest, EngineMatchesNestedLoopReference) {
  int num_queries = 500;
  if (const char* env = std::getenv("SILK_DIFF_QUERIES")) {
    num_queries = std::atoi(env);
  }
  constexpr uint32_t kBaseSeed = 20260805;

  int executed = 0, refused = 0, ordered = 0;
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
    ++executed;
    refused += ref.ok ? 0 : 1;
    ordered += q.order_by.empty() ? 0 : 1;
  }
  EXPECT_EQ(executed, num_queries);
  // The generator must keep exercising both outcomes and ORDER BY.
  if (num_queries >= 500) {
    EXPECT_GT(refused, 0);
    EXPECT_GT(ordered, num_queries / 4);
  }
}

}  // namespace
}  // namespace silkroute::engine
