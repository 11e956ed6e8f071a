// Differential testing harness for the sharded columnar storage layout
// (DESIGN.md §16): the shard count may not be distinguishable from the
// single-shard reference. A seeded generator produces random schemas,
// NULL-heavy data, and random queries (multi-way joins, left outer joins,
// filters, DISTINCT, ORDER BY over mixed-type keys); every query runs over
// the same logical data stored at shard counts 1, 4, and 16, so every
// multi-shard scan path is crossed. The tuple streams must be identical
// value-for-value (exact type and payload, including -0.0 vs 0.0) and in
// identical order, and ExecStats must match exactly — same rows
// scanned/joined/sorted, same packed keys encoded. Failures print the
// seed, shard count, and SQL so a reproduction is one copy-paste away.
// (XML byte-identity across shard counts is pinned by golden_xml_test.cc
// against the pre-columnar row-major goldens.)
#include <gtest/gtest.h>

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

/// Random schema + NULL-heavy data. Every table is
///   tN(k0 INT64 NULL, k1 INT64 NULL, d0 DOUBLE NULL, s0 STRING NULL)
/// so any generated column reference is valid against any table; the
/// small k domains make joins productive without exploding.
struct GenDb {
  Database db;
  size_t num_tables = 0;
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
    for (size_t r = 0; r < rows; ++r) {
      Tuple row{
          Chance(rng, 15) ? Value::Null()
                          : Value::Int64(static_cast<int64_t>(rng() % 10)),
          Chance(rng, 15) ? Value::Null()
                          : Value::Int64(static_cast<int64_t>(rng() % 10)),
          Chance(rng, 30) ? Value::Null() : RandomDoubleColValue(rng),
          Chance(rng, 20) ? Value::Null() : RandomStringColValue(rng),
      };
      ASSERT_TRUE(table->Insert(std::move(row)).ok());
    }
  }
  gen->num_tables = num_tables;  // set only after every insert succeeded
}

const char* RandomColumn(Rng& rng) {
  static const char* kCols[] = {"k0", "k1", "d0", "s0"};
  return kCols[rng() % 4];
}

std::string Qualified(size_t table, const char* col) {
  return "t" + std::to_string(table) + "." + col;
}

/// One random query over tables t0..t{use-1}. Shapes:
///  - comma FROM list with equijoin WHERE conjuncts (the greedy hash-join
///    planner; dropping a conjunct occasionally forces a cross product),
///  - LEFT OUTER JOIN ... ON (two tables),
/// plus optional single-table filters, DISTINCT, and 1-2 ORDER BY keys.
std::string GenerateSql(Rng& rng, size_t num_tables) {
  const size_t use = 2 + Pick(rng, num_tables - 1);  // 2..num_tables
  const bool outer = use == 2 && Chance(rng, 25);

  std::ostringstream sql;
  sql << "SELECT ";
  if (Chance(rng, 30)) sql << "DISTINCT ";
  const size_t num_select = 1 + Pick(rng, 4);
  for (size_t i = 0; i < num_select; ++i) {
    if (i > 0) sql << ", ";
    sql << Qualified(Pick(rng, use), RandomColumn(rng));
  }

  std::vector<std::string> where;
  if (outer) {
    sql << " FROM t0 LEFT OUTER JOIN t1 ON t0.k" << rng() % 2 << " = t1.k"
        << rng() % 2;
    if (Chance(rng, 30)) {
      sql << " AND t0.k" << rng() % 2 << " = t1.k" << rng() % 2;
    }
  } else {
    sql << " FROM ";
    for (size_t t = 0; t < use; ++t) {
      if (t > 0) sql << ", ";
      sql << "t" << t;
    }
    for (size_t t = 0; t + 1 < use; ++t) {
      // 10%: drop the conjunct, leaving a cross product.
      if (Chance(rng, 10)) continue;
      where.push_back(Qualified(t, rng() % 2 ? "k0" : "k1") + " = " +
                      Qualified(t + 1, rng() % 2 ? "k0" : "k1"));
    }
  }

  // Single-table filters, pushed down by the planner.
  if (Chance(rng, 40)) {
    where.push_back(Qualified(Pick(rng, use), rng() % 2 ? "k0" : "k1") +
                    " = " + std::to_string(rng() % 10));
  }
  if (Chance(rng, 20)) {
    where.push_back(Qualified(Pick(rng, use), "s0") + " IS NOT NULL");
  }
  if (Chance(rng, 15)) {
    where.push_back(Qualified(Pick(rng, use), "d0") + " = 3");  // cross-type
  }
  if (!where.empty()) {
    sql << " WHERE ";
    for (size_t i = 0; i < where.size(); ++i) {
      if (i > 0) sql << " AND ";
      sql << where[i];
    }
  }

  if (Chance(rng, 50)) {
    sql << " ORDER BY " << Qualified(Pick(rng, use), RandomColumn(rng));
    if (Chance(rng, 40)) sql << " DESC";
    if (Chance(rng, 40)) {
      sql << ", " << Qualified(Pick(rng, use), RandomColumn(rng));
      if (Chance(rng, 40)) sql << " DESC";
    }
  }
  return sql.str();
}

/// Exact identity, not Compare()==0: every layout must produce the same
/// *representation* (Int64(3) != Double(3.0), -0.0 != 0.0 bitwise).
bool ValueIdentical(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return a.is_null() && b.is_null();
  if (a.is_int64() != b.is_int64() || a.is_double() != b.is_double() ||
      a.is_string() != b.is_string()) {
    return false;
  }
  if (a.is_int64()) return a.AsInt64() == b.AsInt64();
  if (a.is_double()) {
    const double x = a.AsDouble();
    const double y = b.AsDouble();
    return std::memcmp(&x, &y, sizeof(x)) == 0;
  }
  return a.AsString() == b.AsString();
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

struct RunOutcome {
  Status status = Status::OK();
  Relation relation;
  ExecStats stats;
};

RunOutcome RunQuery(const Database& db, const std::string& sql) {
  QueryExecutor executor(&db);
  RunOutcome outcome;
  auto result = executor.ExecuteSql(sql);
  outcome.stats = executor.stats();
  if (result.ok()) {
    outcome.relation = std::move(*result);
  } else {
    outcome.status = result.status();
  }
  return outcome;
}

/// Every ExecStats counter, which must be invariant across shard counts.
std::string InvariantStats(const ExecStats& s) {
  std::ostringstream os;
  os << "scanned=" << s.rows_scanned << " joined=" << s.rows_joined
     << " sorted=" << s.rows_sorted << " nlj=" << s.nested_loop_joins
     << " hj=" << s.hash_joins << " probes=" << s.index_probes
     << " keys=" << s.keys_encoded << " key_bytes=" << s.bytes_encoded;
  return os.str();
}

void ExpectIdenticalRuns(const RunOutcome& reference,
                         const RunOutcome& sharded, size_t shard_count,
                         uint32_t seed, const std::string& sql) {
  const std::string repro = "seed=" + std::to_string(seed) +
                            " shards=" + std::to_string(shard_count) +
                            "\nsql: " + sql;
  ASSERT_EQ(reference.status.ok(), sharded.status.ok())
      << repro << "\nreference: " << reference.status
      << "\nsharded: " << sharded.status;
  if (!reference.status.ok()) {
    ASSERT_EQ(reference.status.code(), sharded.status.code()) << repro;
    return;
  }
  ASSERT_EQ(reference.relation.schema.size(), sharded.relation.schema.size())
      << repro;
  ASSERT_EQ(reference.relation.rows.size(), sharded.relation.rows.size())
      << repro;
  for (size_t r = 0; r < reference.relation.rows.size(); ++r) {
    const Tuple& a = reference.relation.rows[r];
    const Tuple& b = sharded.relation.rows[r];
    ASSERT_EQ(a.size(), b.size()) << repro << "\nrow " << r;
    for (size_t c = 0; c < a.size(); ++c) {
      ASSERT_TRUE(ValueIdentical(a.values()[c], b.values()[c]))
          << repro << "\nrow " << r << " col " << c << ": reference "
          << ValueToString(a.values()[c]) << " vs sharded "
          << ValueToString(b.values()[c]);
    }
  }
  EXPECT_EQ(InvariantStats(reference.stats), InvariantStats(sharded.stats))
      << repro;
}

TEST(DifferentialTest, ShardedExecutionMatchesSingleShardReference) {
  // 500+ random queries, each over shard counts {4, 16}, compared against
  // the single-shard reference. Override with SILK_DIFF_QUERIES for deeper
  // soak runs.
  int num_queries = 500;
  if (const char* env = std::getenv("SILK_DIFF_QUERIES")) {
    num_queries = std::atoi(env);
  }
  constexpr uint32_t kBaseSeed = 20260805;
  constexpr size_t kShardCounts[] = {1, 4, 16};
  constexpr size_t kNumLayouts = 3;

  int executed = 0;
  for (int q = 0; q < num_queries; ++q) {
    const uint32_t seed = kBaseSeed + static_cast<uint32_t>(q);
    Rng rng(seed);
    // One database per shard count, every layout built from the same data
    // seed, so all three hold identical logical content in different
    // physical arrangements.
    GenDb gens[kNumLayouts];
    for (size_t si = 0; si < kNumLayouts; ++si) {
      SCOPED_TRACE("seed=" + std::to_string(seed) +
                   " shards=" + std::to_string(kShardCounts[si]));
      gens[si].db.set_default_shard_count(kShardCounts[si]);
      Rng db_rng(seed * 2654435761u);
      BuildDatabaseInto(db_rng, &gens[si]);
      ASSERT_GT(gens[si].num_tables, 0u);  // builder ASSERT fired if zero
    }
    const std::string sql = GenerateSql(rng, gens[0].num_tables);

    // Reference: one shard — the row-major-equivalent run.
    const RunOutcome reference = RunQuery(gens[0].db, sql);
    for (size_t si = 1; si < kNumLayouts; ++si) {
      ExpectIdenticalRuns(reference, RunQuery(gens[si].db, sql),
                          kShardCounts[si], seed, sql);
      if (::testing::Test::HasFatalFailure()) return;
    }
    ++executed;
  }
  EXPECT_EQ(executed, num_queries);
}

}  // namespace
}  // namespace silkroute::engine
