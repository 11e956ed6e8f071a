#include "engine/stats.h"

#include <cmath>
#include <cstdint>
#include <string_view>
#include <unordered_set>

#include "relational/columnar.h"

namespace silkroute::engine {

namespace {

/// Distinct non-NULL values of one column, read off its typed arrays with
/// no Value built per cell. Numeric distinctness is exact numeric
/// equality: an integral double counts with the int64 of the same value
/// (3 and 3.0 are one value, as under Value::Compare).
size_t CountDistinct(const ColumnVector& column) {
  if (column.type() == DataType::kString) {
    std::unordered_set<std::string_view> seen;
    for (size_t r = 0; r < column.size(); ++r) {
      if (!column.IsNull(r)) seen.insert(column.StringAt(r));
    }
    return seen.size();
  }
  std::unordered_set<int64_t> ints;
  std::unordered_set<double> fractions;
  for (size_t r = 0; r < column.size(); ++r) {
    if (column.IsNull(r)) continue;
    if (column.CellIsInt64(r)) {
      ints.insert(column.Int64At(r));
      continue;
    }
    const double d = column.DoubleAt(r);
    if (std::trunc(d) == d && d >= -0x1p63 && d < 0x1p63) {
      ints.insert(static_cast<int64_t>(d));
    } else {
      fractions.insert(d);
    }
  }
  return ints.size() + fractions.size();
}

}  // namespace

DatabaseStats DatabaseStats::Collect(const Database& db) {
  DatabaseStats stats;
  for (const std::string& name : db.catalog().TableNames()) {
    auto table_result = db.GetTable(name);
    if (!table_result.ok()) continue;
    const Table& table = *table_result.value();
    const size_t num_cols = table.schema().num_columns();

    TableStats ts;
    ts.row_count = table.num_rows();
    ts.columns.resize(num_cols);
    double row_width = 0;
    for (size_t c = 0; c < num_cols; ++c) {
      const ColumnVector& column = table.column(c);
      ColumnStats& cs = ts.columns[c];
      cs.distinct_count = CountDistinct(column);
      cs.null_fraction =
          ts.row_count == 0
              ? 0.0
              : static_cast<double>(column.null_count()) / ts.row_count;
      cs.avg_width_bytes =
          ts.row_count == 0
              ? 8.0
              : static_cast<double>(column.ByteSize()) / ts.row_count;
      row_width += cs.avg_width_bytes;
      stats.column_index_[name][table.schema().column(c).name] = c;
    }
    ts.avg_row_width_bytes = row_width;
    stats.tables_.emplace(name, std::move(ts));
  }
  return stats;
}

Result<const TableStats*> DatabaseStats::GetTable(
    const std::string& table) const {
  auto it = tables_.find(table);
  if (it == tables_.end()) {
    return Status::NotFound("no statistics for table '" + table + "'");
  }
  return &it->second;
}

double DatabaseStats::DistinctCount(const std::string& table,
                                    const std::string& column,
                                    double fallback) const {
  auto t = tables_.find(table);
  if (t == tables_.end()) return fallback;
  auto ci = column_index_.find(table);
  if (ci == column_index_.end()) return fallback;
  auto c = ci->second.find(column);
  if (c == ci->second.end()) return fallback;
  size_t d = t->second.columns[c->second].distinct_count;
  return d == 0 ? fallback : static_cast<double>(d);
}

const ColumnStats* DatabaseStats::GetColumn(const std::string& table,
                                            const std::string& column) const {
  auto t = tables_.find(table);
  if (t == tables_.end()) return nullptr;
  auto ci = column_index_.find(table);
  if (ci == column_index_.end()) return nullptr;
  auto c = ci->second.find(column);
  if (c == ci->second.end()) return nullptr;
  return &t->second.columns[c->second];
}

double DatabaseStats::RowCount(const std::string& table) const {
  auto it = tables_.find(table);
  return it == tables_.end() ? 0.0
                             : static_cast<double>(it->second.row_count);
}

}  // namespace silkroute::engine
