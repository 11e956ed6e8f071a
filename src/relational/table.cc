#include "relational/table.h"

namespace silkroute {

Table::Table(TableSchema schema) : schema_(std::move(schema)) {
  for (const auto& k : schema_.primary_key()) {
    auto idx = schema_.FindColumn(k);
    if (idx) key_indices_.push_back(*idx);
  }
  columns_.reserve(schema_.num_columns());
  for (const ColumnDef& col : schema_.columns()) {
    columns_.emplace_back(col.type);
  }
}

Tuple Table::Row(size_t i) const {
  Tuple row;
  row.mutable_values().reserve(columns_.size());
  for (const ColumnVector& c : columns_) row.Append(c.ValueAt(i));
  return row;
}

Tuple Table::ExtractKey(const Tuple& row) const {
  Tuple key;
  for (size_t i : key_indices_) key.Append(row[i]);
  return key;
}

Status Table::CheckShape(const Tuple& row) const {
  if (row.size() != schema_.num_columns()) {
    return Status::InvalidArgument(
        "arity mismatch inserting into '" + schema_.name() + "': got " +
        std::to_string(row.size()) + " values, want " +
        std::to_string(schema_.num_columns()));
  }
  for (size_t i = 0; i < row.size(); ++i) {
    const ColumnDef& col = schema_.column(i);
    const Value& v = row[i];
    if (v.is_null()) {
      if (!col.nullable) {
        return Status::ConstraintViolation("NULL in non-nullable column '" +
                                           col.name + "' of table '" +
                                           schema_.name() + "'");
      }
      continue;
    }
    bool type_ok = false;
    switch (col.type) {
      case DataType::kInt64:
        type_ok = v.is_int64();
        break;
      case DataType::kDouble:
        type_ok = v.is_double() || v.is_int64();
        break;
      case DataType::kString:
        type_ok = v.is_string();
        break;
    }
    if (!type_ok) {
      return Status::TypeError("value " + v.ToString() +
                               " does not match column '" + col.name +
                               "' of type " + DataTypeToString(col.type));
    }
  }
  return Status::OK();
}

Status Table::Insert(const Tuple& row) {
  SILK_RETURN_IF_ERROR(CheckShape(row));
  Tuple key = ExtractKey(row);
  if (!key_indices_.empty() && key_set_.count(key) != 0) {
    return Status::ConstraintViolation("duplicate primary key " +
                                       key.ToString() + " in table '" +
                                       schema_.name() + "'");
  }
  CommitRow(row, std::move(key));
  return Status::OK();
}

Status Table::InsertUnchecked(const Tuple& row) {
  SILK_RETURN_IF_ERROR(CheckShape(row));
  CommitRow(row, ExtractKey(row));
  return Status::OK();
}

void Table::CommitRow(const Tuple& row, Tuple key) {
  if (!key_indices_.empty()) key_set_.insert(std::move(key));
  for (size_t c = 0; c < columns_.size(); ++c) columns_[c].Append(row[c]);
  ++row_count_;
  version_.fetch_add(1, std::memory_order_release);
}

void Table::Reserve(size_t expected_rows) {
  for (ColumnVector& c : columns_) c.Reserve(expected_rows);
  if (!key_indices_.empty()) key_set_.reserve(key_set_.size() + expected_rows);
}

size_t Table::DataByteSize() const {
  size_t total = 0;
  for (const ColumnVector& c : columns_) total += c.ByteSize();
  return total;
}

}  // namespace silkroute
