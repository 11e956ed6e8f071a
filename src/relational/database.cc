#include "relational/database.h"

namespace silkroute {

Status Database::CreateTable(TableSchema schema) {
  const std::string name = schema.name();
  SILK_RETURN_IF_ERROR(catalog_.AddTable(schema));
  tables_.emplace(name, std::make_unique<Table>(std::move(schema)));
  return Status::OK();
}

Result<Table*> Database::GetTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table '" + name + "'");
  }
  return it->second.get();
}

Result<const Table*> Database::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no table '" + name + "'");
  }
  return static_cast<const Table*>(it->second.get());
}

Status Database::Insert(const std::string& table, const Tuple& row) {
  SILK_ASSIGN_OR_RETURN(Table * t, GetTable(table));
  return t->Insert(row);
}

size_t Database::TotalByteSize() const {
  size_t total = 0;
  for (const auto& [name, table] : tables_) total += table->DataByteSize();
  return total;
}

}  // namespace silkroute
