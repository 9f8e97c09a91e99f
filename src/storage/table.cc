#include "storage/table.h"

#include "util/rng.h"

namespace isla {
namespace storage {

uint64_t Column::ContentFingerprint() const {
  uint64_t h = SplitMix64::Hash(0xc01f9ULL, blocks_.size());
  for (const auto& block : blocks_) {
    h = SplitMix64::Hash(h, block->ContentFingerprint());
  }
  return h == 0 ? 1 : h;
}

std::vector<uint64_t> Column::BlockSizes() const {
  std::vector<uint64_t> sizes;
  sizes.reserve(blocks_.size());
  for (const auto& block : blocks_) sizes.push_back(block->size());
  return sizes;
}

Status Column::AppendBlock(BlockPtr block) {
  if (block == nullptr) {
    return Status::InvalidArgument("block must not be null");
  }
  if (block->size() == 0) {
    return Status::InvalidArgument("empty blocks are not allowed");
  }
  num_rows_ += block->size();
  blocks_.push_back(std::move(block));
  return Status::OK();
}

Status Table::AddColumn(const std::string& column_name) {
  if (columns_.contains(column_name)) {
    return Status::AlreadyExists("column exists: " + column_name);
  }
  columns_.emplace(column_name, Column(column_name));
  order_.push_back(column_name);
  return Status::OK();
}

Status Table::AppendBlock(const std::string& column_name, BlockPtr block) {
  auto it = columns_.find(column_name);
  if (it == columns_.end()) {
    return Status::NotFound("no such column: " + column_name);
  }
  return it->second.AppendBlock(std::move(block));
}

Result<const Column*> Table::GetColumn(const std::string& column_name) const {
  auto it = columns_.find(column_name);
  if (it == columns_.end()) {
    return Status::NotFound("no such column: " + column_name);
  }
  return &it->second;
}

std::vector<std::string> Table::ColumnNames() const { return order_; }

Status Catalog::AddTable(std::shared_ptr<Table> table) {
  if (table == nullptr) {
    return Status::InvalidArgument("table must not be null");
  }
  if (tables_.contains(table->name())) {
    return Status::AlreadyExists("table exists: " + table->name());
  }
  tables_.emplace(table->name(), std::move(table));
  return Status::OK();
}

Result<std::shared_ptr<const Table>> Catalog::GetTable(
    const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + name);
  }
  return std::shared_ptr<const Table>(it->second);
}

Status Catalog::DropTable(const std::string& name) {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::NotFound("no such table: " + name);
  }
  tables_.erase(it);
  return Status::OK();
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  return names;
}

}  // namespace storage
}  // namespace isla
