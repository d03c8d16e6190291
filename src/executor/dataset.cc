#include "executor/dataset.h"

#include <cassert>

namespace nose {

const std::vector<uint32_t> Dataset::kNoNeighbors;

Dataset::Dataset(const EntityGraph* graph) : graph_(graph) {
  adjacency_.resize(graph->relationships().size());
  for (const std::string& name : graph->entity_order()) {
    const Entity& entity = graph->GetEntity(name);
    std::map<std::string, size_t>& idx = field_index_[name];
    for (size_t f = 0; f < entity.fields().size(); ++f) {
      idx[entity.fields()[f].name] = f;
    }
    rows_[name];  // create empty table
  }
}

size_t Dataset::AddRow(const std::string& entity, ValueTuple row) {
  auto& table = rows_.at(entity);
  assert(row.size() == graph_->GetEntity(entity).fields().size());
  table.push_back(std::move(row));
  return table.size() - 1;
}

void Dataset::AddLink(int rel_index, size_t from_row, size_t to_row) {
  Adjacency& adj = adjacency_[static_cast<size_t>(rel_index)];
  if (adj.forward.size() <= from_row) adj.forward.resize(from_row + 1);
  if (adj.backward.size() <= to_row) adj.backward.resize(to_row + 1);
  adj.forward[from_row].push_back(static_cast<uint32_t>(to_row));
  adj.backward[to_row].push_back(static_cast<uint32_t>(from_row));
  ++adj.links;
}

size_t Dataset::RowCount(const std::string& entity) const {
  return rows_.at(entity).size();
}

const std::vector<ValueTuple>& Dataset::Rows(const std::string& entity) const {
  return rows_.at(entity);
}

size_t Dataset::FieldIndex(const std::string& entity,
                           const std::string& field) const {
  return field_index_.at(entity).at(field);
}

const Value& Dataset::FieldValue(const std::string& entity, size_t index,
                                 const std::string& field) const {
  return rows_.at(entity)[index][FieldIndex(entity, field)];
}

const std::vector<uint32_t>& Dataset::Neighbors(const PathStep& step,
                                                size_t index) const {
  const Adjacency& adj = adjacency_[static_cast<size_t>(step.relationship)];
  const auto& lists = step.forward ? adj.forward : adj.backward;
  if (index >= lists.size()) return kNoNeighbors;
  return lists[index];
}

void Dataset::SyncCountsTo(EntityGraph* graph) const {
  for (const auto& [name, table] : rows_) {
    Entity* entity = graph->MutableEntity(name);
    assert(entity != nullptr);
    entity->set_count(table.size());
  }
  for (size_t r = 0; r < adjacency_.size(); ++r) {
    graph->MutableRelationship(static_cast<int>(r))->link_count =
        adjacency_[r].links;
  }
}

}  // namespace nose
