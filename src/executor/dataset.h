#ifndef NOSE_EXECUTOR_DATASET_H_
#define NOSE_EXECUTOR_DATASET_H_

#include <map>
#include <string>
#include <vector>

#include "model/entity_graph.h"
#include "util/statusor.h"
#include "util/value.h"

namespace nose {

/// Concrete instance data for an entity graph: per entity a table of rows
/// (one ValueTuple per instance, aligned with Entity::fields(), so column 0
/// is the ID), and per relationship an edge list of (from-row, to-row)
/// indices. Produced by workload-specific generators (e.g. rubis::) and
/// consumed by the bulk loader and the benchmark drivers.
class Dataset {
 public:
  explicit Dataset(const EntityGraph* graph);

  const EntityGraph* graph() const { return graph_; }

  /// Appends an instance; returns its row index. The tuple must align with
  /// the entity's fields. By convention column 0 (the ID) is int64.
  size_t AddRow(const std::string& entity, ValueTuple row);

  /// Connects two instances through relationship `rel_index`.
  void AddLink(int rel_index, size_t from_row, size_t to_row);

  size_t RowCount(const std::string& entity) const;
  /// Every instance of `entity`, in row-index order.
  const std::vector<ValueTuple>& Rows(const std::string& entity) const;

  /// Column of `field` in `entity`'s rows (its index in Entity::fields()).
  size_t FieldIndex(const std::string& entity, const std::string& field) const;

  /// Value of `field` for instance `index` of `entity`.
  const Value& FieldValue(const std::string& entity, size_t index,
                          const std::string& field) const;

  /// Rows of the counterpart entity linked to instance `index` when
  /// traversing `step`.
  const std::vector<uint32_t>& Neighbors(const PathStep& step,
                                         size_t index) const;

  /// Refreshes entity counts in a (mutable) graph to match the data, so the
  /// cost model sees the generated sizes. Also sets relationship
  /// link_counts.
  void SyncCountsTo(EntityGraph* graph) const;

 private:
  struct Adjacency {
    std::vector<std::vector<uint32_t>> forward;   // from-row -> to-rows
    std::vector<std::vector<uint32_t>> backward;  // to-row -> from-rows
    size_t links = 0;
  };

  const EntityGraph* graph_;
  std::map<std::string, std::vector<ValueTuple>> rows_;
  std::map<std::string, std::map<std::string, size_t>> field_index_;
  std::vector<Adjacency> adjacency_;  // per relationship
  static const std::vector<uint32_t> kNoNeighbors;
};

}  // namespace nose

#endif  // NOSE_EXECUTOR_DATASET_H_
