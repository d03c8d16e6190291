#ifndef NOSE_WORKLOAD_QUERY_H_
#define NOSE_WORKLOAD_QUERY_H_

#include <string>
#include <vector>

#include "model/entity_graph.h"
#include "model/key_path.h"
#include "workload/predicate.h"

namespace nose {

/// A conceptual-model query (paper Fig. 3): selects attributes of entities
/// along a path, filtered by predicates on attributes anywhere along the
/// path, optionally ordered.
///
/// Convention: the path starts at the FROM entity (index 0) and extends to
/// the "far" end where execution of query plans begins (plans run from the
/// last path entity back toward index 0, mirroring Fig. 5's decomposition).
class Query {
 public:
  Query() = default;
  Query(KeyPath path, std::vector<FieldRef> select,
        std::vector<Predicate> predicates, std::vector<OrderField> order_by);

  /// Validates that all referenced fields exist and lie on the path, and
  /// that at least one equality predicate exists (required to anchor the
  /// first get request; see paper §IV-A2).
  Status Validate() const;

  const KeyPath& path() const { return path_; }
  const EntityGraph* graph() const { return path_.graph(); }
  const std::vector<FieldRef>& select() const { return select_; }
  const std::vector<Predicate>& predicates() const { return predicates_; }
  const std::vector<OrderField>& order_by() const { return order_by_; }

  /// Predicates whose field belongs to the path entity at `index`.
  std::vector<Predicate> PredicatesOn(size_t index) const;
  /// All predicates on path suffix [index, end).
  std::vector<Predicate> PredicatesFrom(size_t index) const;

  std::string ToString() const;

 private:
  KeyPath path_;
  std::vector<FieldRef> select_;
  std::vector<Predicate> predicates_;
  std::vector<OrderField> order_by_;
};

}  // namespace nose

#endif  // NOSE_WORKLOAD_QUERY_H_
