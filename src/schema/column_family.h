#ifndef NOSE_SCHEMA_COLUMN_FAMILY_H_
#define NOSE_SCHEMA_COLUMN_FAMILY_H_

#include <string>
#include <string_view>
#include <vector>

#include "model/entity_graph.h"
#include "model/field.h"
#include "model/key_path.h"
#include "util/statusor.h"

namespace nose {

/// A column-family definition: the triple
///   [partition key][clustering key][values]
/// over an associated relationship path (paper §IV-A1). Partition-key
/// attributes must all be supplied (by equality) to issue a get; records
/// within a partition are sorted by the clustering key; values ride along.
///
/// All attributes must belong to entities on the path. Instances are
/// immutable after construction; identity is the canonical `key()` string.
class ColumnFamily {
 public:
  ColumnFamily() = default;

  /// Validates and canonicalizes. Requirements:
  ///  - at least one partition-key attribute,
  ///  - all attributes exist and lie on `path`,
  ///  - no attribute appears in more than one component.
  static StatusOr<ColumnFamily> Create(KeyPath path,
                                       std::vector<FieldRef> partition_key,
                                       std::vector<FieldRef> clustering_key,
                                       std::vector<FieldRef> values);

  const KeyPath& path() const { return path_; }
  const EntityGraph* graph() const { return path_.graph(); }
  const std::vector<FieldRef>& partition_key() const { return partition_key_; }
  const std::vector<FieldRef>& clustering_key() const {
    return clustering_key_;
  }
  const std::vector<FieldRef>& values() const { return values_; }

  /// partition ∪ clustering ∪ values, in component order.
  std::vector<FieldRef> AllFields() const;
  bool ContainsField(const FieldRef& ref) const;
  /// True if any field belongs to `entity`.
  bool TouchesEntity(const std::string& entity) const;

  /// Stable identity string, e.g.
  /// "[Hotel.HotelCity][Room.RoomRate, Room.RoomID][Guest.GuestName] $ Room-[Hotel]->Hotel".
  const std::string& key() const { return key_; }
  /// path().ToString(), the tail of key(): families over the same path
  /// share it, so it buckets a pool by path without building strings.
  std::string_view path_text() const {
    return std::string_view(key_).substr(path_text_offset_);
  }

  /// Expected number of records (partition key + clustering key combos).
  double EntryCount() const;
  /// Expected number of distinct partitions.
  double PartitionCount() const;
  /// Expected total storage footprint in bytes (paper's space constraint
  /// uses these estimates).
  double SizeBytes() const;

  std::string ToString() const { return key_; }

  friend bool operator==(const ColumnFamily& a, const ColumnFamily& b) {
    return a.key_ == b.key_;
  }

 private:
  KeyPath path_;
  std::vector<FieldRef> partition_key_;
  std::vector<FieldRef> clustering_key_;
  std::vector<FieldRef> values_;
  std::string key_;
  size_t path_text_offset_ = 0;
};

}  // namespace nose

#endif  // NOSE_SCHEMA_COLUMN_FAMILY_H_
