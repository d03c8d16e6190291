#include "schema/column_family.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "util/strings.h"

namespace nose {

namespace {

// Fixed per-partition and per-record bookkeeping overheads used in size
// estimates (bytes). Rough Cassandra-like constants; only relative sizes
// matter for the optimizer's space constraint.
constexpr double kPartitionOverheadBytes = 32.0;
constexpr double kRecordOverheadBytes = 8.0;

std::string FieldListToString(const std::vector<FieldRef>& fields) {
  std::vector<std::string> names;
  names.reserve(fields.size());
  for (const FieldRef& f : fields) names.push_back(f.QualifiedName());
  return "[" + StrJoin(names, ", ") + "]";
}

}  // namespace

StatusOr<ColumnFamily> ColumnFamily::Create(
    KeyPath path, std::vector<FieldRef> partition_key,
    std::vector<FieldRef> clustering_key, std::vector<FieldRef> values) {
  const EntityGraph* graph = path.graph();
  if (graph == nullptr) {
    return Status::InvalidArgument("column family path has no graph");
  }
  if (partition_key.empty()) {
    return Status::InvalidArgument(
        "column family needs at least one partition key attribute");
  }

  std::set<FieldRef> seen;
  auto validate = [&](const std::vector<FieldRef>& fields) -> Status {
    for (const FieldRef& ref : fields) {
      auto field = graph->ResolveField(ref);
      if (!field.ok()) return field.status();
      if (!path.ContainsEntity(ref.entity)) {
        return Status::InvalidArgument("attribute " + ref.QualifiedName() +
                                       " is not on path " + path.ToString());
      }
      if (!seen.insert(ref).second) {
        return Status::InvalidArgument("attribute " + ref.QualifiedName() +
                                       " appears twice in column family");
      }
    }
    return Status::Ok();
  };
  NOSE_RETURN_IF_ERROR(validate(partition_key));
  NOSE_RETURN_IF_ERROR(validate(clustering_key));
  NOSE_RETURN_IF_ERROR(validate(values));

  // Canonical form: partition key and values are sets (sort them); the
  // clustering key is ordered and kept as given. Path direction carries no
  // information about the stored records, so normalize it for dedup.
  std::sort(partition_key.begin(), partition_key.end());
  std::sort(values.begin(), values.end());
  if (path.steps().size() > 0) {
    KeyPath reversed = path.Reversed();
    if (reversed.ToString() < path.ToString()) path = std::move(reversed);
  }

  ColumnFamily cf;
  cf.path_ = std::move(path);
  cf.partition_key_ = std::move(partition_key);
  cf.clustering_key_ = std::move(clustering_key);
  cf.values_ = std::move(values);
  cf.key_ = FieldListToString(cf.partition_key_) +
            FieldListToString(cf.clustering_key_) +
            FieldListToString(cf.values_) + " $ ";
  cf.path_text_offset_ = cf.key_.size();
  cf.key_ += cf.path_.ToString();
  return cf;
}

std::vector<FieldRef> ColumnFamily::AllFields() const {
  std::vector<FieldRef> out = partition_key_;
  out.insert(out.end(), clustering_key_.begin(), clustering_key_.end());
  out.insert(out.end(), values_.begin(), values_.end());
  return out;
}

bool ColumnFamily::ContainsField(const FieldRef& ref) const {
  auto contains = [&](const std::vector<FieldRef>& fields) {
    return std::find(fields.begin(), fields.end(), ref) != fields.end();
  };
  return contains(partition_key_) || contains(clustering_key_) ||
         contains(values_);
}

bool ColumnFamily::TouchesEntity(const std::string& entity) const {
  for (const std::vector<FieldRef>* fields :
       {&partition_key_, &clustering_key_, &values_}) {
    for (const FieldRef& ref : *fields) {
      if (ref.entity == entity) return true;
    }
  }
  return false;
}

namespace {

/// `product` times the cardinality of each of `fields`, in order.
double KeyCardinalityProduct(const EntityGraph& graph,
                             const std::vector<FieldRef>& fields,
                             double product = 1.0) {
  for (const FieldRef& ref : fields) {
    const Entity& entity = graph.GetEntity(ref.entity);
    const Field* field = entity.FindField(ref.field);
    product *= static_cast<double>(entity.FieldCardinality(*field));
  }
  return product;
}

}  // namespace

double ColumnFamily::EntryCount() const {
  const double path_instances = graph()->PathInstanceCount(path_);
  const double key_combos = KeyCardinalityProduct(
      *graph(), clustering_key_,
      KeyCardinalityProduct(*graph(), partition_key_));
  return std::max(1.0, std::min(path_instances, key_combos));
}

double ColumnFamily::PartitionCount() const {
  const double partitions = KeyCardinalityProduct(*graph(), partition_key_);
  return std::max(1.0, std::min(EntryCount(), partitions));
}

double ColumnFamily::SizeBytes() const {
  auto fields_size = [&](const std::vector<FieldRef>& fields) {
    double total = 0.0;
    for (const FieldRef& ref : fields) {
      const Field* field = graph()->GetEntity(ref.entity).FindField(ref.field);
      total += field->SizeBytes();
    }
    return total;
  };
  const double per_record =
      fields_size(clustering_key_) + fields_size(values_) +
      kRecordOverheadBytes;
  const double per_partition =
      fields_size(partition_key_) + kPartitionOverheadBytes;
  return PartitionCount() * per_partition + EntryCount() * per_record;
}

}  // namespace nose
