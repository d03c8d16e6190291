#include "executor/loader.h"

#include <algorithm>

namespace nose {

namespace {

/// Where a column family's field lives in the dataset: the row of path
/// entity `entity_index` of the current path instance, column `column`.
struct FieldSlot {
  size_t entity_index;
  size_t column;
};

std::vector<FieldSlot> SlotsFor(const Dataset& data, const KeyPath& path,
                                const std::vector<FieldRef>& fields) {
  std::vector<FieldSlot> slots;
  slots.reserve(fields.size());
  for (const FieldRef& f : fields) {
    slots.push_back({static_cast<size_t>(path.IndexOfEntity(f.entity)),
                     data.FieldIndex(f.entity, f.field)});
  }
  return slots;
}

}  // namespace

StatusOr<size_t> LoadColumnFamilyChunk(const Dataset& data,
                                       const ColumnFamily& cf,
                                       const std::string& name,
                                       RecordStore* store, size_t root_begin,
                                       size_t root_end) {
  const KeyPath& path = cf.path();
  const size_t depth_count = path.NumEntities();
  std::vector<const std::vector<ValueTuple>*> tables(depth_count);
  for (size_t i = 0; i < depth_count; ++i) {
    tables[i] = &data.Rows(path.EntityAt(i));
  }
  const std::vector<FieldSlot> pk = SlotsFor(data, path, cf.partition_key());
  const std::vector<FieldSlot> ck = SlotsFor(data, path, cf.clustering_key());
  const std::vector<FieldSlot> vals = SlotsFor(data, path, cf.values());

  // rows[i] is the dataset row of path entity i in the current instance.
  std::vector<size_t> rows(depth_count);
  auto value_at = [&](const FieldSlot& slot) -> const Value& {
    return (*tables[slot.entity_index])[rows[slot.entity_index]][slot.column];
  };
  ValueTuple partition;
  ValueTuple clustering;
  std::vector<std::optional<Value>> values;
  partition.reserve(pk.size());
  clustering.reserve(ck.size());
  values.reserve(vals.size());
  size_t written = 0;
  auto write = [&]() -> Status {
    partition.clear();
    for (const FieldSlot& slot : pk) partition.push_back(value_at(slot));
    clustering.clear();
    for (const FieldSlot& slot : ck) clustering.push_back(value_at(slot));
    values.clear();
    for (const FieldSlot& slot : vals) values.emplace_back(value_at(slot));
    ++written;
    return store->Put(name, partition, clustering, values);
  };

  // Depth-first walk over path instances. At depth d >= 1, neighbors[d] is
  // the neighbor list of rows[d - 1] along step d - 1 and next[d] the
  // position of the next neighbor to visit.
  std::vector<const std::vector<uint32_t>*> neighbors(depth_count);
  std::vector<size_t> next(depth_count);
  const size_t end = std::min(root_end, tables[0]->size());
  for (size_t r0 = root_begin; r0 < end; ++r0) {
    rows[0] = r0;
    if (depth_count == 1) {
      NOSE_RETURN_IF_ERROR(write());
      continue;
    }
    size_t depth = 1;
    neighbors[1] = &data.Neighbors(path.steps()[0], r0);
    next[1] = 0;
    while (depth > 0) {
      if (next[depth] == neighbors[depth]->size()) {
        --depth;
        continue;
      }
      rows[depth] = (*neighbors[depth])[next[depth]++];
      if (depth + 1 == depth_count) {
        NOSE_RETURN_IF_ERROR(write());
      } else {
        ++depth;
        neighbors[depth] = &data.Neighbors(path.steps()[depth - 1],
                                           rows[depth - 1]);
        next[depth] = 0;
      }
    }
  }
  return written;
}

Status LoadSchema(const Dataset& data, const Schema& schema,
                  RecordStore* store) {
  for (size_t c = 0; c < schema.column_families().size(); ++c) {
    const ColumnFamily& cf = schema.column_families()[c];
    const std::string& name = schema.names()[c];

    if (!store->HasColumnFamily(name)) {
      NOSE_RETURN_IF_ERROR(store->CreateColumnFamily(
          name, cf.partition_key().size(), cf.clustering_key().size(),
          cf.values().size()));
    }

    // Loading is a bulk operation; do not charge it to the simulation.
    RecordStore::UnchargedLoadScope uncharged(store);
    StatusOr<size_t> loaded = LoadColumnFamilyChunk(
        data, cf, name, store, 0, data.RowCount(cf.path().EntityAt(0)));
    if (!loaded.ok()) return loaded.status();
  }
  return Status::Ok();
}

}  // namespace nose
