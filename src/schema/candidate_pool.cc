#include "schema/candidate_pool.h"

#include <utility>

namespace nose {

CfId CandidatePool::Intern(ColumnFamily cf) {
  auto it = by_key_.find(cf.key());
  if (it != by_key_.end()) return it->second;
  const CfId id = static_cast<CfId>(cfs_.size());
  by_key_.emplace(cf.key(), id);
  cfs_.push_back(std::move(cf));
  return id;
}

void CandidatePool::MergeFrom(CandidatePool&& other) {
  for (ColumnFamily& cf : other.cfs_) Intern(std::move(cf));
  other.cfs_.clear();
  other.by_key_.clear();
}

}  // namespace nose
