#ifndef NOSE_SCHEMA_CANDIDATE_POOL_H_
#define NOSE_SCHEMA_CANDIDATE_POOL_H_

#include <cstdint>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "schema/column_family.h"

namespace nose {

/// Dense integer identity of an interned ColumnFamily within a
/// CandidatePool. Every layer downstream of enumeration (planner edges,
/// BIP δ_j variables, invariant checks, executor name resolution)
/// identifies candidates by CfId instead of hashing or copying the
/// canonical key() string.
using CfId = uint32_t;

inline constexpr CfId kInvalidCfId = std::numeric_limits<CfId>::max();

/// Deduplicated, interned pool of candidate column families. Each distinct
/// definition is stored exactly once and addressed by a dense CfId equal to
/// its insertion rank, so ids double as stable vector indices: the planner
/// and optimizer index per-candidate arrays (allowed/selected/δ-costs)
/// directly by CfId. Interning order is deterministic — re-running the
/// enumerator on the same workload yields the same id for every candidate
/// regardless of thread count (see Enumerator::EnumerateWorkload).
class CandidatePool {
 public:
  /// Interns `cf` (no-op if an identical definition exists); returns its id.
  CfId Intern(ColumnFamily cf);

  /// Legacy alias for Intern, kept for call sites indexing with size_t.
  size_t Add(ColumnFamily cf) { return Intern(std::move(cf)); }

  const ColumnFamily& Get(CfId id) const { return cfs_[id]; }
  const ColumnFamily& operator[](CfId id) const { return cfs_[id]; }

  /// Id of an equal definition, or kInvalidCfId if absent.
  CfId Find(const ColumnFamily& cf) const;
  bool Contains(const ColumnFamily& cf) const {
    return Find(cf) != kInvalidCfId;
  }

  /// Interns every candidate of `other` in id order, moving them out of
  /// it. Merging pools built from disjoint work items in a fixed order
  /// reproduces the insertion sequence of a serial enumeration — the
  /// deterministic-merge rule the parallel enumerator relies on.
  void MergeFrom(CandidatePool&& other);

  const std::vector<ColumnFamily>& candidates() const { return cfs_; }
  size_t size() const { return cfs_.size(); }
  bool empty() const { return cfs_.empty(); }

 private:
  std::vector<ColumnFamily> cfs_;
  std::unordered_map<std::string, CfId> by_key_;
};

}  // namespace nose

#endif  // NOSE_SCHEMA_CANDIDATE_POOL_H_
