#ifndef NOSE_ENUMERATOR_ENUMERATOR_H_
#define NOSE_ENUMERATOR_ENUMERATOR_H_

#include <string>
#include <vector>

#include "planner/update_planner.h"
#include "schema/candidate_pool.h"
#include "schema/column_family.h"
#include "util/statusor.h"
#include "util/thread_pool.h"
#include "workload/workload.h"

namespace nose {

/// Feature toggles for ablation studies.
struct EnumeratorOptions {
  /// Generate predicate-relaxed variants (paper §IV-A2 "relaxed queries").
  bool enable_relaxation = true;
  /// Generate the key-only splits of prefix candidates (paper §IV-A2).
  /// Single-entity materialization candidates ([id][][attrs] per
  /// referenced entity) are emitted whatever this is set to.
  bool enable_splits = true;
  /// Run the Combine step (paper §IV-A3).
  bool enable_combination = true;
};

/// Workload-driven candidate enumeration (paper §IV-A and Algorithm 1):
/// for each query, recursive decomposition yields materialized views,
/// split key/value families and relaxed variants for every path segment;
/// update support queries are enumerated in one extra round; finally
/// Combine merges compatible families.
class Enumerator {
 public:
  explicit Enumerator(EnumeratorOptions options = EnumeratorOptions())
      : options_(options) {}

  /// Candidates useful for one query (Enumerate(q) in the paper). Pure in
  /// the pool: the candidates produced depend only on `query`, never on
  /// what `pool` already holds — the property the parallel workload
  /// enumeration relies on.
  void EnumerateQuery(const Query& query, CandidatePool* pool) const;

  /// Candidates for the whole workload under `mix`, including support-query
  /// enumeration for updates (Algorithm 1) and the Combine step. Each
  /// distinct support query is enumerated once. When `threads` is
  /// non-null, per-query enumeration runs on it; local pools are interned
  /// into the result in query order, which reproduces the serial insertion
  /// sequence exactly, so candidate CfIds are identical at every thread
  /// count. The support queries are derived into `supports` when it is
  /// non-null (it must start empty), which then covers the pool as it
  /// stood before the support queries' own candidates and Combine's
  /// merges were added; the formulation extends it over the rest.
  CandidatePool EnumerateWorkload(const Workload& workload,
                                  const std::string& mix,
                                  util::ThreadPool* threads = nullptr,
                                  SupportTable* supports = nullptr) const;

  /// Adds combinations of compatible candidates (same partition key, no
  /// clustering key, same path, different values).
  void Combine(CandidatePool* pool) const;

 private:
  EnumeratorOptions options_;
};

}  // namespace nose

#endif  // NOSE_ENUMERATOR_ENUMERATOR_H_
