#ifndef NOSE_TESTS_COMBINATORIAL_ORACLE_H_
#define NOSE_TESTS_COMBINATORIAL_ORACLE_H_

#include "optimizer/formulation.h"

namespace nose {

/// The schema-selection problem of one window in combinatorial form: pick
/// a candidate subset S minimizing
///   Σ_q w_q · bestplan_q(S)  +  Σ_{j∈S} maintenance_j
///   + Σ_{s needed by S} w_s · bestplan_s(S)
/// where bestplan is the min-cost path through a plan-space DAG restricted
/// to S. Equivalent to the BIP of Figs. 7/10, but solved by depth-first
/// branch and bound over candidate in/out decisions with dynamic-
/// programming bounds — no LP, no simplex, no presolve. The optimizer tests
/// hold SchemaOptimizer's BIP to this oracle's optimum on real schema
/// instances (space limits are not modelled).
struct CombinatorialResult {
  bool feasible = false;
  /// True when the search space was exhausted (the objective is optimal);
  /// false when the node limit or `time_limit_seconds` stopped it with the
  /// best incumbent.
  bool proven = false;
  double objective = 0.0;
};

CombinatorialResult SolveCombinatorial(const WindowFormulation& form,
                                       double time_limit_seconds);

}  // namespace nose

#endif  // NOSE_TESTS_COMBINATORIAL_ORACLE_H_
