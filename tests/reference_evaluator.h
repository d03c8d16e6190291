#ifndef NOSE_TESTS_REFERENCE_EVALUATOR_H_
#define NOSE_TESTS_REFERENCE_EVALUATOR_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "executor/dataset.h"
#include "executor/plan_executor.h"
#include "solver/lp.h"
#include "workload/query.h"

namespace nose {

/// Brute-force reference semantics for conceptual-model queries: enumerate
/// every instance of the query path in `data`, apply all predicates,
/// project the select list, discard duplicates (exact ValueTuple equality).
/// The oracle that executed plans must agree with.
inline std::vector<ValueTuple> ReferenceEvaluate(
    const Dataset& data, const Query& query,
    const PlanExecutor::Params& params) {
  const KeyPath& path = query.path();
  std::vector<ValueTuple> result;
  std::set<ValueTuple> seen;
  std::vector<size_t> rows(path.NumEntities());

  auto value_of = [&](const FieldRef& ref) -> const Value& {
    const int pos = path.IndexOfEntity(ref.entity);
    return data.FieldValue(ref.entity, rows[static_cast<size_t>(pos)],
                           ref.field);
  };
  auto compare = [](PredicateOp op, const Value& lhs, const Value& rhs) {
    switch (op) {
      case PredicateOp::kEq:
        return lhs == rhs;
      case PredicateOp::kNe:
        return !(lhs == rhs);
      case PredicateOp::kLt:
        return lhs < rhs;
      case PredicateOp::kLe:
        return !(rhs < lhs);
      case PredicateOp::kGt:
        return rhs < lhs;
      case PredicateOp::kGe:
        return !(lhs < rhs);
    }
    return false;
  };

  std::function<void(size_t)> walk = [&](size_t depth) {
    if (depth == path.NumEntities()) {
      for (const Predicate& p : query.predicates()) {
        const Value bound =
            p.literal.has_value() ? *p.literal : params.at(p.param);
        if (!compare(p.op, value_of(p.field), bound)) return;
      }
      ValueTuple row;
      for (const FieldRef& f : query.select()) row.push_back(value_of(f));
      if (seen.insert(row).second) result.push_back(std::move(row));
      return;
    }
    const PathStep& step = path.steps()[depth - 1];
    for (uint32_t next : data.Neighbors(step, rows[depth - 1])) {
      rows[depth] = next;
      walk(depth + 1);
    }
  };
  for (size_t r0 = 0; r0 < data.RowCount(path.EntityAt(0)); ++r0) {
    rows[0] = r0;
    walk(1);
  }
  return result;
}

/// Canonical form for exact set comparison of result rows: the rows,
/// sorted (rendered strings would equate doubles that agree to six
/// decimals).
inline std::vector<ValueTuple> CanonicalRows(std::vector<ValueTuple> rows) {
  std::sort(rows.begin(), rows.end());
  return rows;
}

struct ReferenceBipResult {
  bool feasible = false;
  double objective = 0.0;
  std::vector<double> x;
};

/// Brute-force reference for small all-binary integer programs: enumerates
/// every 0/1 assignment respecting the variable bounds, checks each
/// constraint row, and keeps the assignment with the smallest objective.
/// The objective is accumulated in variable-index order, exactly as the
/// branch-and-bound incumbent recompute does — with integer costs both
/// sums are exact, so the solver must match this value bitwise.
inline ReferenceBipResult ReferenceBipMinimize(const LpProblem& lp) {
  const int n = lp.num_variables();
  ReferenceBipResult best;
  std::vector<double> x(static_cast<size_t>(n), 0.0);
  for (uint64_t mask = 0; mask < (uint64_t{1} << n); ++mask) {
    bool in_bounds = true;
    for (int v = 0; v < n; ++v) {
      x[static_cast<size_t>(v)] = (mask >> v) & 1 ? 1.0 : 0.0;
      if (x[static_cast<size_t>(v)] < lp.lower_bound(v) ||
          x[static_cast<size_t>(v)] > lp.upper_bound(v)) {
        in_bounds = false;
        break;
      }
    }
    if (!in_bounds) continue;
    bool feasible = true;
    for (int r = 0; r < lp.num_rows() && feasible; ++r) {
      const LpRow& row = lp.row(r);
      double sum = 0.0;
      for (size_t k = 0; k < row.indices.size(); ++k) {
        sum += row.values[k] * x[static_cast<size_t>(row.indices[k])];
      }
      switch (row.type) {
        case RowType::kLe:
          feasible = sum <= row.rhs + 1e-9;
          break;
        case RowType::kGe:
          feasible = sum >= row.rhs - 1e-9;
          break;
        case RowType::kEq:
          feasible = std::abs(sum - row.rhs) <= 1e-9;
          break;
      }
    }
    if (!feasible) continue;
    double objective = 0.0;
    for (int v = 0; v < n; ++v) {
      objective += lp.cost(v) * x[static_cast<size_t>(v)];
    }
    if (!best.feasible || objective < best.objective) {
      best.feasible = true;
      best.objective = objective;
      best.x = x;
    }
  }
  return best;
}

}  // namespace nose

#endif  // NOSE_TESTS_REFERENCE_EVALUATOR_H_
