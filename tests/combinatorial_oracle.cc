#include "tests/combinatorial_oracle.h"

#include <cmath>
#include <limits>
#include <set>
#include <utility>
#include <vector>

#include "util/stopwatch.h"

namespace nose {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Nodes whose bound is within this of the incumbent are pruned: the
/// floating-point tolerance of an exact search (BipOptions::absolute_gap).
constexpr double kAbsoluteGap = 1e-9;

constexpr int kMaxNodes = 1000000;

struct SpaceRef {
  const PlanSpace* space = nullptr;
  double weight = 0.0;
};

/// The window's problem as the search reads it.
struct Input {
  size_t num_candidates = 0;
  /// Weighted update-maintenance cost per candidate (Σ_m w_m C'_mj).
  std::vector<double> maintenance;
  /// Candidates that may be selected at all.
  std::vector<bool> allowed;
  std::vector<SpaceRef> query_spaces;
  /// Deduplicated support-query spaces; executed iff some selected
  /// candidate needs them.
  std::vector<SpaceRef> support_spaces;
  /// supports_of_cf[j] = indices into support_spaces needed when j is
  /// selected.
  std::vector<std::vector<int>> supports_of_cf;
};

Input MakeInput(const WindowFormulation& form) {
  Input in;
  in.num_candidates = form.allowed.size();
  in.maintenance = form.delta_cost;
  in.allowed = form.allowed;
  for (const SpaceVars& sv : form.query_spaces) {
    in.query_spaces.push_back({&sv.space, sv.weight});
  }
  std::vector<int> shared_to_input(form.shared_supports.size(), -1);
  for (size_t i = 0; i < form.shared_supports.size(); ++i) {
    const SharedSupport& shared = *form.shared_supports[i];
    if (shared.sv.space.states().empty()) continue;
    shared_to_input[i] = static_cast<int>(in.support_spaces.size());
    in.support_spaces.push_back({&shared.sv.space, shared.sv.weight});
  }
  in.supports_of_cf.resize(in.num_candidates);
  for (const SupportInfo& info : form.supports) {
    for (size_t idx : info.shared_ids) {
      if (shared_to_input[idx] >= 0) {
        in.supports_of_cf[info.cf_index].push_back(shared_to_input[idx]);
      }
    }
  }
  return in;
}

struct Node {
  /// Candidate fixings along the branch: (index, on/off).
  std::vector<std::pair<size_t, bool>> fixings;
  double parent_bound = -kInf;
};

/// Evaluation of one node: lower bound, the cost of a feasible completion
/// (incumbent candidate), and the best branching candidate.
struct Evaluation {
  bool feasible = false;
  double lower_bound = kInf;
  double incumbent_cost = kInf;
  int branch_candidate = -1;
};

Evaluation Evaluate(const Input& in, const Node& node) {
  Evaluation out;
  std::vector<bool> usable = in.allowed;
  std::vector<bool> forced(in.num_candidates, false);
  for (const auto& [j, on] : node.fixings) {
    if (on) {
      forced[j] = true;
    } else {
      usable[j] = false;
    }
  }
  for (size_t j = 0; j < in.num_candidates; ++j) {
    if (forced[j] && !usable[j]) return out;  // contradictory fixings
  }

  // --- Feasible completion: plan every query against all usable
  //     candidates; the used set defines the selection. ---
  std::vector<bool> selected = forced;
  double flow_cost = 0.0;
  for (const auto& q : in.query_spaces) {
    const double c = q.space->BestCost(usable);
    if (!std::isfinite(c)) return out;  // some query uncoverable: prune
    flow_cost += q.weight * c;
    auto path = q.space->BestPath(usable);
    if (!path.ok()) return out;
    for (const auto& [state, edge] : *path) {
      selected[q.space->states()[state].edges[edge].cf_index] = true;
    }
  }
  out.feasible = true;

  // Transitive support needs of the selection (fixpoint: support plans
  // may pull in further candidates).
  std::vector<bool> support_needed(in.support_spaces.size(), false);
  std::vector<double> support_cost(in.support_spaces.size(), 0.0);
  bool changed = true;
  bool support_ok = true;
  while (changed && support_ok) {
    changed = false;
    for (size_t j = 0; j < in.num_candidates; ++j) {
      if (!selected[j]) continue;
      for (int s : in.supports_of_cf[j]) {
        if (support_needed[static_cast<size_t>(s)]) continue;
        support_needed[static_cast<size_t>(s)] = true;
        changed = true;
        const auto& sp = in.support_spaces[static_cast<size_t>(s)];
        const double c = sp.space->BestCost(usable);
        if (!std::isfinite(c)) {
          support_ok = false;
          break;
        }
        support_cost[static_cast<size_t>(s)] = sp.weight * c;
        auto path = sp.space->BestPath(usable);
        if (!path.ok()) {
          support_ok = false;
          break;
        }
        for (const auto& [state, edge] : *path) {
          selected[sp.space->states()[state].edges[edge].cf_index] = true;
        }
      }
      if (!support_ok) break;
    }
  }

  if (support_ok) {
    double true_cost = flow_cost;
    for (size_t j = 0; j < in.num_candidates; ++j) {
      if (selected[j]) true_cost += in.maintenance[j];
    }
    for (size_t s = 0; s < in.support_spaces.size(); ++s) {
      if (support_needed[s]) true_cost += support_cost[s];
    }
    out.incumbent_cost = true_cost;
  }

  // --- Lower bound: query flows + maintenance/support of *forced*
  //     candidates only (any completion pays at least this). ---
  double bound = flow_cost;
  std::set<int> forced_supports;
  for (size_t j = 0; j < in.num_candidates; ++j) {
    if (!forced[j]) continue;
    bound += in.maintenance[j];
    for (int s : in.supports_of_cf[j]) forced_supports.insert(s);
  }
  for (int s : forced_supports) {
    const auto& sp = in.support_spaces[static_cast<size_t>(s)];
    const double c = sp.space->BestCost(usable);
    if (!std::isfinite(c)) return Evaluation{};  // forced cf unmaintainable
    bound += sp.weight * c;
  }
  out.lower_bound = bound;

  // --- Branching: the used-but-unfixed candidate contributing the most
  //     uncounted maintenance + support cost. ---
  double best_score = 1e-12;
  for (size_t j = 0; j < in.num_candidates; ++j) {
    if (!selected[j] || forced[j]) continue;
    double score = in.maintenance[j];
    for (int s : in.supports_of_cf[j]) {
      if (forced_supports.count(s) == 0 &&
          support_needed[static_cast<size_t>(s)]) {
        score += support_cost[static_cast<size_t>(s)];
      }
    }
    if (score > best_score) {
      best_score = score;
      out.branch_candidate = static_cast<int>(j);
    }
  }
  return out;
}

}  // namespace

CombinatorialResult SolveCombinatorial(const WindowFormulation& form,
                                       double time_limit_seconds) {
  const Input in = MakeInput(form);
  CombinatorialResult result;
  double incumbent = kInf;
  std::vector<Node> stack(1);
  Stopwatch watch;
  int nodes = 0;
  bool budget_hit = false;
  while (!stack.empty()) {
    if (nodes >= kMaxNodes || watch.ElapsedSeconds() > time_limit_seconds) {
      budget_hit = true;
      break;
    }
    Node node = std::move(stack.back());
    stack.pop_back();
    if (node.parent_bound >= incumbent - kAbsoluteGap) continue;

    ++nodes;
    const Evaluation eval = Evaluate(in, node);
    if (!eval.feasible) continue;
    if (eval.incumbent_cost < incumbent) {
      incumbent = eval.incumbent_cost;
      result.objective = incumbent;
      result.feasible = true;
    }
    if (eval.lower_bound >= incumbent - kAbsoluteGap) continue;
    if (eval.branch_candidate < 0) continue;  // node solved exactly

    const size_t j = static_cast<size_t>(eval.branch_candidate);
    Node off = node;
    off.parent_bound = eval.lower_bound;
    off.fixings.emplace_back(j, false);
    Node on = std::move(node);
    on.parent_bound = eval.lower_bound;
    on.fixings.emplace_back(j, true);
    // Explore "on" first: it keeps the current plans and converges to the
    // greedy solution quickly; "off" forces replanning later.
    stack.push_back(std::move(off));
    stack.push_back(std::move(on));
  }
  result.proven = result.feasible && !budget_hit;
  return result;
}

}  // namespace nose
