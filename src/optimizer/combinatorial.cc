#include "optimizer/combinatorial.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/stopwatch.h"

namespace nose {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Nodes evaluated per batch. Fixed — NOT derived from the thread count —
/// so the batch composition, and with it the whole search trajectory, is
/// the same for a serial run and any pool size.
constexpr size_t kEvalBatch = 16;

/// Gap of the first pass of an exact search (see SolveCombinatorial).
constexpr double kFirstPassGap = 0.01;

struct Node {
  /// Candidate fixings along the branch: (index, on/off).
  std::vector<std::pair<size_t, bool>> fixings;
  double parent_bound = -kInf;
};

/// Evaluation of one node: lower bound, a feasible completion (incumbent
/// candidate), and the best branching candidate.
struct Evaluation {
  bool feasible = false;
  double lower_bound = kInf;
  double incumbent_cost = kInf;
  std::vector<bool> incumbent_selected;
  int branch_candidate = -1;
};

class Solver {
 public:
  Solver(const CombinatorialInput& input, const CombinatorialOptions& options)
      : in_(input), opt_(options) {}

  /// `start`, when feasible, is the initial incumbent: the search returns
  /// it unless it finds a strictly cheaper schema.
  CombinatorialResult Run(const CombinatorialResult& start) {
    obs::Span span("solver.combinatorial", "solver");
    CombinatorialResult result;
    uint64_t evaluations = 0;
    uint64_t incumbents = 0;
    std::vector<Node> stack;
    stack.push_back(Node{});
    double incumbent = kInf;
    if (start.feasible) {
      incumbent = start.objective;
      result.objective = start.objective;
      result.selected = start.selected;
      result.feasible = true;
    }

    Stopwatch watch;
    bool budget_hit = false;
    std::vector<Node> batch;
    std::vector<Evaluation> evals;
    while (!stack.empty() && !budget_hit) {
      if (result.nodes_explored >= opt_.max_nodes ||
          (opt_.time_limit_seconds > 0.0 &&
           watch.ElapsedSeconds() > opt_.time_limit_seconds)) {
        budget_hit = true;
        break;
      }
      // Pop a batch and evaluate it concurrently. Evaluate() reads only
      // the node and the immutable input, so the evaluations are
      // independent; everything that depends on order — prune tests,
      // incumbent updates, child pushes — happens below, sequentially, in
      // pop order. Nodes a serial DFS would have pruned mid-batch get
      // evaluated here too, but their results are discarded by the same
      // test, so only wasted work differs, never the trajectory.
      batch.clear();
      while (!stack.empty() && batch.size() < kEvalBatch) {
        batch.push_back(std::move(stack.back()));
        stack.pop_back();
      }
      batch_done_ = 0;
      evals.assign(batch.size(), Evaluation{});
      evaluations += batch.size();
      util::ParallelFor(opt_.threads, batch.size(), [&](size_t i) {
        obs::Span eval_span("solver.comb_evaluate", "solver");
        evals[i] = Evaluate(batch[i]);
      });

      for (size_t i = 0; i < batch.size(); ++i) {
        // Deadline granularity: re-check the budget per node, not just per
        // batch, so an expiry stops within one evaluation; the unprocessed
        // tail [batch_done_, batch.size()) stays open for best_bound.
        if (result.nodes_explored >= opt_.max_nodes ||
            (opt_.time_limit_seconds > 0.0 &&
             watch.ElapsedSeconds() > opt_.time_limit_seconds)) {
          budget_hit = true;
          break;
        }
        batch_done_ = i + 1;
        Node& node = batch[i];
        const double threshold =
            incumbent -
            std::max(1e-9, opt_.relative_gap * std::abs(incumbent));
        if (node.parent_bound >= threshold && std::isfinite(incumbent)) {
          continue;
        }

        ++result.nodes_explored;
        Evaluation& eval = evals[i];
        if (!eval.feasible) continue;
        if (eval.incumbent_cost < incumbent) {
          ++incumbents;
          incumbent = eval.incumbent_cost;
          result.selected = std::move(eval.incumbent_selected);
          result.objective = incumbent;
          result.feasible = true;
        }
        if (eval.lower_bound >=
            incumbent -
                std::max(1e-9, opt_.relative_gap * std::abs(incumbent))) {
          continue;
        }
        if (eval.branch_candidate < 0) continue;  // node solved exactly

        const size_t j = static_cast<size_t>(eval.branch_candidate);
        Node off = node;
        off.parent_bound = eval.lower_bound;
        off.fixings.emplace_back(j, false);
        Node on = std::move(node);
        on.parent_bound = eval.lower_bound;
        on.fixings.emplace_back(j, true);
        // Explore "on" first: it keeps the current plans and converges to
        // the greedy solution quickly; "off" forces replanning later.
        stack.push_back(std::move(off));
        stack.push_back(std::move(on));
      }
    }
    result.proven = result.feasible && !budget_hit;
    if (result.proven) {
      result.best_bound = result.objective;
    } else {
      // Every open node's subtree costs at least its parent bound; every
      // pruned subtree at least the final (smallest) prune threshold.
      // Nodes of the last batch that were never processed are still open.
      double open_min =
          std::isfinite(incumbent)
              ? incumbent -
                    std::max(1e-9, opt_.relative_gap * std::abs(incumbent))
              : kInf;
      for (const Node& n : stack) {
        open_min = std::min(open_min, n.parent_bound);
      }
      for (size_t i = batch_done_; i < batch.size(); ++i) {
        open_min = std::min(open_min, batch[i].parent_bound);
      }
      result.best_bound = open_min;
    }
    static obs::Counter& nodes_counter =
        obs::MetricsRegistry::Global().GetCounter("solver.comb_nodes");
    static obs::Counter& evals_counter =
        obs::MetricsRegistry::Global().GetCounter("solver.comb_evaluations");
    static obs::Counter& incumbent_counter =
        obs::MetricsRegistry::Global().GetCounter("solver.comb_incumbents");
    nodes_counter.Add(static_cast<uint64_t>(result.nodes_explored));
    evals_counter.Add(evaluations);
    incumbent_counter.Add(incumbents);
    return result;
  }

 private:
  Evaluation Evaluate(const Node& node) const {
    Evaluation out;
    std::vector<bool> usable = in_.allowed;
    std::vector<bool> forced(in_.num_candidates, false);
    for (const auto& [j, on] : node.fixings) {
      if (on) {
        forced[j] = true;
      } else {
        usable[j] = false;
      }
    }
    for (size_t j = 0; j < in_.num_candidates; ++j) {
      if (forced[j] && !usable[j]) return out;  // contradictory fixings
    }

    // --- Feasible completion: plan every query against all usable
    //     candidates; the used set defines the selection. ---
    std::vector<bool> selected = forced;
    double flow_cost = 0.0;
    for (const auto& q : in_.query_spaces) {
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
    std::vector<bool> support_needed(in_.support_spaces.size(), false);
    std::vector<double> support_cost(in_.support_spaces.size(), 0.0);
    bool changed = true;
    bool support_ok = true;
    while (changed && support_ok) {
      changed = false;
      for (size_t j = 0; j < in_.num_candidates; ++j) {
        if (!selected[j]) continue;
        for (int s : in_.supports_of_cf[j]) {
          if (support_needed[static_cast<size_t>(s)]) continue;
          support_needed[static_cast<size_t>(s)] = true;
          changed = true;
          const auto& sp = in_.support_spaces[static_cast<size_t>(s)];
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

    double true_cost = kInf;
    if (support_ok) {
      true_cost = flow_cost;
      for (size_t j = 0; j < in_.num_candidates; ++j) {
        if (selected[j]) true_cost += in_.maintenance[j];
      }
      for (size_t s = 0; s < in_.support_spaces.size(); ++s) {
        if (support_needed[s]) true_cost += support_cost[s];
      }
      out.incumbent_cost = true_cost;
      out.incumbent_selected = selected;
    }

    // --- Lower bound: query flows + maintenance/support of *forced*
    //     candidates only (any completion pays at least this). ---
    double bound = flow_cost;
    std::set<int> forced_supports;
    for (size_t j = 0; j < in_.num_candidates; ++j) {
      if (!forced[j]) continue;
      bound += in_.maintenance[j];
      for (int s : in_.supports_of_cf[j]) forced_supports.insert(s);
    }
    for (int s : forced_supports) {
      const auto& sp = in_.support_spaces[static_cast<size_t>(s)];
      const double c = sp.space->BestCost(usable);
      if (!std::isfinite(c)) return Evaluation{};  // forced cf unmaintainable
      bound += sp.weight * c;
    }
    out.lower_bound = bound;

    // --- Branching: the used-but-unfixed candidate contributing the most
    //     uncounted maintenance + support cost. ---
    double best_score = 1e-12;
    for (size_t j = 0; j < in_.num_candidates; ++j) {
      if (!selected[j] || forced[j]) continue;
      double score = in_.maintenance[j];
      for (int s : in_.supports_of_cf[j]) {
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

  const CombinatorialInput& in_;
  const CombinatorialOptions& opt_;
  /// Nodes of the current batch already processed (or pruned) by the
  /// sequential pass; the tail [batch_done_, batch.size()) is still open
  /// when a budget stops the search mid-batch.
  size_t batch_done_ = 0;
};

}  // namespace

CombinatorialResult SolveCombinatorial(const CombinatorialInput& input,
                                       const CombinatorialOptions& options) {
  if (options.relative_gap >= kFirstPassGap) {
    return Solver(input, options).Run(CombinatorialResult());
  }
  // A tighter search runs in two passes. Depth-first search with pruning
  // at the exact optimum can spend its whole node budget enumerating one
  // near-optimal plateau; a first pass at kFirstPassGap proves a schema
  // within 1% quickly, and the tight pass then starts from it. A budget
  // that stops the tight pass still returns a schema within 1%.
  Stopwatch watch;
  CombinatorialOptions first_options = options;
  first_options.relative_gap = kFirstPassGap;
  CombinatorialResult first =
      Solver(input, first_options).Run(CombinatorialResult());
  if (!first.proven) return first;
  CombinatorialOptions tight_options = options;
  tight_options.max_nodes = options.max_nodes - first.nodes_explored;
  if (options.time_limit_seconds > 0.0) {
    tight_options.time_limit_seconds = std::max(
        1e-3, options.time_limit_seconds - watch.ElapsedSeconds());
  }
  CombinatorialResult tight = Solver(input, tight_options).Run(first);
  tight.nodes_explored += first.nodes_explored;
  if (!tight.proven) {
    tight.best_bound = std::max(
        tight.best_bound,
        first.objective -
            std::max(1e-9, kFirstPassGap * std::abs(first.objective)));
  }
  return tight;
}

}  // namespace nose
