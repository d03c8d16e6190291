#include "solver/bip.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <tuple>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "solver/certificate.h"
#include "solver/solve_log.h"
#include "util/stopwatch.h"
#include "util/thread_pool.h"

namespace nose {

const char* BipStatusName(BipStatus status) {
  switch (status) {
    case BipStatus::kOptimal:
      return "optimal";
    case BipStatus::kInfeasible:
      return "infeasible";
    case BipStatus::kNodeLimit:
      return "node-limit";
    case BipStatus::kNoSolution:
      return "no-solution";
  }
  return "?";
}

namespace {

struct Node {
  /// Per-binary-variable fixings accumulated along the branch:
  /// (var, lb, ub) with lb == ub ∈ {0, 1}.
  std::vector<std::tuple<int, double, double>> fixings;
  double parent_bound;  // LP bound of the parent (for pruning before solve)
  /// Parent's optimal basis, shared by both children — the per-node hot
  /// start (factorized engine only; null = cold start).
  std::shared_ptr<const LpBasis> start;
};

/// Nodes are explored in fixed-size batches: up to this many survivors of
/// the parent-bound prune are popped together, their relaxations solved
/// (concurrently when a pool is available), and the results processed in
/// pop order. The batch size — not the thread count — defines the
/// trajectory, so recommendations are byte-identical at any parallelism.
constexpr int kNodeBatch = 16;

/// A binary within this of 0 or 1 counts as integral.
constexpr double kIntegralityTolerance = 1e-6;

/// Picks the branching variable: among fractional binaries, the one with
/// the largest fractionality weighted by its objective coefficient.
/// High-cost variables (e.g. maintenance-heavy column families) drive the
/// LP bound up fastest when resolved. Returns -1 if all integral.
int PickBranchVariable(const LpProblem& problem, const std::vector<double>& x,
                       const std::vector<int>& binary_vars) {
  double max_cost = 0.0;
  for (int var : binary_vars) {
    max_cost = std::max(max_cost, std::abs(problem.cost(var)));
  }
  int best = -1;
  double best_score = 0.0;
  for (int var : binary_vars) {
    const double v = x[static_cast<size_t>(var)];
    const double dist = std::min(v - std::floor(v), std::ceil(v) - v);
    if (dist <= kIntegralityTolerance) continue;
    const double score =
        dist * (std::abs(problem.cost(var)) + 0.01 * max_cost + 1e-12);
    if (score > best_score) {
      best_score = score;
      best = var;
    }
  }
  return best;
}

}  // namespace

BipResult SolveBip(const LpProblem& problem, const std::vector<int>& binary_vars,
                   const BipOptions& options) {
  obs::Span span("solver.bip", "solver");
  BipResult result;
  // Search statistics, kept whether or not the solve log is on: they feed
  // the solver.bb_* metrics and, when logging, the log's bip record.
  BipSolveStats bstats;
  bstats.vars = problem.num_variables();
  bstats.rows = problem.num_rows();
  bstats.nonzeros = problem.num_nonzeros();
  bstats.binaries = static_cast<int>(binary_vars.size());
  bstats.root_hot_start_attempted =
      options.root_basis != nullptr && !options.root_basis->empty();
  // Solver telemetry (--solve-log). The search runs the same schedule
  // either way; SolveBip stamps each LP record with its own (bip, node)
  // ids and appends it.
  SolveLog& slog = SolveLog::Global();
  const bool logging = slog.enabled();
  if (logging) bstats.id = slog.NextBipId();
  auto record_lp = [&](LpSolveStats& stats, uint64_t bip_id, int node_id) {
    stats.bip_id = bip_id;
    stats.node_id = node_id;
    slog.RecordLp(std::move(stats));
  };
  Stopwatch bip_watch;
  auto finish = [&]() {
    bstats.status = BipStatusName(result.status);
    bstats.objective = result.objective;
    bstats.nodes_explored = result.nodes_explored;
    bstats.lp_iterations = static_cast<uint64_t>(result.lp_iterations);
    bstats.solve_ms = bip_watch.ElapsedMillis();
    static obs::Counter& nodes_counter =
        obs::MetricsRegistry::Global().GetCounter("solver.bb_nodes");
    static obs::Counter& pruned_counter =
        obs::MetricsRegistry::Global().GetCounter("solver.bb_pruned");
    static obs::Counter& infeasible_counter =
        obs::MetricsRegistry::Global().GetCounter("solver.bb_infeasible");
    static obs::Counter& incumbent_counter =
        obs::MetricsRegistry::Global().GetCounter("solver.bb_incumbents");
    nodes_counter.Add(static_cast<uint64_t>(bstats.nodes_explored));
    pruned_counter.Add(bstats.pruned_parent + bstats.pruned_bound);
    infeasible_counter.Add(bstats.infeasible);
    incumbent_counter.Add(bstats.incumbents);
    if (logging) slog.RecordBip(bstats);
  };
  if (options.capture_root_basis != nullptr) {
    options.capture_root_basis->clear();
  }
  SolveCertificate* cert = options.capture_certificate;
  if (cert != nullptr) {
    const std::string instance = std::move(cert->instance);
    *cert = SolveCertificate();
    cert->instance = instance;
    cert->problem = problem;
    cert->binary_vars = binary_vars;
    // Harvest duals from one cold solve of the root relaxation: the
    // search's root may hot-start from the caller's basis, and the
    // certified bound must not depend on it. The solution path below is
    // untouched: this solve exists only to certify, so its log record
    // stands outside the search (bip 0).
    std::vector<double> duals;
    LpSolveStats stats;
    LpResult root = problem.Solve({}, /*max_iterations=*/0,
                                  /*deadline_seconds=*/0.0,
                                  /*start_basis=*/nullptr,
                                  /*final_basis=*/nullptr, &duals,
                                  logging ? &stats : nullptr);
    if (logging) record_lp(stats, /*bip_id=*/0, /*node_id=*/-1);
    if (root.status == LpStatus::kOptimal &&
        duals.size() == static_cast<size_t>(problem.num_rows())) {
      cert->root_available = true;
      cert->root_objective = root.objective;
      cert->root_duals = std::move(duals);
    }
  }

  // Every node solves against one working system of the problem's rows,
  // shared read-only by the pool's workers.
  const LpWorkingSystem system(problem);

  double incumbent = LpProblem::kInfinity;
  if (options.warm_start != nullptr &&
      options.warm_start->size() ==
          static_cast<size_t>(problem.num_variables())) {
    incumbent = 0.0;
    for (int v = 0; v < problem.num_variables(); ++v) {
      incumbent +=
          problem.cost(v) * (*options.warm_start)[static_cast<size_t>(v)];
    }
    result.x = *options.warm_start;
    result.objective = incumbent;
    result.status = BipStatus::kOptimal;  // provisional
    bstats.warm_started = true;
  }

  auto record_node = [&](int node_id, int depth, const char* action,
                         double parent_bound, const LpResult* lp,
                         int branch_var) {
    if (!logging) return;
    BbNodeEvent event;
    event.bip_id = bstats.id;
    event.node_id = node_id;
    event.depth = depth;
    event.action = action;
    event.parent_bound = parent_bound;
    if (lp != nullptr) {
      event.has_lp = true;
      event.lp_objective = lp->objective;
      event.lp_iterations = lp->iterations;
    }
    event.branch_var = branch_var;
    event.incumbent = incumbent;
    slog.RecordNode(std::move(event));
  };

  std::vector<Node> stack;
  stack.push_back(Node{{}, -LpProblem::kInfinity, nullptr});
  // Smallest parent bound of a node whose relaxation was abandoned.
  double abandoned_bound = LpProblem::kInfinity;
  bool root_pending = true;

  auto prune_threshold = [&]() {
    const double rel = std::isfinite(incumbent)
                           ? options.relative_gap * std::abs(incumbent)
                           : 0.0;
    return incumbent - std::max(options.absolute_gap, rel);
  };

  // One selected-and-evaluated node. `node_id` stays -1 unless the node
  // is processed: a relaxation solved for a node pruned (or returned to
  // the stack) before its turn is logged as discarded.
  struct Evaluated {
    Node node;
    LpResult lp;
    LpBasis final_basis;
    LpSolveStats stats;
    int node_id = -1;
  };
  std::vector<Evaluated> batch;

  Stopwatch watch;
  auto out_of_time = [&]() {
    return options.time_limit_seconds > 0.0 &&
           watch.ElapsedSeconds() > options.time_limit_seconds;
  };
  while (!stack.empty() && result.nodes_explored < options.max_nodes) {
    if (out_of_time()) break;

    // --- Select a batch: pop until kNodeBatch survivors of the
    // parent-bound prune. The prune is decided against the incumbent as of
    // selection (no LPs run during selection), so the surviving set — and
    // therefore which relaxations get solved — is a pure function of the
    // search state, independent of pool presence and thread count. ---
    batch.clear();
    while (static_cast<int>(batch.size()) < kNodeBatch && !stack.empty()) {
      Node node = std::move(stack.back());
      stack.pop_back();
      if (node.parent_bound >= prune_threshold()) {
        ++bstats.pruned_parent;
        record_node(/*node_id=*/-1, static_cast<int>(node.fixings.size()),
                    "pruned_parent", node.parent_bound, /*lp=*/nullptr,
                    /*branch_var=*/-1);
        continue;
      }
      batch.emplace_back();
      batch.back().node = std::move(node);
    }

    double lp_deadline = 0.0;
    if (options.time_limit_seconds > 0.0) {
      lp_deadline = std::max(
          1.0, options.time_limit_seconds - watch.ElapsedSeconds());
    }

    // --- Evaluate the whole batch, concurrently when a pool is available
    // (each relaxation is a pure function of its node). The first node
    // reaching here with no fixings is the root (it is seeded that way and
    // never pruned: its parent bound is -inf). Only the root uses the
    // caller's starting basis; children hot-start from their parent,
    // riding on the LP solver's dual-simplex repair of the parent basis
    // (primal infeasible under the branch fixing, still dual feasible). ---
    util::ParallelFor(options.threads, batch.size(), [&](size_t i) {
      // Deadline granularity: once the budget expires, start no further
      // LPs — the processing pass below returns unsolved nodes to the
      // stack. In-flight relaxations still finish, so an expiry overshoots
      // by at most one LP solve per worker.
      if (out_of_time()) return;
      Evaluated& ev = batch[i];
      const bool is_root = root_pending && ev.node.fixings.empty();
      ev.lp = system.Solve(
          ev.node.fixings, /*max_iterations=*/0, lp_deadline,
          is_root ? options.root_basis : ev.node.start.get(), &ev.final_basis,
          /*duals=*/nullptr, logging ? &ev.stats : nullptr);
    });

    // --- Process in pop order (always serial): prune, bound, incumbent,
    // branch. The evaluation above only precomputed the LP results this
    // pass consumes, so the trajectory is the serial algorithm's. ---
    for (size_t bi = 0; bi < batch.size(); ++bi) {
      if (result.nodes_explored >= options.max_nodes || out_of_time()) {
        // Return the unprocessed tail to the stack (reverse order restores
        // the pop order) so the node-limit status sees them pending.
        for (size_t r = batch.size(); r-- > bi;) {
          stack.push_back(std::move(batch[r].node));
        }
        break;
      }
      Evaluated& ev = batch[bi];
      Node& node = ev.node;
      const int depth = static_cast<int>(node.fixings.size());
      if (node.parent_bound >= prune_threshold()) {
        // An incumbent found earlier in this batch retroactively prunes
        // the node; its speculative LP result is discarded.
        ++bstats.pruned_parent;
        record_node(/*node_id=*/-1, depth, "pruned_parent", node.parent_bound,
                    /*lp=*/nullptr, /*branch_var=*/-1);
        continue;
      }

      const int node_id = result.nodes_explored;
      ev.node_id = node_id;
      ++result.nodes_explored;
      bstats.max_depth = std::max(bstats.max_depth, depth);
      LpResult& lp = ev.lp;
      if (root_pending && node.fixings.empty()) {
        root_pending = false;
        bstats.root_hot_started = lp.hot_started;
        if (options.capture_root_basis != nullptr) {
          *options.capture_root_basis = ev.final_basis;
        }
      }
      result.lp_iterations += lp.iterations;
      if (lp.status == LpStatus::kInfeasible) {
        ++bstats.infeasible;
        record_node(node_id, depth, "infeasible", node.parent_bound, &lp,
                    /*branch_var=*/-1);
        continue;
      }
      if (lp.status != LpStatus::kOptimal) {
        // An unbounded or iteration/deadline-limited relaxation leaves its
        // subtree unexplored: the search can no longer claim optimality,
        // and the node's parent bound stays part of the global bound.
        abandoned_bound = std::min(abandoned_bound, node.parent_bound);
        record_node(node_id, depth, "abandoned", node.parent_bound, &lp,
                    /*branch_var=*/-1);
        continue;
      }
      if (lp.objective >= prune_threshold()) {
        ++bstats.pruned_bound;
        record_node(node_id, depth, "pruned_bound", node.parent_bound, &lp,
                    /*branch_var=*/-1);
        continue;
      }

      const int branch_var = PickBranchVariable(problem, lp.x, binary_vars);
      if (branch_var == -1) {
        // Integral: new incumbent. Snap binaries exactly, then recompute
        // the objective from the snapped point in index order — this makes
        // the reported optimum independent of the simplex's floating-point
        // path (any correct LP solver gives the same bits on instances
        // whose costs and solution values are exactly representable).
        result.x = std::move(lp.x);
        for (int var : binary_vars) {
          result.x[static_cast<size_t>(var)] =
              std::round(result.x[static_cast<size_t>(var)]);
        }
        incumbent = 0.0;
        for (int v = 0; v < problem.num_variables(); ++v) {
          incumbent += problem.cost(v) * result.x[static_cast<size_t>(v)];
        }
        result.objective = incumbent;
        result.status = BipStatus::kOptimal;  // provisional; confirmed below
        ++bstats.incumbents;
        record_node(node_id, depth, "incumbent", node.parent_bound, &lp,
                    /*branch_var=*/-1);
        continue;
      }

      // Depth-first within the batch: push the branch suggested by the
      // fractional value last so it pops first. Both children share the
      // parent's optimal basis as their hot start.
      record_node(node_id, depth, "branched", node.parent_bound, &lp,
                  branch_var);
      const double frac = lp.x[static_cast<size_t>(branch_var)];
      const double preferred = frac >= 0.5 ? 1.0 : 0.0;
      std::shared_ptr<const LpBasis> child_start;
      if (!ev.final_basis.empty()) {
        child_start = std::make_shared<LpBasis>(std::move(ev.final_basis));
      }
      Node other = node;
      other.parent_bound = lp.objective;
      other.start = child_start;
      other.fixings.emplace_back(branch_var, 1.0 - preferred, 1.0 - preferred);
      stack.push_back(std::move(other));
      Node first = std::move(node);
      first.parent_bound = lp.objective;
      first.start = std::move(child_start);
      first.fixings.emplace_back(branch_var, preferred, preferred);
      stack.push_back(std::move(first));
    }

    // --- Log every relaxation the batch solved, in pop order: one record
    // per LP, so the log's count matches solver.lp_solves. A slot the
    // deadline skipped was never solved and has no status. ---
    if (logging) {
      for (Evaluated& ev : batch) {
        if (!ev.stats.status.empty()) {
          record_lp(ev.stats, bstats.id, ev.node_id);
        }
      }
    }
  }

  if (!stack.empty() || abandoned_bound < LpProblem::kInfinity) {
    // Node limit reached with work remaining, or subtrees abandoned. The
    // global lower bound at this point: every open or abandoned subtree
    // costs at least its parent's LP bound, and every pruned subtree at
    // least the (final, smallest) prune threshold.
    result.status = std::isfinite(incumbent) ? BipStatus::kNodeLimit
                                             : BipStatus::kNoSolution;
    double open_min = std::min(prune_threshold(), abandoned_bound);
    for (const Node& node : stack) {
      open_min = std::min(open_min, node.parent_bound);
    }
    result.best_bound = open_min;
  } else if (!std::isfinite(incumbent)) {
    result.status = BipStatus::kInfeasible;
    result.best_bound = incumbent;
  } else {
    result.status = BipStatus::kOptimal;
    result.best_bound = result.objective;
  }
  if (cert != nullptr) {
    cert->status = BipStatusName(result.status);
    cert->objective = result.objective;
    cert->x = result.x;
  }
  finish();
  return result;
}

}  // namespace nose
