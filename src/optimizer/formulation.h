#ifndef NOSE_OPTIMIZER_FORMULATION_H_
#define NOSE_OPTIMIZER_FORMULATION_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cost/cardinality.h"
#include "cost/cost_model.h"
#include "planner/plan_space.h"
#include "planner/update_planner.h"
#include "schema/candidate_pool.h"
#include "schema/schema.h"
#include "solver/lp.h"
#include "util/statusor.h"
#include "util/thread_pool.h"
#include "workload/workload.h"

namespace nose {

struct PlanSpaceCache;
struct OptimizationResult;

/// Plan space plus its BIP bookkeeping: one decision variable per edge,
/// flow-conservation constraints per state.
struct SpaceVars {
  PlanSpace space;
  double weight = 0.0;
  /// edge_vars[state][edge] = LP variable index.
  std::vector<std::vector<int>> edge_vars;
  /// Root constraint right-hand side: fixed 1 for workload queries, or a
  /// shared y indicator for support queries.
  int root_delta_var = -1;  // -1 => constant 1
};

/// One deduplicated support query shared by every (update, candidate)
/// pair that needs it: the synthesized query, its plan space, and the y
/// indicator variable once BIP variables are assigned.
struct SharedSupport {
  std::shared_ptr<const Query> query;  // owns the synthesized query
  SpaceVars sv;
  int y_var = -1;
  bool from_cache = false;  // space copied from the PlanSpaceCache
};

/// Per (update, modified candidate): write cost + the shared support
/// spaces whose results it needs.
struct SupportInfo {
  const WorkloadEntry* entry;
  double weight;  // normalized mix weight of the update
  size_t cf_index;
  std::vector<size_t> shared_ids;  // into shared_supports
  double write_cost;
  bool maintainable = true;
};

/// Everything the BIP needs to know about ONE workload window before any
/// variable is allocated: the per-query plan spaces, the deduplicated
/// support spaces, the per-candidate maintenance costs, and which
/// candidates are usable at all. SchemaOptimizer instantiates it once per
/// group of a horizon's windows (once for a single mix) over the same
/// interned pool, sharing plan spaces through the PlanSpaceCache (they
/// depend only on (statement, pool), never on mix weights).
struct WindowFormulation {
  std::vector<SpaceVars> query_spaces;  // workload queries
  std::vector<const WorkloadEntry*> query_entries;
  std::vector<std::unique_ptr<SharedSupport>> shared_supports;
  std::vector<SupportInfo> supports;
  /// Maintenance cost per candidate: Σ_m w_m C'_mj (paper Fig. 10).
  std::vector<double> delta_cost;
  /// False for candidates no schema may select (unmaintainable under some
  /// update of this window).
  std::vector<bool> allowed;
  /// Supports with a usable plan space, in shared_supports order — the
  /// spaces that received y/edge variables (filled by
  /// AssignWindowVariables).
  std::vector<SharedSupport*> active_supports;
};

/// Builds the window formulation for `mix`: plan spaces for every weighted
/// query, priced supports for every weighted update, maintenance costs,
/// pinning propagation, and the coverage check. Parallel per-statement
/// stages merge in deterministic statement/candidate order. When `cache`
/// is non-null, plan spaces and priced supports are read from / written
/// into it.
StatusOr<WindowFormulation> BuildWindowFormulation(
    const Workload& workload, const std::string& mix,
    const CandidatePool& pool, const CostModel* cost,
    const CardinalityEstimator* est, util::ThreadPool* threads,
    PlanSpaceCache* cache);

/// Allocates the x_e variable for every edge of the space, with cost
/// scale · weight · edge.cost. Serial and cheap; runs before row assembly
/// so the variable numbering matches what the original interleaved build
/// produced (deltas, then per-query edges, then per-support y/edges) and
/// recommendations are unchanged.
void AssignSpaceVariables(SpaceVars* sv, LpProblem* lp, double scale);

/// The candidates that some root-to-done path of a plan-space DAG reads on
/// two or more edges, in ascending id order: per candidate read by at
/// least two edges, a longest-path pass that counts only the edges reading
/// it, memoized per state. States unreachable from states[0] and paths
/// that dead-end are ignored, since neither can carry flow. Empty on every
/// space the planner builds today; BuildSpaceRows keeps per-edge linking
/// rows for whatever it reports.
std::vector<CfId> RepeatedReadCandidates(
    const std::vector<PlanSpaceState>& states);

/// The linking rows of one space into `buf`: Σ_{e: cf(e) = j} x_e ≤ δ_j
/// for each candidate j the states read, in order of first appearance,
/// where `edge_vars[state][edge]` is x_e and `delta_vars[j]` is δ_j. The
/// root flow is at most 1, so at a binary point the edges carrying flow
/// form one path, and the summed row admits exactly the binary points the
/// per-edge rows x_e ≤ δ_j do as long as no path reads j twice. Its LP
/// relaxation is the strong facility-location form (the space is the
/// client, j the facility), which the per-edge rows are not. A candidate
/// RepeatedReadCandidates reports keeps one x_e ≤ δ_j row per edge.
void BuildLinkingRows(const std::vector<PlanSpaceState>& states,
                      const std::vector<std::vector<int>>& edge_vars,
                      const std::vector<int>& delta_vars, LpRowBuffer* buf);

/// Builds the path constraints for one space (paper Fig. 7) into `buf`:
/// the linking rows of BuildLinkingRows; Σ root edges = rhs; for every
/// interior state, Σ outgoing = Σ incoming. Reads the pre-assigned edge
/// variables and never touches the LpProblem, so spaces fan out on the
/// thread pool and the buffers are appended in statement order afterwards.
/// `label` names the space in traces; callers pass an empty string when
/// tracing is off.
void BuildSpaceRows(const SpaceVars& sv, const std::vector<int>& delta_vars,
                    LpRowBuffer* buf, std::string label);

/// Assigns every edge/indicator variable of the window: per-query edge
/// variables in statement order, then per-support y indicator + edge
/// variables for every answerable support. `delta_vars` must already be
/// allocated by the caller (deltas first — the numbering contract).
/// `scale` multiplies every objective coefficient (a group's duration in
/// a multi-group horizon; 1.0 when the horizon has one group).
void AssignWindowVariables(WindowFormulation* form, LpProblem* lp,
                           double scale);

/// Appends the window's constraint rows to `lp`: per-space path rows
/// (built in parallel into per-space buffers, appended in statement
/// order — the deterministic-merge rule), then the δ_cf ≤ y_s support
/// linking rows. Returns the number of rows added.
int BuildWindowRows(const WindowFormulation& form,
                    const std::vector<int>& delta_vars, LpProblem* lp,
                    util::ThreadPool* threads, bool tracing);

/// Writes a feasible point for this window into `x` (which must be sized
/// to the problem): δ variables from `chosen`, every flow routed along its
/// best path over the chosen candidates, and support indicators set.
/// With `all_supports` true, every answerable support with a finite best
/// cost under `chosen` is activated (the greedy warm start: chosen =
/// allowed). With it false, only supports some chosen candidate depends on
/// are activated (the exact point for a given selection — certificate
/// re-derivation and stitched horizon warm starts). Returns false if
/// some required routing has no path under `chosen`.
bool RouteWindowPoint(const WindowFormulation& form,
                      const std::vector<int>& delta_vars,
                      const std::vector<bool>& chosen, bool all_supports,
                      std::vector<double>* x);

/// Turns a selection into the window's recommendation: min-cost plan per
/// query, the selected schema, and one UpdatePlan per update entry. Fills
/// result->query_plans/schema/update_plans; plans point into `pool`.
Status ExtractWindowPlans(const WindowFormulation& form,
                          const Workload& workload, const std::string& mix,
                          const CandidatePool& pool,
                          const CardinalityEstimator& est,
                          const std::vector<bool>& selected,
                          OptimizationResult* result);

/// The window's execution objective for a selection: Σ_q w_q · best plan
/// cost over the selected candidates + Σ_selected maintenance cost —
/// exactly the single-window BIP objective evaluated at `selected`.
/// Infinity when some query has no plan over the selection.
double WindowObjective(const WindowFormulation& form,
                       const std::vector<bool>& selected);

/// The schema-size stage (paper §V: among minimum-cost schemas, the one
/// with the fewest column families), over a schedule of selections, one
/// per window group. Walks the selected (group, candidate) pairs from the
/// last group back, each group in reverse index order, and drops each one
/// whose removal keeps `evaluate()` (the objective of `*selections` as it
/// stands) at or below the budget `best + 1e-6 · max(1, |best|)`, sweeping
/// again until a sweep drops nothing. `best` starts at `objective` (the
/// cost solve's) and follows any drop that lowers the objective, so a poor
/// starting point (an early-stopped solve) descends instead of spending its
/// slack on fewer families. The result is a fixpoint: dropping any one
/// remaining pair exceeds the final budget. Returns the number of pairs
/// dropped.
int DropRedundantCandidates(double objective,
                            std::vector<std::vector<bool>>* selections,
                            const std::function<double()>& evaluate);

}  // namespace nose

#endif  // NOSE_OPTIMIZER_FORMULATION_H_
