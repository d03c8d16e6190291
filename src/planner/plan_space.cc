#include "planner/plan_space.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <string_view>
#include <unordered_map>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/strings.h"

namespace nose {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Internal mutable state during plan-space construction; mirrors
/// PlanSpaceState plus the `ordered` bit (whether results so far arrive in
/// the query's requested order — decided by the first step, preserved by
/// the order-respecting client joins of the application model).
struct StateDesc {
  size_t entity_index;
  std::vector<Predicate> pending_preds;
  std::vector<FieldRef> pending_attrs;
  bool holds_ids;
  bool ordered;

  std::string Key() const {
    std::vector<std::string> parts;
    for (const Predicate& p : pending_preds) parts.push_back(p.ToString());
    std::sort(parts.begin(), parts.end());
    std::vector<std::string> attrs;
    for (const FieldRef& a : pending_attrs) attrs.push_back(a.QualifiedName());
    std::sort(attrs.begin(), attrs.end());
    return std::to_string(entity_index) + "|" + StrJoin(parts, ";") + "|" +
           StrJoin(attrs, ";") + "|" + (holds_ids ? "1" : "0") +
           (ordered ? "1" : "0");
  }
};

struct MatchOutcome {
  AccessDetail access;
  std::vector<Predicate> new_pending_preds;
  std::vector<FieldRef> new_pending_attrs;
  bool completes = false;
  bool ordered_after = false;
};

double RowBytes(const ColumnFamily& cf) {
  double bytes = 0.0;
  const EntityGraph& graph = *cf.graph();
  for (const FieldRef& ref : cf.clustering_key()) {
    bytes += graph.GetEntity(ref.entity).FindField(ref.field)->SizeBytes();
  }
  for (const FieldRef& ref : cf.values()) {
    bytes += graph.GetEntity(ref.entity).FindField(ref.field)->SizeBytes();
  }
  return bytes;
}

/// The ID field reference of the path entity at `index`.
FieldRef IdRef(const Query& q, size_t index) {
  const std::string& entity = q.path().EntityAt(index);
  return FieldRef{entity, q.graph()->GetEntity(entity).id_field().name};
}

/// Attributes of the path entity at `index` that any plan must fetch: the
/// query's select attributes plus ORDER BY fields (a client-side sort needs
/// the value in hand).
std::vector<FieldRef> SelectAttrsOn(const Query& q, size_t index) {
  std::vector<FieldRef> out;
  const std::string& entity = q.path().EntityAt(index);
  for (const FieldRef& ref : q.select()) {
    if (ref.entity == entity) out.push_back(ref);
  }
  for (const OrderField& o : q.order_by()) {
    if (o.field.entity == entity &&
        std::find(out.begin(), out.end(), o.field) == out.end()) {
      out.push_back(o.field);
    }
  }
  return out;
}

double FieldCard(const EntityGraph& graph, const FieldRef& ref) {
  const Entity& entity = graph.GetEntity(ref.entity);
  return static_cast<double>(entity.FieldCardinality(*entity.FindField(ref.field)));
}

/// What TryMatch reads about the query, computed once per Build rather
/// than once per (state, segment, candidate). Per-index vectors cover the
/// path indices 0..anchor, the only ones a state or step reaches.
struct QueryFacts {
  /// Shallowest path index the query references: only a step landing at
  /// an index <= floor may complete the query.
  size_t floor = 0;
  /// ORDER BY fields not fixed by an equality predicate, in order: the
  /// clustering tail a pre-sorted step must start with.
  std::vector<FieldRef> required_order;
  std::vector<FieldRef> ids;                       ///< IdRef(q, m)
  std::vector<std::vector<Predicate>> preds_on;    ///< q.PredicatesOn(m)
  std::vector<std::vector<FieldRef>> attrs_on;     ///< SelectAttrsOn(q, m)
  std::vector<double> matching_entities;  ///< est.MatchingEntities(q, m)
  std::vector<double> entity_count;       ///< max(1, count of entity m)

  QueryFacts(const Query& q, size_t anchor, const CardinalityEstimator& est) {
    floor = q.path().NumEntities() - 1;
    for (const Predicate& p : q.predicates()) {
      floor = std::min(floor, static_cast<size_t>(
                                  q.path().IndexOfEntity(p.field.entity)));
    }
    for (const FieldRef& sel : q.select()) {
      floor = std::min(floor,
                       static_cast<size_t>(q.path().IndexOfEntity(sel.entity)));
    }
    for (const OrderField& o : q.order_by()) {
      floor = std::min(floor, static_cast<size_t>(
                                  q.path().IndexOfEntity(o.field.entity)));
    }
    for (const OrderField& o : q.order_by()) {
      bool constant = false;
      for (const Predicate& p : q.predicates()) {
        if (p.IsEquality() && p.field == o.field) constant = true;
      }
      if (!constant) required_order.push_back(o.field);
    }
    const EntityGraph& graph = *q.graph();
    for (size_t m = 0; m <= anchor; ++m) {
      ids.push_back(IdRef(q, m));
      preds_on.push_back(q.PredicatesOn(m));
      attrs_on.push_back(SelectAttrsOn(q, m));
      matching_entities.push_back(est.MatchingEntities(q, m));
      entity_count.push_back(static_cast<double>(std::max<uint64_t>(
          1, graph.GetEntity(q.path().EntityAt(m)).count())));
    }
  }
};

/// A candidate's inputs to a step's cost, computed on its first match in
/// a Build.
struct CandidateCost {
  bool known = false;
  double per_partition = 0.0;  ///< EntryCount() / PartitionCount()
  double row_bytes = 0.0;      ///< RowBytes(cf)
};

/// Attempts to serve the decomposition step `state --(segment [i..j])--> i`
/// with column family `cf`. `segment` is the query path's [i..j] sub-path
/// and `reversed` its reverse, built once per segment by the caller;
/// `facts` and `cf_cost` are the query's and the candidate's share of the
/// Build. Returns nullopt if `cf` cannot serve it.
std::optional<MatchOutcome> TryMatch(const Query& q, const QueryFacts& facts,
                                     const StateDesc& state, size_t i,
                                     const KeyPath& segment,
                                     const KeyPath& reversed,
                                     const ColumnFamily& cf,
                                     CandidateCost* cf_cost,
                                     const CardinalityEstimator& est,
                                     const CostModel& cost) {
  const size_t j = state.entity_index;
  const EntityGraph& graph = *q.graph();
  const bool first = !state.holds_ids;
  const bool materialize = (i == j) && state.holds_ids;

  // A materialization step must have something to fetch/apply.
  if (materialize && state.pending_preds.empty() && state.pending_attrs.empty()) {
    return std::nullopt;
  }

  // 1. The column family must span exactly this path segment.
  if (!(cf.path() == segment || cf.path() == reversed)) {
    return std::nullopt;
  }

  // 2. Gather the predicate workload for this step.
  //    - `pending_preds` (on e_j) must be applied unless the landing entity
  //      is e_j itself (i == j), where deferral stays possible on the first
  //      step; a materialization step must clear everything.
  //    - interior-entity predicates must be applied (those entities are
  //      never visited again);
  //    - e_i predicates may be deferred to a later step.
  struct Pending {
    Predicate pred;
    bool deferrable;
  };
  std::vector<Pending> preds;
  for (const Predicate& p : state.pending_preds) {
    preds.push_back({p, /*deferrable=*/i == j && first});
  }
  for (size_t m = i; m < j; ++m) {
    for (const Predicate& p : facts.preds_on[m]) {
      preds.push_back({p, /*deferrable=*/m == i});
    }
  }

  // Select attributes: same deferral rules as predicates.
  struct PendingAttr {
    FieldRef attr;
    bool deferrable;
  };
  std::vector<PendingAttr> attrs;
  for (const FieldRef& a : state.pending_attrs) {
    attrs.push_back({a, /*deferrable=*/i == j && first});
  }
  for (size_t m = i; m < j; ++m) {
    for (const FieldRef& a : facts.attrs_on[m]) {
      attrs.push_back({a, /*deferrable=*/m == i});
    }
  }

  MatchOutcome out;
  std::vector<bool> applied(preds.size(), false);

  const FieldRef& id_j = facts.ids[j];
  bool id_bound = false;

  auto find_unapplied_eq = [&](const FieldRef& field) -> int {
    for (size_t p = 0; p < preds.size(); ++p) {
      if (!applied[p] && preds[p].pred.IsEquality() &&
          preds[p].pred.field == field) {
        return static_cast<int>(p);
      }
    }
    return -1;
  };

  // 3. Partition key: every field must be bound — by the held ID set or by
  //    an equality predicate parameter.
  for (const FieldRef& field : cf.partition_key()) {
    if (state.holds_ids && !id_bound && field == id_j) {
      out.access.partition_uses_id = true;
      id_bound = true;
      continue;
    }
    const int p = find_unapplied_eq(field);
    if (p < 0) return std::nullopt;
    out.access.partition_preds.push_back(preds[static_cast<size_t>(p)].pred);
    applied[static_cast<size_t>(p)] = true;
  }

  // 4. Clustering prefix: greedily consume leading clustering fields bound
  //    by equality (or by the held ID), then optionally push one range.
  double row_selectivity = 1.0;
  size_t pos = 0;
  const std::vector<FieldRef>& clustering = cf.clustering_key();
  while (pos < clustering.size()) {
    const FieldRef& field = clustering[pos];
    if (state.holds_ids && !id_bound && field == id_j) {
      out.access.clustering_uses_id = true;
      id_bound = true;
      row_selectivity /= std::max(1.0, FieldCard(graph, field));
      ++pos;
      continue;
    }
    const int p = find_unapplied_eq(field);
    if (p < 0) break;
    out.access.clustering_eq.push_back(preds[static_cast<size_t>(p)].pred);
    applied[static_cast<size_t>(p)] = true;
    row_selectivity /= std::max(1.0, FieldCard(graph, field));
    ++pos;
  }

  // The held ID set must constrain the lookup (otherwise the get ignores
  // the upstream join and returns unrelated records).
  if (state.holds_ids && !id_bound) return std::nullopt;

  // Order check: the clustering tail must start with the not-trivially-
  // constant ORDER BY fields for results to arrive pre-sorted.
  bool clustering_ordered = true;
  const std::vector<FieldRef>& required = facts.required_order;
  for (size_t r = 0; r < required.size(); ++r) {
    if (pos + r >= clustering.size() || !(clustering[pos + r] == required[r])) {
      clustering_ordered = false;
      break;
    }
  }

  // Range pushdown: the next clustering field may absorb one range
  // predicate.
  if (pos < clustering.size()) {
    for (size_t p = 0; p < preds.size(); ++p) {
      if (!applied[p] && preds[p].pred.IsRange() &&
          preds[p].pred.field == clustering[pos]) {
        out.access.pushed_range = preds[p].pred;
        applied[p] = true;
        row_selectivity *= est.Selectivity(preds[p].pred);
        break;
      }
    }
  }

  // 5. Remaining predicates: client-side filters if the field is stored,
  //    deferred if allowed, otherwise the column family cannot serve.
  double filter_selectivity = 1.0;
  for (size_t p = 0; p < preds.size(); ++p) {
    if (applied[p]) continue;
    if (cf.ContainsField(preds[p].pred.field)) {
      out.access.filters.push_back(preds[p].pred);
      filter_selectivity *= est.Selectivity(preds[p].pred);
    } else if (preds[p].deferrable) {
      out.new_pending_preds.push_back(preds[p].pred);
    } else {
      return std::nullopt;
    }
  }

  // 6. Select attributes: must be stored unless deferrable.
  for (const PendingAttr& a : attrs) {
    if (cf.ContainsField(a.attr)) continue;
    if (a.deferrable) {
      out.new_pending_attrs.push_back(a.attr);
    } else {
      return std::nullopt;
    }
  }

  // A materialization step must fully clear its pending work (this also
  // guarantees the state graph stays acyclic).
  if (materialize &&
      (!out.new_pending_preds.empty() || !out.new_pending_attrs.empty())) {
    return std::nullopt;
  }

  // 7. Does this step complete the query?
  out.completes = (i <= facts.floor) && out.new_pending_preds.empty() &&
                  out.new_pending_attrs.empty();

  // If the plan continues, the next step needs the landing entity's ID.
  if (!out.completes && !cf.ContainsField(facts.ids[i])) return std::nullopt;

  // 8. Cardinalities and cost.
  double bindings = 1.0;
  if (state.holds_ids) {
    bindings = facts.matching_entities[j];
    for (const Predicate& p : state.pending_preds) {
      bindings /= std::max(1e-12, est.Selectivity(p));
    }
    bindings = std::min(bindings, facts.entity_count[j]);
  }
  if (!cf_cost->known) {
    cf_cost->per_partition = cf.EntryCount() / cf.PartitionCount();
    cf_cost->row_bytes = RowBytes(cf);
    cf_cost->known = true;
  }
  const double requests = state.holds_ids ? std::max(1.0, bindings) : 1.0;
  const double rows_per_request =
      std::max(0.0, cf_cost->per_partition * row_selectivity);
  const double rows_scanned = requests * rows_per_request;
  out.access.requests = requests;
  out.access.rows_per_request = rows_per_request;
  out.access.rows_out = rows_scanned * filter_selectivity;
  out.access.step_cost =
      cost.GetCost(requests, rows_per_request, cf_cost->row_bytes);
  if (!out.access.filters.empty()) {
    out.access.step_cost += cost.FilterCost(rows_scanned);
  }
  out.access.sorted_output = clustering_ordered && requests <= 1.0 + 1e-9;
  out.ordered_after = first ? out.access.sorted_output : state.ordered;
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// QueryPlanner
// ---------------------------------------------------------------------------

PlanSpace QueryPlanner::Build(const Query& query,
                              const std::vector<ColumnFamily>& pool) const {
  // Build runs on pool workers during the cost-calculation phase; the span
  // puts each query's plan-space construction on its worker's trace lane.
  obs::Span span("planner.build_space", "planner");
  static obs::Counter& spaces =
      obs::MetricsRegistry::Global().GetCounter("planner.spaces_built");
  static obs::Counter& states_counter =
      obs::MetricsRegistry::Global().GetCounter("planner.states");
  static obs::Counter& edges_counter =
      obs::MetricsRegistry::Global().GetCounter("planner.edges");
  static obs::Gauge& max_states =
      obs::MetricsRegistry::Global().GetGauge("planner.max_space_states");
  static obs::Histogram& state_depth = obs::MetricsRegistry::Global()
                                           .GetHistogram(
                                               "planner.space_states");

  PlanSpace space;
  space.query_ = &query;

  // Anchor: the deepest path entity referenced by the query.
  size_t anchor = 0;
  for (const Predicate& p : query.predicates()) {
    anchor = std::max(anchor, static_cast<size_t>(
                                  query.path().IndexOfEntity(p.field.entity)));
  }
  for (const FieldRef& s : query.select()) {
    anchor = std::max(anchor,
                      static_cast<size_t>(query.path().IndexOfEntity(s.entity)));
  }
  for (const OrderField& o : query.order_by()) {
    anchor = std::max(anchor, static_cast<size_t>(
                                  query.path().IndexOfEntity(o.field.entity)));
  }

  // TryMatch rejects every candidate whose path is neither the segment
  // [i..j] nor its reverse, and equal paths have equal text. So bucket the
  // pool by path text once, and give each segment the union of its two
  // buckets in ascending CfId order: every candidate a full scan could
  // match, in the order it would visit them. States never sit above the
  // anchor, so only segments with j <= anchor are needed.
  std::unordered_map<std::string_view, std::vector<CfId>> by_path;
  for (size_t c = 0; c < pool.size(); ++c) {
    by_path[pool[c].path_text()].push_back(static_cast<CfId>(c));
  }
  struct Segment {
    KeyPath path;
    KeyPath reversed;
    std::vector<CfId> candidates;
  };
  std::vector<std::vector<Segment>> segments(anchor + 1);  // [j][i]
  for (size_t j = 0; j <= anchor; ++j) {
    for (size_t i = 0; i <= j; ++i) {
      Segment seg;
      seg.path = query.path().SubPath(i, j);
      seg.reversed = seg.path.Reversed();
      auto add_bucket = [&](const std::string& text) {
        auto it = by_path.find(text);
        if (it == by_path.end()) return;
        const size_t mid = seg.candidates.size();
        seg.candidates.insert(seg.candidates.end(), it->second.begin(),
                              it->second.end());
        std::inplace_merge(seg.candidates.begin(),
                           seg.candidates.begin() + static_cast<long>(mid),
                           seg.candidates.end());
      };
      const std::string text = seg.path.ToString();
      const std::string reversed_text = seg.reversed.ToString();
      add_bucket(text);
      if (reversed_text != text) add_bucket(reversed_text);
      segments[j].push_back(std::move(seg));
    }
  }

  const QueryFacts facts(query, anchor, *est_);
  std::vector<CandidateCost> cf_costs(pool.size());

  std::vector<StateDesc> descs;
  std::map<std::string, int> state_index;

  StateDesc initial;
  initial.entity_index = anchor;
  initial.pending_preds = facts.preds_on[anchor];
  initial.pending_attrs = facts.attrs_on[anchor];
  initial.holds_ids = false;
  initial.ordered = query.order_by().empty();
  descs.push_back(initial);
  state_index[initial.Key()] = 0;
  space.states_.push_back(PlanSpaceState{
      anchor, initial.pending_preds, initial.pending_attrs, false, {}});

  // Breadth-first expansion of the decomposition DAG.
  for (size_t s = 0; s < descs.size(); ++s) {
    const StateDesc state = descs[s];  // copy: descs may reallocate
    const size_t j = state.entity_index;
    for (size_t i = j + 1; i-- > 0;) {
      const Segment& seg = segments[j][i];
      for (const CfId c : seg.candidates) {
        std::optional<MatchOutcome> m =
            TryMatch(query, facts, state, i, seg.path, seg.reversed, pool[c],
                     &cf_costs[c], *est_, *cost_);
        if (!m.has_value()) continue;

        PlanSpaceEdge edge;
        edge.cf_index = c;
        edge.from_index = j;
        edge.to_index = i;
        edge.first = !state.holds_ids;
        edge.access = m->access;
        edge.cost = m->access.step_cost;
        if (m->completes) {
          edge.target_state = PlanSpaceEdge::kDone;
          if (!query.order_by().empty() && !m->ordered_after) {
            edge.adds_sort = true;
            edge.sort_cost = cost_->SortCost(m->access.rows_out);
            edge.cost += edge.sort_cost;
          }
        } else {
          StateDesc next;
          next.entity_index = i;
          next.pending_preds = m->new_pending_preds;
          next.pending_attrs = m->new_pending_attrs;
          next.holds_ids = true;
          next.ordered = m->ordered_after;
          const std::string key = next.Key();
          auto it = state_index.find(key);
          int target;
          if (it == state_index.end()) {
            target = static_cast<int>(descs.size());
            state_index[key] = target;
            descs.push_back(next);
            space.states_.push_back(PlanSpaceState{
                i, next.pending_preds, next.pending_attrs, true, {}});
          } else {
            target = it->second;
          }
          edge.target_state = target;
        }
        space.states_[s].edges.push_back(std::move(edge));
      }
    }
  }
  spaces.Increment();
  states_counter.Add(space.states_.size());
  size_t num_edges = 0;
  for (const PlanSpaceState& st : space.states_) num_edges += st.edges.size();
  edges_counter.Add(num_edges);
  max_states.SetMax(static_cast<double>(space.states_.size()));
  state_depth.Observe(static_cast<double>(space.states_.size()));
  return space;
}

bool PlanSpace::HasPlan() const { return std::isfinite(BestCost()); }

double PlanSpace::MinCostToDone(const std::vector<bool>& allowed,
                                std::vector<double>* memo) const {
  // Memoized recursion over the state graph, which is acyclic: edges only
  // decrease the (entity_index, pending) lexicographic measure. A state
  // reads as infinite while its edges are explored, so a cycle would mean
  // "no plan" rather than endless recursion.
  if (states_.empty()) return kInf;
  memo->assign(states_.size(), -1.0);
  auto rec = [&](auto&& self, size_t s) -> double {
    if ((*memo)[s] >= 0.0) return (*memo)[s];
    (*memo)[s] = kInf;
    double best = kInf;
    for (const PlanSpaceEdge& e : states_[s].edges) {
      if (!allowed.empty() && !allowed[e.cf_index]) continue;
      const double rest = e.target_state == PlanSpaceEdge::kDone
                              ? 0.0
                              : self(self, static_cast<size_t>(e.target_state));
      best = std::min(best, e.cost + rest);
    }
    (*memo)[s] = best;
    return best;
  };
  return rec(rec, 0);
}

double PlanSpace::BestCost(const std::vector<bool>& allowed) const {
  std::vector<double> memo;
  return MinCostToDone(allowed, &memo);
}

StatusOr<QueryPlan> PlanSpace::BestPlan(const std::vector<ColumnFamily>& pool,
                                        const std::vector<bool>& allowed) const {
  QueryPlan plan;
  plan.query = query_;
  NOSE_ASSIGN_OR_RETURN(auto path, BestPath(allowed, &plan.cost));
  for (const auto& [s, e] : path) {
    const PlanSpaceEdge& chosen = states_[s].edges[e];
    PlanStep step;
    step.cf = &pool[chosen.cf_index];
    step.cf_id = chosen.cf_index;
    step.from_index = chosen.from_index;
    step.to_index = chosen.to_index;
    step.first = chosen.first;
    step.access = chosen.access;
    plan.steps.push_back(std::move(step));
    if (chosen.adds_sort) {
      plan.needs_sort = true;
      plan.sort_cost = chosen.sort_cost;
    }
  }
  return plan;
}

StatusOr<std::vector<std::pair<size_t, size_t>>> PlanSpace::BestPath(
    const std::vector<bool>& allowed, double* cost) const {
  // Each state's min cost to completion, then a walk from the root along
  // each state's first edge within 1e-9 of the state's minimum.
  std::vector<double> memo;
  if (!std::isfinite(MinCostToDone(allowed, &memo))) {
    return Status::Infeasible("no plan can answer query: " +
                              (query_ ? query_->ToString() : std::string()));
  }
  if (cost != nullptr) *cost = memo[0];

  std::vector<std::pair<size_t, size_t>> path;
  size_t s = 0;
  while (true) {
    int chosen = -1;
    for (size_t e = 0; e < states_[s].edges.size(); ++e) {
      const PlanSpaceEdge& edge = states_[s].edges[e];
      if (!allowed.empty() && !allowed[edge.cf_index]) continue;
      const double rest =
          edge.target_state == PlanSpaceEdge::kDone
              ? 0.0
              : memo[static_cast<size_t>(edge.target_state)];
      if (std::abs(edge.cost + rest - memo[s]) < 1e-9) {
        chosen = static_cast<int>(e);
        break;
      }
    }
    if (chosen < 0) {
      return Status::Internal("path extraction failed to follow best cost");
    }
    path.emplace_back(s, static_cast<size_t>(chosen));
    const int target = states_[s].edges[static_cast<size_t>(chosen)].target_state;
    if (target == PlanSpaceEdge::kDone) break;
    s = static_cast<size_t>(target);
  }
  return path;
}

std::string PlanSpace::ToString(const std::vector<ColumnFamily>& pool) const {
  std::string out;
  for (size_t s = 0; s < states_.size(); ++s) {
    const PlanSpaceState& st = states_[s];
    out += "state " + std::to_string(s) + " @" +
           std::to_string(st.entity_index) +
           (st.holds_ids ? "" : " (initial)") + "\n";
    for (const PlanSpaceEdge& e : st.edges) {
      out += "  -> " +
             (e.target_state == PlanSpaceEdge::kDone
                  ? std::string("DONE")
                  : std::to_string(e.target_state)) +
             " via " + pool[e.cf_index].ToString() +
             " cost=" + std::to_string(e.cost) + "\n";
    }
  }
  return out;
}

StatusOr<QueryPlan> QueryPlanner::PlanForSchema(
    const Query& query, const std::vector<ColumnFamily>& pool) const {
  PlanSpace space = Build(query, pool);
  StatusOr<QueryPlan> plan = space.BestPlan(pool);
  if (plan.ok()) {
    for (PlanStep& step : plan->steps) step.cf_id = kInvalidCfId;
  }
  return plan;
}

}  // namespace nose
