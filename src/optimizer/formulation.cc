#include "optimizer/formulation.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/schema_optimizer.h"
#include "planner/update_planner.h"

namespace nose {

void AssignSpaceVariables(SpaceVars* sv, LpProblem* lp, double scale) {
  const PlanSpace& space = sv->space;
  sv->edge_vars.resize(space.states().size());
  for (size_t s = 0; s < space.states().size(); ++s) {
    const PlanSpaceState& state = space.states()[s];
    sv->edge_vars[s].resize(state.edges.size());
    for (size_t e = 0; e < state.edges.size(); ++e) {
      const double cost = scale * sv->weight * state.edges[e].cost;
      sv->edge_vars[s][e] = lp->AddVariable(0.0, 1.0, cost);
    }
  }
}

std::vector<CfId> RepeatedReadCandidates(
    const std::vector<PlanSpaceState>& states) {
  std::vector<CfId> repeated;
  if (states.empty()) return repeated;
  // Only a candidate read by two or more edges can be read twice on one
  // path.
  std::map<CfId, int> edges_per_cf;
  for (const PlanSpaceState& state : states) {
    for (const PlanSpaceEdge& e : state.edges) ++edges_per_cf[e.cf_index];
  }
  // States reachable from the root, successors before predecessors.
  std::vector<size_t> post_order;
  std::vector<char> visited(states.size(), 0);
  std::function<void(size_t)> visit = [&](size_t s) {
    visited[s] = 1;
    for (const PlanSpaceEdge& e : states[s].edges) {
      if (e.target_state != PlanSpaceEdge::kDone &&
          !visited[static_cast<size_t>(e.target_state)]) {
        visit(static_cast<size_t>(e.target_state));
      }
    }
    post_order.push_back(s);
  };
  visit(0);
  // reads[s]: the most edges reading j on any path from s to done; -1 when
  // no path from s completes (dead ends carry no flow).
  std::vector<int> reads(states.size());
  for (const auto& [j, count] : edges_per_cf) {
    if (count < 2) continue;
    for (size_t s : post_order) {
      int best = -1;
      for (const PlanSpaceEdge& e : states[s].edges) {
        const int tail = e.target_state == PlanSpaceEdge::kDone
                             ? 0
                             : reads[static_cast<size_t>(e.target_state)];
        if (tail < 0) continue;
        best = std::max(best, tail + (e.cf_index == j ? 1 : 0));
      }
      reads[s] = best;
    }
    if (reads[0] >= 2) repeated.push_back(j);
  }
  return repeated;
}

void BuildLinkingRows(const std::vector<PlanSpaceState>& states,
                      const std::vector<std::vector<int>>& edge_vars,
                      const std::vector<int>& delta_vars, LpRowBuffer* buf) {
  const std::vector<CfId> repeated = RepeatedReadCandidates(states);
  std::vector<std::pair<CfId, std::vector<std::pair<int, double>>>> links;
  std::map<CfId, size_t> link_of_cf;
  for (size_t s = 0; s < states.size(); ++s) {
    for (size_t e = 0; e < states[s].edges.size(); ++e) {
      const CfId j = states[s].edges[e].cf_index;
      const int x = edge_vars[s][e];
      if (std::binary_search(repeated.begin(), repeated.end(), j)) {
        links.push_back({j, {{x, 1.0}}});
        continue;
      }
      auto [it, fresh] = link_of_cf.emplace(j, links.size());
      if (fresh) links.push_back({j, {}});
      links[it->second].second.emplace_back(x, 1.0);
    }
  }
  for (auto& [j, coeffs] : links) {
    coeffs.emplace_back(delta_vars[j], -1.0);
    buf->Add(RowType::kLe, 0.0, std::move(coeffs));
  }
}

void BuildSpaceRows(const SpaceVars& sv, const std::vector<int>& delta_vars,
                    LpRowBuffer* buf, std::string label) {
  obs::Span span("optimizer.add_space", "optimizer");
  if (span.active()) span.Arg("space", std::move(label));
  const PlanSpace& space = sv.space;
  BuildLinkingRows(space.states(), sv.edge_vars, delta_vars, buf);
  // Flow conservation. Incoming edges per state:
  std::vector<std::vector<int>> incoming(space.states().size());
  for (size_t s = 0; s < space.states().size(); ++s) {
    const PlanSpaceState& state = space.states()[s];
    for (size_t e = 0; e < state.edges.size(); ++e) {
      const int t = state.edges[e].target_state;
      if (t != PlanSpaceEdge::kDone) {
        incoming[static_cast<size_t>(t)].push_back(sv.edge_vars[s][e]);
      }
    }
  }
  // Root: sum of outgoing = 1 (query) or = y (support query).
  {
    std::vector<std::pair<int, double>> coeffs;
    for (int v : sv.edge_vars[0]) coeffs.emplace_back(v, 1.0);
    if (sv.root_delta_var >= 0) {
      coeffs.emplace_back(sv.root_delta_var, -1.0);
      buf->Add(RowType::kEq, 0.0, std::move(coeffs));
    } else {
      buf->Add(RowType::kEq, 1.0, std::move(coeffs));
    }
  }
  // Interior states: outgoing - incoming = 0.
  for (size_t s = 1; s < space.states().size(); ++s) {
    std::vector<std::pair<int, double>> coeffs;
    for (int v : sv.edge_vars[s]) coeffs.emplace_back(v, 1.0);
    for (int v : incoming[s]) coeffs.emplace_back(v, -1.0);
    if (coeffs.empty()) continue;
    buf->Add(RowType::kEq, 0.0, std::move(coeffs));
  }
  static obs::Counter& rows_generated = obs::MetricsRegistry::Global().GetCounter(
      "optimizer.bip_rows_generated");
  rows_generated.Add(static_cast<uint64_t>(buf->size()));
}

StatusOr<WindowFormulation> BuildWindowFormulation(
    const Workload& workload, const std::string& mix,
    const CandidatePool& pool, const CostModel* cost,
    const CardinalityEstimator* est, util::ThreadPool* threads,
    PlanSpaceCache* cache) {
  WindowFormulation form;
  const std::vector<ColumnFamily>& candidates = pool.candidates();
  if (candidates.empty()) {
    return Status::InvalidArgument("candidate pool is empty");
  }
  const auto entries = workload.EntriesIn(mix);
  if (entries.empty()) {
    return Status::InvalidArgument("workload has no statements in mix " + mix);
  }

  // Per-statement work — building a query's plan space, costing a
  // candidate's maintenance under an update — is independent and
  // side-effect-free, so it fans out on `threads` into pre-sized slots and
  // is merged in statement/candidate order, keeping every downstream index
  // (and hence the recommendation) identical at any thread count.
  QueryPlanner planner(cost, est);

  std::vector<double> query_weights;
  for (const auto& [entry, weight] : entries) {
    if (!entry->IsQuery()) continue;
    form.query_entries.push_back(entry);
    query_weights.push_back(weight);
  }
  form.query_spaces.resize(form.query_entries.size());
  // Cache probe runs serially (the map is not synchronized); only the
  // misses fan out to the planner.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  std::vector<char> query_cached(form.query_entries.size(), 0);
  if (cache != nullptr) {
    for (size_t qi = 0; qi < form.query_entries.size(); ++qi) {
      auto it = cache->query_spaces.find(form.query_entries[qi]->name);
      if (it != cache->query_spaces.end()) {
        form.query_spaces[qi].space = it->second;
        query_cached[qi] = 1;
        ++cache_hits;
      } else {
        ++cache_misses;
      }
    }
  }
  util::ParallelFor(threads, form.query_entries.size(), [&](size_t qi) {
    if (!query_cached[qi]) {
      form.query_spaces[qi].space =
          planner.Build(form.query_entries[qi]->query(), candidates);
    }
    form.query_spaces[qi].weight = query_weights[qi];
  });
  if (cache != nullptr) {
    for (size_t qi = 0; qi < form.query_entries.size(); ++qi) {
      if (!query_cached[qi]) {
        cache->query_spaces.emplace(form.query_entries[qi]->name,
                                    form.query_spaces[qi].space);
      }
    }
  }
  for (size_t qi = 0; qi < form.query_spaces.size(); ++qi) {
    if (!form.query_spaces[qi].space.HasPlan()) {
      return Status::Infeasible("no candidate plan covers query " +
                                form.query_entries[qi]->name);
    }
  }

  // Support queries. Different column families maintained under the same
  // update often need textually identical support queries (e.g. "fetch the
  // user name for this user ID"); the application issues that lookup once
  // per update execution, so plan one shared space per distinct
  // (update, support query) pair.
  std::map<std::pair<const WorkloadEntry*, std::string>, size_t> shared_index;

  // Pass 1 (parallel): per update, find the candidates it modifies, price
  // their writes, and synthesize their support queries.
  struct RawSupport {
    size_t cf_index;
    double write_cost;
    std::vector<Query> support_queries;
  };
  std::vector<const WorkloadEntry*> update_entries;
  std::vector<double> update_weights;
  for (const auto& [entry, weight] : entries) {
    if (entry->IsQuery()) continue;
    update_entries.push_back(entry);
    update_weights.push_back(weight);
  }
  std::vector<char> update_cached(update_entries.size(), 0);
  if (cache != nullptr) {
    for (size_t u = 0; u < update_entries.size(); ++u) {
      if (cache->update_supports.count(update_entries[u]->name) != 0) {
        update_cached[u] = 1;
        ++cache_hits;
      } else {
        ++cache_misses;
      }
    }
  }
  std::vector<std::vector<RawSupport>> raw_supports(update_entries.size());
  util::ParallelFor(threads, update_entries.size(), [&](size_t u) {
    if (update_cached[u]) return;
    const Update& update = update_entries[u]->update();
    for (size_t c = 0; c < candidates.size(); ++c) {
      if (!Modifies(update, candidates[c])) continue;
      RawSupport raw;
      raw.cf_index = c;
      raw.write_cost = UpdateWriteCost(update, candidates[c], *est, *cost);
      raw.support_queries = SupportQueries(update, candidates[c]);
      raw_supports[u].push_back(std::move(raw));
    }
  });

  // Pass 2 (serial, deterministic order): dedup shared support queries.
  // Cached updates replay the recorded (cf, write cost, support text)
  // tuples — same iteration order as a fresh compute, so every downstream
  // index is identical with and without a cache.
  for (size_t u = 0; u < update_entries.size(); ++u) {
    const WorkloadEntry* uentry = update_entries[u];
    auto intern_support = [&](const std::string& text,
                              SupportInfo* info) {
      const auto key = std::make_pair(uentry, text);
      auto it = shared_index.find(key);
      size_t idx;
      if (it == shared_index.end()) {
        auto shared = std::make_unique<SharedSupport>();
        if (cache != nullptr) {
          auto cit = cache->support_spaces.find(uentry->name + "\n" + text);
          if (cit != cache->support_spaces.end()) {
            shared->query = cit->second.query;
            shared->sv.space = cit->second.space;
            shared->from_cache = true;
          }
        }
        shared->sv.weight = update_weights[u];
        idx = form.shared_supports.size();
        shared_index.emplace(key, idx);
        form.shared_supports.push_back(std::move(shared));
      } else {
        idx = it->second;
      }
      info->shared_ids.push_back(idx);
    };
    if (update_cached[u]) {
      for (const PlanSpaceCache::UpdateSupport& us :
           cache->update_supports.at(uentry->name)) {
        SupportInfo info;
        info.entry = uentry;
        info.weight = update_weights[u];
        info.cf_index = us.cf_index;
        info.write_cost = us.write_cost;
        for (const std::string& text : us.support_texts) {
          intern_support(text, &info);
        }
        form.supports.push_back(std::move(info));
      }
      continue;
    }
    std::vector<PlanSpaceCache::UpdateSupport> cache_entry;
    for (RawSupport& raw : raw_supports[u]) {
      SupportInfo info;
      info.entry = uentry;
      info.weight = update_weights[u];
      info.cf_index = raw.cf_index;
      info.write_cost = raw.write_cost;
      PlanSpaceCache::UpdateSupport us;
      us.cf_index = raw.cf_index;
      us.write_cost = raw.write_cost;
      for (Query& sq : raw.support_queries) {
        std::string text = sq.ToString();
        const auto key = std::make_pair(uentry, text);
        if (shared_index.find(key) == shared_index.end()) {
          // First sighting: take ownership of the synthesized query.
          auto shared = std::make_unique<SharedSupport>();
          shared->query = std::make_shared<Query>(std::move(sq));
          shared->sv.weight = update_weights[u];
          shared_index.emplace(key, form.shared_supports.size());
          form.shared_supports.push_back(std::move(shared));
        }
        info.shared_ids.push_back(shared_index.at(key));
        us.support_texts.push_back(std::move(text));
      }
      form.supports.push_back(std::move(info));
      if (cache != nullptr) cache_entry.push_back(std::move(us));
    }
    if (cache != nullptr) {
      cache->update_supports.emplace(uentry->name, std::move(cache_entry));
    }
  }

  // Pass 3 (parallel): build the deduplicated support plan spaces that the
  // cache did not already hold.
  util::ParallelFor(threads, form.shared_supports.size(), [&](size_t i) {
    SharedSupport& shared = *form.shared_supports[i];
    if (shared.from_cache) return;
    shared.sv.space = planner.Build(*shared.query, candidates);
    if (!shared.sv.space.HasPlan()) {
      shared.sv.space = PlanSpace();  // unanswerable marker
    }
  });
  if (cache != nullptr) {
    for (const auto& [key, idx] : shared_index) {
      const SharedSupport& shared = *form.shared_supports[idx];
      if (shared.from_cache) continue;
      PlanSpaceCache::SupportSpace entry;
      entry.query = shared.query;
      entry.space = shared.sv.space;
      cache->support_spaces.emplace(key.first->name + "\n" + key.second,
                                    std::move(entry));
    }
    static obs::Counter& hits_counter = obs::MetricsRegistry::Global().GetCounter(
        "optimizer.plan_space_cache_hits");
    static obs::Counter& miss_counter = obs::MetricsRegistry::Global().GetCounter(
        "optimizer.plan_space_cache_misses");
    hits_counter.Add(cache_hits);
    miss_counter.Add(cache_misses);
  }
  for (SupportInfo& info : form.supports) {
    for (size_t idx : info.shared_ids) {
      if (form.shared_supports[idx]->sv.space.states().empty()) {
        info.maintainable = false;
      }
    }
  }

  // Maintenance cost per candidate: Σ_m w_m C'_mj (paper Fig. 10).
  form.delta_cost.assign(candidates.size(), 0.0);
  form.allowed.assign(candidates.size(), true);
  for (const SupportInfo& info : form.supports) {
    form.delta_cost[info.cf_index] += info.weight * info.write_cost;
    if (!info.maintainable) form.allowed[info.cf_index] = false;
  }
  // Propagate pinning: a support query answerable only through pinned
  // candidates pins every candidate that depends on it.
  {
    bool changed = true;
    while (changed) {
      changed = false;
      for (size_t idx = 0; idx < form.shared_supports.size(); ++idx) {
        const PlanSpace& space = form.shared_supports[idx]->sv.space;
        if (space.states().empty()) continue;
        if (std::isfinite(space.BestCost(form.allowed))) continue;
        for (const SupportInfo& info : form.supports) {
          if (!form.allowed[info.cf_index]) continue;
          if (std::find(info.shared_ids.begin(), info.shared_ids.end(), idx) !=
              info.shared_ids.end()) {
            form.allowed[info.cf_index] = false;
            changed = true;
          }
        }
      }
    }
  }
  // Coverage check with a useful message before handing off to a solver.
  for (size_t qi = 0; qi < form.query_spaces.size(); ++qi) {
    if (!std::isfinite(form.query_spaces[qi].space.BestCost(form.allowed))) {
      return Status::Infeasible("no maintainable candidate plan covers query " +
                                form.query_entries[qi]->name);
    }
  }
  return form;
}

void AssignWindowVariables(WindowFormulation* form, LpProblem* lp,
                           double scale) {
  // Variable assignment stays serial: it is cheap, and running it first
  // reproduces the exact numbering of the original interleaved build.
  // Shared support spaces: root flow equals the indicator y_s; selecting
  // a dependent family forces y_s.
  for (SpaceVars& sv : form->query_spaces) AssignSpaceVariables(&sv, lp, scale);
  form->active_supports.clear();
  for (auto& shared : form->shared_supports) {
    if (shared->sv.space.states().empty()) continue;
    shared->y_var = lp->AddVariable(0.0, 1.0, 0.0);
    shared->sv.root_delta_var = shared->y_var;
    AssignSpaceVariables(&shared->sv, lp, scale);
    form->active_supports.push_back(shared.get());
  }
}

int BuildWindowRows(const WindowFormulation& form,
                    const std::vector<int>& delta_vars, LpProblem* lp,
                    util::ThreadPool* threads, bool tracing) {
  int num_constraints = 0;
  // Row generation per space is independent of the LpProblem, so it fans
  // out on the pool into per-space buffers, appended in statement order
  // (PR 2's deterministic-merge rule) — the assembled rows match the
  // serial build exactly at any thread count.
  const size_t total_spaces =
      form.query_spaces.size() + form.active_supports.size();
  std::vector<LpRowBuffer> row_buffers(total_spaces);
  util::ParallelFor(threads, total_spaces, [&](size_t i) {
    if (i < form.query_spaces.size()) {
      BuildSpaceRows(form.query_spaces[i], delta_vars, &row_buffers[i],
                     tracing ? form.query_entries[i]->name : std::string());
    } else {
      const SharedSupport& shared =
          *form.active_supports[i - form.query_spaces.size()];
      BuildSpaceRows(shared.sv, delta_vars, &row_buffers[i],
                     tracing ? "support:" + shared.query->ToString()
                             : std::string());
    }
  });
  for (LpRowBuffer& buf : row_buffers) {
    num_constraints += static_cast<int>(buf.size());
    lp->AppendRows(std::move(buf));
  }
  for (const SupportInfo& info : form.supports) {
    if (!form.allowed[info.cf_index]) continue;
    for (size_t idx : info.shared_ids) {
      const int y = form.shared_supports[idx]->y_var;
      if (y < 0) continue;
      lp->AddRow(RowType::kLe, 0.0,
                 {{delta_vars[info.cf_index], 1.0}, {y, -1.0}});
      ++num_constraints;
    }
  }
  return num_constraints;
}

bool RouteWindowPoint(const WindowFormulation& form,
                      const std::vector<int>& delta_vars,
                      const std::vector<bool>& chosen, bool all_supports,
                      std::vector<double>* x) {
  for (size_t c = 0; c < chosen.size(); ++c) {
    (*x)[static_cast<size_t>(delta_vars[c])] = chosen[c] ? 1.0 : 0.0;
  }
  bool ok = true;
  auto route = [&](const SpaceVars& sv) {
    auto path = sv.space.BestPath(chosen);
    if (!path.ok()) {
      ok = false;
      return;
    }
    for (const auto& [state, edge] : *path) {
      (*x)[static_cast<size_t>(sv.edge_vars[state][edge])] = 1.0;
    }
  };
  for (const SpaceVars& sv : form.query_spaces) route(sv);
  if (all_supports) {
    for (const auto& shared : form.shared_supports) {
      if (shared->sv.space.states().empty() || shared->y_var < 0) continue;
      if (!std::isfinite(shared->sv.space.BestCost(chosen))) continue;
      (*x)[static_cast<size_t>(shared->y_var)] = 1.0;
      route(shared->sv);
    }
  } else {
    // Only the supports some chosen candidate depends on: the y indicator
    // is the OR of its dependent deltas at an exact integral point.
    std::vector<char> y_on(form.shared_supports.size(), 0);
    for (const SupportInfo& info : form.supports) {
      if (!chosen[info.cf_index]) continue;
      for (size_t idx : info.shared_ids) y_on[idx] = 1;
    }
    for (size_t idx = 0; idx < form.shared_supports.size(); ++idx) {
      const SharedSupport& shared = *form.shared_supports[idx];
      if (shared.y_var < 0 || shared.sv.space.states().empty()) continue;
      if (!y_on[idx]) continue;
      (*x)[static_cast<size_t>(shared.y_var)] = 1.0;
      route(shared.sv);
    }
  }
  return ok;
}

double WindowObjective(const WindowFormulation& form,
                       const std::vector<bool>& selected) {
  double obj = 0.0;
  for (const SpaceVars& sv : form.query_spaces) {
    obj += sv.weight * sv.space.BestCost(selected);
  }
  for (size_t c = 0; c < selected.size(); ++c) {
    if (selected[c]) obj += form.delta_cost[c];
  }
  std::vector<char> y_on(form.shared_supports.size(), 0);
  for (const SupportInfo& info : form.supports) {
    if (!selected[info.cf_index]) continue;
    for (size_t idx : info.shared_ids) y_on[idx] = 1;
  }
  for (size_t idx = 0; idx < form.shared_supports.size(); ++idx) {
    if (!y_on[idx]) continue;
    const SharedSupport& shared = *form.shared_supports[idx];
    if (shared.sv.space.states().empty()) continue;
    obj += shared.sv.weight * shared.sv.space.BestCost(selected);
  }
  return obj;
}

int DropRedundantCandidates(double objective,
                            std::vector<std::vector<bool>>* selections,
                            const std::function<double()>& evaluate) {
  double best = objective;
  int dropped = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t g = selections->size(); g-- > 0;) {
      std::vector<bool>& selected = (*selections)[g];
      for (size_t c = selected.size(); c-- > 0;) {
        if (!selected[c]) continue;
        selected[c] = false;
        const double obj = evaluate();
        if (obj <= best + 1e-6 * std::max(1.0, std::abs(best))) {
          best = std::min(best, obj);
          ++dropped;
          changed = true;
        } else {
          selected[c] = true;
        }
      }
    }
  }
  return dropped;
}

Status ExtractWindowPlans(const WindowFormulation& form,
                          const Workload& workload, const std::string& mix,
                          const CandidatePool& pool,
                          const CardinalityEstimator& est,
                          const std::vector<bool>& selected,
                          OptimizationResult* result) {
  const std::vector<ColumnFamily>& candidates = pool.candidates();
  for (size_t qi = 0; qi < form.query_spaces.size(); ++qi) {
    auto plan = form.query_spaces[qi].space.BestPlan(candidates, selected);
    if (!plan.ok()) {
      return Status::Internal("solution does not cover query " +
                              form.query_entries[qi]->name + ": " +
                              plan.status().ToString());
    }
    result->query_plans.emplace_back(form.query_entries[qi]->name,
                                     std::move(plan).value());
  }
  for (size_t c = 0; c < candidates.size(); ++c) {
    if (selected[c]) {
      result->schema.Add(candidates[c], "", static_cast<CfId>(c));
    }
  }

  // Update plans: one UpdatePlan per update entry, one part per selected
  // modified column family.
  std::map<const WorkloadEntry*, UpdatePlan> update_plans;
  for (const SupportInfo& info : form.supports) {
    if (!selected[info.cf_index]) continue;
    UpdatePlan& uplan = update_plans[info.entry];
    uplan.update = &info.entry->update();
    UpdatePlanPart part;
    part.cf = &candidates[info.cf_index];
    part.cf_id = static_cast<CfId>(info.cf_index);
    part.rows = ModifiedRowEstimate(info.entry->update(),
                                    candidates[info.cf_index], est);
    part.write_cost = info.write_cost;
    if (info.entry->update().kind() == UpdateKind::kUpdate) {
      for (const FieldRef& f : info.entry->update().ModifiedFields()) {
        const auto& pk = part.cf->partition_key();
        const auto& ck = part.cf->clustering_key();
        if (std::find(pk.begin(), pk.end(), f) != pk.end() ||
            std::find(ck.begin(), ck.end(), f) != ck.end()) {
          part.delete_then_insert = true;
        }
      }
    }
    double part_cost = part.write_cost;
    for (size_t idx : info.shared_ids) {
      const SharedSupport& shared = *form.shared_supports[idx];
      if (shared.sv.space.states().empty()) continue;
      auto plan = shared.sv.space.BestPlan(candidates, selected);
      if (!plan.ok()) {
        return Status::Internal("solution cannot maintain " +
                                part.cf->ToString() + " under " +
                                info.entry->name);
      }
      QueryPlan splan = std::move(plan).value();
      // Support queries are synthesized here; share ownership so the plan
      // stays printable/executable after this function returns.
      splan.owned_query = shared.query;
      splan.query = splan.owned_query.get();
      part_cost += splan.cost;
      part.support_plans.push_back(std::move(splan));
    }
    uplan.cost += part_cost;
    uplan.parts.push_back(std::move(part));
  }
  for (const auto& [entry, weight] : workload.EntriesIn(mix)) {
    if (entry->IsQuery()) continue;
    auto it = update_plans.find(entry);
    if (it != update_plans.end()) {
      result->update_plans.emplace_back(entry->name, std::move(it->second));
    } else {
      // Update touches no selected column family: free.
      UpdatePlan empty;
      empty.update = &entry->update();
      result->update_plans.emplace_back(entry->name, std::move(empty));
    }
  }
  return Status::Ok();
}

}  // namespace nose
