#include "planner/update_planner.h"

#include <algorithm>
#include <map>
#include <memory>
#include <set>

#include "planner/plan_space.h"
#include "schema/schema.h"
#include "util/strings.h"

namespace nose {

namespace {

FieldRef EntityIdRef(const EntityGraph& graph, const std::string& entity) {
  return FieldRef{entity, graph.GetEntity(entity).id_field().name};
}

/// Key (partition + clustering) fields of `cf`.
std::vector<FieldRef> KeyFields(const ColumnFamily& cf) {
  std::vector<FieldRef> out = cf.partition_key();
  out.insert(out.end(), cf.clustering_key().begin(), cf.clustering_key().end());
  return out;
}

/// Builds a support query over `path` selecting `select` under `preds`,
/// dropping it if nothing needs to be selected. Queries that fail
/// validation (no equality anchor) are skipped defensively.
void EmitSupportQuery(KeyPath path, std::vector<FieldRef> select,
                      std::vector<Predicate> preds, std::vector<Query>* out) {
  if (select.empty()) return;
  Query q(std::move(path), std::move(select), std::move(preds), {});
  if (q.Validate().ok()) out->push_back(std::move(q));
}

/// Support queries for one "side" of a split point: the sub-path of
/// cf.path from `anchor_index` to one end, keyed by the anchor entity's ID
/// (whose value the statement supplies as a parameter named `param`).
/// Recovers the key attributes of `cf` that live beyond the anchor on that
/// side, plus — when a whole record must be constructed (INSERT/CONNECT) —
/// the value attributes on that side not supplied by the statement
/// (`target_entity`'s own attributes come with the statement).
void EmitSideSupport(const ColumnFamily& cf, size_t anchor_index, bool left,
                     const std::string& param, const std::string& target_entity,
                     bool include_values, std::vector<Query>* out) {
  const KeyPath& path = cf.path();
  const size_t first = left ? 0 : anchor_index;
  const size_t last = left ? anchor_index : path.NumEntities() - 1;
  KeyPath side = path.SubPath(first, last);
  const EntityGraph& graph = *cf.graph();
  const std::string& anchor_entity = path.EntityAt(anchor_index);
  const FieldRef anchor_id = EntityIdRef(graph, anchor_entity);

  std::vector<FieldRef> select;
  for (const FieldRef& f : KeyFields(cf)) {
    if (f.entity == anchor_entity) continue;  // supplied or equal to anchor id
    if (f.entity == target_entity) continue;  // supplied by the statement
    if (!side.ContainsEntity(f.entity)) continue;
    select.push_back(f);
  }
  if (include_values) {
    for (const FieldRef& f : cf.values()) {
      if (f.entity == target_entity) continue;
      if (f == anchor_id) continue;
      if (!side.ContainsEntity(f.entity)) continue;
      if (std::find(select.begin(), select.end(), f) == select.end()) {
        select.push_back(f);
      }
    }
  }
  std::vector<Predicate> preds;
  preds.push_back(Predicate{anchor_id, PredicateOp::kEq, std::nullopt, param});
  EmitSupportQuery(std::move(side), std::move(select), std::move(preds), out);
}

/// True if `update` changes a partition/clustering attribute of `cf`
/// (forcing a delete + reinsert of whole records).
bool ChangesKeyOf(const Update& update, const ColumnFamily& cf) {
  if (update.kind() != UpdateKind::kUpdate) return false;
  for (const FieldRef& f : update.ModifiedFields()) {
    const auto& pk = cf.partition_key();
    const auto& ck = cf.clustering_key();
    if (std::find(pk.begin(), pk.end(), f) != pk.end() ||
        std::find(ck.begin(), ck.end(), f) != ck.end()) {
      return true;
    }
  }
  return false;
}

}  // namespace

bool Modifies(const Update& update, const ColumnFamily& cf) {
  switch (update.kind()) {
    case UpdateKind::kUpdate: {
      for (const FieldRef& f : update.ModifiedFields()) {
        if (cf.ContainsField(f)) return true;
      }
      return false;
    }
    case UpdateKind::kInsert:
    case UpdateKind::kDelete:
      return cf.TouchesEntity(update.entity());
    case UpdateKind::kConnect:
    case UpdateKind::kDisconnect:
      return cf.path().TraversesRelationship(
          update.path().steps()[0].relationship);
  }
  return false;
}

std::vector<Query> SupportQueries(const Update& update,
                                  const ColumnFamily& cf) {
  std::vector<Query> out;
  const EntityGraph& graph = *cf.graph();
  const std::string& target = update.entity();

  switch (update.kind()) {
    case UpdateKind::kUpdate:
    case UpdateKind::kDelete: {
      // Key attributes already known: those bound by equality predicates of
      // the statement.
      std::set<FieldRef> bound;
      for (const Predicate& p : update.predicates()) {
        if (p.IsEquality()) bound.insert(p.field);
      }
      std::vector<FieldRef> missing;
      for (const FieldRef& f : KeyFields(cf)) {
        if (bound.count(f) == 0) missing.push_back(f);
      }
      // A key-changing UPDATE rewrites whole records, so the surviving
      // value attributes must be recovered too.
      if (ChangesKeyOf(update, cf)) {
        std::set<std::string> modified;
        for (const FieldRef& f : update.ModifiedFields()) {
          modified.insert(f.QualifiedName());
        }
        for (const FieldRef& f : cf.values()) {
          if (bound.count(f) > 0 || modified.count(f.QualifiedName()) > 0) {
            continue;
          }
          if (std::find(missing.begin(), missing.end(), f) == missing.end()) {
            missing.push_back(f);
          }
        }
      }
      // Can the whole lookup run over cf's own path?
      const bool preds_on_cf_path = std::all_of(
          update.predicates().begin(), update.predicates().end(),
          [&](const Predicate& p) {
            return cf.path().ContainsEntity(p.field.entity);
          });
      if (preds_on_cf_path) {
        EmitSupportQuery(cf.path(), std::move(missing), update.predicates(),
                         &out);
      } else {
        // Two-stage: resolve the target entity IDs over the update's own
        // path, then recover the remaining key attributes over cf's path.
        const FieldRef target_id = EntityIdRef(graph, target);
        EmitSupportQuery(update.path(), {target_id}, update.predicates(),
                         &out);
        std::vector<FieldRef> rest;
        for (const FieldRef& f : missing) {
          if (!(f == target_id)) rest.push_back(f);
        }
        std::vector<Predicate> preds;
        preds.push_back(Predicate{target_id, PredicateOp::kEq, std::nullopt,
                                  "support_" + target});
        EmitSupportQuery(cf.path(), std::move(rest), std::move(preds), &out);
      }
      break;
    }
    case UpdateKind::kInsert: {
      // The inserted entity's own attributes come with the statement. For
      // every CONNECT clause whose relationship lies on cf's path, the key
      // attributes of entities beyond the connected neighbor must be
      // recovered from the neighbor's ID.
      const int target_index = cf.path().IndexOfEntity(target);
      if (target_index < 0) break;
      for (const ConnectClause& c : update.connects()) {
        std::optional<PathStep> step = graph.FindStep(target, c.step_name);
        if (!step.has_value()) continue;
        if (!cf.path().TraversesRelationship(step->relationship)) continue;
        const std::string& neighbor = graph.StepTarget(target, *step);
        const int nidx = cf.path().IndexOfEntity(neighbor);
        if (nidx < 0) continue;
        const bool left = nidx < target_index;
        EmitSideSupport(cf, static_cast<size_t>(nidx), left, c.param,
                        target, /*include_values=*/true, &out);
      }
      break;
    }
    case UpdateKind::kConnect:
    case UpdateKind::kDisconnect: {
      // Both endpoint IDs are parameters; key attributes strictly beyond
      // each endpoint must be recovered.
      const int rel = update.path().steps()[0].relationship;
      const KeyPath& path = cf.path();
      int split = -1;
      for (size_t s = 0; s < path.steps().size(); ++s) {
        if (path.steps()[s].relationship == rel) {
          split = static_cast<int>(s);
          break;
        }
      }
      if (split < 0) break;
      const std::string& left_entity = path.EntityAt(static_cast<size_t>(split));
      const std::string& from_entity = update.entity();
      const std::string lparam =
          left_entity == from_entity ? update.from_param() : update.to_param();
      const std::string rparam =
          left_entity == from_entity ? update.to_param() : update.from_param();
      EmitSideSupport(cf, static_cast<size_t>(split), /*left=*/true, lparam,
                      /*target_entity=*/"", /*include_values=*/true, &out);
      EmitSideSupport(cf, static_cast<size_t>(split) + 1, /*left=*/false,
                      rparam, /*target_entity=*/"", /*include_values=*/true,
                      &out);
      break;
    }
  }
  return out;
}

double ModifiedRowEstimate(const Update& update, const ColumnFamily& cf,
                           const CardinalityEstimator& est) {
  const EntityGraph& graph = *cf.graph();
  switch (update.kind()) {
    case UpdateKind::kUpdate:
    case UpdateKind::kDelete: {
      double sel = 1.0;
      for (const Predicate& p : update.predicates()) {
        sel *= est.Selectivity(p);
      }
      return std::max(1.0, cf.EntryCount() * sel);
    }
    case UpdateKind::kInsert: {
      const double per_entity =
          cf.EntryCount() /
          static_cast<double>(
              std::max<uint64_t>(1, graph.GetEntity(update.entity()).count()));
      return std::max(1.0, per_entity);
    }
    case UpdateKind::kConnect:
    case UpdateKind::kDisconnect: {
      const Relationship& rel =
          graph.relationship(update.path().steps()[0].relationship);
      double links = static_cast<double>(rel.link_count);
      if (links <= 0) {
        links = static_cast<double>(
            std::max(graph.GetEntity(rel.from_entity).count(),
                     graph.GetEntity(rel.to_entity).count()));
      }
      return std::max(1.0, cf.EntryCount() / std::max(1.0, links));
    }
  }
  return 1.0;
}

double UpdateWriteCost(const Update& update, const ColumnFamily& cf,
                       const CardinalityEstimator& est, const CostModel& cost) {
  const double rows = ModifiedRowEstimate(update, cf, est);
  double bytes = 0.0;
  const EntityGraph& graph = *cf.graph();
  for (const FieldRef& ref : cf.clustering_key()) {
    bytes += graph.GetEntity(ref.entity).FindField(ref.field)->SizeBytes();
  }
  for (const FieldRef& ref : cf.values()) {
    bytes += graph.GetEntity(ref.entity).FindField(ref.field)->SizeBytes();
  }
  // An UPDATE that changes a key attribute must delete old records and
  // insert replacements; other statements write each affected record once
  // (paper §VI-B: delete the old record, insert the new one).
  double writes = rows;
  if (update.kind() == UpdateKind::kUpdate) {
    for (const FieldRef& f : update.ModifiedFields()) {
      const auto& pk = cf.partition_key();
      const auto& ck = cf.clustering_key();
      if (std::find(pk.begin(), pk.end(), f) != pk.end() ||
          std::find(ck.begin(), ck.end(), f) != ck.end()) {
        writes = 2.0 * rows;
        break;
      }
    }
  } else if (update.kind() == UpdateKind::kDelete ||
             update.kind() == UpdateKind::kDisconnect) {
    writes = rows;
  }
  return cost.PutCost(/*requests=*/std::max(1.0, writes), writes, bytes);
}

StatusOr<UpdatePlan> PlanUpdateForSchema(const Update& update,
                                         const Schema& schema,
                                         const QueryPlanner& planner,
                                         const CardinalityEstimator& est,
                                         const CostModel& cost) {
  UpdatePlan plan;
  plan.update = &update;
  for (const ColumnFamily& cf : schema.column_families()) {
    if (!Modifies(update, cf)) continue;
    UpdatePlanPart part;
    part.cf = &cf;
    part.rows = ModifiedRowEstimate(update, cf, est);
    part.write_cost = UpdateWriteCost(update, cf, est, cost);
    part.delete_then_insert = ChangesKeyOf(update, cf);
    double part_cost = part.write_cost;
    for (const Query& sq : SupportQueries(update, cf)) {
      NOSE_ASSIGN_OR_RETURN(QueryPlan sp,
                            planner.PlanForSchema(sq, schema.column_families()));
      sp.owned_query = std::make_shared<Query>(sq);
      sp.query = sp.owned_query.get();
      part_cost += sp.cost;
      part.support_plans.push_back(std::move(sp));
    }
    plan.cost += part_cost;
    plan.parts.push_back(std::move(part));
  }
  return plan;
}

std::string UpdatePlan::ToString() const {
  std::string out;
  if (update != nullptr) out += update->ToString() + "\n";
  for (const UpdatePlanPart& part : parts) {
    out += "  maintain " + part.cf->ToString() + "\n";
    for (const QueryPlan& sp : part.support_plans) {
      std::vector<std::string> lines = StrSplit(sp.ToString(), '\n');
      for (const std::string& line : lines) {
        if (!line.empty()) out += "    " + line + "\n";
      }
    }
    out += "    " + std::string(part.delete_then_insert ? "DELETE+INSERT"
                                                        : "WRITE") +
           " ~" + std::to_string(part.rows) + " rows\n";
  }
  out += "  estimated cost: " + std::to_string(cost) + "\n";
  return out;
}

double ReplayedPlanCost(
    const Workload& workload, const std::string& mix,
    const std::vector<std::pair<std::string, QueryPlan>>& query_plans,
    const std::vector<std::pair<std::string, UpdatePlan>>& update_plans) {
  std::map<std::string, const QueryPlan*> queries;
  for (const auto& [name, plan] : query_plans) queries[name] = &plan;
  std::map<std::string, const UpdatePlan*> updates;
  for (const auto& [name, plan] : update_plans) updates[name] = &plan;

  double replayed = 0.0;
  for (const auto& [entry, weight] : workload.EntriesIn(mix)) {
    if (entry->IsQuery()) {
      auto it = queries.find(entry->name);
      if (it != queries.end()) replayed += weight * it->second->cost;
      continue;
    }
    auto it = updates.find(entry->name);
    if (it == updates.end()) continue;
    double update_cost = 0.0;
    std::set<std::string> counted_supports;
    for (const UpdatePlanPart& part : it->second->parts) {
      update_cost += part.write_cost;
      for (const QueryPlan& support : part.support_plans) {
        const std::string key = support.query != nullptr
                                    ? support.query->ToString()
                                    : std::to_string(update_cost);
        if (counted_supports.insert(key).second) update_cost += support.cost;
      }
    }
    replayed += weight * update_cost;
  }
  return replayed;
}

}  // namespace nose
