#include "analysis/invariants.h"

#include <cmath>
#include <cstddef>
#include <map>
#include <set>
#include <string>

namespace nose {

namespace {

void Emit(std::vector<Diagnostic>* out, std::string code, std::string message,
          std::string note = "") {
  out->push_back(Diagnostic{std::move(code), Severity::kError, SourceLocation{},
                            std::move(message), std::move(note)});
}

/// The surrogate-key reference of the query-path entity at `index`.
FieldRef IdRefAt(const Query& query, size_t index) {
  const Entity& entity =
      query.graph()->GetEntity(query.path().EntityAt(index));
  return FieldRef{entity.name(), entity.id_field().name};
}

/// Schema membership by interned pool id when both sides carry one (O(1),
/// no canonical-key hashing); canonical-key fallback for hand-built
/// schemas and ad-hoc plans.
bool SchemaHasCf(const Schema& schema, CfId cf_id, const ColumnFamily& cf) {
  if (cf_id != kInvalidCfId && schema.has_pool_ids()) {
    return schema.ContainsId(cf_id);
  }
  return schema.Contains(cf);
}

/// Multiset of predicate renderings a step applies (partition bindings,
/// clustering prefix, pushed range, client-side filters).
void CollectStepPredicates(const PlanStep& step,
                           std::multiset<std::string>* into) {
  for (const Predicate& p : step.access.partition_preds) {
    into->insert(p.ToString());
  }
  for (const Predicate& p : step.access.clustering_eq) {
    into->insert(p.ToString());
  }
  if (step.access.pushed_range.has_value()) {
    into->insert(step.access.pushed_range->ToString());
  }
  for (const Predicate& p : step.access.filters) into->insert(p.ToString());
}

}  // namespace

std::vector<Diagnostic> CheckQueryPlan(const QueryPlan& plan,
                                       const Schema& schema,
                                       const std::string& label) {
  std::vector<Diagnostic> out;
  if (plan.query == nullptr) {
    Emit(&out, "NOSE-I002", label + ": plan carries no query");
    return out;
  }
  const Query& query = *plan.query;
  if (plan.steps.empty()) {
    Emit(&out, "NOSE-I002", label + ": plan has no steps");
    return out;
  }

  // NOSE-I002: steps walk the query path monotonically toward entity 0,
  // each consuming exactly the segment its column family spans, with the
  // opening step (and only it) keyed by statement parameters.
  for (size_t k = 0; k < plan.steps.size(); ++k) {
    const PlanStep& step = plan.steps[k];
    if (step.first != (k == 0)) {
      Emit(&out, "NOSE-I002",
           label + ": step " + std::to_string(k) +
               (k == 0 ? " is not marked as the opening step"
                       : " is marked as an opening step"));
    }
    if (step.from_index < step.to_index ||
        step.from_index >= query.path().NumEntities()) {
      Emit(&out, "NOSE-I002",
           label + ": step " + std::to_string(k) + " spans invalid segment [" +
               std::to_string(step.to_index) + ", " +
               std::to_string(step.from_index) + "]");
      continue;
    }
    if (k > 0 && step.from_index != plan.steps[k - 1].to_index) {
      Emit(&out, "NOSE-I002",
           label + ": step " + std::to_string(k) + " starts at entity index " +
               std::to_string(step.from_index) +
               " but the previous step ended at " +
               std::to_string(plan.steps[k - 1].to_index));
    }
    if (step.cf != nullptr) {
      const KeyPath segment =
          query.path().SubPath(step.to_index, step.from_index);
      if (!(step.cf->path() == segment ||
            step.cf->path() == segment.Reversed())) {
        Emit(&out, "NOSE-I002",
             label + ": step " + std::to_string(k) + " reads '" +
                 step.cf->key() + "' whose path does not span " +
                 segment.ToString());
      }
    }

    // NOSE-I004: every step must read a column family of the schema.
    if (step.cf == nullptr) {
      Emit(&out, "NOSE-I004",
           label + ": step " + std::to_string(k) + " has no column family");
      continue;
    }
    if (!SchemaHasCf(schema, step.cf_id, *step.cf)) {
      Emit(&out, "NOSE-I004",
           label + ": step " + std::to_string(k) +
               " reads a column family absent from the schema: " +
               step.cf->key());
    }

    // NOSE-I007: a get is only issuable when every partition-key field is
    // bound — by an equality predicate or by the ID set handed over from
    // the previous step (never available to the opening step).
    if (step.first &&
        (step.access.partition_uses_id || step.access.clustering_uses_id)) {
      Emit(&out, "NOSE-I007",
           label + ": opening step claims to bind keys from a held ID set");
    }
    const FieldRef held_id = IdRefAt(query, step.from_index);
    for (const FieldRef& field : step.cf->partition_key()) {
      bool bound = false;
      for (const Predicate& p : step.access.partition_preds) {
        if (p.field == field && p.IsEquality()) bound = true;
      }
      if (step.access.partition_uses_id && field == held_id) bound = true;
      if (!bound) {
        Emit(&out, "NOSE-I007",
             label + ": step " + std::to_string(k) +
                 " leaves partition-key field '" + field.QualifiedName() +
                 "' of '" + step.cf->key() + "' unbound");
      }
    }
  }

  // NOSE-I003: the plan applies each query predicate exactly once — as a
  // partition binding, a clustering binding, a pushed range, or a filter.
  std::multiset<std::string> applied;
  for (const PlanStep& step : plan.steps) {
    CollectStepPredicates(step, &applied);
  }
  std::multiset<std::string> expected;
  for (const Predicate& p : query.predicates()) expected.insert(p.ToString());
  if (applied != expected) {
    std::string note;
    for (const std::string& p : expected) {
      if (applied.count(p) != expected.count(p)) {
        note += "'" + p + "' applied " + std::to_string(applied.count(p)) +
                "x (want " + std::to_string(expected.count(p)) + "x); ";
      }
    }
    for (const std::string& p : applied) {
      if (expected.count(p) == 0) note += "'" + p + "' applied but not in query; ";
    }
    Emit(&out, "NOSE-I003",
         label + ": plan does not apply each query predicate exactly once",
         note);
  }
  return out;
}

std::vector<Diagnostic> CheckUpdatePlan(const UpdatePlan& plan,
                                        const Schema& schema,
                                        const std::string& label) {
  std::vector<Diagnostic> out;
  if (plan.update == nullptr) {
    Emit(&out, "NOSE-I002", label + ": update plan carries no statement");
    return out;
  }
  for (size_t k = 0; k < plan.parts.size(); ++k) {
    const UpdatePlanPart& part = plan.parts[k];
    if (part.cf == nullptr) {
      Emit(&out, "NOSE-I004",
           label + ": maintenance part " + std::to_string(k) +
               " has no column family");
      continue;
    }
    if (!SchemaHasCf(schema, part.cf_id, *part.cf)) {
      Emit(&out, "NOSE-I004",
           label + ": maintenance part " + std::to_string(k) +
               " targets a column family absent from the schema: " +
               part.cf->key());
    }
    if (!Modifies(*plan.update, *part.cf)) {
      Emit(&out, "NOSE-I005",
           label + ": maintenance part " + std::to_string(k) +
               " targets a column family the statement does not modify: " +
               part.cf->key());
    }
    for (size_t s = 0; s < part.support_plans.size(); ++s) {
      std::vector<Diagnostic> sub = CheckQueryPlan(
          part.support_plans[s], schema,
          label + " support query " + std::to_string(s) + " for '" +
              part.cf->key() + "'");
      out.insert(out.end(), std::make_move_iterator(sub.begin()),
                 std::make_move_iterator(sub.end()));
    }
  }
  return out;
}

std::vector<Diagnostic> AuditRecommendation(const Workload& workload,
                                            const std::string& mix,
                                            const RecommendationView& view) {
  std::vector<Diagnostic> out;
  if (view.schema == nullptr || view.query_plans == nullptr ||
      view.update_plans == nullptr) {
    Emit(&out, "NOSE-I001", "recommendation view is incomplete");
    return out;
  }
  const Schema& schema = *view.schema;

  std::map<std::string, const QueryPlan*> query_plans;
  for (const auto& [name, plan] : *view.query_plans) {
    query_plans[name] = &plan;
  }
  std::map<std::string, const UpdatePlan*> update_plans;
  for (const auto& [name, plan] : *view.update_plans) {
    update_plans[name] = &plan;
  }

  for (const auto& [entry, weight] : workload.EntriesIn(mix)) {
    const std::string label = "statement '" + entry->name + "'";
    if (entry->IsQuery()) {
      auto it = query_plans.find(entry->name);
      if (it == query_plans.end()) {
        // NOSE-I001: every weighted statement needs an implementation plan.
        Emit(&out, "NOSE-I001", label + " has no recommended query plan");
        continue;
      }
      const QueryPlan& plan = *it->second;
      std::vector<Diagnostic> sub = CheckQueryPlan(plan, schema, label);
      out.insert(out.end(), std::make_move_iterator(sub.begin()),
                 std::make_move_iterator(sub.end()));
      if (plan.query != nullptr &&
          plan.query->ToString() != entry->query().ToString()) {
        Emit(&out, "NOSE-I002",
             label + ": recommended plan answers a different query",
             "plan: " + plan.query->ToString());
      }
    } else {
      auto it = update_plans.find(entry->name);
      if (it == update_plans.end()) {
        Emit(&out, "NOSE-I001", label + " has no recommended update plan");
        continue;
      }
      const UpdatePlan& plan = *it->second;
      std::vector<Diagnostic> sub = CheckUpdatePlan(plan, schema, label);
      out.insert(out.end(), std::make_move_iterator(sub.begin()),
                 std::make_move_iterator(sub.end()));

      // NOSE-I005: every modified column family of the schema must have a
      // maintenance part (Algorithm 1's Modifies? contract). Match parts
      // by interned id when the schema has them, else by canonical key.
      for (size_t ci = 0; ci < schema.column_families().size(); ++ci) {
        const ColumnFamily& cf = schema.column_families()[ci];
        if (!Modifies(entry->update(), cf)) continue;
        const CfId cf_id = schema.PoolIdAt(ci);
        bool covered = false;
        for (const UpdatePlanPart& part : plan.parts) {
          if (part.cf == nullptr) continue;
          if (cf_id != kInvalidCfId && part.cf_id != kInvalidCfId
                  ? part.cf_id == cf_id
                  : part.cf->key() == cf.key()) {
            covered = true;
          }
        }
        if (!covered) {
          Emit(&out, "NOSE-I005",
               label + " modifies '" + cf.key() +
                   "' but its plan has no maintenance part for it");
        }
      }
    }
  }

  // NOSE-I006: the reported objective must be reproducible from the plans.
  const double replayed = ReplayedPlanCost(workload, mix, *view.query_plans,
                                           *view.update_plans);
  const double tolerance = 1e-4 * std::max(1.0, std::abs(view.objective));
  if (std::abs(replayed - view.objective) > tolerance) {
    Emit(&out, "NOSE-I006",
         "reported objective " + std::to_string(view.objective) +
             " does not match the cost replayed from the plans (" +
             std::to_string(replayed) + ") under mix '" + mix + "'");
  }
  return out;
}

Status VerifyRecommendation(const Workload& workload, const std::string& mix,
                            const RecommendationView& view) {
  std::vector<Diagnostic> diags = AuditRecommendation(workload, mix, view);
  if (!HasErrors(diags)) return Status::Ok();
  return Status::Internal("recommendation violates invariants:\n" +
                          FormatDiagnostics(diags));
}

}  // namespace nose
