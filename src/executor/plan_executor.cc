#include "executor/plan_executor.h"

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <optional>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace nose {

namespace {

constexpr uint32_t kNoSlot = UINT32_MAX;

/// A partial row binding accumulated while walking a plan: one optional
/// value per slot of the call's layout. Copying a context is one vector
/// copy.
using Context = std::vector<std::optional<Value>>;

/// Dense slot numbering of every field one executed plan reads or writes.
/// Fields are held by pointer into the plan's and the model's own strings,
/// which outlive the call; plans touch a handful of fields, so a linear
/// scan beats hashing.
class SlotLayout {
 public:
  uint32_t Slot(const std::string& entity, const std::string& field) {
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (*fields_[i].second == field && *fields_[i].first == entity) {
        return static_cast<uint32_t>(i);
      }
    }
    fields_.emplace_back(&entity, &field);
    return static_cast<uint32_t>(fields_.size() - 1);
  }
  uint32_t Slot(const FieldRef& f) { return Slot(f.entity, f.field); }

  /// Slot of the ID field of `entity`.
  uint32_t IdSlot(const EntityGraph& graph, const std::string& entity) {
    return Slot(entity, graph.GetEntity(entity).id_field().name);
  }

  std::vector<uint32_t> Slots(const std::vector<FieldRef>& fields) {
    std::vector<uint32_t> slots;
    slots.reserve(fields.size());
    for (const FieldRef& f : fields) slots.push_back(Slot(f));
    return slots;
  }

  size_t width() const { return fields_.size(); }

 private:
  std::vector<std::pair<const std::string*, const std::string*>> fields_;
};

void AddUnique(std::vector<uint32_t>* slots, uint32_t slot) {
  if (std::find(slots->begin(), slots->end(), slot) == slots->end()) {
    slots->push_back(slot);
  }
}

/// Where a key component or filter operand comes from. A literal or a
/// statement parameter is resolved when the plan is compiled; otherwise the
/// value is read from a slot of the incoming context: the entity ID the
/// previous step produced, or, in a support query, a field the update
/// statement already binds.
struct Source {
  enum class Kind {
    kPredicate,  ///< `pred`'s literal or parameter, else its field's slot
    kBoundId,    ///< the step's entity ID, held in `slot`
    kUnbound,    ///< a partition field the plan step binds to nothing
  };
  Kind kind = Kind::kPredicate;
  const Value* value = nullptr;
  uint32_t slot = kNoSlot;
  const Predicate* pred = nullptr;  ///< kPredicate
  const FieldRef* field = nullptr;  ///< kBoundId, kUnbound
};

const Value* Resolve(const Source& s, const Context& ctx) {
  if (s.value != nullptr) return s.value;
  if (s.slot != kNoSlot && ctx[s.slot].has_value()) return &*ctx[s.slot];
  return nullptr;
}

/// The error for a source Resolve found empty.
Status Unresolved(const Source& s) {
  switch (s.kind) {
    case Source::Kind::kBoundId:
      return Status::Internal("missing bound ID " + s.field->QualifiedName());
    case Source::Kind::kUnbound:
      return Status::Internal("partition field " + s.field->QualifiedName() +
                              " has no binding in plan step");
    case Source::Kind::kPredicate:
      break;
  }
  return Status::InvalidArgument("unbound parameter ?" + s.pred->param +
                                 " for " + s.pred->field.QualifiedName());
}

Source PredicateSource(const Predicate& pred,
                       const PlanExecutor::Params& params,
                       SlotLayout* layout) {
  Source s;
  s.pred = &pred;
  if (pred.literal.has_value()) {
    s.value = &*pred.literal;
    return s;
  }
  auto it = params.find(pred.param);
  if (it != params.end()) {
    s.value = &it->second;
    return s;
  }
  s.slot = layout->Slot(pred.field);
  return s;
}

/// One component of a partition key or clustering prefix, and the slot its
/// bound value is recorded in (kNoSlot for an ID the context already holds).
struct KeyComponent {
  Source source;
  uint32_t dest = kNoSlot;
};

/// A client-side filter: the fetched slot, compared against the operand.
struct Filter {
  uint32_t slot;
  PredicateOp op;
  Source operand;
};

/// One plan step against the slot layout.
struct CompiledStep {
  const PlanStep* step = nullptr;
  /// Store name of the step's column family; null when the schema lacks it.
  const std::string* cf_name = nullptr;
  std::vector<KeyComponent> partition;
  std::vector<KeyComponent> prefix;
  std::optional<Source> range;
  /// Destination slots of the column family's clustering and value columns.
  std::vector<uint32_t> clustering_slots;
  std::vector<uint32_t> value_slots;
  std::vector<Filter> filters;
  /// Slots whose values distinguish this step's output contexts.
  std::vector<uint32_t> dedupe;
};

struct CompiledQuery {
  std::vector<CompiledStep> steps;
  std::vector<uint32_t> select;
  std::vector<uint32_t> order;
};

const std::string* StoreName(const Schema& schema, CfId id,
                             const ColumnFamily& cf) {
  // Interned-id lookup when the plan came out of the advisor (O(1), no
  // canonical-key hashing); key lookup for hand-built plans.
  const std::string* name =
      id != kInvalidCfId ? schema.NameOfId(id) : nullptr;
  return name != nullptr ? name : schema.NameOf(cf);
}

CompiledQuery CompileQuery(const QueryPlan& plan, const Schema& schema,
                           const PlanExecutor::Params& params,
                           SlotLayout* layout) {
  const Query& query = *plan.query;
  const EntityGraph& graph = *query.graph();
  CompiledQuery out;
  out.select = layout->Slots(query.select());
  out.order.reserve(query.order_by().size());
  for (const OrderField& o : query.order_by()) {
    out.order.push_back(layout->Slot(o.field));
  }
  // Fields whose values distinguish contexts downstream: select and order
  // fields (already-fetched ones) plus the current landing entity's ID.
  std::vector<uint32_t> needed = out.select;
  for (uint32_t slot : out.order) AddUnique(&needed, slot);

  out.steps.reserve(plan.steps.size());
  for (const PlanStep& step : plan.steps) {
    CompiledStep c;
    c.step = &step;
    c.cf_name = StoreName(schema, step.cf_id, *step.cf);
    const ColumnFamily& cf = *step.cf;
    const std::string& from = query.path().EntityAt(step.from_index);
    const std::string& from_id = graph.GetEntity(from).id_field().name;
    auto is_from_id = [&](const FieldRef& f) {
      return f.entity == from && f.field == from_id;
    };
    auto bound_id = [&](const FieldRef& f) {
      KeyComponent k;
      k.source.kind = Source::Kind::kBoundId;
      k.source.field = &f;
      k.source.slot = layout->Slot(f);
      return k;
    };
    auto find_pred = [](const std::vector<Predicate>& preds,
                        const FieldRef& f) {
      const Predicate* found = nullptr;
      for (const Predicate& p : preds) {
        if (p.field == f) found = &p;
      }
      return found;
    };

    c.partition.reserve(cf.partition_key().size());
    for (const FieldRef& f : cf.partition_key()) {
      if (step.access.partition_uses_id && is_from_id(f)) {
        c.partition.push_back(bound_id(f));
        continue;
      }
      KeyComponent k;
      const Predicate* pred = find_pred(step.access.partition_preds, f);
      if (pred == nullptr) {
        k.source.kind = Source::Kind::kUnbound;
        k.source.field = &f;
      } else {
        k.source = PredicateSource(*pred, params, layout);
        k.dest = layout->Slot(f);
      }
      c.partition.push_back(k);
    }
    // The clustering prefix mirrors the planner's greedy consumption order.
    bool id_used = step.access.partition_uses_id;
    for (const FieldRef& f : cf.clustering_key()) {
      if (step.access.clustering_uses_id && !id_used && is_from_id(f)) {
        c.prefix.push_back(bound_id(f));
        id_used = true;
        continue;
      }
      const Predicate* pred = find_pred(step.access.clustering_eq, f);
      if (pred == nullptr) break;
      c.prefix.push_back({PredicateSource(*pred, params, layout),
                          layout->Slot(f)});
    }
    if (step.access.pushed_range.has_value()) {
      c.range = PredicateSource(*step.access.pushed_range, params, layout);
    }
    c.clustering_slots = layout->Slots(cf.clustering_key());
    c.value_slots = layout->Slots(cf.values());
    c.filters.reserve(step.access.filters.size());
    for (const Predicate& p : step.access.filters) {
      c.filters.push_back(
          {layout->Slot(p.field), p.op, PredicateSource(p, params, layout)});
    }
    c.dedupe = needed;
    AddUnique(&c.dedupe,
              layout->IdSlot(graph, query.path().EntityAt(step.to_index)));
    out.steps.push_back(std::move(c));
  }
  return out;
}

bool CompareValues(PredicateOp op, const Value& lhs, const Value& rhs) {
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
}

/// Appends a key component's value to `key` and records it in `bound`.
Status BindKey(const KeyComponent& k, const Context& ctx, Context* bound,
               ValueTuple* key) {
  const Value* v = Resolve(k.source, ctx);
  if (v == nullptr) return Unresolved(k.source);
  if (k.dest != kNoSlot) (*bound)[k.dest] = *v;
  key->push_back(*v);
  return Status::Ok();
}

size_t HashSlots(const Context& ctx, const std::vector<uint32_t>& slots) {
  size_t h = 1469598103934665603ull;  // FNV offset basis
  auto mix = [&h](size_t x) {
    h ^= x;
    h *= 1099511628211ull;  // FNV prime
  };
  for (uint32_t s : slots) {
    const std::optional<Value>& v = ctx[s];
    mix(v.has_value() ? v->index() + 1 : 0);
    if (v.has_value()) mix(ValueHash()(*v));
  }
  // FNV's low bits see only the inputs' low bits; fold the high bits in
  // before the table masks the hash.
  h ^= h >> 29;
  h *= 0xbf58476d1ce4e5b9ull;
  return h ^ (h >> 32);
}

bool SameSlots(const Context& a, const Context& b,
               const std::vector<uint32_t>& slots) {
  for (uint32_t s : slots) {
    if (a[s] != b[s]) return false;
  }
  return true;
}

/// Keeps the first of every group of contexts that agree exactly on
/// `slots` (Value equality; an empty slot equals only an empty slot),
/// preserving input order. An open-addressing table of (hash, kept index)
/// finds the earlier equal context; kept contexts are compacted to the
/// front as they are found.
void DedupeContexts(const std::vector<uint32_t>& slots,
                    std::vector<Context>* contexts) {
  std::vector<Context>& rows = *contexts;
  if (rows.size() < 2) return;
  size_t capacity = 4;
  while (capacity < 2 * rows.size()) capacity <<= 1;
  const size_t mask = capacity - 1;
  constexpr size_t kFree = SIZE_MAX;
  std::vector<std::pair<size_t, size_t>> table(capacity, {0, kFree});
  size_t kept = 0;
  for (size_t i = 0; i < rows.size(); ++i) {
    const size_t h = HashSlots(rows[i], slots);
    size_t b = h & mask;
    bool duplicate = false;
    for (; table[b].second != kFree; b = (b + 1) & mask) {
      if (table[b].first == h &&
          SameSlots(rows[table[b].second], rows[i], slots)) {
        duplicate = true;
        break;
      }
    }
    if (duplicate) continue;
    table[b] = {h, kept};
    if (i != kept) rows[kept] = std::move(rows[i]);
    ++kept;
  }
  rows.resize(kept);
}

/// Walks compiled plan steps from `contexts`, threading contexts through
/// get, filter and join merge.
StatusOr<std::vector<Context>> RunSteps(RecordStore* store,
                                        const std::vector<CompiledStep>& steps,
                                        std::vector<Context> contexts) {
  ValueTuple partition;
  ValueTuple prefix;
  for (const CompiledStep& step : steps) {
    if (step.cf_name == nullptr) {
      return Status::FailedPrecondition(
          "plan references a column family missing from the schema: " +
          step.step->cf->ToString());
    }
    std::vector<Context> next;
    for (const Context& ctx : contexts) {
      Context bound = ctx;
      partition.clear();
      for (const KeyComponent& k : step.partition) {
        NOSE_RETURN_IF_ERROR(BindKey(k, ctx, &bound, &partition));
      }
      prefix.clear();
      for (const KeyComponent& k : step.prefix) {
        NOSE_RETURN_IF_ERROR(BindKey(k, ctx, &bound, &prefix));
      }
      std::optional<RangeBound> range;
      if (step.range.has_value()) {
        const Value* v = Resolve(*step.range, ctx);
        if (v == nullptr) return Unresolved(*step.range);
        range = RangeBound{step.range->pred->op, *v};
      }

      NOSE_ASSIGN_OR_RETURN(std::vector<RecordStore::Row> rows,
                            store->Get(*step.cf_name, partition, prefix, range));

      // --- Bind fetched fields, filter, emit. ---
      for (RecordStore::Row& row : rows) {
        Context out = bound;
        const size_t nc =
            std::min(step.clustering_slots.size(), row.clustering.size());
        for (size_t i = 0; i < nc; ++i) {
          out[step.clustering_slots[i]] = std::move(row.clustering[i]);
        }
        const size_t nv = std::min(step.value_slots.size(), row.values.size());
        for (size_t i = 0; i < nv; ++i) {
          out[step.value_slots[i]] = std::move(row.values[i]);
        }
        bool keep = true;
        for (const Filter& f : step.filters) {
          const Value* operand = Resolve(f.operand, ctx);
          if (operand == nullptr) return Unresolved(f.operand);
          const std::optional<Value>& v = out[f.slot];
          if (!v.has_value() || !CompareValues(f.op, *v, *operand)) {
            keep = false;
            break;
          }
        }
        if (keep) next.push_back(std::move(out));
      }
    }
    // --- Join merge: discard duplicate contexts (paper §IV-B step 3). ---
    DedupeContexts(step.dedupe, &next);
    contexts = std::move(next);
  }
  return contexts;
}

/// Gathers the values of `slots` into `out`; false if any slot is empty.
bool Collect(const Context& ctx, const std::vector<uint32_t>& slots,
             ValueTuple* out) {
  out->reserve(slots.size());
  for (uint32_t s : slots) {
    if (!ctx[s].has_value()) return false;
    out->push_back(*ctx[s]);
  }
  return true;
}

}  // namespace

StatusOr<std::vector<ValueTuple>> PlanExecutor::ExecuteQuery(
    const QueryPlan& plan, const Params& params) {
  obs::Span span("executor.query", "executor");
  static obs::Counter& queries_counter =
      obs::MetricsRegistry::Global().GetCounter("executor.queries");
  queries_counter.Increment();
  SlotLayout layout;
  const CompiledQuery compiled = CompileQuery(plan, *schema_, params, &layout);
  std::vector<Context> start(1, Context(layout.width()));
  NOSE_ASSIGN_OR_RETURN(std::vector<Context> contexts,
                        RunSteps(store_, compiled.steps, std::move(start)));
  const Query& query = *plan.query;

  if (plan.needs_sort || !query.order_by().empty()) {
    static obs::Counter& sorts_counter =
        obs::MetricsRegistry::Global().GetCounter("executor.client_sorts");
    sorts_counter.Increment();
    // A stable client-side sort by the ORDER BY fields; when the plan
    // already delivers clustered order this is a cheap no-op pass kept for
    // simplicity of the executor (the *simulated* cost only charges the
    // sort when plan.needs_sort).
    std::stable_sort(contexts.begin(), contexts.end(),
                     [&](const Context& a, const Context& b) {
                       for (uint32_t s : compiled.order) {
                         if (!a[s].has_value() || !b[s].has_value()) continue;
                         if (*a[s] < *b[s]) return true;
                         if (*b[s] < *a[s]) return false;
                       }
                       return false;
                     });
  }

  DedupeContexts(compiled.select, &contexts);
  std::vector<ValueTuple> result;
  result.reserve(contexts.size());
  for (const Context& ctx : contexts) {
    ValueTuple row;
    if (!Collect(ctx, compiled.select, &row)) {
      return Status::Internal("executed plan did not produce select field");
    }
    result.push_back(std::move(row));
  }
  static obs::Counter& rows_counter =
      obs::MetricsRegistry::Global().GetCounter("executor.result_rows");
  rows_counter.Add(result.size());
  return result;
}

Status PlanExecutor::ExecuteUpdate(const UpdatePlan& plan,
                                   const Params& params) {
  obs::Span span("executor.update", "executor");
  static obs::Counter& updates_counter =
      obs::MetricsRegistry::Global().GetCounter("executor.updates");
  // Parts per update is the write-amplification numerator: one logical
  // statement fans out into one physical write sequence per affected
  // column family.
  static obs::Counter& parts_counter =
      obs::MetricsRegistry::Global().GetCounter("executor.update_parts");
  updates_counter.Increment();
  parts_counter.Add(plan.parts.size());
  const Update& update = *plan.update;
  const EntityGraph& graph = *update.graph();
  const std::string& target = update.entity();
  SlotLayout layout;

  // The statement's own bindings seed the base context; SET clauses give
  // the new values (for INSERT they also identify the new record). Both
  // are applied in order, so a later binding of a slot wins.
  std::vector<std::pair<uint32_t, const Value*>> bindings;
  std::vector<std::pair<uint32_t, const Value*>> sets;
  auto lookup = [&](const std::optional<Value>& literal,
                    const std::string& param) -> const Value* {
    if (literal.has_value()) return &*literal;
    auto it = params.find(param);
    return it == params.end() ? nullptr : &it->second;
  };
  auto bind = [&](uint32_t slot, const std::optional<Value>& literal,
                  const std::string& param) -> Status {
    const Value* v = lookup(literal, param);
    if (v == nullptr) {
      return Status::InvalidArgument("unbound parameter ?" + param);
    }
    bindings.emplace_back(slot, v);
    return Status::Ok();
  };
  switch (update.kind()) {
    case UpdateKind::kUpdate:
    case UpdateKind::kDelete:
      for (const Predicate& p : update.predicates()) {
        if (p.IsEquality()) {
          NOSE_RETURN_IF_ERROR(bind(layout.Slot(p.field), p.literal, p.param));
        }
      }
      break;
    case UpdateKind::kInsert:
      for (const ConnectClause& c : update.connects()) {
        std::optional<PathStep> step = graph.FindStep(target, c.step_name);
        if (!step.has_value()) {
          return Status::Internal("bad connect step " + c.step_name);
        }
        const std::string& neighbor = graph.StepTarget(target, *step);
        NOSE_RETURN_IF_ERROR(
            bind(layout.IdSlot(graph, neighbor), std::nullopt, c.param));
      }
      break;
    case UpdateKind::kConnect:
    case UpdateKind::kDisconnect: {
      const std::string& other = update.path().EntityAt(1);
      NOSE_RETURN_IF_ERROR(bind(layout.IdSlot(graph, target), std::nullopt,
                                update.from_param()));
      NOSE_RETURN_IF_ERROR(
          bind(layout.IdSlot(graph, other), std::nullopt, update.to_param()));
      break;
    }
  }
  for (const SetClause& s : update.sets()) {
    const Value* v = lookup(s.literal, s.param);
    if (v == nullptr) {
      return Status::InvalidArgument("unbound parameter ?" + s.param);
    }
    const uint32_t slot = layout.Slot(target, s.field);
    sets.emplace_back(slot, v);
    if (update.kind() == UpdateKind::kInsert) bindings.emplace_back(slot, v);
  }

  // Support plans and the parts' key and value columns share one layout.
  struct CompiledPart {
    const std::string* cf_name = nullptr;
    std::vector<CompiledQuery> support;
    std::vector<uint32_t> partition;
    std::vector<uint32_t> clustering;
    std::vector<uint32_t> values;
  };
  std::vector<CompiledPart> parts;
  parts.reserve(plan.parts.size());
  for (const UpdatePlanPart& part : plan.parts) {
    CompiledPart c;
    c.cf_name = StoreName(*schema_, part.cf_id, *part.cf);
    c.support.reserve(part.support_plans.size());
    for (const QueryPlan& sp : part.support_plans) {
      c.support.push_back(CompileQuery(sp, *schema_, params, &layout));
    }
    c.partition = layout.Slots(part.cf->partition_key());
    c.clustering = layout.Slots(part.cf->clustering_key());
    c.values = layout.Slots(part.cf->values());
    parts.push_back(std::move(c));
  }

  Context base(layout.width());
  for (const auto& [slot, v] : bindings) base[slot] = *v;
  Context set_values(layout.width());
  for (const auto& [slot, v] : sets) set_values[slot] = *v;

  for (size_t p = 0; p < parts.size(); ++p) {
    const CompiledPart& part = parts[p];
    const bool delete_then_insert = plan.parts[p].delete_then_insert;
    if (part.cf_name == nullptr) {
      return Status::FailedPrecondition(
          "update plan references a column family missing from the schema");
    }
    const std::string& cf_name = *part.cf_name;
    // Gather key attributes through the support plans.
    std::vector<Context> contexts = {base};
    for (const CompiledQuery& sp : part.support) {
      static obs::Counter& support_counter =
          obs::MetricsRegistry::Global().GetCounter(
              "executor.support_queries");
      std::vector<Context> merged;
      for (Context& ctx : contexts) {
        support_counter.Increment();
        std::vector<Context> seed;
        seed.push_back(std::move(ctx));
        NOSE_ASSIGN_OR_RETURN(std::vector<Context> got,
                              RunSteps(store_, sp.steps, std::move(seed)));
        merged.insert(merged.end(), std::make_move_iterator(got.begin()),
                      std::make_move_iterator(got.end()));
      }
      contexts = std::move(merged);
    }

    for (const Context& ctx : contexts) {
      // Old key (pre-statement values); no concrete record to touch when
      // any key attribute is unknown.
      ValueTuple old_partition, old_clustering;
      if (!Collect(ctx, part.partition, &old_partition) ||
          !Collect(ctx, part.clustering, &old_clustering)) {
        continue;
      }

      switch (update.kind()) {
        case UpdateKind::kDelete:
        case UpdateKind::kDisconnect:
          NOSE_RETURN_IF_ERROR(
              store_->Delete(cf_name, old_partition, old_clustering));
          break;
        case UpdateKind::kInsert:
        case UpdateKind::kConnect: {
          std::vector<std::optional<Value>> values;
          values.reserve(part.values.size());
          for (uint32_t s : part.values) {
            values.push_back(set_values[s].has_value() ? set_values[s]
                                                       : ctx[s]);
          }
          NOSE_RETURN_IF_ERROR(
              store_->Put(cf_name, old_partition, old_clustering, values));
          break;
        }
        case UpdateKind::kUpdate: {
          ValueTuple new_partition = old_partition;
          ValueTuple new_clustering = old_clustering;
          if (delete_then_insert) {
            NOSE_RETURN_IF_ERROR(
                store_->Delete(cf_name, old_partition, old_clustering));
            for (size_t i = 0; i < part.partition.size(); ++i) {
              const std::optional<Value>& v = set_values[part.partition[i]];
              if (v.has_value()) new_partition[i] = *v;
            }
            for (size_t i = 0; i < part.clustering.size(); ++i) {
              const std::optional<Value>& v = set_values[part.clustering[i]];
              if (v.has_value()) new_clustering[i] = *v;
            }
          }
          std::vector<std::optional<Value>> values;
          values.reserve(part.values.size());
          for (uint32_t s : part.values) {
            if (set_values[s].has_value()) {
              values.push_back(set_values[s]);
            } else if (delete_then_insert) {
              // Rewriting the whole record: preserve known old values.
              values.push_back(ctx[s]);
            } else {
              values.emplace_back(std::nullopt);  // in-place partial write
            }
          }
          NOSE_RETURN_IF_ERROR(
              store_->Put(cf_name, new_partition, new_clustering, values));
          break;
        }
      }
    }
  }
  return Status::Ok();
}

}  // namespace nose
