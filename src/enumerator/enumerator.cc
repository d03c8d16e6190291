#include "enumerator/enumerator.h"

#include <algorithm>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "planner/update_planner.h"

namespace nose {

namespace {

FieldRef IdRefOf(const EntityGraph& graph, const std::string& entity) {
  return FieldRef{entity, graph.GetEntity(entity).id_field().name};
}

void AddUnique(std::vector<FieldRef>* list, const FieldRef& ref) {
  if (std::find(list->begin(), list->end(), ref) == list->end()) {
    list->push_back(ref);
  }
}

/// Removes from `values` anything already present in `partition`/`clustering`.
std::vector<FieldRef> PruneValues(const std::vector<FieldRef>& values,
                                  const std::vector<FieldRef>& partition,
                                  const std::vector<FieldRef>& clustering) {
  std::vector<FieldRef> out;
  for (const FieldRef& v : values) {
    if (std::find(partition.begin(), partition.end(), v) != partition.end())
      continue;
    if (std::find(clustering.begin(), clustering.end(), v) != clustering.end())
      continue;
    AddUnique(&out, v);
  }
  return out;
}

/// Attempts to register a candidate; silently drops invalid combinations
/// (e.g. empty partition key after relaxation).
void TryAdd(CandidatePool* pool, const KeyPath& path,
            std::vector<FieldRef> partition, std::vector<FieldRef> clustering,
            std::vector<FieldRef> values) {
  if (partition.empty()) return;
  // Drop clustering fields duplicated in the partition key.
  std::vector<FieldRef> ck;
  for (const FieldRef& f : clustering) {
    if (std::find(partition.begin(), partition.end(), f) != partition.end())
      continue;
    AddUnique(&ck, f);
  }
  std::vector<FieldRef> vals = PruneValues(values, partition, ck);
  // A single-entity family with nothing beyond its partition key carries no
  // information worth a get.
  if (ck.empty() && vals.empty() && path.NumEntities() == 1) return;
  auto cf = ColumnFamily::Create(path, std::move(partition), std::move(ck),
                                 std::move(vals));
  if (cf.ok()) pool->Intern(std::move(cf).value());
}

/// Everything the enumerator needs to know about one query, pre-indexed by
/// path position.
struct QueryInfo {
  const Query* query;
  size_t lo;  ///< shallowest referenced path index
  size_t hi;  ///< deepest referenced path index (the plan anchor)

  std::vector<Predicate> PredsIn(size_t a, size_t b) const {  // [a, b]
    std::vector<Predicate> out;
    for (const Predicate& p : query->predicates()) {
      const int pos = query->path().IndexOfEntity(p.field.entity);
      if (pos >= static_cast<int>(a) && pos <= static_cast<int>(b)) {
        out.push_back(p);
      }
    }
    return out;
  }

  std::vector<FieldRef> SelectIn(size_t a, size_t b) const {
    std::vector<FieldRef> out;
    for (const FieldRef& s : query->select()) {
      const int pos = query->path().IndexOfEntity(s.entity);
      if (pos >= static_cast<int>(a) && pos <= static_cast<int>(b)) {
        AddUnique(&out, s);
      }
    }
    return out;
  }

  std::vector<FieldRef> OrdersIn(size_t a, size_t b) const {
    std::vector<FieldRef> out;
    for (const OrderField& o : query->order_by()) {
      const int pos = query->path().IndexOfEntity(o.field.entity);
      if (pos >= static_cast<int>(a) && pos <= static_cast<int>(b)) {
        AddUnique(&out, o.field);
      }
    }
    return out;
  }
};

QueryInfo AnalyzeQuery(const Query& q) {
  QueryInfo info;
  info.query = &q;
  size_t lo = q.path().NumEntities() - 1;
  size_t hi = 0;
  auto track = [&](const std::string& entity) {
    const int pos = q.path().IndexOfEntity(entity);
    if (pos < 0) return;
    lo = std::min(lo, static_cast<size_t>(pos));
    hi = std::max(hi, static_cast<size_t>(pos));
  };
  for (const Predicate& p : q.predicates()) track(p.field.entity);
  for (const FieldRef& s : q.select()) track(s.entity);
  for (const OrderField& o : q.order_by()) track(o.field.entity);
  if (lo > hi) {  // degenerate; anchor at path start
    lo = hi = 0;
  }
  info.lo = lo;
  info.hi = hi;
  return info;
}

/// IDs of path entities [a, b], target-first (e_a, e_a+1, ..., e_b).
std::vector<FieldRef> SegmentIds(const Query& q, size_t a, size_t b) {
  std::vector<FieldRef> out;
  for (size_t m = a; m <= b; ++m) {
    out.push_back(IdRefOf(*q.graph(), q.path().EntityAt(m)));
  }
  return out;
}

std::vector<FieldRef> FieldsOf(const std::vector<Predicate>& preds) {
  std::vector<FieldRef> out;
  for (const Predicate& p : preds) AddUnique(&out, p.field);
  return out;
}

}  // namespace

void Enumerator::EnumerateQuery(const Query& q, CandidatePool* pool) const {
  const QueryInfo info = AnalyzeQuery(q);
  const KeyPath& path = q.path();

  // --- Prefix-query candidates: segments [i, hi] anchored at the deepest
  //     referenced entity (paper Fig. 5). ---
  for (size_t i = info.lo; i <= info.hi; ++i) {
    const KeyPath segment = path.SubPath(i, info.hi);
    const std::vector<Predicate> seg_preds = info.PredsIn(i, info.hi);
    std::vector<size_t> eq_preds, range_preds;  // indices into seg_preds
    for (size_t k = 0; k < seg_preds.size(); ++k) {
      (seg_preds[k].IsEquality() ? eq_preds : range_preds).push_back(k);
    }
    if (eq_preds.empty()) continue;  // cannot anchor the first get

    const std::vector<FieldRef> ids = SegmentIds(q, i, info.hi);
    const std::vector<FieldRef> orders = info.OrdersIn(i, info.hi);
    // Select attributes carried by a prefix covering [i, hi]: those of the
    // segment entities (the remainder below i fetches the rest).
    const std::vector<FieldRef> select_attrs = info.SelectIn(i, info.hi);

    // Relaxation subsets: predicates on the prefix query's target entity
    // e_i may be moved out of the key into values (paper §IV-A2). Bit r of
    // a subset mask relaxes the r-th such predicate; relax_bits[k] holds
    // the bits that relax seg_preds[k] (a predicate the query repeats is
    // relaxed by the bit of any copy). Subset 0 is the unrelaxed variant.
    std::vector<size_t> relax_bits(seg_preds.size(), 0);
    size_t num_removable = 0;
    if (options_.enable_relaxation) {
      for (const Predicate& p : seg_preds) {
        if (p.field.entity != path.EntityAt(i)) continue;
        const size_t bit = static_cast<size_t>(1) << num_removable++;
        for (size_t k = 0; k < seg_preds.size(); ++k) {
          if (seg_preds[k] == p) relax_bits[k] |= bit;
        }
      }
    }
    const size_t subsets = static_cast<size_t>(1) << num_removable;
    for (size_t mask = 0; mask < subsets; ++mask) {
      std::vector<Predicate> eq_kept, range_kept, dropped;
      for (size_t k : eq_preds) {
        (relax_bits[k] & mask ? dropped : eq_kept).push_back(seg_preds[k]);
      }
      for (size_t k : range_preds) {
        (relax_bits[k] & mask ? dropped : range_kept).push_back(seg_preds[k]);
      }
      if (eq_kept.empty()) continue;  // at least one equality must remain

      const std::vector<FieldRef> partition = FieldsOf(eq_kept);
      // Clustering variants: with ORDER BY fields leading (pre-sorted
      // results) and without (client-side sort, ranges pushable).
      for (int with_orders = orders.empty() ? 0 : 1; with_orders >= 0;
           --with_orders) {
        std::vector<FieldRef> clustering;
        if (with_orders == 1) {
          for (const FieldRef& o : orders) AddUnique(&clustering, o);
        }
        for (const FieldRef& r : FieldsOf(range_kept)) {
          AddUnique(&clustering, r);
        }
        for (const FieldRef& id : ids) AddUnique(&clustering, id);

        // Full materialized view: carries select attributes and dropped
        // predicate fields (for client-side filtering). When ORDER BY
        // fields are left out of the clustering key, they ride along as
        // values so the client-side sort has them in hand.
        std::vector<FieldRef> mv_values = select_attrs;
        for (const FieldRef& f : FieldsOf(dropped)) AddUnique(&mv_values, f);
        if (with_orders == 0) {
          for (const FieldRef& o : orders) AddUnique(&mv_values, o);
        }
        TryAdd(pool, segment, partition, clustering, mv_values);

        if (options_.enable_splits) {
          // Key-only variant (paper: "one that returns only the key
          // attributes"); dropped-predicate fields may still ride along so
          // filtering stays possible without a second lookup.
          TryAdd(pool, segment, partition, clustering, {});
          if (!dropped.empty()) {
            TryAdd(pool, segment, partition, clustering, FieldsOf(dropped));
          }
        }
      }
    }
  }

  // --- Remainder-segment candidates: [a, b] link families keyed by the
  //     upper entity's ID (paper Fig. 6: CF4-style). ---
  for (size_t b = info.lo + 1; b <= info.hi; ++b) {
    for (size_t a = info.lo; a < b; ++a) {
      const KeyPath segment = path.SubPath(a, b);
      const std::vector<FieldRef> partition = {
          IdRefOf(*q.graph(), path.EntityAt(b))};
      std::vector<FieldRef> ids = SegmentIds(q, a, b - 1);

      const std::vector<Predicate> seg_preds = info.PredsIn(a, b);
      std::vector<FieldRef> range_fields;
      for (const Predicate& p : seg_preds) {
        if (p.IsRange()) AddUnique(&range_fields, p.field);
      }

      // Plain link family.
      TryAdd(pool, segment, partition, ids, {});
      // Predicate/select-carrying variants.
      std::vector<FieldRef> carry = FieldsOf(seg_preds);
      for (const FieldRef& s : info.SelectIn(a, b)) AddUnique(&carry, s);
      for (const FieldRef& o : info.OrdersIn(a, b)) AddUnique(&carry, o);
      if (!carry.empty()) {
        std::vector<FieldRef> clustering;
        for (const FieldRef& r : range_fields) AddUnique(&clustering, r);
        for (const FieldRef& id : ids) AddUnique(&clustering, id);
        TryAdd(pool, segment, partition, clustering, carry);
      }
    }
  }

  // --- Materialization candidates: [id(e)][][attrs] per referenced entity
  //     (paper: "[GuestID][][GuestName, GuestEmail]"). ---
  for (size_t m = info.lo; m <= info.hi; ++m) {
    const std::string& entity = path.EntityAt(m);
    StatusOr<KeyPath> single = q.graph()->SingleEntityPath(entity);
    if (!single.ok()) continue;
    const FieldRef id = IdRefOf(*q.graph(), entity);
    std::vector<FieldRef> attrs = info.SelectIn(m, m);
    for (const FieldRef& o : info.OrdersIn(m, m)) AddUnique(&attrs, o);
    std::vector<FieldRef> with_preds = attrs;
    for (const Predicate& p : q.PredicatesOn(m)) {
      AddUnique(&with_preds, p.field);
    }
    if (!attrs.empty()) TryAdd(pool, *single, {id}, {}, attrs);
    if (!with_preds.empty() && with_preds != attrs) {
      TryAdd(pool, *single, {id}, {}, with_preds);
    }
  }
}

void Enumerator::Combine(CandidatePool* pool) const {
  if (!options_.enable_combination) return;
  obs::Span span("enumerate.combine", "enumerator");
  static obs::Counter& combined =
      obs::MetricsRegistry::Global().GetCounter("enumerator.combined_added");
  const size_t size_before = pool->size();
  const std::vector<ColumnFamily>& cfs = pool->candidates();

  // Only families without a clustering key over the same path and
  // partition key combine, so bucket them by that pair (as text; the
  // checks below keep the test exact). Each x then visits the later
  // members of its own bucket in ascending order: the (x, y) pairs of a
  // full scan that can combine, in the same order.
  std::unordered_map<std::string, std::vector<size_t>> buckets;
  std::vector<const std::vector<size_t>*> bucket_of(cfs.size(), nullptr);
  for (size_t x = 0; x < cfs.size(); ++x) {
    if (!cfs[x].clustering_key().empty()) continue;
    std::string key(cfs[x].path_text());
    for (const FieldRef& f : cfs[x].partition_key()) {
      key += '|';
      key += f.QualifiedName();
    }
    std::vector<size_t>& bucket = buckets[key];
    bucket.push_back(x);
    bucket_of[x] = &bucket;
  }
  std::vector<ColumnFamily> merges;
  for (size_t x = 0; x < cfs.size(); ++x) {
    if (bucket_of[x] == nullptr) continue;
    const ColumnFamily& a = cfs[x];
    const std::vector<size_t>& bucket = *bucket_of[x];
    for (auto it = std::upper_bound(bucket.begin(), bucket.end(), x);
         it != bucket.end(); ++it) {
      const ColumnFamily& b = cfs[*it];
      if (a.partition_key() != b.partition_key()) continue;
      if (!(a.path() == b.path())) continue;
      if (a.values() == b.values()) continue;
      std::vector<FieldRef> merged = a.values();
      for (const FieldRef& v : b.values()) AddUnique(&merged, v);
      auto cf = ColumnFamily::Create(a.path(), a.partition_key(), {},
                                     std::move(merged));
      if (cf.ok()) merges.push_back(std::move(cf).value());
    }
  }
  // Interned after the scan (interning may reallocate `cfs`), in pair order.
  for (ColumnFamily& cf : merges) pool->Intern(std::move(cf));
  combined.Add(pool->size() - size_before);
}

CandidatePool Enumerator::EnumerateWorkload(const Workload& workload,
                                            const std::string& mix,
                                            util::ThreadPool* threads,
                                            SupportTable* supports) const {
  obs::Span span("enumerate.workload", "enumerator");
  static obs::Counter& queries_counter =
      obs::MetricsRegistry::Global().GetCounter("enumerator.queries");
  static obs::Counter& generated = obs::MetricsRegistry::Global().GetCounter(
      "enumerator.candidates_generated");
  static obs::Counter& support_counter =
      obs::MetricsRegistry::Global().GetCounter("enumerator.support_queries");
  static obs::Counter& interned = obs::MetricsRegistry::Global().GetCounter(
      "enumerator.candidates_interned");

  CandidatePool pool;
  const auto entries = workload.EntriesIn(mix);

  // Enumerates `queries` on private pools in parallel (EnumerateQuery
  // never reads the pool) and interns them in list order, which reproduces
  // the serial insertion sequence — and therefore the serial CfIds —
  // exactly.
  auto enumerate_all = [&](const std::vector<const Query*>& queries,
                           const char* span_name) {
    std::vector<CandidatePool> locals(queries.size());
    util::ParallelFor(threads, queries.size(), [&](size_t i) {
      obs::Span qspan(span_name, "enumerator");
      EnumerateQuery(*queries[i], &locals[i]);
    });
    for (CandidatePool& local : locals) {
      generated.Add(local.size());
      pool.MergeFrom(std::move(local));
    }
  };

  std::vector<const Query*> queries;
  for (const auto& [entry, weight] : entries) {
    if (entry->IsQuery()) queries.push_back(&entry->query());
  }
  queries_counter.Add(queries.size());
  enumerate_all(queries, "enumerate.query");

  // Support queries (paper Algorithm 1): the table derives the support
  // queries of every (update, candidate) pair, and each distinct text is
  // enumerated once per workload, in first-sighting order. Skipping a
  // repeat changes nothing: its candidates were all interned when its first
  // sighting was merged. The paper runs this step twice; one round is
  // enough for this candidate grammar (DESIGN.md).
  {
    obs::Span round_span("enumerate.support_round", "enumerator");
    SupportTable local;
    std::unordered_set<std::string_view> seen;
    std::vector<const Query*> fresh;
    for (const SupportTable::DistinctQuery* d :
         (supports != nullptr ? *supports : local)
             .Extend(entries, pool, threads)) {
      if (seen.insert(d->text).second) fresh.push_back(d->query.get());
    }
    support_counter.Add(fresh.size());
    enumerate_all(fresh, "enumerate.support_query");
  }
  Combine(&pool);
  interned.Add(pool.size());
  return pool;
}

}  // namespace nose
