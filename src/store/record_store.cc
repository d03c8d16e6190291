#include "store/record_store.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"

namespace nose {

namespace {

/// Store request counters live beside StoreStats rather than replacing it:
/// StoreStats is per-store, while these feed the process-wide metrics
/// snapshot. Counters only — no spans or histograms on this path, which
/// the store microbenchmarks treat as hot.
struct StoreCounters {
  obs::Counter& gets;
  obs::Counter& partitions_read;
  obs::Counter& rows_read;
  obs::Counter& bytes_read;
  obs::Counter& puts;
  obs::Counter& deletes;
  obs::Counter& rows_written;

  static StoreCounters& Get() {
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    static StoreCounters* c = new StoreCounters{
        reg.GetCounter("store.gets"),
        reg.GetCounter("store.partitions_read"),
        reg.GetCounter("store.rows_read"),
        reg.GetCounter("store.bytes_read"),
        reg.GetCounter("store.puts"),
        reg.GetCounter("store.deletes"),
        reg.GetCounter("store.rows_written")};
    return *c;
  }
};

/// Monotone simulated-millisecond total charged by this thread, across
/// store instances. Callers bracket an operation and subtract.
thread_local double tls_charge_ms = 0.0;

/// Stripes accumulate simulated time in integer nanoseconds so the merged
/// total is independent of which thread charged what in which order
/// (integer addition commutes exactly; double addition does not).
int64_t MsToNanos(double ms) {
  return static_cast<int64_t>(std::llround(ms * 1e6));
}

}  // namespace

size_t TupleBytes(const ValueTuple& tuple) {
  size_t bytes = 0;
  for (const Value& v : tuple) {
    switch (v.index()) {
      case 0:
      case 1:
        bytes += 8;
        break;
      case 2:
        bytes += std::get<std::string>(v).size();
        break;
      case 3:
        bytes += 1;
        break;
    }
  }
  return bytes;
}

double RecordStore::ThreadChargeMs() { return tls_charge_ms; }

void RecordStore::Charge(Stripe& stripe, double ms) const {
  if (!charging()) return;
  stripe.stats.simulated_ns += MsToNanos(ms);
  tls_charge_ms += ms;
}

Status RecordStore::CreateColumnFamily(const std::string& name,
                                       size_t partition_width,
                                       size_t clustering_width,
                                       size_t value_width) {
  if (name.empty()) {
    return Status::InvalidArgument("column family name must be non-empty");
  }
  if (partition_width == 0) {
    return Status::InvalidArgument("partition key must have at least one "
                                   "component: " +
                                   name);
  }
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  if (cfs_.count(name) > 0) {
    return Status::AlreadyExists("column family " + name + " already exists");
  }
  auto cf = std::make_unique<ColumnFamilyData>();
  cf->partition_width = partition_width;
  cf->clustering_width = clustering_width;
  cf->value_width = value_width;
  cf->stripes.reserve(stripes_per_cf_);
  for (size_t i = 0; i < stripes_per_cf_; ++i) {
    cf->stripes.push_back(std::make_unique<Stripe>());
  }
  cfs_.emplace(name, std::move(cf));
  return Status::Ok();
}

bool RecordStore::HasColumnFamily(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  return cfs_.count(name) > 0;
}

Status RecordStore::DropColumnFamily(const std::string& name) {
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  auto it = cfs_.find(name);
  if (it == cfs_.end()) {
    return Status::NotFound("unknown column family " + name);
  }
  // Fold the family's operation counters into the retained aggregate (so
  // stats() never goes backwards across a cutover) and account the space
  // reclaimed. The exclusive catalog lock guarantees no operation is in
  // flight on these stripes.
  for (const std::unique_ptr<Stripe>& stripe : it->second->stripes) {
    const StripeStats& s = stripe->stats;
    retired_.ops.gets += s.gets;
    retired_.ops.puts += s.puts;
    retired_.ops.deletes += s.deletes;
    retired_.ops.rows_read += s.rows_read;
    retired_.ops.rows_written += s.rows_written;
    retired_.ops.bytes_read += s.bytes_read;
    retired_.ops.simulated_ns += s.simulated_ns;
    retired_.rows_dropped += stripe->total_rows;
    for (const auto& [partition, records] : stripe->partitions) {
      for (const auto& [clustering, values] : records) {
        retired_.bytes_dropped += TupleBytes(partition) +
                                  TupleBytes(clustering) + TupleBytes(values);
      }
    }
  }
  cfs_.erase(it);
  return Status::Ok();
}

StatusOr<RecordStore::ColumnFamilyData*> RecordStore::FindCf(
    const std::string& name) const {
  auto it = cfs_.find(name);
  if (it == cfs_.end()) {
    return Status::NotFound("unknown column family " + name);
  }
  return it->second.get();
}

Status RecordStore::Get(const std::string& name, const ValueTuple& partition,
                        const ValueTuple& clustering_prefix,
                        const std::optional<RangeBound>& range,
                        const RowVisitor& visit) {
  std::shared_lock<std::shared_mutex> catalog_lock(catalog_mu_);
  NOSE_ASSIGN_OR_RETURN(ColumnFamilyData * cf, FindCf(name));
  if (partition.size() != cf->partition_width) {
    return Status::InvalidArgument("partition key arity mismatch for " + name);
  }
  if (clustering_prefix.size() > cf->clustering_width) {
    return Status::InvalidArgument("clustering prefix too long for " + name);
  }
  if (range.has_value()) {
    if (clustering_prefix.size() >= cf->clustering_width) {
      return Status::InvalidArgument(
          "range scan needs a clustering component after the prefix: " +
          name);
    }
    if (range->op != PredicateOp::kLt && range->op != PredicateOp::kLe &&
        range->op != PredicateOp::kGt && range->op != PredicateOp::kGe) {
      return Status::InvalidArgument("invalid range operator");
    }
  }

  Stripe& stripe = cf->StripeFor(partition);
  std::lock_guard<std::mutex> stripe_lock(stripe.mu);
  if (charging()) ++stripe.stats.gets;
  Charge(stripe, params_.read_request);
  StoreCounters::Get().gets.Increment();

  auto pit = stripe.partitions.find(partition);
  if (pit == stripe.partitions.end()) return Status::Ok();
  StoreCounters::Get().partitions_read.Increment();

  // Walk the ordered records of this partition from the first key that can
  // match: the prefix, or for a lower bound the prefix followed by the
  // bound. With the prefix fixed the scanned component is ordered, so a
  // kGt scan steps only past the keys equal to the bound, and a kLt/kLe
  // scan stops at its first miss.
  const std::map<ValueTuple, ValueTuple>& records = pit->second;
  const size_t probe = clustering_prefix.size();
  const bool lower = range.has_value() && (range->op == PredicateOp::kGt ||
                                           range->op == PredicateOp::kGe);
  auto it = records.begin();
  if (lower) {
    ValueTuple seek = clustering_prefix;
    seek.push_back(range->value);
    it = records.lower_bound(seek);
  } else if (!clustering_prefix.empty()) {
    it = records.lower_bound(clustering_prefix);
  }
  auto prefix_matches = [&](const ValueTuple& key) {
    return std::equal(clustering_prefix.begin(), clustering_prefix.end(),
                      key.begin());
  };
  if (lower && range->op == PredicateOp::kGt) {
    while (it != records.end() && prefix_matches(it->first) &&
           !(range->value < it->first[probe])) {
      ++it;
    }
  }
  size_t rows = 0;
  size_t bytes = 0;
  for (; it != records.end(); ++it) {
    const ValueTuple& key = it->first;
    if (!prefix_matches(key)) break;
    if (range.has_value() && !lower) {
      const bool below = range->op == PredicateOp::kLt
                             ? key[probe] < range->value
                             : !(range->value < key[probe]);
      if (!below) break;
    }
    visit(key, it->second);
    ++rows;
    bytes += TupleBytes(key) + TupleBytes(it->second);
  }

  if (charging()) {
    stripe.stats.rows_read += rows;
    stripe.stats.bytes_read += bytes;
  }
  StoreCounters::Get().rows_read.Add(rows);
  StoreCounters::Get().bytes_read.Add(bytes);
  Charge(stripe, static_cast<double>(rows) * params_.read_row +
                     static_cast<double>(bytes) * params_.read_byte);
  return Status::Ok();
}

Status RecordStore::Put(const std::string& name, const ValueTuple& partition,
                        const ValueTuple& clustering,
                        const std::vector<std::optional<Value>>& values) {
  std::shared_lock<std::shared_mutex> catalog_lock(catalog_mu_);
  NOSE_ASSIGN_OR_RETURN(ColumnFamilyData * cf, FindCf(name));
  if (partition.size() != cf->partition_width ||
      clustering.size() != cf->clustering_width ||
      values.size() != cf->value_width) {
    return Status::InvalidArgument("tuple arity mismatch in Put for " + name);
  }
  Stripe& stripe = cf->StripeFor(partition);
  std::lock_guard<std::mutex> stripe_lock(stripe.mu);
  auto& records = stripe.partitions[partition];
  auto [it, inserted] = records.try_emplace(clustering);
  if (inserted) {
    it->second.resize(values.size(), Value(static_cast<int64_t>(0)));
    ++stripe.total_rows;
  }
  for (size_t i = 0; i < values.size(); ++i) {
    if (values[i].has_value()) it->second[i] = *values[i];
  }
  if (charging()) {
    ++stripe.stats.puts;
    ++stripe.stats.rows_written;
  }
  StoreCounters::Get().puts.Increment();
  StoreCounters::Get().rows_written.Increment();
  Charge(stripe,
         params_.write_request + params_.write_row +
             static_cast<double>(TupleBytes(it->second)) * params_.read_byte);
  return Status::Ok();
}

Status RecordStore::Delete(const std::string& name, const ValueTuple& partition,
                           const ValueTuple& clustering) {
  std::shared_lock<std::shared_mutex> catalog_lock(catalog_mu_);
  NOSE_ASSIGN_OR_RETURN(ColumnFamilyData * cf, FindCf(name));
  if (partition.size() != cf->partition_width ||
      clustering.size() != cf->clustering_width) {
    return Status::InvalidArgument("tuple arity mismatch in Delete for " +
                                   name);
  }
  Stripe& stripe = cf->StripeFor(partition);
  std::lock_guard<std::mutex> stripe_lock(stripe.mu);
  if (charging()) ++stripe.stats.deletes;
  Charge(stripe, params_.write_request + params_.write_row);
  StoreCounters::Get().deletes.Increment();
  auto pit = stripe.partitions.find(partition);
  if (pit == stripe.partitions.end()) return Status::Ok();
  if (pit->second.erase(clustering) > 0) {
    --stripe.total_rows;
    if (charging()) ++stripe.stats.rows_written;
    StoreCounters::Get().rows_written.Increment();
  }
  if (pit->second.empty()) stripe.partitions.erase(pit);
  return Status::Ok();
}

StatusOr<size_t> RecordStore::RowCount(const std::string& name) const {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  auto it = cfs_.find(name);
  if (it == cfs_.end()) {
    return Status::NotFound("unknown column family " + name);
  }
  size_t total = 0;
  for (const std::unique_ptr<Stripe>& stripe : it->second->stripes) {
    std::lock_guard<std::mutex> stripe_lock(stripe->mu);
    total += stripe->total_rows;
  }
  return total;
}

StoreStats RecordStore::stats() const {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  StripeStats sum = retired_.ops;
  // Merge in sorted column-family name / stripe index order. All fields
  // are integers, so the sum is interleaving-independent; the fixed order
  // makes that easy to see (and keeps the walk deterministic).
  std::vector<std::string> names;
  names.reserve(cfs_.size());
  for (const auto& [name, cf] : cfs_) names.push_back(name);
  std::sort(names.begin(), names.end());
  for (const std::string& name : names) {
    const ColumnFamilyData& cf = *cfs_.at(name);
    for (const std::unique_ptr<Stripe>& stripe : cf.stripes) {
      std::lock_guard<std::mutex> stripe_lock(stripe->mu);
      const StripeStats& s = stripe->stats;
      sum.gets += s.gets;
      sum.puts += s.puts;
      sum.deletes += s.deletes;
      sum.rows_read += s.rows_read;
      sum.rows_written += s.rows_written;
      sum.bytes_read += s.bytes_read;
      sum.simulated_ns += s.simulated_ns;
    }
  }
  StoreStats out;
  out.gets = sum.gets;
  out.puts = sum.puts;
  out.deletes = sum.deletes;
  out.rows_read = sum.rows_read;
  out.rows_written = sum.rows_written;
  out.bytes_read = sum.bytes_read;
  out.rows_dropped = retired_.rows_dropped;
  out.bytes_dropped = retired_.bytes_dropped;
  out.simulated_ms = static_cast<double>(sum.simulated_ns) / 1e6;
  return out;
}

uint64_t RecordStore::ContentDigest() const {
  std::shared_lock<std::shared_mutex> lock(catalog_mu_);
  ValueTupleHash tuple_hash;
  uint64_t digest = 0;
  for (const auto& [name, cf] : cfs_) {
    const uint64_t name_hash = std::hash<std::string>()(name);
    for (const std::unique_ptr<Stripe>& stripe : cf->stripes) {
      std::lock_guard<std::mutex> stripe_lock(stripe->mu);
      for (const auto& [partition, records] : stripe->partitions) {
        const uint64_t ph = tuple_hash(partition);
        for (const auto& [clustering, values] : records) {
          // splitmix64-style mix of the record's component hashes; records
          // are combined by wrapping addition, which commutes — the digest
          // is independent of stripe count and iteration order.
          uint64_t h = name_hash ^ (ph * 0x9e3779b97f4a7c15ull) ^
                       (tuple_hash(clustering) * 0xbf58476d1ce4e5b9ull) ^
                       (tuple_hash(values) * 0x94d049bb133111ebull);
          h ^= h >> 30;
          h *= 0xbf58476d1ce4e5b9ull;
          h ^= h >> 27;
          h *= 0x94d049bb133111ebull;
          h ^= h >> 31;
          digest += h;
        }
      }
    }
  }
  return digest;
}

}  // namespace nose
