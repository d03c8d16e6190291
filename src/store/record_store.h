#ifndef NOSE_STORE_RECORD_STORE_H_
#define NOSE_STORE_RECORD_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "cost/cost_model.h"
#include "util/statusor.h"
#include "util/value.h"
#include "workload/predicate.h"

namespace nose {

/// Operation counters plus simulated latency. The simulation charges each
/// get/put with the same per-request / per-row / per-byte constants the
/// cost model uses, standing in for the paper's physical Cassandra cluster
/// (see DESIGN.md, substitutions). Wall-clock work of the in-memory store
/// is *not* what benchmarks report — simulated_ms is.
struct StoreStats {
  uint64_t gets = 0;
  uint64_t puts = 0;
  uint64_t deletes = 0;
  uint64_t rows_read = 0;
  uint64_t rows_written = 0;
  uint64_t bytes_read = 0;
  /// Rows and payload bytes reclaimed by DropColumnFamily (live migration
  /// drops the superseded generation at cutover; serve reports surface
  /// the space reclaimed).
  uint64_t rows_dropped = 0;
  uint64_t bytes_dropped = 0;
  double simulated_ms = 0.0;
};

/// Inclusive/exclusive bound for a clustering-range scan.
struct RangeBound {
  PredicateOp op = PredicateOp::kGt;  ///< kLt/kLe/kGt/kGe
  Value value;
};

/// An extensible record store in the paper's model (§III-C): a column
/// family maps a partition key to clustering-key-sorted records,
///   K -> (C -> V),
/// supporting only get (partition key + clustering prefix + optional range)
/// and put/delete. In-memory.
///
/// Concurrency: each column family's partition map is hash-sharded into
/// `stripes_per_cf` stripes, each behind its own mutex, so driver threads
/// (serving traffic or stepping a migration) operate concurrently as long
/// as they touch different stripes (a partition always lives in exactly
/// one stripe).
/// The catalog itself is guarded by a shared mutex: operations hold it
/// shared, CreateColumnFamily/DropColumnFamily hold it exclusive, so a
/// drop cannot race an in-flight access to the dropped family.
///
/// Stats determinism: simulated time is accumulated per stripe in integer
/// nanoseconds (addition commutes exactly, unlike floating point), and
/// stats() merges stripes in sorted column-family name / stripe index
/// order — so the snapshot is byte-identical for a given set of executed
/// operations regardless of thread count or interleaving.
class RecordStore {
 public:
  /// `stripes_per_cf` fixes the shard count of every column family created
  /// on this store (minimum 1). Single-threaded callers keep the default.
  explicit RecordStore(CostParams params = CostParams(),
                       size_t stripes_per_cf = 1)
      : params_(params),
        stripes_per_cf_(stripes_per_cf == 0 ? 1 : stripes_per_cf) {}

  /// Registers a column family; widths fix the tuple arity of partition
  /// key, clustering key and values for all subsequent operations.
  Status CreateColumnFamily(const std::string& name, size_t partition_width,
                            size_t clustering_width, size_t value_width);
  bool HasColumnFamily(const std::string& name) const;

  /// Removes a column family and all its records (live migration drops the
  /// superseded generation after cutover). Not charged to the simulation —
  /// drops are metadata operations in the target stores — but the rows and
  /// bytes reclaimed are recorded in StoreStats::rows_dropped/bytes_dropped,
  /// and the family's operation counters are folded into the retained
  /// aggregate so stats() never goes backwards.
  Status DropColumnFamily(const std::string& name);

  /// Receives one stored row of a get: its clustering key and its values.
  using RowVisitor = std::function<void(const ValueTuple& clustering,
                                        const ValueTuple& values)>;

  /// Visits, from the record identified by `partition`, every (C -> V)
  /// pair whose clustering key starts with `clustering_prefix`, optionally
  /// restricted by `range` on the clustering component right after the
  /// prefix: `visit(clustering, values)` is called once per row, in
  /// clustering order, with references to the stored tuples. The single
  /// row-read path of the store; the get is charged for the visited rows.
  ///
  /// `visit` runs under the partition's stripe lock, so the references are
  /// valid only during the call, and it must not call back into this
  /// store: the stripe mutex is not recursive, and a visitor that reads or
  /// writes the store deadlocks.
  Status Get(const std::string& name, const ValueTuple& partition,
             const ValueTuple& clustering_prefix,
             const std::optional<RangeBound>& range, const RowVisitor& visit);

  /// Upserts one record. `values` entries that are nullopt keep the stored
  /// value (Cassandra-style per-column write); for a fresh record they
  /// default to int64 0.
  Status Put(const std::string& name, const ValueTuple& partition,
             const ValueTuple& clustering,
             const std::vector<std::optional<Value>>& values);

  /// Removes one record; removing a non-existent record is a no-op (still
  /// counted as a write request).
  Status Delete(const std::string& name, const ValueTuple& partition,
                const ValueTuple& clustering);

  /// Total records stored in a column family.
  StatusOr<size_t> RowCount(const std::string& name) const;

  /// Deterministic merged snapshot of per-stripe stats plus the retained
  /// aggregate of dropped column families. Returned by value — the striped
  /// stats have no single object to hand out a reference to.
  StoreStats stats() const;

  /// Order-independent hash of the store's full logical content (every
  /// record of every live column family, including names). Two stores hold
  /// byte-identical data iff their digests match (modulo hash collisions) —
  /// regardless of stripe count, insertion order, or thread interleaving.
  /// The serve tests use this to check that a concurrent run's final state
  /// equals the single-threaded control's. Process-local only (hashes are
  /// not stable across binaries); not charged to the simulation.
  uint64_t ContentDigest() const;

  const CostParams& params() const { return params_; }
  size_t stripes_per_cf() const { return stripes_per_cf_; }

  /// Monotone total of simulated milliseconds charged to the calling
  /// thread, across all RecordStore instances. The per-operation
  /// attribution primitive for concurrent callers: bracket an operation
  /// with two calls and subtract — `stats().simulated_ms` deltas race
  /// under concurrency, this does not, and nested measurements compose.
  static double ThreadChargeMs();

  /// Suspends stats charging for bulk loads (initial dataset load is not
  /// part of the simulated workload). Global per store and NOT safe to
  /// hold while charged traffic runs concurrently — use only during
  /// single-threaded setup. Process-wide obs counters still tick.
  class UnchargedLoadScope {
   public:
    explicit UnchargedLoadScope(RecordStore* store) : store_(store) {
      store_->charging_.store(false, std::memory_order_relaxed);
    }
    ~UnchargedLoadScope() {
      store_->charging_.store(true, std::memory_order_relaxed);
    }
    UnchargedLoadScope(const UnchargedLoadScope&) = delete;
    UnchargedLoadScope& operator=(const UnchargedLoadScope&) = delete;

   private:
    RecordStore* store_;
  };

 private:
  /// Integer-nanosecond stats of one stripe, guarded by the stripe mutex.
  struct StripeStats {
    uint64_t gets = 0;
    uint64_t puts = 0;
    uint64_t deletes = 0;
    uint64_t rows_read = 0;
    uint64_t rows_written = 0;
    uint64_t bytes_read = 0;
    int64_t simulated_ns = 0;
  };

  struct Stripe {
    mutable std::mutex mu;
    std::unordered_map<ValueTuple, std::map<ValueTuple, ValueTuple>,
                       ValueTupleHash>
        partitions;
    size_t total_rows = 0;
    StripeStats stats;
  };

  struct ColumnFamilyData {
    size_t partition_width;
    size_t clustering_width;
    size_t value_width;
    std::vector<std::unique_ptr<Stripe>> stripes;

    Stripe& StripeFor(const ValueTuple& partition) {
      return *stripes[ValueTupleHash()(partition) % stripes.size()];
    }
  };

  /// Caller must hold catalog_mu_ (shared suffices).
  StatusOr<ColumnFamilyData*> FindCf(const std::string& name) const;

  /// Adds `ms` of simulated latency to the stripe (as integer ns) and to
  /// the calling thread's charge accumulator. Caller holds stripe.mu.
  void Charge(Stripe& stripe, double ms) const;

  bool charging() const { return charging_.load(std::memory_order_relaxed); }

  CostParams params_;
  size_t stripes_per_cf_;
  std::atomic<bool> charging_{true};

  mutable std::shared_mutex catalog_mu_;
  std::unordered_map<std::string, std::unique_ptr<ColumnFamilyData>> cfs_;

  /// Stats of dropped column families plus drop accounting; stats() adds
  /// this to the live stripes' totals. Guarded by catalog_mu_ exclusive
  /// (mutated only by DropColumnFamily).
  struct RetiredStats {
    StripeStats ops;
    uint64_t rows_dropped = 0;
    uint64_t bytes_dropped = 0;
  };
  RetiredStats retired_;
};

/// Approximate wire size of a tuple in bytes (latency simulation).
size_t TupleBytes(const ValueTuple& tuple);

}  // namespace nose

#endif  // NOSE_STORE_RECORD_STORE_H_
