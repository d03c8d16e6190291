#ifndef NOSE_OBS_METRICS_H_
#define NOSE_OBS_METRICS_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace nose {
namespace obs {

/// Monotonic event counter. Always on: an increment is one relaxed atomic
/// add, cheap enough to leave in hot paths. Counter values are a pure
/// function of the work performed, so for the deterministic advisor
/// pipeline they are identical at every thread count (pinned by
/// obs_determinism_test).
class Counter {
 public:
  void Add(uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value (plus a monotone-max variant for
/// high-water marks).
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  /// Raises the gauge to `v` if larger (atomic max).
  void SetMax(double v);
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0.0); }

 private:
  std::atomic<double> value_{0.0};
};

/// Distribution sketch: count/sum/min/max plus power-of-two buckets
/// spanning ~1e-9 .. ~5e8 (fits nanosecond..second timings and row/byte
/// sizes alike). All updates are relaxed atomics; merging happens at
/// snapshot time.
class Histogram {
 public:
  static constexpr size_t kNumBuckets = 64;

  void Observe(double v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  /// Minimum observed value; 0 when empty.
  double min() const;
  /// Maximum observed value; 0 when empty.
  double max() const { return max_.load(std::memory_order_relaxed); }
  uint64_t bucket(size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  /// Upper bound of bucket `i` (2^(i-30)); the last bucket is unbounded.
  static double BucketBound(size_t i);

  /// Approximate quantile (q in [0,1]) from the bucket sketch: walks the
  /// cumulative counts to the target rank and interpolates linearly inside
  /// the landing bucket, clamped to the exact [min, max] envelope. 0 when
  /// empty.
  double Quantile(double q) const;

  void Reset();

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{0.0};  ///< valid only when count_ > 0
  std::atomic<double> max_{0.0};
  std::array<std::atomic<uint64_t>, kNumBuckets> buckets_{};
};

/// Process-wide registry of named metrics. Lookup is a mutex-guarded map —
/// instrumentation sites cache the returned reference in a function-local
/// static, so the lock is taken once per site per process, never per event.
/// Metric objects live as long as the process; Reset() zeroes values
/// without invalidating references.
///
/// Naming convention: "<subsystem>.<what>[_<unit>]", e.g.
/// "enumerator.candidates_generated", "solver.simplex_iterations".
class MetricsRegistry {
 public:
  static MetricsRegistry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  /// Zeroes every registered metric (references stay valid).
  void Reset();

  /// Snapshot of all counters, name -> value (used by tests to diff runs).
  std::map<std::string, uint64_t> CounterValues() const;

  /// JSON snapshot, the run report's "metrics" section:
  ///   {"counters":{...},"gauges":{...},"histograms":{name:
  ///    {"count":n,"sum":s,"min":m,"max":M,"mean":u,
  ///     "p50":v,"p95":v,"p99":v,"buckets":{"le_B":c}}}}
  std::string ToJson() const;

 private:
  MetricsRegistry() = default;

  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace obs
}  // namespace nose

#endif  // NOSE_OBS_METRICS_H_
