#include "obs/metrics.h"

#include <cmath>
#include <cstdio>

namespace nose {
namespace obs {

namespace {

/// CAS-loop add for pre-C++20-library atomics on double.
void AtomicAdd(std::atomic<double>* target, double v) {
  double cur = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(cur, cur + v,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>* target, double v) {
  double cur = target->load(std::memory_order_relaxed);
  while (v < cur && !target->compare_exchange_weak(cur, v,
                                                   std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* target, double v) {
  double cur = target->load(std::memory_order_relaxed);
  while (v > cur && !target->compare_exchange_weak(cur, v,
                                                   std::memory_order_relaxed)) {
  }
}

/// Strict-JSON double rendering: NaN/Inf have no JSON spelling, so they
/// degrade to 0 (snapshot files must survive `python -m json.tool`).
void AppendDouble(std::string* out, double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  *out += buf;
}

}  // namespace

void Gauge::SetMax(double v) { AtomicMax(&value_, v); }

void Histogram::Observe(double v) {
  const uint64_t seen = count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(&sum_, v);
  if (seen == 0) {
    // First observation seeds min; races with a concurrent first observer
    // resolve through the CAS loops below.
    double expected = 0.0;
    min_.compare_exchange_strong(expected, v, std::memory_order_relaxed);
  }
  AtomicMin(&min_, v);
  AtomicMax(&max_, v);
  // Bucket index: exponent of v relative to 2^-30 (~1e-9), clamped.
  int idx = 0;
  if (v > 0.0) {
    idx = std::ilogb(v) + 30;
    if (idx < 0) idx = 0;
    if (idx >= static_cast<int>(kNumBuckets)) idx = kNumBuckets - 1;
  }
  buckets_[static_cast<size_t>(idx)].fetch_add(1, std::memory_order_relaxed);
}

double Histogram::min() const {
  return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
}

double Histogram::BucketBound(size_t i) {
  return std::ldexp(1.0, static_cast<int>(i) - 30 + 1);
}

double Histogram::Quantile(double q) const {
  const uint64_t n = count();
  if (n == 0) return 0.0;
  if (q < 0.0) q = 0.0;
  if (q > 1.0) q = 1.0;
  const double rank = q * static_cast<double>(n);
  uint64_t cum = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    const uint64_t b = bucket(i);
    if (b == 0) continue;
    if (static_cast<double>(cum) + static_cast<double>(b) >= rank) {
      // Interpolate linearly within the landing bucket, then clamp to the
      // exact observed envelope (the bucket bounds can overshoot it).
      const double lower = i == 0 ? 0.0 : BucketBound(i - 1);
      const double upper = BucketBound(i);
      double frac = (rank - static_cast<double>(cum)) / static_cast<double>(b);
      if (frac < 0.0) frac = 0.0;
      if (frac > 1.0) frac = 1.0;
      double v = lower + (upper - lower) * frac;
      if (v > max()) v = max();
      if (v < min()) v = min();
      return v;
    }
    cum += b;
  }
  return max();
}

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
  min_.store(0.0, std::memory_order_relaxed);
  max_.store(0.0, std::memory_order_relaxed);
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // never destroyed
  return *registry;
}

Counter& MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Gauge& MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (slot == nullptr) slot = std::make_unique<Gauge>();
  return *slot;
}

Histogram& MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (slot == nullptr) slot = std::make_unique<Histogram>();
  return *slot;
}

void MetricsRegistry::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

std::map<std::string, uint64_t> MetricsRegistry::CounterValues() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, uint64_t> out;
  for (const auto& [name, c] : counters_) out[name] = c->value();
  return out;
}

std::string MetricsRegistry::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out.push_back(',');
    first = false;
    out += "\"" + name + "\":" + std::to_string(c->value());
  }
  out += "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out.push_back(',');
    first = false;
    out += "\"" + name + "\":";
    AppendDouble(&out, g->value());
  }
  out += "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out.push_back(',');
    first = false;
    const uint64_t n = h->count();
    out += "\"" + name + "\":{\"count\":" + std::to_string(n) + ",\"sum\":";
    AppendDouble(&out, h->sum());
    out += ",\"min\":";
    AppendDouble(&out, h->min());
    out += ",\"max\":";
    AppendDouble(&out, h->max());
    out += ",\"mean\":";
    AppendDouble(&out, n == 0 ? 0.0 : h->sum() / static_cast<double>(n));
    out += ",\"p50\":";
    AppendDouble(&out, h->Quantile(0.50));
    out += ",\"p95\":";
    AppendDouble(&out, h->Quantile(0.95));
    out += ",\"p99\":";
    AppendDouble(&out, h->Quantile(0.99));
    out += ",\"buckets\":{";
    bool first_bucket = true;
    for (size_t i = 0; i < Histogram::kNumBuckets; ++i) {
      const uint64_t b = h->bucket(i);
      if (b == 0) continue;  // sparse: empty buckets add noise, not data
      if (!first_bucket) out.push_back(',');
      first_bucket = false;
      char bound[48];
      std::snprintf(bound, sizeof(bound), "\"le_%.6g\":",
                    Histogram::BucketBound(i));
      out += bound;
      out += std::to_string(b);
    }
    out += "}}";
  }
  out += "}}";
  return out;
}

}  // namespace obs
}  // namespace nose
