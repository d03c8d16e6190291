#include "evolve/workload_tracker.h"

#include <cmath>

#include "obs/metrics.h"

namespace nose::evolve {

namespace {

void Normalize(std::map<std::string, double>* dist) {
  double sum = 0.0;
  for (const auto& [name, w] : *dist) sum += w;
  if (sum <= 0.0) return;
  for (auto& [name, w] : *dist) w /= sum;
}

}  // namespace

double TotalVariation(const std::map<std::string, double>& a,
                      const std::map<std::string, double>& b) {
  double tv = 0.0;
  for (const auto& [name, av] : a) {
    auto it = b.find(name);
    const double bv = it == b.end() ? 0.0 : it->second;
    tv += std::abs(av - bv);
  }
  for (const auto& [name, bv] : b) {
    if (a.count(name) == 0) tv += bv;
  }
  return 0.5 * tv;
}

void WorkloadTracker::SetAdvised(const std::map<std::string, double>& weights) {
  advised_ = weights;
  Normalize(&advised_);
  estimate_ = advised_;
  window_counts_.clear();
  window_size_ = 0;
  drift_ = 0.0;
  consecutive_over_ = 0;
  cooldown_left_ = options_.cooldown_windows;
  trigger_ = false;
  obs::MetricsRegistry::Global().GetGauge("evolve.drift").Set(0.0);
}

void WorkloadTracker::Record(const std::string& statement,
                             double simulated_ms) {
  ++statements_recorded_;
  total_simulated_ms_ += simulated_ms;
  ++window_counts_[statement];
  if (++window_size_ >= options_.window) CloseWindow();
}

void WorkloadTracker::CloseWindow() {
  ++windows_closed_;
  const double n = static_cast<double>(window_size_);
  // Blend the window's empirical frequencies into the estimate over the
  // union of statement names; absent statements blend toward zero but
  // never reach it (the estimate was seeded from the advised weights).
  for (auto& [name, est] : estimate_) {
    auto it = window_counts_.find(name);
    const double freq =
        it == window_counts_.end() ? 0.0 : static_cast<double>(it->second) / n;
    est = (1.0 - options_.alpha) * est + options_.alpha * freq;
  }
  for (const auto& [name, count] : window_counts_) {
    if (estimate_.count(name) == 0) {
      estimate_[name] = options_.alpha * static_cast<double>(count) / n;
    }
  }
  Normalize(&estimate_);
  window_counts_.clear();
  window_size_ = 0;

  drift_ = TotalVariation(estimate_, advised_);

  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  reg.GetGauge("evolve.drift").Set(drift_);
  reg.GetCounter("evolve.windows_closed").Increment();

  if (cooldown_left_ > 0) {
    --cooldown_left_;
    consecutive_over_ = 0;
    return;
  }
  if (drift_ > options_.threshold) {
    if (++consecutive_over_ >= options_.trigger_windows) {
      trigger_ = true;
      reg.GetCounter("evolve.drift_triggers").Increment();
    }
  } else {
    consecutive_over_ = 0;
  }
}

bool WorkloadTracker::ShouldReadvise() {
  if (!trigger_) return false;
  trigger_ = false;
  consecutive_over_ = 0;
  cooldown_left_ = options_.cooldown_windows;
  return true;
}

}  // namespace nose::evolve
