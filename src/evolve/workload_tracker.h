#ifndef NOSE_EVOLVE_WORKLOAD_TRACKER_H_
#define NOSE_EVOLVE_WORKLOAD_TRACKER_H_

#include <cstdint>
#include <map>
#include <string>

namespace nose::evolve {

struct TrackerOptions {
  /// Statements per observation window; the frequency estimate updates when
  /// a window fills.
  size_t window = 64;
  /// EWMA blend per closed window: est = (1-alpha)*est + alpha*freq.
  double alpha = 0.3;
  /// Total-variation drift (0.5 * sum |est - advised|) above which a window
  /// counts toward a re-advise trigger.
  double threshold = 0.10;
  /// Consecutive over-threshold windows required to trigger.
  int trigger_windows = 2;
  /// Windows to ignore after a trigger is consumed (lets the freshly
  /// advised distribution settle before drifting again).
  size_t cooldown_windows = 2;
};

/// Total-variation distance 0.5 · Σ |a − b| over the union of keys — the
/// drift metric.
double TotalVariation(const std::map<std::string, double>& a,
                      const std::map<std::string, double>& b);

/// Windowed statement-frequency estimator feeding the re-advise loop: the
/// executor reports each executed statement, the tracker folds full windows
/// into an EWMA frequency estimate, and when the estimate's total-variation
/// distance from the advised distribution stays above threshold for
/// `trigger_windows` consecutive windows it raises a re-advise trigger.
/// The estimate is seeded from the advised weights, so statements that stop
/// appearing decay geometrically instead of dropping to exact zero — the
/// observed mix keeps the full statement set and incremental re-advising
/// can reuse the interned candidate pool.
class WorkloadTracker {
 public:
  explicit WorkloadTracker(TrackerOptions options = TrackerOptions())
      : options_(options) {}

  /// Installs the advised distribution (statement -> weight; weights are
  /// normalized here). Resets the estimate, drift, and trigger state.
  void SetAdvised(const std::map<std::string, double>& weights);

  /// Records one executed statement.
  void Record(const std::string& statement);

  /// True when drift has persisted long enough to warrant re-advising.
  /// Consuming the trigger resets it and starts the cooldown.
  bool ShouldReadvise();

  /// Latest total-variation distance between estimate and advised.
  double drift() const { return drift_; }
  /// Current EWMA frequency estimate (normalized).
  const std::map<std::string, double>& estimate() const { return estimate_; }
  uint64_t windows_closed() const { return windows_closed_; }

 private:
  void CloseWindow();

  TrackerOptions options_;
  std::map<std::string, double> advised_;
  std::map<std::string, double> estimate_;
  std::map<std::string, size_t> window_counts_;
  size_t window_size_ = 0;
  double drift_ = 0.0;
  int consecutive_over_ = 0;
  size_t cooldown_left_ = 0;
  bool trigger_ = false;
  uint64_t windows_closed_ = 0;
};

}  // namespace nose::evolve

#endif  // NOSE_EVOLVE_WORKLOAD_TRACKER_H_
