#ifndef NOSE_SOLVER_SOLVE_LOG_H_
#define NOSE_SOLVER_SOLVE_LOG_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace nose {

/// Per-LP-solve telemetry, filled by LpProblem::Solve into a caller-owned
/// record and stamped by the caller (SolveBip) with its search context.
/// Everything here is a pure function of the instance and the
/// (deterministic) pivot path — except `solve_ms`, which is wall clock and
/// therefore excluded from SolveLog::Fingerprint().
struct LpSolveStats {
  uint64_t id = 0;      ///< 1-based record id, assigned by SolveLog::RecordLp
  /// Enclosing B&B solve; 0 = solved outside any search (the certificate's
  /// dual harvest).
  uint64_t bip_id = 0;
  /// Explored-node ordinal within bip_id (0 = the root). -1 inside a search
  /// marks a discarded relaxation: solved in a batch, but its node was
  /// pruned by an incumbent found earlier in that batch, or left pending
  /// when a budget ran out.
  int node_id = -1;

  std::string status;  ///< LpStatusName of the result
  int rows = 0;        ///< constraint rows of the original problem
  int tableau_cols = 0;  ///< structural + slack + artificial columns

  int iterations = 0;         ///< total simplex iterations (both phases)
  int phase1_iterations = 0;  ///< iterations spent driving artificials out
  int bland_iterations = 0;   ///< iterations priced under Bland's rule
  int bound_flips = 0;        ///< nonbasic bound-to-bound moves (no pivot)
  int max_degenerate_streak = 0;  ///< longest run of zero-step pivots

  /// Stored factor entries (LU + eta file) before phase 1 and at
  /// termination — the fill-accumulation signal.
  uint64_t fill_start = 0;
  uint64_t fill_end = 0;

  /// Basis-maintenance telemetry. `refactorizations` counts basis
  /// factorizations from scratch (the initial crash/hot-load one
  /// included), `ft_updates` the product-form updates appended between
  /// them, and `factor_fill` the L+U nonzeros of the final base
  /// factorization.
  int refactorizations = 0;
  int ft_updates = 0;
  uint64_t factor_fill = 0;

  /// max/min over rows of the pre-equilibration row magnitude — a cheap
  /// conditioning estimate (1 = already equilibrated).
  double equilibration_cond = 1.0;

  bool hot_start_attempted = false;
  /// The starting basis was used: the solve either continued from it
  /// (dual repair, then phase 2) or ended on its Farkas verdict. Only a
  /// rejected basis, which falls back to the cold crash start, is a miss.
  bool hot_started = false;
  /// kInfeasible proven from the hot start's dual-repair pivot row (a
  /// checked Farkas certificate) instead of by a cold phase 1.
  bool farkas = false;

  double solve_ms = 0.0;  ///< wall clock; excluded from Fingerprint()

  /// (cumulative iteration, stored factor entries) sampled every
  /// kFillSampleStride iterations.
  std::vector<std::pair<int, uint64_t>> fill_curve;

  /// Stored entries as a fraction of the full tableau (rows·tableau_cols).
  double FillRatio(uint64_t stored) const;
};

/// One incumbent improvement of a branch-and-bound search: the explored
/// node whose integral LP optimum became the incumbent, and its objective.
struct BbIncumbent {
  int node_id = 0;
  int depth = 0;  ///< fixings along the branch
  double value = 0.0;
};

/// End-of-search summary for one SolveBip call.
struct BipSolveStats {
  uint64_t id = 0;  ///< 1-based B&B solve id, assigned by SolveLog
  std::string status;  ///< BipStatusName of the result
  double objective = 0.0;
  int vars = 0;
  int rows = 0;
  uint64_t nonzeros = 0;
  int binaries = 0;
  int nodes_explored = 0;
  int max_depth = 0;
  uint64_t lp_iterations = 0;
  uint64_t pruned_bound = 0;
  uint64_t pruned_parent = 0;
  uint64_t infeasible = 0;
  uint64_t incumbents = 0;
  bool warm_started = false;  ///< incumbent seeded from a warm-start point
  bool root_hot_start_attempted = false;
  bool root_hot_started = false;
  /// The root LP's cold crash started from the warm-start point.
  bool root_point_crash = false;
  /// Every incumbent improvement in processing order (one per
  /// `incumbents`); the values strictly decrease.
  std::vector<BbIncumbent> trajectory;
  double solve_ms = 0.0;  ///< wall clock; excluded from Fingerprint()
};

/// Process-wide solver-introspection sink: bounded ring buffers of
/// LpSolveStats / BipSolveStats records, written into a run report
/// (`nose ... --report-json FILE`) as its "solve_log" section and, rendered
/// by Explain(), its "explain" section.
///
/// Off by default. When disabled, the instrumentation cost is one relaxed
/// atomic load per BIP solve — nothing per LP or simplex iteration — so
/// the solver runs at full speed. When enabled, records append under a
/// mutex; capacity overflow drops the OLDEST records (ring semantics) and
/// counts the drops.
///
/// Determinism: SolveBip runs the same batched search with or without the
/// log and appends each batch's LP records in pop order after processing
/// it, so the records of one search do not depend on the thread count.
/// Fingerprint() additionally strips wall-clock fields and global ids and
/// sorts the canonical lines, so it is invariant even if callers overlap
/// independent solves from multiple threads.
class SolveLog {
 public:
  static constexpr size_t kLpCapacity = 16384;
  static constexpr size_t kBipCapacity = 4096;
  /// Factor fill is sampled every this many simplex iterations.
  static constexpr int kFillSampleStride = 64;

  static SolveLog& Global();

  /// Starts recording (clears previous records and id counters).
  void Enable();
  void Disable();
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  /// Drops all records and resets id counters; recording state unchanged.
  void Clear();

  /// Appends a record (RecordLp assigns stats.id) — call only when
  /// enabled().
  void RecordLp(LpSolveStats stats);
  void RecordBip(BipSolveStats stats);

  /// Allocates the next 1-based B&B solve id; SolveBip stamps its LP and
  /// bip records with it.
  uint64_t NextBipId();

  size_t lp_record_count() const;
  size_t bip_record_count() const;
  uint64_t dropped_lp_records() const;

  /// Snapshot copies (records stay in the log).
  std::vector<LpSolveStats> LpRecords() const;
  std::vector<BipSolveStats> BipRecords() const;

  /// The run report's "solve_log" section: the ring buffers' drop counts,
  /// then every record in record order, one array per kind
  /// ("type" ∈ lp|bip inside each record):
  ///   {"dropped_lp":n,"dropped_bips":n,"lp":[...],"bips":[...]}
  std::string ToJson() const;

  /// The run report's "explain" section, a human-readable diagnosis: B&B
  /// tree summary with its incumbent trajectory, prune-reason breakdown,
  /// hot-start hits, the top LP time sinks, per-phase/per-context time
  /// attribution, and the fill-growth curve of the slowest solve.
  /// Deterministic given the log contents.
  std::string Explain() const;

  /// Canonical timing-free digest: every record rendered without wall-clock
  /// fields or global ids, lines sorted. Bitwise-identical across runs at
  /// any thread count (the telemetry determinism contract).
  std::string Fingerprint() const;

 private:
  SolveLog() = default;

  std::atomic<bool> enabled_{false};
  mutable std::mutex mu_;
  uint64_t next_lp_id_ = 0;
  uint64_t next_bip_id_ = 0;
  uint64_t dropped_lp_ = 0;
  uint64_t dropped_bips_ = 0;
  std::deque<LpSolveStats> lp_records_;
  std::deque<BipSolveStats> bip_records_;
};

}  // namespace nose

#endif  // NOSE_SOLVER_SOLVE_LOG_H_
