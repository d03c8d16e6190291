#include "solver/solve_log.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>

#include "obs/report.h"

namespace nose {

namespace {

/// Exact round-trip double rendering for records; non-finite values become
/// JSON null.
void AppendNum(std::string* out, double v) {
  if (!std::isfinite(v)) {
    *out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  *out += buf;
}

void AppendU64(std::string* out, uint64_t v) {
  *out += std::to_string(v);
}

void AppendBool(std::string* out, bool v) { *out += v ? "true" : "false"; }

using obs::AppendJsonString;

/// Renders one LP record. `canonical` drops wall-clock fields and global
/// ids for Fingerprint().
std::string RenderLp(const LpSolveStats& r, bool canonical) {
  std::string out = "{\"type\":\"lp\"";
  if (!canonical) {
    out += ",\"id\":";
    AppendU64(&out, r.id);
    out += ",\"bip\":";
    AppendU64(&out, r.bip_id);
  }
  out += ",\"node\":" + std::to_string(r.node_id);
  out += ",\"status\":";
  AppendJsonString(&out, r.status);
  out += ",\"rows\":" + std::to_string(r.rows);
  out += ",\"tableau_cols\":" + std::to_string(r.tableau_cols);
  out += ",\"iters\":" + std::to_string(r.iterations);
  out += ",\"phase1_iters\":" + std::to_string(r.phase1_iterations);
  out += ",\"bland_iters\":" + std::to_string(r.bland_iterations);
  out += ",\"bound_flips\":" + std::to_string(r.bound_flips);
  out += ",\"max_degen_streak\":" + std::to_string(r.max_degenerate_streak);
  out += ",\"fill_start\":";
  AppendU64(&out, r.fill_start);
  out += ",\"fill_end\":";
  AppendU64(&out, r.fill_end);
  out += ",\"refactorizations\":" + std::to_string(r.refactorizations);
  out += ",\"ft_updates\":" + std::to_string(r.ft_updates);
  out += ",\"factor_fill\":";
  AppendU64(&out, r.factor_fill);
  out += ",\"equil_cond\":";
  AppendNum(&out, r.equilibration_cond);
  out += ",\"hot_attempted\":";
  AppendBool(&out, r.hot_start_attempted);
  out += ",\"hot_started\":";
  AppendBool(&out, r.hot_started);
  out += ",\"farkas\":";
  AppendBool(&out, r.farkas);
  if (!canonical) {
    out += ",\"ms\":";
    AppendNum(&out, r.solve_ms);
  }
  out += ",\"fill_curve\":[";
  for (size_t i = 0; i < r.fill_curve.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += "[" + std::to_string(r.fill_curve[i].first) + ",";
    AppendU64(&out, r.fill_curve[i].second);
    out += "]";
  }
  out += "]}";
  return out;
}

std::string RenderBip(const BipSolveStats& r, bool canonical) {
  std::string out = "{\"type\":\"bip\"";
  if (!canonical) {
    out += ",\"id\":";
    AppendU64(&out, r.id);
  }
  out += ",\"status\":";
  AppendJsonString(&out, r.status);
  out += ",\"objective\":";
  AppendNum(&out, r.objective);
  out += ",\"vars\":" + std::to_string(r.vars);
  out += ",\"rows\":" + std::to_string(r.rows);
  out += ",\"nnz\":";
  AppendU64(&out, r.nonzeros);
  out += ",\"binaries\":" + std::to_string(r.binaries);
  out += ",\"nodes\":" + std::to_string(r.nodes_explored);
  out += ",\"max_depth\":" + std::to_string(r.max_depth);
  out += ",\"lp_iters\":";
  AppendU64(&out, r.lp_iterations);
  out += ",\"pruned_bound\":";
  AppendU64(&out, r.pruned_bound);
  out += ",\"pruned_parent\":";
  AppendU64(&out, r.pruned_parent);
  out += ",\"infeasible\":";
  AppendU64(&out, r.infeasible);
  out += ",\"incumbents\":";
  AppendU64(&out, r.incumbents);
  out += ",\"warm_started\":";
  AppendBool(&out, r.warm_started);
  out += ",\"root_hot_attempted\":";
  AppendBool(&out, r.root_hot_start_attempted);
  out += ",\"root_hot_started\":";
  AppendBool(&out, r.root_hot_started);
  out += ",\"root_point_crash\":";
  AppendBool(&out, r.root_point_crash);
  out += ",\"trajectory\":[";
  for (size_t i = 0; i < r.trajectory.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += "[" + std::to_string(r.trajectory[i].node_id) + "," +
           std::to_string(r.trajectory[i].depth) + ",";
    AppendNum(&out, r.trajectory[i].value);
    out += "]";
  }
  out += "]";
  if (!canonical) {
    out += ",\"ms\":";
    AppendNum(&out, r.solve_ms);
  }
  out += "}";
  return out;
}

}  // namespace

double LpSolveStats::FillRatio(uint64_t stored) const {
  const double denom =
      static_cast<double>(rows) * static_cast<double>(tableau_cols);
  return denom > 0.0 ? static_cast<double>(stored) / denom : 0.0;
}

SolveLog& SolveLog::Global() {
  static SolveLog* log = new SolveLog();  // never destroyed
  return *log;
}

void SolveLog::Enable() {
  Clear();
  enabled_.store(true, std::memory_order_relaxed);
}

void SolveLog::Disable() { enabled_.store(false, std::memory_order_relaxed); }

void SolveLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lp_records_.clear();
  bip_records_.clear();
  next_lp_id_ = 0;
  next_bip_id_ = 0;
  dropped_lp_ = 0;
  dropped_bips_ = 0;
}

void SolveLog::RecordLp(LpSolveStats stats) {
  std::lock_guard<std::mutex> lock(mu_);
  stats.id = ++next_lp_id_;
  if (lp_records_.size() >= kLpCapacity) {
    lp_records_.pop_front();
    ++dropped_lp_;
  }
  lp_records_.push_back(std::move(stats));
}

void SolveLog::RecordBip(BipSolveStats stats) {
  std::lock_guard<std::mutex> lock(mu_);
  if (bip_records_.size() >= kBipCapacity) {
    bip_records_.pop_front();
    ++dropped_bips_;
  }
  bip_records_.push_back(std::move(stats));
}

uint64_t SolveLog::NextBipId() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++next_bip_id_;
}

size_t SolveLog::lp_record_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lp_records_.size();
}

size_t SolveLog::bip_record_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bip_records_.size();
}

uint64_t SolveLog::dropped_lp_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_lp_;
}

std::vector<LpSolveStats> SolveLog::LpRecords() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<LpSolveStats>(lp_records_.begin(), lp_records_.end());
}

std::vector<BipSolveStats> SolveLog::BipRecords() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<BipSolveStats>(bip_records_.begin(), bip_records_.end());
}

std::string SolveLog::ToJson() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"dropped_lp\":";
  AppendU64(&out, dropped_lp_);
  out += ",\"dropped_bips\":";
  AppendU64(&out, dropped_bips_);
  out += ",\"lp\":[";
  for (size_t i = 0; i < lp_records_.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += RenderLp(lp_records_[i], /*canonical=*/false);
  }
  out += "],\"bips\":[";
  for (size_t i = 0; i < bip_records_.size(); ++i) {
    if (i > 0) out.push_back(',');
    out += RenderBip(bip_records_[i], /*canonical=*/false);
  }
  out += "]}";
  return out;
}

std::string SolveLog::Fingerprint() const {
  std::vector<std::string> lines;
  {
    std::lock_guard<std::mutex> lock(mu_);
    lines.reserve(lp_records_.size() + bip_records_.size());
    for (const LpSolveStats& r : lp_records_) {
      lines.push_back(RenderLp(r, /*canonical=*/true));
    }
    for (const BipSolveStats& r : bip_records_) {
      lines.push_back(RenderBip(r, /*canonical=*/true));
    }
  }
  std::sort(lines.begin(), lines.end());
  std::string out;
  for (const std::string& line : lines) {
    out += line;
    out.push_back('\n');
  }
  return out;
}

// ===========================================================================
// The run report's "explain" section.
// ===========================================================================

namespace {

void Appendf(std::string* out, const char* fmt, ...)
    __attribute__((format(printf, 2, 3)));

void Appendf(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  *out += buf;
}

std::string LpContext(const LpSolveStats& r) {
  if (r.bip_id == 0) return "standalone";
  const std::string bip = "b&b " + std::to_string(r.bip_id);
  if (r.node_id < 0) return bip + " discarded";
  if (r.node_id == 0) return bip + " root";
  return bip + " node " + std::to_string(r.node_id);
}

}  // namespace

std::string SolveLog::Explain() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out;
  if (lp_records_.empty() && bip_records_.empty()) {
    return "solve log is empty\n";
  }

  uint64_t total_iters = 0;
  uint64_t phase1_iters = 0;
  uint64_t bland_iters = 0;
  uint64_t bound_flips = 0;
  uint64_t hot_attempts = 0;
  uint64_t hot_hits = 0;
  uint64_t refactorizations = 0;
  uint64_t ft_updates = 0;
  uint64_t peak_factor_fill = 0;
  double total_ms = 0.0;
  double root_ms = 0.0;
  double tree_ms = 0.0;
  double standalone_ms = 0.0;
  for (const LpSolveStats& r : lp_records_) {
    total_iters += static_cast<uint64_t>(r.iterations);
    phase1_iters += static_cast<uint64_t>(r.phase1_iterations);
    bland_iters += static_cast<uint64_t>(r.bland_iterations);
    bound_flips += static_cast<uint64_t>(r.bound_flips);
    refactorizations += static_cast<uint64_t>(r.refactorizations);
    ft_updates += static_cast<uint64_t>(r.ft_updates);
    peak_factor_fill = std::max(peak_factor_fill, r.factor_fill);
    if (r.hot_start_attempted) ++hot_attempts;
    if (r.hot_started) ++hot_hits;
    total_ms += r.solve_ms;
    if (r.bip_id == 0) {
      standalone_ms += r.solve_ms;
    } else if (r.node_id == 0) {
      root_ms += r.solve_ms;
    } else {
      tree_ms += r.solve_ms;
    }
  }

  Appendf(&out, "== solve log ==\n");
  Appendf(&out,
          "lp solves: %zu (%llu dropped)   b&b solves: %zu\n",
          lp_records_.size(), static_cast<unsigned long long>(dropped_lp_),
          bip_records_.size());
  Appendf(&out,
          "total lp time %.2f ms over %llu simplex iterations; hot starts "
          "%llu/%llu loaded\n",
          total_ms, static_cast<unsigned long long>(total_iters),
          static_cast<unsigned long long>(hot_hits),
          static_cast<unsigned long long>(hot_attempts));

  // --- B&B tree summaries. ---
  for (const BipSolveStats& b : bip_records_) {
    Appendf(&out, "\n== b&b solve %llu [%s] ==\n",
            static_cast<unsigned long long>(b.id), b.status.c_str());
    Appendf(&out,
            "objective %.10g — %d vars (%d binary), %d rows, %llu nnz\n",
            b.objective, b.vars, b.binaries, b.rows,
            static_cast<unsigned long long>(b.nonzeros));
    Appendf(&out,
            "nodes: %d explored, max depth %d, %llu incumbents; pruned: "
            "%llu by bound + %llu by parent bound, %llu infeasible",
            b.nodes_explored, b.max_depth,
            static_cast<unsigned long long>(b.incumbents),
            static_cast<unsigned long long>(b.pruned_bound),
            static_cast<unsigned long long>(b.pruned_parent),
            static_cast<unsigned long long>(b.infeasible));
    // Explored nodes whose verdict came from a hot start's pivot row, and
    // batch relaxations solved for nodes that were never processed.
    uint64_t farkas = 0;
    uint64_t discarded = 0;
    for (const LpSolveStats& r : lp_records_) {
      if (r.bip_id != b.id) continue;
      if (r.node_id < 0) {
        ++discarded;
      } else if (r.farkas) {
        ++farkas;
      }
    }
    if (farkas > 0) {
      Appendf(&out, " (%llu by Farkas proof)",
              static_cast<unsigned long long>(farkas));
    }
    Appendf(&out, "\n");
    const char* root_hot = !b.root_hot_start_attempted ? "not attempted"
                           : b.root_hot_started        ? "hit"
                                                       : "miss";
    Appendf(&out,
            "root hot-start: %s; warm-start incumbent: %s; warm-start "
            "root crash: %s; %llu lp iterations, %.2f ms\n",
            root_hot, b.warm_started ? "yes" : "no",
            b.root_point_crash ? "yes" : "no",
            static_cast<unsigned long long>(b.lp_iterations), b.solve_ms);
    if (discarded > 0) {
      Appendf(&out,
              "%llu batch relaxations discarded (node pruned or left "
              "pending before its turn)\n",
              static_cast<unsigned long long>(discarded));
    }
    // Incumbent trajectory (first improvements tell how fast the search
    // closes in; an early near-final incumbent means pruning did the rest).
    for (size_t i = 0; i < b.trajectory.size(); ++i) {
      if (i == 8) {
        Appendf(&out, "  ... (%llu incumbent updates total)\n",
                static_cast<unsigned long long>(b.incumbents));
        break;
      }
      const BbIncumbent& step = b.trajectory[i];
      Appendf(&out, "  incumbent %.10g at node %d (depth %d)\n", step.value,
              step.node_id, step.depth);
    }
  }

  // --- Top time sinks. ---
  std::vector<const LpSolveStats*> by_ms;
  by_ms.reserve(lp_records_.size());
  for (const LpSolveStats& r : lp_records_) by_ms.push_back(&r);
  std::stable_sort(by_ms.begin(), by_ms.end(),
                   [](const LpSolveStats* a, const LpSolveStats* b) {
                     if (a->solve_ms != b->solve_ms) {
                       return a->solve_ms > b->solve_ms;
                     }
                     return a->id < b->id;
                   });
  if (!by_ms.empty()) {
    Appendf(&out, "\n== top lp time sinks ==\n");
    Appendf(&out,
            "   #        ms    iters   ph1  rows x cols           fill  "
            "context\n");
    const size_t top = std::min<size_t>(by_ms.size(), 10);
    for (size_t i = 0; i < top; ++i) {
      const LpSolveStats& r = *by_ms[i];
      Appendf(&out,
              " %3zu %9.2f %8d %5d %5dx%-6d %5.1f%%->%5.1f%%  %s\n",
              i + 1, r.solve_ms, r.iterations, r.phase1_iterations, r.rows,
              r.tableau_cols, 100.0 * r.FillRatio(r.fill_start),
              100.0 * r.FillRatio(r.fill_end), LpContext(r).c_str());
    }
  }

  // --- Time attribution. ---
  Appendf(&out, "\n== time attribution ==\n");
  const double iter_denom =
      total_iters > 0 ? static_cast<double>(total_iters) : 1.0;
  Appendf(&out,
          "by phase (iteration-weighted): phase 1 %llu iters (%.1f%%), "
          "phase 2 %llu iters (%.1f%%)\n",
          static_cast<unsigned long long>(phase1_iters),
          100.0 * static_cast<double>(phase1_iters) / iter_denom,
          static_cast<unsigned long long>(total_iters - phase1_iters),
          100.0 * static_cast<double>(total_iters - phase1_iters) /
              iter_denom);
  const double ms_denom = total_ms > 0.0 ? total_ms : 1.0;
  Appendf(&out,
          "by context: root lp %.2f ms (%.1f%%), tree nodes %.2f ms "
          "(%.1f%%), standalone %.2f ms (%.1f%%)\n",
          root_ms, 100.0 * root_ms / ms_denom, tree_ms,
          100.0 * tree_ms / ms_denom, standalone_ms,
          100.0 * standalone_ms / ms_denom);
  Appendf(&out,
          "pricing: %llu iterations under Bland's rule (%.1f%%), %llu bound "
          "flips\n",
          static_cast<unsigned long long>(bland_iters),
          100.0 * static_cast<double>(bland_iters) / iter_denom,
          static_cast<unsigned long long>(bound_flips));
  if (refactorizations + ft_updates > 0) {
    Appendf(&out,
            "basis: %llu refactorizations, %llu forrest-tomlin updates "
            "(%.1f updates per factorization); peak factor fill %llu "
            "entries\n",
            static_cast<unsigned long long>(refactorizations),
            static_cast<unsigned long long>(ft_updates),
            static_cast<double>(ft_updates) /
                static_cast<double>(
                    refactorizations > 0 ? refactorizations : 1),
            static_cast<unsigned long long>(peak_factor_fill));
  }

  // --- Fill growth of the slowest solve with a curve. ---
  const LpSolveStats* focus = nullptr;
  for (const LpSolveStats* r : by_ms) {
    if (!r->fill_curve.empty()) {
      focus = r;
      break;
    }
  }
  if (focus != nullptr) {
    Appendf(&out, "\n== fill growth (lp %llu: %d rows x %d tableau cols, "
                  "%.2f ms) ==\n",
            static_cast<unsigned long long>(focus->id), focus->rows,
            focus->tableau_cols, focus->solve_ms);
    uint64_t peak = 1;
    for (const auto& [iter, stored] : focus->fill_curve) {
      (void)iter;
      peak = std::max(peak, stored);
    }
    // At most 16 evenly spaced samples, always keeping the last.
    const size_t n = focus->fill_curve.size();
    const size_t stride = (n + 15) / 16;
    for (size_t i = 0; i < n; ++i) {
      if (i % stride != 0 && i + 1 != n) continue;
      const auto& [iter, stored] = focus->fill_curve[i];
      const int bar = static_cast<int>(
          40.0 * static_cast<double>(stored) / static_cast<double>(peak));
      Appendf(&out, "  iter %7d  stored %9llu  fill %5.1f%%  |", iter,
              static_cast<unsigned long long>(stored),
              100.0 * focus->FillRatio(stored));
      for (int k = 0; k < bar; ++k) out.push_back('#');
      out += "\n";
    }
    const double start_fill = focus->FillRatio(focus->fill_start);
    const double end_fill = focus->FillRatio(focus->fill_end);
    Appendf(&out,
            "fill grew %.1fx over the solve: %.1f%% -> %.1f%% of the "
            "tableau; longest degenerate streak %d, equilibration cond "
            "%.3g\n",
            start_fill > 0.0 ? end_fill / start_fill : 0.0,
            100.0 * start_fill, 100.0 * end_fill,
            focus->max_degenerate_streak,
            focus->equilibration_cond);
  }
  return out;
}

}  // namespace nose
