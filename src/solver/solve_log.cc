#include "solver/solve_log.h"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "obs/report.h"

namespace nose {

namespace {

/// Exact round-trip double rendering for records; non-finite values (−inf
/// parent bounds at the root, +inf "no incumbent yet") become JSON null.
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
  out += ",\"cols\":" + std::to_string(r.cols);
  out += ",\"tableau_cols\":" + std::to_string(r.tableau_cols);
  out += ",\"nnz\":";
  AppendU64(&out, r.nonzeros);
  out += ",\"iters\":" + std::to_string(r.iterations);
  out += ",\"phase1_iters\":" + std::to_string(r.phase1_iterations);
  out += ",\"devex_resets\":" + std::to_string(r.devex_resets);
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

std::string RenderNode(const BbNodeEvent& e, bool canonical) {
  std::string out = "{\"type\":\"node\"";
  if (!canonical) {
    out += ",\"bip\":";
    AppendU64(&out, e.bip_id);
  }
  out += ",\"node\":" + std::to_string(e.node_id);
  out += ",\"depth\":" + std::to_string(e.depth);
  out += ",\"action\":";
  AppendJsonString(&out, e.action);
  out += ",\"parent_bound\":";
  AppendNum(&out, e.parent_bound);
  out += ",\"lp_objective\":";
  if (e.has_lp) {
    AppendNum(&out, e.lp_objective);
  } else {
    out += "null";
  }
  out += ",\"lp_iters\":" + std::to_string(e.lp_iterations);
  out += ",\"branch_var\":" + std::to_string(e.branch_var);
  out += ",\"incumbent\":";
  AppendNum(&out, e.incumbent);
  out += "}";
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

void SolveLog::Enable(size_t max_lp_records, size_t max_node_events,
                      size_t max_bip_records) {
  std::lock_guard<std::mutex> lock(mu_);
  max_lp_ = std::max<size_t>(1, max_lp_records);
  max_nodes_ = std::max<size_t>(1, max_node_events);
  max_bips_ = std::max<size_t>(1, max_bip_records);
  lp_records_.clear();
  node_events_.clear();
  bip_records_.clear();
  next_lp_id_ = 0;
  next_bip_id_ = 0;
  dropped_lp_ = 0;
  dropped_nodes_ = 0;
  dropped_bips_ = 0;
  enabled_.store(true, std::memory_order_relaxed);
}

void SolveLog::Disable() { enabled_.store(false, std::memory_order_relaxed); }

void SolveLog::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  lp_records_.clear();
  node_events_.clear();
  bip_records_.clear();
  next_lp_id_ = 0;
  next_bip_id_ = 0;
  dropped_lp_ = 0;
  dropped_nodes_ = 0;
  dropped_bips_ = 0;
}

void SolveLog::RecordLp(LpSolveStats stats) {
  std::lock_guard<std::mutex> lock(mu_);
  stats.id = ++next_lp_id_;
  if (lp_records_.size() >= max_lp_) {
    lp_records_.pop_front();
    ++dropped_lp_;
  }
  lp_records_.push_back(std::move(stats));
}

void SolveLog::RecordNode(BbNodeEvent event) {
  std::lock_guard<std::mutex> lock(mu_);
  if (node_events_.size() >= max_nodes_) {
    node_events_.pop_front();
    ++dropped_nodes_;
  }
  node_events_.push_back(std::move(event));
}

void SolveLog::RecordBip(BipSolveStats stats) {
  std::lock_guard<std::mutex> lock(mu_);
  if (bip_records_.size() >= max_bips_) {
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

size_t SolveLog::node_event_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return node_events_.size();
}

size_t SolveLog::bip_record_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bip_records_.size();
}

uint64_t SolveLog::dropped_lp_records() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_lp_;
}

uint64_t SolveLog::dropped_node_events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return dropped_nodes_;
}

std::vector<LpSolveStats> SolveLog::LpRecords() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<LpSolveStats>(lp_records_.begin(), lp_records_.end());
}

std::vector<BipSolveStats> SolveLog::BipRecords() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<BipSolveStats>(bip_records_.begin(), bip_records_.end());
}

std::string SolveLog::ToJsonl() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::string out = "{\"type\":\"meta\",\"version\":1,\"lp_records\":";
  AppendU64(&out, lp_records_.size());
  out += ",\"node_events\":";
  AppendU64(&out, node_events_.size());
  out += ",\"bip_records\":";
  AppendU64(&out, bip_records_.size());
  out += ",\"dropped_lp\":";
  AppendU64(&out, dropped_lp_);
  out += ",\"dropped_nodes\":";
  AppendU64(&out, dropped_nodes_);
  out += ",\"dropped_bips\":";
  AppendU64(&out, dropped_bips_);
  out += "}\n";
  for (const LpSolveStats& r : lp_records_) {
    out += RenderLp(r, /*canonical=*/false);
    out.push_back('\n');
  }
  for (const BbNodeEvent& e : node_events_) {
    out += RenderNode(e, /*canonical=*/false);
    out.push_back('\n');
  }
  for (const BipSolveStats& r : bip_records_) {
    out += RenderBip(r, /*canonical=*/false);
    out.push_back('\n');
  }
  return out;
}

bool SolveLog::WriteJsonl(const std::string& path, std::string* error) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  out << ToJsonl();
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "write to " + path + " failed";
    return false;
  }
  return true;
}

std::string SolveLog::Fingerprint() const {
  std::vector<std::string> lines;
  {
    std::lock_guard<std::mutex> lock(mu_);
    lines.reserve(lp_records_.size() + node_events_.size() +
                  bip_records_.size());
    for (const LpSolveStats& r : lp_records_) {
      lines.push_back(RenderLp(r, /*canonical=*/true));
    }
    for (const BbNodeEvent& e : node_events_) {
      lines.push_back(RenderNode(e, /*canonical=*/true));
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
// JSONL reader (`nose explain`).
// ===========================================================================

namespace {

/// Minimal recursive-descent JSON value parser — just enough for the solve
/// log's own output (objects, arrays, strings, numbers, bools, null). The
/// repo deliberately carries no JSON library; this stays private to the
/// solve-log reader.
struct JsonValue {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<JsonValue> items;
  std::vector<std::pair<std::string, JsonValue>> fields;

  const JsonValue* Find(const char* key) const {
    for (const auto& [k, v] : fields) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  double Num(const char* key, double def) const {
    const JsonValue* v = Find(key);
    return (v != nullptr && v->kind == Kind::kNumber) ? v->number : def;
  }
  int Int(const char* key, int def) const {
    return static_cast<int>(Num(key, def));
  }
  uint64_t U64(const char* key, uint64_t def) const {
    const JsonValue* v = Find(key);
    return (v != nullptr && v->kind == Kind::kNumber)
               ? static_cast<uint64_t>(v->number)
               : def;
  }
  bool Bool(const char* key, bool def) const {
    const JsonValue* v = Find(key);
    return (v != nullptr && v->kind == Kind::kBool) ? v->boolean : def;
  }
  std::string Str(const char* key) const {
    const JsonValue* v = Find(key);
    return (v != nullptr && v->kind == Kind::kString) ? v->str : std::string();
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  bool Parse(JsonValue* out) {
    SkipWs();
    if (!ParseValue(out)) return false;
    SkipWs();
    return pos_ == text_.size();
  }

 private:
  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Literal(const char* lit) {
    const size_t n = std::strlen(lit);
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  bool ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') return false;
    ++pos_;
    out->clear();
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\') {
        if (pos_ >= text_.size()) return false;
        const char esc = text_[pos_++];
        switch (esc) {
          case '"': out->push_back('"'); break;
          case '\\': out->push_back('\\'); break;
          case '/': out->push_back('/'); break;
          case 'n': out->push_back('\n'); break;
          case 'r': out->push_back('\r'); break;
          case 't': out->push_back('\t'); break;
          case 'u': {
            if (pos_ + 4 > text_.size()) return false;
            const unsigned long code =
                std::strtoul(text_.substr(pos_, 4).c_str(), nullptr, 16);
            pos_ += 4;
            // The writer only escapes control bytes, so ASCII suffices.
            out->push_back(static_cast<char>(code & 0x7f));
            break;
          }
          default:
            return false;
        }
      } else {
        out->push_back(c);
      }
    }
    if (pos_ >= text_.size()) return false;
    ++pos_;  // closing quote
    return true;
  }

  bool ParseValue(JsonValue* out) {
    SkipWs();
    if (pos_ >= text_.size()) return false;
    const char c = text_[pos_];
    if (c == '{') {
      ++pos_;
      out->kind = JsonValue::Kind::kObject;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return true;
      }
      while (true) {
        SkipWs();
        std::string key;
        if (!ParseString(&key)) return false;
        SkipWs();
        if (pos_ >= text_.size() || text_[pos_] != ':') return false;
        ++pos_;
        JsonValue value;
        if (!ParseValue(&value)) return false;
        out->fields.emplace_back(std::move(key), std::move(value));
        SkipWs();
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == '}') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '[') {
      ++pos_;
      out->kind = JsonValue::Kind::kArray;
      SkipWs();
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return true;
      }
      while (true) {
        JsonValue value;
        if (!ParseValue(&value)) return false;
        out->items.push_back(std::move(value));
        SkipWs();
        if (pos_ >= text_.size()) return false;
        if (text_[pos_] == ',') {
          ++pos_;
          continue;
        }
        if (text_[pos_] == ']') {
          ++pos_;
          return true;
        }
        return false;
      }
    }
    if (c == '"') {
      out->kind = JsonValue::Kind::kString;
      return ParseString(&out->str);
    }
    if (c == 't') {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = true;
      return Literal("true");
    }
    if (c == 'f') {
      out->kind = JsonValue::Kind::kBool;
      out->boolean = false;
      return Literal("false");
    }
    if (c == 'n') {
      out->kind = JsonValue::Kind::kNull;
      return Literal("null");
    }
    // Number.
    const char* start = text_.c_str() + pos_;
    char* end = nullptr;
    const double v = std::strtod(start, &end);
    if (end == start) return false;
    pos_ += static_cast<size_t>(end - start);
    out->kind = JsonValue::Kind::kNumber;
    out->number = v;
    return true;
  }

  const std::string& text_;
  size_t pos_ = 0;
};

double NumOrInf(const JsonValue& obj, const char* key, double inf_value) {
  const JsonValue* v = obj.Find(key);
  if (v == nullptr || v->kind != JsonValue::Kind::kNumber) return inf_value;
  return v->number;
}

}  // namespace

bool ParseSolveLogJsonl(const std::string& text, SolveLogData* out,
                        std::string* error) {
  *out = SolveLogData();
  std::istringstream stream(text);
  std::string line;
  size_t line_no = 0;
  while (std::getline(stream, line)) {
    ++line_no;
    if (line.empty() ||
        line.find_first_not_of(" \t\r") == std::string::npos) {
      continue;
    }
    JsonValue value;
    JsonParser parser(line);
    if (!parser.Parse(&value) || value.kind != JsonValue::Kind::kObject) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": malformed JSON";
      }
      return false;
    }
    const std::string type = value.Str("type");
    if (type == "meta") {
      out->dropped_lp = value.U64("dropped_lp", 0);
      out->dropped_nodes = value.U64("dropped_nodes", 0);
      out->dropped_bips = value.U64("dropped_bips", 0);
    } else if (type == "lp") {
      LpSolveStats r;
      r.id = value.U64("id", 0);
      r.bip_id = value.U64("bip", 0);
      r.node_id = value.Int("node", -1);
      r.status = value.Str("status");
      r.rows = value.Int("rows", 0);
      r.cols = value.Int("cols", 0);
      r.tableau_cols = value.Int("tableau_cols", 0);
      r.nonzeros = value.U64("nnz", 0);
      r.iterations = value.Int("iters", 0);
      r.phase1_iterations = value.Int("phase1_iters", 0);
      r.devex_resets = value.Int("devex_resets", 0);
      r.bland_iterations = value.Int("bland_iters", 0);
      r.bound_flips = value.Int("bound_flips", 0);
      r.max_degenerate_streak = value.Int("max_degen_streak", 0);
      r.fill_start = value.U64("fill_start", 0);
      r.fill_end = value.U64("fill_end", 0);
      r.refactorizations = value.Int("refactorizations", 0);
      r.ft_updates = value.Int("ft_updates", 0);
      r.factor_fill = value.U64("factor_fill", 0);
      r.equilibration_cond = value.Num("equil_cond", 1.0);
      r.hot_start_attempted = value.Bool("hot_attempted", false);
      r.hot_started = value.Bool("hot_started", false);
      r.farkas = value.Bool("farkas", false);
      r.solve_ms = value.Num("ms", 0.0);
      const JsonValue* curve = value.Find("fill_curve");
      if (curve != nullptr && curve->kind == JsonValue::Kind::kArray) {
        for (const JsonValue& sample : curve->items) {
          if (sample.kind == JsonValue::Kind::kArray &&
              sample.items.size() == 2) {
            r.fill_curve.emplace_back(
                static_cast<int>(sample.items[0].number),
                static_cast<uint64_t>(sample.items[1].number));
          }
        }
      }
      out->lp.push_back(std::move(r));
    } else if (type == "node") {
      BbNodeEvent e;
      e.bip_id = value.U64("bip", 0);
      e.node_id = value.Int("node", -1);
      e.depth = value.Int("depth", 0);
      e.action = value.Str("action");
      e.parent_bound =
          NumOrInf(value, "parent_bound",
                   -std::numeric_limits<double>::infinity());
      const JsonValue* obj = value.Find("lp_objective");
      e.has_lp = obj != nullptr && obj->kind == JsonValue::Kind::kNumber;
      if (e.has_lp) e.lp_objective = obj->number;
      e.lp_iterations = value.Int("lp_iters", 0);
      e.branch_var = value.Int("branch_var", -1);
      e.incumbent = NumOrInf(value, "incumbent",
                             std::numeric_limits<double>::infinity());
      out->nodes.push_back(std::move(e));
    } else if (type == "bip") {
      BipSolveStats r;
      r.id = value.U64("id", 0);
      r.status = value.Str("status");
      r.objective = value.Num("objective", 0.0);
      r.vars = value.Int("vars", 0);
      r.rows = value.Int("rows", 0);
      r.nonzeros = value.U64("nnz", 0);
      r.binaries = value.Int("binaries", 0);
      r.nodes_explored = value.Int("nodes", 0);
      r.max_depth = value.Int("max_depth", 0);
      r.lp_iterations = value.U64("lp_iters", 0);
      r.pruned_bound = value.U64("pruned_bound", 0);
      r.pruned_parent = value.U64("pruned_parent", 0);
      r.infeasible = value.U64("infeasible", 0);
      r.incumbents = value.U64("incumbents", 0);
      r.warm_started = value.Bool("warm_started", false);
      r.root_hot_start_attempted = value.Bool("root_hot_attempted", false);
      r.root_hot_started = value.Bool("root_hot_started", false);
      r.solve_ms = value.Num("ms", 0.0);
      out->bips.push_back(std::move(r));
    }
    // Unknown types are skipped: newer writers may add record kinds.
  }
  return true;
}

bool ReadSolveLog(const std::string& path, SolveLogData* out,
                  std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseSolveLogJsonl(buffer.str(), out, error);
}

// ===========================================================================
// `nose explain` renderer.
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

std::string ExplainSolveLog(const SolveLogData& data) {
  std::string out;
  if (data.lp.empty() && data.nodes.empty() && data.bips.empty()) {
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
  for (const LpSolveStats& r : data.lp) {
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
          "lp solves: %zu (%llu dropped)   b&b solves: %zu   node events: "
          "%zu (%llu dropped)\n",
          data.lp.size(), static_cast<unsigned long long>(data.dropped_lp),
          data.bips.size(), data.nodes.size(),
          static_cast<unsigned long long>(data.dropped_nodes));
  Appendf(&out,
          "total lp time %.2f ms over %llu simplex iterations; hot starts "
          "%llu/%llu loaded\n",
          total_ms, static_cast<unsigned long long>(total_iters),
          static_cast<unsigned long long>(hot_hits),
          static_cast<unsigned long long>(hot_attempts));

  // --- B&B tree summaries. ---
  for (const BipSolveStats& b : data.bips) {
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
    for (const LpSolveStats& r : data.lp) {
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
            "root hot-start: %s; warm-start incumbent: %s; %llu lp "
            "iterations, %.2f ms\n",
            root_hot, b.warm_started ? "yes" : "no",
            static_cast<unsigned long long>(b.lp_iterations), b.solve_ms);
    if (discarded > 0) {
      Appendf(&out,
              "%llu batch relaxations discarded (node pruned or left "
              "pending before its turn)\n",
              static_cast<unsigned long long>(discarded));
    }
    // Incumbent trajectory (first improvements tell how fast the search
    // closes in; an early near-final incumbent means pruning did the rest).
    int shown = 0;
    for (const BbNodeEvent& e : data.nodes) {
      if (e.bip_id != b.id || e.action != "incumbent") continue;
      if (shown == 8) {
        Appendf(&out, "  ... (%llu incumbent updates total)\n",
                static_cast<unsigned long long>(b.incumbents));
        break;
      }
      Appendf(&out, "  incumbent %.10g at node %d (depth %d)\n", e.incumbent,
              e.node_id, e.depth);
      ++shown;
    }
  }

  // --- Top time sinks. ---
  std::vector<const LpSolveStats*> by_ms;
  by_ms.reserve(data.lp.size());
  for (const LpSolveStats& r : data.lp) by_ms.push_back(&r);
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
