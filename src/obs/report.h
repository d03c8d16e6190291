#ifndef NOSE_OBS_REPORT_H_
#define NOSE_OBS_REPORT_H_

#include <string>
#include <utility>
#include <vector>

namespace nose {
namespace obs {

/// Appends `s` as a JSON string literal: quotes and backslashes escaped,
/// \n \r \t in short form, other control bytes as \u00XX. The one escaper
/// behind every hand-rolled JSON writer (trace, run report, solve log).
void AppendJsonString(std::string* out, const std::string& s);

/// Builder for the unified machine-readable run report emitted by
/// `nose advise/check/evolve/serve --report-json`:
///
///   {"report_version":1,"command":"advise",
///    <scalar fields in insertion order>,
///    "phases":{"<name>_seconds":t,...},
///    <sections in insertion order, e.g. "digest":{...},
///     "solve_log":{...},"explain":"...","metrics":{...}>}
///
/// The report is the one machine-readable record of a run: the metrics
/// snapshot, the solve log and its rendered diagnosis are sections of it,
/// not files of their own. The obs layer sits below the solver and
/// optimizer in the link order, so the structured sections are passed in
/// as pre-rendered JSON strings by the CLI; this class only assembles and
/// validates nothing.
class RunReport {
 public:
  explicit RunReport(std::string command) : command_(std::move(command)) {}

  /// Adds "<name>_seconds": seconds under "phases" (insertion order).
  void AddPhase(const std::string& name, double seconds);

  /// Top-level scalar fields, emitted in insertion order after "command".
  void AddString(const std::string& key, const std::string& value);
  void AddNumber(const std::string& key, double value);

  /// A pre-rendered JSON value under `key`, emitted after "phases" in
  /// insertion order. An empty `json` omits the section.
  void AddSection(const std::string& key, std::string json);

  std::string ToJson() const;
  bool WriteJson(const std::string& path, std::string* error = nullptr) const;

 private:
  std::string command_;
  std::vector<std::pair<std::string, double>> phases_;
  /// (key, rendered JSON value) — strings arrive pre-escaped by AddString.
  std::vector<std::pair<std::string, std::string>> fields_;
  std::vector<std::pair<std::string, std::string>> sections_;
};

}  // namespace obs
}  // namespace nose

#endif  // NOSE_OBS_REPORT_H_
