// End-to-end tests of the `nose` binary: exit codes, the telemetry files
// every run command writes (trace, metrics, solve log, run report), the
// run-report key layout of advise/check/evolve/serve, the serve digest's
// thread-count independence, and rejection of malformed numeric flags.
// Every command runs from the source root so workload paths in reports
// read as they do in the docs. No assertion depends on timing.

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace {

struct RunResult {
  int exit_code = -1;
  std::string output;
};

/// Runs `nose ARGS` in the source root. Captures stdout, plus stderr when
/// `with_stderr`; a signal death reports as 128 + signal, like a shell.
RunResult Nose(const std::string& args, bool with_stderr = false) {
  const std::string command = std::string("cd '") + NOSE_SOURCE_DIR +
                              "' && '" + NOSE_BINARY + "' " + args +
                              (with_stderr ? " 2>&1" : " 2>/dev/null");
  RunResult result;
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[4096];
  size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    result.output.append(buf, n);
  }
  const int status = pclose(pipe);
  if (WIFEXITED(status)) {
    result.exit_code = WEXITSTATUS(status);
  } else if (WIFSIGNALED(status)) {
    result.exit_code = 128 + WTERMSIG(status);
  }
  return result;
}

/// A fresh scratch directory per test (tests run as parallel processes).
std::string ScratchDir() {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir = ::testing::TempDir() + "/nose_cli_" + info->name() +
                          "_" + std::to_string(getpid());
  std::filesystem::create_directories(dir);
  return dir;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Splits a JSON object into its top-level (key, raw value text) pairs in
/// document order. Enough JSON for the run report: strings, nesting.
std::vector<std::pair<std::string, std::string>> TopLevel(
    const std::string& json) {
  std::vector<std::pair<std::string, std::string>> fields;
  int depth = 0;
  bool in_string = false;
  std::string key;
  size_t value_start = std::string::npos;
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') {
      if (depth == 1 && value_start == std::string::npos) {
        const size_t end = json.find('"', i + 1);
        key = json.substr(i + 1, end - i - 1);
        i = json.find(':', end);
        value_start = i + 1;
        continue;
      }
      in_string = true;
    } else if (c == '{' || c == '[') {
      ++depth;
    } else if (c == '}' || c == ']' || c == ',') {
      if (c != ',') --depth;
      if (depth == (c == ',' ? 1 : 0) && value_start != std::string::npos) {
        fields.emplace_back(key, json.substr(value_start, i - value_start));
        value_start = std::string::npos;
      }
    }
  }
  return fields;
}

std::vector<std::string> Keys(const std::string& json) {
  std::vector<std::string> keys;
  for (const auto& [key, value] : TopLevel(json)) keys.push_back(key);
  return keys;
}

std::string Value(const std::string& json, const std::string& key) {
  for (const auto& [k, value] : TopLevel(json)) {
    if (k == key) return value;
  }
  return "";
}

size_t Count(const std::string& text, const std::string& needle) {
  size_t count = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + needle.size())) {
    ++count;
  }
  return count;
}

const std::string kHotel =
    "--model workloads/hotel.model --workload workloads/hotel.workload";
const std::string kRubis =
    "--model workloads/rubis.model --workload workloads/rubis.workload";
const std::string kScenario = "--scenario workloads/rubis_drift.scenario";

TEST(CliTest, LintOnBrokenInputExitsOne) {
  const RunResult r = Nose(
      "lint --model workloads/broken.model "
      "--workload workloads/broken.workload");
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("3 error(s)"), std::string::npos) << r.output;
}

TEST(CliTest, UnknownFlagExitsTwo) {
  EXPECT_EQ(Nose("advise " + kHotel + " --bogus").exit_code, 2);
  EXPECT_EQ(Nose("check " + kHotel + " --bogus 1").exit_code, 2);
  EXPECT_EQ(Nose("evolve " + kScenario + " --bogus 1").exit_code, 2);
  EXPECT_EQ(Nose("serve " + kScenario + " --bogus 1").exit_code, 2);
  EXPECT_EQ(Nose("lint " + kHotel + " --trace t.json").exit_code, 2);
  EXPECT_EQ(Nose("evolve " + kScenario + " --report r.json").exit_code, 2);
  // The BIP is the only selection solver; there is no solver choice.
  EXPECT_EQ(Nose("advise " + kHotel + " --strategy bip").exit_code, 2);
  EXPECT_EQ(Nose("frobnicate").exit_code, 2);
}

TEST(CliTest, CheckOnHotelIsVerified) {
  const RunResult r = Nose("check " + kHotel);
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("VERIFIED"), std::string::npos) << r.output;
}

TEST(CliTest, EveryRunCommandWritesItsTelemetry) {
  const std::string dir = ScratchDir();
  const std::vector<std::pair<std::string, std::string>> runs = {
      {"advise", "advise " + kHotel},
      {"check", "check " + kHotel},
      {"evolve", "evolve " + kScenario},
      {"serve", "serve " + kScenario + " --threads 2"},
  };
  for (const auto& [name, run] : runs) {
    SCOPED_TRACE(name);
    const std::string trace = dir + "/" + name + ".trace.json";
    const std::string metrics = dir + "/" + name + ".metrics.json";
    const std::string solve_log = dir + "/" + name + ".slog";
    ASSERT_EQ(Nose(run + " --trace " + trace + " --metrics " + metrics +
                   " --solve-log " + solve_log)
                  .exit_code,
              0);
    EXPECT_NE(ReadFile(trace).find("\"traceEvents\""), std::string::npos);
    EXPECT_EQ(ReadFile(metrics).rfind('{', 0), 0u);
    EXPECT_FALSE(ReadFile(solve_log).empty());
    const RunResult explain = Nose("explain " + solve_log);
    EXPECT_EQ(explain.exit_code, 0);
    EXPECT_FALSE(explain.output.empty());
  }
}

TEST(CliTest, PromMetricsFormat) {
  const std::string dir = ScratchDir();
  ASSERT_EQ(Nose("advise " + kHotel + " --metrics " + dir +
                 "/m.prom --metrics-format prom")
                .exit_code,
            0);
  EXPECT_NE(ReadFile(dir + "/m.prom").find("# EOF"), std::string::npos);
  EXPECT_EQ(Nose("advise " + kHotel + " --metrics-format xml").exit_code, 2);
}

TEST(CliTest, ReportJsonKeysPerCommand) {
  const std::string dir = ScratchDir();
  ASSERT_EQ(Nose("advise " + kHotel + " --report-json " + dir + "/a.json")
                .exit_code,
            0);
  ASSERT_EQ(Nose("check " + kHotel + " --report-json " + dir + "/c.json")
                .exit_code,
            0);
  ASSERT_EQ(Nose("evolve " + kScenario + " --report-json " + dir + "/e.json")
                .exit_code,
            0);
  ASSERT_EQ(Nose("serve " + kScenario + " --threads 2 --report-json " + dir +
                 "/s.json")
                .exit_code,
            0);
  const std::string advise = ReadFile(dir + "/a.json");
  const std::string check = ReadFile(dir + "/c.json");
  const std::string evolve = ReadFile(dir + "/e.json");
  const std::string serve = ReadFile(dir + "/s.json");

  using Names = std::vector<std::string>;
  EXPECT_EQ(Keys(advise),
            (Names{"report_version", "command", "model", "workload", "phases",
                   "digest", "metrics"}));
  EXPECT_EQ(Keys(check),
            (Names{"report_version", "command", "instance", "errors",
                   "warnings", "phases", "digest", "metrics"}));
  EXPECT_EQ(Keys(evolve),
            (Names{"report_version", "command", "scenario", "mode",
                   "transactions", "statements", "re_advises_incremental",
                   "re_advises_cold", "no_op_readvises", "last_drift",
                   "migrations", "invariant_violations", "forecast_residual",
                   "realized_store_ms", "phases", "migration_records",
                   "metrics"}));
  EXPECT_EQ(Keys(serve),
            (Names{"report_version", "command", "scenario", "threads",
                   "streams", "transactions", "statements", "migrations",
                   "p50_before_ms", "p95_before_ms", "p99_before_ms",
                   "p50_during_ms", "p95_during_ms", "p99_during_ms",
                   "p50_after_ms", "p95_after_ms", "p99_after_ms", "advises",
                   "advise_deadline_misses", "migration_rows_dropped",
                   "migration_verify_retries", "realized_store_ms", "phases",
                   "digest", "metrics"}));

  // check and advise share one phase list.
  EXPECT_EQ(Keys(Value(check, "phases")),
            (Names{"enumeration_seconds", "cost_calculation_seconds",
                   "bip_construction_seconds", "bip_solve_seconds",
                   "cost_solve_seconds", "size_solve_seconds",
                   "other_seconds", "total_seconds"}));
  EXPECT_EQ(Keys(Value(check, "phases")), Keys(Value(advise, "phases")));

  EXPECT_EQ(Value(advise, "command"), "\"advise\"");
  EXPECT_EQ(Value(check, "errors"), "0");
  EXPECT_EQ(Value(evolve, "mode"), "\"reactive\"");
  // One record per executed migration.
  EXPECT_EQ(std::to_string(Count(Value(evolve, "migration_records"),
                                 "\"started_at\"")),
            Value(evolve, "migrations"));
  EXPECT_EQ(Value(serve, "threads"), "2");
}

TEST(CliTest, EvolveHorizonReportCarriesTheSchedule) {
  const std::string dir = ScratchDir();
  // The bundled scenario with free migrations, so the joint plan switches
  // schemas at the phase boundary and the schedule has a transition.
  std::string scenario = ReadFile(std::string(NOSE_SOURCE_DIR) +
                                  "/workloads/rubis_drift.scenario");
  scenario += "\nmigration-weight 0\n";
  std::ofstream(dir + "/free.scenario") << scenario;
  ASSERT_EQ(Nose("evolve --scenario " + dir + "/free.scenario --horizon " +
                 "--report-json " + dir + "/h.json")
                .exit_code,
            0);
  const std::string report = ReadFile(dir + "/h.json");
  EXPECT_EQ(Value(report, "mode"), "\"planned\"");
  EXPECT_GE(std::stod(Value(report, "planned_windows")), 2.0);
  const std::string transitions = Value(report, "planned_transitions");
  EXPECT_EQ(transitions.rfind("[{\"at_window\":", 0), 0u) << transitions;
  for (const char* key : {"planned_execution_objective",
                          "planned_migration_objective",
                          "planned_total_objective"}) {
    EXPECT_FALSE(Value(report, key).empty()) << key;
  }
  EXPECT_NE(Value(report, "migration_records").find("\"planned\":true"),
            std::string::npos);
}

TEST(CliTest, ServeDigestIsThreadCountIndependent) {
  const std::string dir = ScratchDir();
  ASSERT_EQ(Nose("serve " + kScenario + " --threads 1 --report-json " + dir +
                 "/t1.json")
                .exit_code,
            0);
  ASSERT_EQ(Nose("serve " + kScenario + " --threads 4 --report-json " + dir +
                 "/t4.json")
                .exit_code,
            0);
  const std::string t1 = Value(ReadFile(dir + "/t1.json"), "digest");
  EXPECT_NE(t1.find("\"store_digest\""), std::string::npos) << t1;
  EXPECT_EQ(t1, Value(ReadFile(dir + "/t4.json"), "digest"));
}

TEST(CliTest, MalformedNumericFlagsExitTwo) {
  const std::vector<std::string> runs = {
      "serve " + kScenario + " --threads abc",
      "serve " + kScenario + " --threads -1",
      "serve " + kScenario + " --threads 0",
      "serve " + kScenario + " --threads 2.5",
      "serve " + kScenario + " --streams 0",
      "serve " + kScenario + " --stripes -1",
      "serve " + kScenario + " --migration-threads x",
      "serve " + kScenario + " --rate -5",
      "serve " + kScenario + " --rate 5tps",
      "serve " + kScenario + " --advise-deadline -1",
      "advise " + kHotel + " --threads abc",
      "advise " + kHotel + " --threads 0",
      "advise " + kHotel + " --solve-budget 0",
      "advise " + kHotel + " --space-limit-mb banana",
      "check " + kHotel + " --threads -2",
      "check " + kHotel + " --solve-budget nan",
  };
  for (const std::string& run : runs) {
    const RunResult r = Nose(run, /*with_stderr=*/true);
    EXPECT_EQ(r.exit_code, 2) << run << "\n" << r.output;
    EXPECT_NE(r.output.find("error: flag '"), std::string::npos)
        << run << "\n" << r.output;
  }
}

TEST(CliTest, ZeroRateAndDeadlineMeanUnpacedAndUnbudgeted) {
  EXPECT_EQ(Nose("serve " + kScenario +
                 " --threads 2 --rate 0 --advise-deadline 0")
                .exit_code,
            0);
}

TEST(CliTest, AdviseUnknownMixNamesTheAvailableOnes) {
  const RunResult r = Nose("advise " + kRubis + " --mix nope", true);
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("browsing"), std::string::npos) << r.output;
  EXPECT_EQ(Nose("check " + kRubis + " --mix nope").exit_code, 1);
}

}  // namespace
