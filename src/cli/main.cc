// The NoSE command-line tool: the schema advisor as the paper envisions it
// being used — point it at a conceptual model and a workload, get back a
// schema and per-statement implementation plans.
//
//   nose advise --model hotel.model --workload hotel.workload
//        [--mix NAME] [--space-limit-mb N] [--format text|cql]
//        [--strategy auto|bip|comb] [--solve-budget SECONDS] [--verify]
//        [--threads N] [--trace FILE] [--metrics FILE]
//   nose check  --model hotel.model --workload hotel.workload
//        [--mix NAME] [--certificate FILE] [--solve-budget SECONDS]
//        [--threads N]
//   nose check  --verify-certificate FILE
//   nose lint   --model hotel.model --workload hotel.workload
//
// File formats: the entity-graph DSL (see ParseModel) and the ';'-separated
// workload statement language (see ParseWorkload).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "advisor/advisor.h"
#include "analysis/certify.h"
#include "analysis/invariants.h"
#include "analysis/lint.h"
#include "evolve/driver.h"
#include "solver/certificate.h"
#include "evolve/scenario.h"
#include "export/cql.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "parser/model_parser.h"
#include "parser/workload_parser.h"
#include "serve/serve.h"
#include "solver/solve_log.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  nose advise --model FILE --workload FILE [options]\n"
               "  nose check  --model FILE --workload FILE [options]\n"
               "  nose check  --verify-certificate FILE\n"
               "  nose lint   --model FILE --workload FILE\n"
               "  nose evolve --scenario FILE [--horizon] [--report FILE]\n"
               "  nose serve  --scenario FILE [--threads N] [--rate TPS]\n"
               "  nose explain SOLVE_LOG\n"
               "common options (advise, check, evolve):\n"
               "  --solve-log FILE      record per-LP and branch-and-bound\n"
               "                        telemetry and write it as JSONL "
               "(inspect\n"
               "                        with 'nose explain FILE')\n"
               "  --report-json FILE    write a machine-readable run report\n"
               "                        (phase timings, solver stats, metrics\n"
               "                        snapshot, recommendation digest)\n"
               "  --metrics-format FMT  json (default) or prom (OpenMetrics "
               "text)\n"
               "                        for the --metrics snapshot\n"
               "options (check):\n"
               "  --mix NAME            workload mix to check "
               "(default: 'default')\n"
               "  --certificate FILE    write the solve certificate for an\n"
               "                        independent re-verification\n"
               "  --verify-certificate FILE  re-verify a written certificate "
               "in exact\n"
               "                        arithmetic (no model/workload needed)\n"
               "  --solve-budget SECS   time budget for the solver\n"
               "  --threads N           worker threads for the advisor "
               "pipeline\n"
               "options (evolve):\n"
               "  --scenario FILE       drift scenario (see "
               "workloads/rubis_drift.scenario)\n"
               "  --horizon             plan the whole horizon up front "
               "(multi-period\n"
               "                        BIP; migrate at planned phase "
               "boundaries instead\n"
               "                        of on drift triggers; same as "
               "'mode planned')\n"
               "  --report FILE         write a JSON migration report\n"
               "options (serve):\n"
               "  --scenario FILE       drift scenario to replay concurrently\n"
               "  --threads N           driver worker threads (default 4)\n"
               "  --streams N           fixed logical client streams "
               "(default 8;\n"
               "                        final store content is identical at "
               "any\n"
               "                        thread count for a given stream "
               "count)\n"
               "  --rate TPS            target aggregate transactions/second\n"
               "                        (default: unpaced)\n"
               "  --stripes N           store hash stripes per column family\n"
               "  --migration-threads N backfill workers for live migrations\n"
               "  --advise-deadline SECS  anytime budget for each boundary\n"
               "                        re-advise (0 = unbudgeted)\n"
               "options (advise):\n"
               "  --mix NAME            workload mix to advise for "
               "(default: 'default')\n"
               "  --all-mixes           advise every mix, sharing the "
               "candidate pool\n"
               "                        and plan spaces across mixes with "
               "the same\n"
               "                        statement set (same output as "
               "per-mix runs)\n"
               "  --space-limit-mb N    storage budget in megabytes\n"
               "  --format text|cql     output format (default text)\n"
               "  --strategy auto|bip|comb  candidate-selection solver\n"
               "  --solve-budget SECS   time budget for the solver\n"
               "  --threads N           worker threads for the advisor "
               "pipeline\n"
               "                        (default: hardware cores; same "
               "recommendation\n"
               "                        at any value)\n"
               "  --verify              audit the recommendation against the\n"
               "                        workload invariants before printing\n"
               "  --trace FILE          write a Chrome trace_event JSON "
               "timeline\n"
               "                        (chrome://tracing / Perfetto; env "
               "NOSE_TRACE\n"
               "                        is the fallback when the flag is "
               "absent)\n"
               "  --metrics FILE        write a JSON snapshot of pipeline "
               "counters\n");
  return 2;
}

nose::StatusOr<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) return nose::Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Parses "--flag value" / bare boolean "--flag" argument lists against the
/// command's allowed flag sets. Rejects unknown flags and value flags with
/// a missing value instead of silently dropping them.
bool ParseArgs(int argc, char** argv, int start,
               const std::set<std::string>& value_flags,
               const std::set<std::string>& bool_flags,
               std::map<std::string, std::string>* args) {
  for (int i = start; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) {
      std::fprintf(stderr, "error: expected a --flag, got '%s'\n",
                   flag.c_str());
      return false;
    }
    if (bool_flags.count(flag) > 0) {
      (*args)[flag] = "true";
      continue;
    }
    if (value_flags.count(flag) == 0) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", flag.c_str());
      return false;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "error: flag '%s' needs a value\n", flag.c_str());
      return false;
    }
    (*args)[flag] = argv[++i];
  }
  return true;
}

/// Parses a strictly positive double flag value; nullopt-style failure
/// reports through the return code.
bool ParsePositiveDouble(const std::string& flag, const std::string& text,
                         double* out) {
  try {
    size_t used = 0;
    *out = std::stod(text, &used);
    if (used != text.size() || !(*out > 0.0)) throw std::invalid_argument(text);
  } catch (...) {
    std::fprintf(stderr, "error: flag '%s' needs a positive number, got '%s'\n",
                 flag.c_str(), text.c_str());
    return false;
  }
  return true;
}

/// Validates --metrics-format (defaulting to "json" when absent).
bool MetricsFormat(std::map<std::string, std::string>& args,
                   std::string* format) {
  *format = args.count("--metrics-format") > 0 ? args["--metrics-format"]
                                               : "json";
  if (*format != "json" && *format != "prom") {
    std::fprintf(stderr, "error: unknown metrics format '%s' (json|prom)\n",
                 format->c_str());
    return false;
  }
  return true;
}

/// Writes the metrics snapshot in the requested format.
bool WriteMetricsSnapshot(const std::string& path, const std::string& format) {
  std::string error;
  const bool ok =
      format == "prom"
          ? nose::obs::MetricsRegistry::Global().WriteOpenMetrics(path, &error)
          : nose::obs::MetricsRegistry::Global().WriteJson(path, &error);
  if (!ok) {
    std::fprintf(stderr, "error: cannot write metrics: %s\n", error.c_str());
    return false;
  }
  std::fprintf(stderr, "wrote metrics to %s\n", path.c_str());
  return true;
}

/// Exports the solver telemetry JSONL when --solve-log was given (the log
/// itself was enabled before the run).
bool WriteSolveLogIfRequested(std::map<std::string, std::string>& args) {
  if (args.count("--solve-log") == 0) return true;
  std::string error;
  if (!nose::SolveLog::Global().WriteJsonl(args["--solve-log"], &error)) {
    std::fprintf(stderr, "error: cannot write solve log: %s\n", error.c_str());
    return false;
  }
  std::fprintf(stderr, "wrote solve log to %s\n", args["--solve-log"].c_str());
  return true;
}

/// Writes the evolve report as JSON (hand-rolled like the metrics export;
/// all fields are counts or finite doubles). In planned mode the report
/// carries the horizon schedule's objectives next to the realized store
/// cost so the planned-vs-reactive comparison reads straight off the file.
bool WriteEvolveReport(const std::string& path,
                       nose::evolve::DriftRunner& runner) {
  const nose::evolve::EvolveReport& report = runner.report();
  const nose::HorizonPlan* plan = runner.horizon_plan();
  std::ofstream out(path);
  if (!out) return false;
  out << "{\n"
      << "  \"mode\": \"" << (plan != nullptr ? "planned" : "reactive")
      << "\",\n"
      << "  \"transactions\": " << report.transactions << ",\n"
      << "  \"statements\": " << report.statements << ",\n"
      << "  \"re_advises_incremental\": " << report.re_advises_incremental
      << ",\n"
      << "  \"re_advises_cold\": " << report.re_advises_cold << ",\n"
      << "  \"no_op_readvises\": " << report.no_op_readvises << ",\n"
      << "  \"last_drift\": " << report.last_drift << ",\n"
      << "  \"invariant_violations\": " << report.invariant_violations << ",\n"
      << "  \"realized_store_ms\": "
      << runner.controller().store()->stats().simulated_ms << ",\n"
      << "  \"forecast_residual\": "
      << runner.controller().tracker().forecast_residual() << ",\n";
  if (plan != nullptr) {
    out << "  \"planned_execution_objective\": " << plan->execution_objective
        << ",\n"
        << "  \"planned_migration_objective\": " << plan->migration_objective
        << ",\n"
        << "  \"planned_total_objective\": " << plan->total_objective << ",\n"
        << "  \"planned_windows\": " << plan->windows.size() << ",\n"
        << "  \"planned_transitions\": [";
    for (size_t i = 0; i < plan->transitions.size(); ++i) {
      const nose::HorizonTransition& t = plan->transitions[i];
      out << (i > 0 ? ", " : "") << "{\"at_window\": " << t.at_window
          << ", \"builds\": " << t.builds.size()
          << ", \"drops\": " << t.drops.size()
          << ", \"build_cost_ms\": " << t.build_cost_ms << "}";
    }
    out << "],\n";
  }
  out << "  \"migrations\": [\n";
  for (size_t i = 0; i < report.migrations.size(); ++i) {
    const nose::evolve::MigrationRecord& m = report.migrations[i];
    out << "    {\"started_at\": " << m.started_at_transaction
        << ", \"finished_at\": " << m.finished_at_transaction
        << ", \"builds\": " << m.builds << ", \"keeps\": " << m.keeps
        << ", \"drops\": " << m.drops
        << ", \"rows_backfilled\": " << m.rows_backfilled
        << ", \"catchup_updates\": " << m.catchup_updates
        << ", \"dual_writes\": " << m.dual_writes
        << ", \"verify_queries\": " << m.verify_queries
        << ", \"verify_mismatches\": " << m.verify_mismatches
        << ", \"est_build_cost_ms\": " << m.est_build_cost_ms
        << ", \"actual_ms\": " << m.actual_ms
        << ", \"advise_incremental\": "
        << (m.advise_incremental ? "true" : "false")
        << ", \"advise_seconds\": " << m.advise_seconds
        << ", \"drift_at_trigger\": " << m.drift_at_trigger
        << ", \"planned\": " << (m.planned ? "true" : "false")
        << ", \"to_window\": " << m.to_window
        << ", \"aborted\": " << (m.aborted ? "true" : "false") << "}"
        << (i + 1 < report.migrations.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
  return static_cast<bool>(out);
}

int RunEvolve(std::map<std::string, std::string>& args) {
  if (args.count("--scenario") == 0) return Usage();
  std::string metrics_format;
  if (!MetricsFormat(args, &metrics_format)) return Usage();
  std::string trace_path;
  if (args.count("--trace") > 0) {
    trace_path = args["--trace"];
  } else if (const char* env = std::getenv("NOSE_TRACE")) {
    trace_path = env;
  }
  if (!trace_path.empty()) {
    nose::obs::TraceRecorder::Global().Enable();
    nose::obs::TraceRecorder::EnableCrashFlush(trace_path);
    nose::obs::SetCurrentThreadName("main");
  }
  if (args.count("--solve-log") > 0) nose::SolveLog::Global().Enable();

  auto scenario = nose::evolve::LoadScenarioFile(args["--scenario"]);
  if (!scenario.ok()) {
    std::cerr << "scenario error: " << scenario.status() << "\n";
    return 1;
  }
  if (args.count("--horizon") > 0) scenario->planned = true;
  auto runner = nose::evolve::DriftRunner::Create(*scenario);
  if (!runner.ok()) {
    std::cerr << "evolve error: " << runner.status() << "\n";
    return 1;
  }
  nose::Status run = (*runner)->Run();
  const nose::evolve::EvolveReport& report = (*runner)->report();
  if ((*runner)->horizon_plan() != nullptr) {
    // The planned schedule first: which boundaries the optimizer chose to
    // migrate at, and what it expects that to cost.
    std::cout << (*runner)->horizon_plan()->ToString();
  }
  std::cout << report.ToString();
  if (!run.ok()) {
    std::cerr << "evolve error: " << run << "\n";
  }

  if (!trace_path.empty()) {
    nose::obs::TraceRecorder::Global().Disable();
    std::string error;
    if (!nose::obs::TraceRecorder::Global().WriteChromeJson(trace_path,
                                                            &error)) {
      std::fprintf(stderr, "error: cannot write trace: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote trace to %s\n", trace_path.c_str());
  }
  if (args.count("--metrics") > 0 &&
      !WriteMetricsSnapshot(args["--metrics"], metrics_format)) {
    return 1;
  }
  if (!WriteSolveLogIfRequested(args)) return 1;
  if (args.count("--report") > 0) {
    if (!WriteEvolveReport(args["--report"], **runner)) {
      std::fprintf(stderr, "error: cannot write report to %s\n",
                   args["--report"].c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote report to %s\n", args["--report"].c_str());
  }
  if (args.count("--report-json") > 0) {
    nose::obs::RunReport run_report("evolve");
    run_report.AddString("scenario", args["--scenario"]);
    run_report.AddString("mode",
                         (*runner)->horizon_plan() != nullptr ? "planned"
                                                              : "reactive");
    run_report.AddNumber("transactions",
                         static_cast<double>(report.transactions));
    run_report.AddNumber("statements", static_cast<double>(report.statements));
    run_report.AddNumber(
        "re_advises_incremental",
        static_cast<double>(report.re_advises_incremental));
    run_report.AddNumber("re_advises_cold",
                         static_cast<double>(report.re_advises_cold));
    run_report.AddNumber("migrations",
                         static_cast<double>(report.migrations.size()));
    run_report.AddNumber("invariant_violations",
                         static_cast<double>(report.invariant_violations));
    // The tracker's one-step-ahead forecast error: the re-planning trigger
    // signal, surfaced here so planned-mode runs can be judged on it.
    run_report.AddNumber(
        "forecast_residual",
        (*runner)->controller().tracker().forecast_residual());
    run_report.AddNumber(
        "realized_store_ms",
        (*runner)->controller().store()->stats().simulated_ms);
    double advise_seconds = 0.0;
    for (const auto& m : report.migrations) advise_seconds += m.advise_seconds;
    run_report.AddPhase("advise", advise_seconds);
    run_report.SetSolverSummary(nose::SolveLog::Global().SummaryJson());
    run_report.SetMetrics(nose::obs::MetricsRegistry::Global().ToJson());
    std::string error;
    if (!run_report.WriteJson(args["--report-json"], &error)) {
      std::fprintf(stderr, "error: cannot write report: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote report to %s\n", args["--report-json"].c_str());
  }

  size_t mismatches = 0, aborted = 0;
  for (const auto& m : report.migrations) {
    mismatches += m.verify_mismatches;
    if (m.aborted) ++aborted;
  }
  if (!run.ok() || report.invariant_violations > 0 || mismatches > 0 ||
      aborted > 0) {
    std::fprintf(stderr,
                 "evolve FAILED: %zu invariant violation(s), %zu verify "
                 "mismatch(es), %zu aborted migration(s)\n",
                 report.invariant_violations, mismatches, aborted);
    return 1;
  }
  return 0;
}

int RunServe(std::map<std::string, std::string>& args) {
  if (args.count("--scenario") == 0) return Usage();
  std::string metrics_format;
  if (!MetricsFormat(args, &metrics_format)) return Usage();
  std::string trace_path;
  if (args.count("--trace") > 0) {
    trace_path = args["--trace"];
  } else if (const char* env = std::getenv("NOSE_TRACE")) {
    trace_path = env;
  }
  if (!trace_path.empty()) {
    nose::obs::TraceRecorder::Global().Enable();
    nose::obs::TraceRecorder::EnableCrashFlush(trace_path);
    nose::obs::SetCurrentThreadName("main");
  }
  if (args.count("--solve-log") > 0) nose::SolveLog::Global().Enable();

  auto scenario = nose::evolve::LoadScenarioFile(args["--scenario"]);
  if (!scenario.ok()) {
    std::cerr << "scenario error: " << scenario.status() << "\n";
    return 1;
  }
  nose::serve::ServeOptions options;
  if (args.count("--threads") > 0) {
    options.threads = static_cast<size_t>(std::stoul(args["--threads"]));
  }
  if (args.count("--streams") > 0) {
    options.streams = static_cast<size_t>(std::stoul(args["--streams"]));
  }
  if (args.count("--stripes") > 0) {
    options.store_stripes = static_cast<size_t>(std::stoul(args["--stripes"]));
  }
  if (args.count("--migration-threads") > 0) {
    options.migration_threads =
        static_cast<size_t>(std::stoul(args["--migration-threads"]));
  }
  if (args.count("--rate") > 0) {
    options.target_rate = std::stod(args["--rate"]);
  }
  if (args.count("--advise-deadline") > 0) {
    options.advise_deadline_seconds = std::stod(args["--advise-deadline"]);
  }

  auto harness = nose::serve::ServeHarness::Create(*scenario, options);
  if (!harness.ok()) {
    std::cerr << "serve error: " << harness.status() << "\n";
    return 1;
  }
  nose::Status run = (*harness)->Run();
  const nose::serve::ServeReport& report = (*harness)->report();
  std::cout << report.ToString();
  if (!run.ok()) {
    std::cerr << "serve error: " << run << "\n";
  }

  if (!trace_path.empty()) {
    nose::obs::TraceRecorder::Global().Disable();
    std::string error;
    if (!nose::obs::TraceRecorder::Global().WriteChromeJson(trace_path,
                                                            &error)) {
      std::fprintf(stderr, "error: cannot write trace: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote trace to %s\n", trace_path.c_str());
  }
  if (args.count("--metrics") > 0 &&
      !WriteMetricsSnapshot(args["--metrics"], metrics_format)) {
    return 1;
  }
  if (!WriteSolveLogIfRequested(args)) return 1;
  if (args.count("--report-json") > 0) {
    nose::obs::RunReport run_report("serve");
    run_report.AddString("scenario", args["--scenario"]);
    run_report.AddNumber("threads", static_cast<double>(report.threads));
    run_report.AddNumber("streams", static_cast<double>(report.streams));
    run_report.AddNumber("transactions",
                         static_cast<double>(report.transactions));
    run_report.AddNumber("statements", static_cast<double>(report.statements));
    run_report.AddNumber("migrations",
                         static_cast<double>(report.migrations.size()));
    run_report.AddNumber("p50_before_ms", report.before.p50_ms);
    run_report.AddNumber("p95_before_ms", report.before.p95_ms);
    run_report.AddNumber("p99_before_ms", report.before.p99_ms);
    run_report.AddNumber("p50_during_ms", report.during.p50_ms);
    run_report.AddNumber("p95_during_ms", report.during.p95_ms);
    run_report.AddNumber("p99_during_ms", report.during.p99_ms);
    run_report.AddNumber("p50_after_ms", report.after.p50_ms);
    run_report.AddNumber("p95_after_ms", report.after.p95_ms);
    run_report.AddNumber("p99_after_ms", report.after.p99_ms);
    size_t deadline_misses = 0;
    for (const auto& a : report.advises) {
      if (!a.deadline_hit) ++deadline_misses;
    }
    run_report.AddNumber("advises", static_cast<double>(report.advises.size()));
    run_report.AddNumber("advise_deadline_misses",
                         static_cast<double>(deadline_misses));
    uint64_t rows_dropped = 0, retries = 0;
    double wall = 0.0;
    for (const auto& m : report.migrations) {
      rows_dropped += m.rows_dropped;
      retries += m.verify_retries;
      wall += m.wall_seconds;
    }
    run_report.AddNumber("migration_rows_dropped",
                         static_cast<double>(rows_dropped));
    run_report.AddNumber("migration_verify_retries",
                         static_cast<double>(retries));
    run_report.AddPhase("migrate", wall);
    run_report.AddNumber("realized_store_ms", report.store.simulated_ms);
    run_report.SetDigest("{\"store_digest\":\"" +
                         std::to_string(report.store_digest) + "\"}");
    run_report.SetSolverSummary(nose::SolveLog::Global().SummaryJson());
    run_report.SetMetrics(nose::obs::MetricsRegistry::Global().ToJson());
    std::string error;
    if (!run_report.WriteJson(args["--report-json"], &error)) {
      std::fprintf(stderr, "error: cannot write report: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote report to %s\n", args["--report-json"].c_str());
  }
  return run.ok() ? 0 : 1;
}

/// Prints the checker's verdict on one certificate.
void PrintCertificateReport(const std::string& label,
                            const nose::CertificateReport& report) {
  std::cout << nose::FormatDiagnostics(report.diagnostics);
  if (!report.verified) {
    std::printf("certificate %s: REJECTED\n", label.c_str());
    return;
  }
  std::printf("certificate %s: VERIFIED (exact objective %.10g", label.c_str(),
              report.exact_objective);
  if (report.bound_available) {
    std::printf(", certified bound %.10g, gap %.3g", report.dual_bound,
                report.certified_gap);
  }
  std::printf(")\n");
}

/// `nose check --verify-certificate FILE`: re-verify a serialized
/// certificate in exact arithmetic with no model or workload in sight —
/// the CI gate for solver changes.
int VerifyCertificateFile(const std::string& path) {
  auto cert = nose::ReadCertificate(path);
  if (!cert.ok()) {
    std::fprintf(stderr, "%s: error: %s [NOSE-C001]\n", path.c_str(),
                 cert.status().message().c_str());
    return 1;
  }
  nose::CertificateReport report = nose::CheckCertificate(*cert);
  PrintCertificateReport(
      cert->instance.empty() ? path : path + " (" + cert->instance + ")",
      report);
  return report.verified ? 0 : 1;
}

/// `nose check --model --workload`: the full static gate. Lint has already
/// run (error findings refuse earlier); this advises with the BIP strategy
/// under certificate capture, audits the recommendation invariants, runs
/// the NOSE-S anti-pattern analyses, and verifies the certificate with
/// exact arithmetic. Exit 1 on any error-severity finding or an unverified
/// certificate.
int RunCheck(std::map<std::string, std::string>& args,
             const nose::Workload& workload,
             std::vector<nose::Diagnostic> diags) {
  nose::AdvisorOptions options;
  // Certificates describe a BIP solve; force that strategy so every check
  // produces one.
  options.optimizer.strategy = nose::SolveStrategy::kBip;
  options.analyze_antipatterns = true;
  options.verify_invariants = false;  // audited below without aborting
  if (args.count("--solve-budget") > 0) {
    double secs = 0.0;
    if (!ParsePositiveDouble("--solve-budget", args["--solve-budget"],
                             &secs)) {
      return Usage();
    }
    options.optimizer.bip.time_limit_seconds = secs;
  }
  if (args.count("--threads") > 0) {
    double n = 0.0;
    if (!ParsePositiveDouble("--threads", args["--threads"], &n) ||
        n != static_cast<size_t>(n)) {
      std::fprintf(stderr, "error: --threads wants a positive integer\n");
      return Usage();
    }
    options.num_threads = static_cast<size_t>(n);
  }
  const std::string mix = args.count("--mix") > 0
                              ? args["--mix"]
                              : std::string(nose::Workload::kDefaultMix);
  const std::vector<std::string> mixes = workload.MixNames();
  if (std::find(mixes.begin(), mixes.end(), mix) == mixes.end()) {
    std::fprintf(stderr, "error: workload has no mix '%s'\n", mix.c_str());
    return 1;
  }

  nose::SolveCertificate cert;
  cert.instance = args["--workload"] + ":" + mix;
  options.optimizer.capture_certificate = &cert;
  nose::Advisor advisor(options);
  auto rec = advisor.Recommend(workload, mix);
  if (!rec.ok()) {
    std::cerr << "advisor error: " << rec.status() << "\n";
    return 1;
  }

  // Advisor findings (NOSE-W006, NOSE-S001..S005) and the invariant audit
  // (NOSE-I001..) join the lint findings in one report.
  diags.insert(diags.end(), rec->diagnostics.begin(), rec->diagnostics.end());
  nose::RecommendationView view{&rec->schema, &rec->query_plans,
                                &rec->update_plans, rec->objective,
                                rec->solve_proven};
  std::vector<nose::Diagnostic> audit =
      nose::AuditRecommendation(workload, mix, view);
  diags.insert(diags.end(), audit.begin(), audit.end());
  std::cout << nose::FormatDiagnostics(diags);

  nose::CertificateReport report = nose::CheckCertificate(cert);
  PrintCertificateReport(cert.instance, report);
  if (args.count("--certificate") > 0) {
    nose::Status written = nose::WriteCertificate(cert, args["--certificate"]);
    if (!written.ok()) {
      std::cerr << "certificate error: " << written << "\n";
      return 1;
    }
    std::fprintf(stderr, "wrote certificate to %s\n",
                 args["--certificate"].c_str());
  }

  const size_t errors = nose::CountSeverity(diags, nose::Severity::kError);
  std::printf(
      "check %s: %zu error(s), %zu warning(s), %zu note(s); schema %zu "
      "column families, cost %.6g\n",
      cert.instance.c_str(), errors,
      nose::CountSeverity(diags, nose::Severity::kWarning),
      nose::CountSeverity(diags, nose::Severity::kNote), rec->schema.size(),
      rec->objective);
  if (args.count("--report-json") > 0) {
    nose::obs::RunReport run_report("check");
    run_report.AddString("instance", cert.instance);
    run_report.AddNumber("errors", static_cast<double>(errors));
    run_report.AddNumber(
        "warnings",
        static_cast<double>(
            nose::CountSeverity(diags, nose::Severity::kWarning)));
    run_report.AddPhase("enumeration", rec->timing.enumeration_seconds);
    run_report.AddPhase("cost_calculation",
                        rec->timing.cost_calculation_seconds);
    run_report.AddPhase("bip_construction",
                        rec->timing.bip_construction_seconds);
    run_report.AddPhase("bip_solve", rec->timing.bip_solve_seconds);
    run_report.AddPhase("cost_solve", rec->timing.cost_solve_seconds);
    run_report.AddPhase("size_solve", rec->timing.size_solve_seconds);
    run_report.AddPhase("total", rec->timing.total_seconds);
    char digest[256];
    std::snprintf(digest, sizeof(digest),
                  "{\"objective\":%.9g,\"column_families\":%zu,"
                  "\"certificate_verified\":%s,\"certified_gap\":%.9g}",
                  rec->objective, rec->schema.size(),
                  report.verified ? "true" : "false",
                  report.bound_available ? report.certified_gap : 0.0);
    run_report.SetDigest(digest);
    run_report.SetSolverSummary(nose::SolveLog::Global().SummaryJson());
    run_report.SetMetrics(nose::obs::MetricsRegistry::Global().ToJson());
    std::string error;
    if (!run_report.WriteJson(args["--report-json"], &error)) {
      std::fprintf(stderr, "error: cannot write report: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote report to %s\n", args["--report-json"].c_str());
  }
  return (errors > 0 || !report.verified) ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  if (command != "advise" && command != "check" && command != "lint" &&
      command != "evolve" && command != "serve" && command != "explain") {
    return Usage();
  }

  // `nose explain SOLVE_LOG`: offline diagnosis of a --solve-log capture.
  if (command == "explain") {
    if (argc != 3 || argv[2][0] == '-') return Usage();
    nose::SolveLogData data;
    std::string error;
    if (!nose::ReadSolveLog(argv[2], &data, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    std::cout << nose::ExplainSolveLog(data);
    return 0;
  }

  if (command == "evolve") {
    std::map<std::string, std::string> args;
    if (!ParseArgs(argc, argv, 2,
                   {"--scenario", "--report", "--trace", "--metrics",
                    "--metrics-format", "--solve-log", "--report-json"},
                   {"--horizon"}, &args)) {
      return Usage();
    }
    return RunEvolve(args);
  }

  if (command == "serve") {
    std::map<std::string, std::string> args;
    if (!ParseArgs(argc, argv, 2,
                   {"--scenario", "--threads", "--streams", "--stripes",
                    "--migration-threads", "--rate", "--advise-deadline",
                    "--trace", "--metrics", "--metrics-format", "--solve-log",
                    "--report-json"},
                   {}, &args)) {
      return Usage();
    }
    return RunServe(args);
  }

  std::set<std::string> value_flags = {"--model", "--workload"};
  std::set<std::string> bool_flags;
  if (command == "advise") {
    value_flags.insert({"--mix", "--space-limit-mb", "--format", "--strategy",
                        "--solve-budget", "--threads", "--trace", "--metrics",
                        "--metrics-format", "--solve-log", "--report-json"});
    bool_flags.insert({"--verify", "--all-mixes"});
  }
  if (command == "check") {
    value_flags.insert({"--mix", "--certificate", "--verify-certificate",
                        "--solve-budget", "--threads", "--solve-log",
                        "--report-json"});
  }
  std::map<std::string, std::string> args;
  if (!ParseArgs(argc, argv, 2, value_flags, bool_flags, &args)) {
    return Usage();
  }
  // Standalone certificate verification needs no model or workload.
  if (command == "check" && args.count("--verify-certificate") > 0) {
    if (args.count("--model") > 0 || args.count("--workload") > 0) {
      std::fprintf(stderr,
                   "error: --verify-certificate excludes --model/--workload\n");
      return Usage();
    }
    return VerifyCertificateFile(args["--verify-certificate"]);
  }
  if (args.count("--model") == 0 || args.count("--workload") == 0) {
    return Usage();
  }

  auto model_text = ReadFile(args["--model"]);
  if (!model_text.ok()) {
    std::cerr << model_text.status() << "\n";
    return 1;
  }
  auto graph = nose::ParseModel(*model_text);
  if (!graph.ok()) {
    std::cerr << "model error: " << graph.status() << "\n";
    return 1;
  }
  auto workload_text = ReadFile(args["--workload"]);
  if (!workload_text.ok()) {
    std::cerr << workload_text.status() << "\n";
    return 1;
  }
  auto workload = nose::ParseWorkload(**graph, *workload_text);
  if (!workload.ok()) {
    std::cerr << "workload error: " << workload.status() << "\n";
    return 1;
  }

  const nose::LintSources sources{args["--model"], args["--workload"]};
  std::vector<nose::Diagnostic> diags = nose::LintAll(**workload, sources);
  const size_t num_errors =
      nose::CountSeverity(diags, nose::Severity::kError);

  if (command == "lint") {
    std::cout << nose::FormatDiagnostics(diags);
    std::printf("%zu error(s), %zu warning(s), %zu note(s)\n", num_errors,
                nose::CountSeverity(diags, nose::Severity::kWarning),
                nose::CountSeverity(diags, nose::Severity::kNote));
    return num_errors > 0 ? 1 : 0;
  }

  // check/advise refuse input with error-severity lint findings: the
  // advisor would optimize for a workload the author cannot have meant.
  if (num_errors > 0) {
    for (const nose::Diagnostic& d : diags) {
      if (d.severity == nose::Severity::kError) {
        std::cerr << d.ToString() << "\n";
      }
    }
    std::fprintf(stderr, "error: %zu lint error(s); run 'nose lint' for details\n",
                 num_errors);
    return 1;
  }

  if (args.count("--solve-log") > 0) nose::SolveLog::Global().Enable();

  if (command == "check") {
    const int rc = RunCheck(args, **workload, std::move(diags));
    if (!WriteSolveLogIfRequested(args)) return 1;
    return rc;
  }

  nose::AdvisorOptions options;
  if (args.count("--space-limit-mb") > 0) {
    double mb = 0.0;
    if (!ParsePositiveDouble("--space-limit-mb", args["--space-limit-mb"], &mb)) {
      return Usage();
    }
    options.optimizer.space_limit_bytes = mb * 1e6;
  }
  if (args.count("--solve-budget") > 0) {
    double secs = 0.0;
    if (!ParsePositiveDouble("--solve-budget", args["--solve-budget"], &secs)) {
      return Usage();
    }
    options.optimizer.bip.time_limit_seconds = secs;
  }
  if (args.count("--threads") > 0) {
    double n = 0.0;
    if (!ParsePositiveDouble("--threads", args["--threads"], &n) ||
        n != static_cast<size_t>(n)) {
      std::fprintf(stderr, "error: --threads wants a positive integer\n");
      return Usage();
    }
    options.num_threads = static_cast<size_t>(n);
  }
  if (args.count("--strategy") > 0) {
    const std::string& s = args["--strategy"];
    if (s == "bip") {
      options.optimizer.strategy = nose::SolveStrategy::kBip;
    } else if (s == "comb") {
      options.optimizer.strategy = nose::SolveStrategy::kCombinatorial;
    } else if (s != "auto") {
      std::fprintf(stderr, "error: unknown strategy '%s'\n", s.c_str());
      return Usage();
    }
  }
  const std::string format =
      args.count("--format") > 0 ? args["--format"] : "text";
  if (format != "text" && format != "cql") {
    std::fprintf(stderr, "error: unknown format '%s'\n", format.c_str());
    return Usage();
  }
  if (args.count("--verify") > 0) options.verify_invariants = true;
  const bool all_mixes = args.count("--all-mixes") > 0;
  if (all_mixes && args.count("--mix") > 0) {
    std::fprintf(stderr, "error: --mix and --all-mixes are exclusive\n");
    return Usage();
  }
  const std::string mix = args.count("--mix") > 0
                              ? args["--mix"]
                              : std::string(nose::Workload::kDefaultMix);
  const std::vector<std::string> mixes = (*workload)->MixNames();
  if (!all_mixes &&
      std::find(mixes.begin(), mixes.end(), mix) == mixes.end()) {
    std::fprintf(stderr, "error: workload has no mix '%s'; available:",
                 mix.c_str());
    for (const std::string& m : mixes) std::fprintf(stderr, " %s", m.c_str());
    std::fprintf(stderr, "\n");
    return 1;
  }

  // --trace FILE wins over the NOSE_TRACE environment fallback; either
  // turns recording on for the whole advisor run.
  std::string trace_path;
  if (args.count("--trace") > 0) {
    trace_path = args["--trace"];
  } else if (const char* env = std::getenv("NOSE_TRACE")) {
    trace_path = env;
  }
  const std::string metrics_path =
      args.count("--metrics") > 0 ? args["--metrics"] : "";
  std::string metrics_format;
  if (!MetricsFormat(args, &metrics_format)) return Usage();
  if (!trace_path.empty()) {
    nose::obs::TraceRecorder::Global().Enable();
    nose::obs::TraceRecorder::EnableCrashFlush(trace_path);
    nose::obs::SetCurrentThreadName("main");
  }

  nose::Advisor advisor(options);
  std::vector<std::pair<std::string, nose::Recommendation>> results;
  if (all_mixes) {
    auto recs = advisor.AdviseAllMixes(**workload);
    if (!recs.ok()) {
      std::cerr << "advisor error: " << recs.status() << "\n";
      return 1;
    }
    results = std::move(*recs);
  } else {
    auto rec = advisor.Recommend(**workload, mix);
    if (!rec.ok()) {
      std::cerr << "advisor error: " << rec.status() << "\n";
      return 1;
    }
    results.emplace_back(mix, std::move(*rec));
  }
  // The advisor's pool is destroyed inside Recommend, so every worker has
  // drained and the buffers are quiescent — safe to export.
  if (!trace_path.empty()) {
    nose::obs::TraceRecorder::Global().Disable();
    std::string error;
    if (!nose::obs::TraceRecorder::Global().WriteChromeJson(trace_path,
                                                            &error)) {
      std::fprintf(stderr, "error: cannot write trace: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote trace to %s\n", trace_path.c_str());
  }
  if (!metrics_path.empty() &&
      !WriteMetricsSnapshot(metrics_path, metrics_format)) {
    return 1;
  }
  if (!WriteSolveLogIfRequested(args)) return 1;
  if (args.count("--report-json") > 0) {
    nose::obs::RunReport run_report("advise");
    run_report.AddString("model", args["--model"]);
    run_report.AddString("workload", args["--workload"]);
    nose::AdvisorTiming timing;
    std::string digest = "[";
    char buf[256];
    for (size_t i = 0; i < results.size(); ++i) {
      const auto& [rec_mix, rec] = results[i];
      timing.enumeration_seconds += rec.timing.enumeration_seconds;
      timing.cost_calculation_seconds += rec.timing.cost_calculation_seconds;
      timing.bip_construction_seconds += rec.timing.bip_construction_seconds;
      timing.cost_solve_seconds += rec.timing.cost_solve_seconds;
      timing.size_solve_seconds += rec.timing.size_solve_seconds;
      timing.bip_solve_seconds += rec.timing.bip_solve_seconds;
      timing.other_seconds += rec.timing.other_seconds;
      timing.total_seconds += rec.timing.total_seconds;
      std::snprintf(buf, sizeof(buf),
                    "%s{\"mix\":\"%s\",\"column_families\":%zu,"
                    "\"objective\":%.9g,\"candidates\":%zu,"
                    "\"solve_proven\":%s}",
                    i > 0 ? "," : "", rec_mix.c_str(), rec.schema.size(),
                    rec.objective, rec.num_candidates,
                    rec.solve_proven ? "true" : "false");
      digest += buf;
    }
    digest.push_back(']');
    run_report.AddPhase("enumeration", timing.enumeration_seconds);
    run_report.AddPhase("cost_calculation", timing.cost_calculation_seconds);
    run_report.AddPhase("bip_construction", timing.bip_construction_seconds);
    run_report.AddPhase("bip_solve", timing.bip_solve_seconds);
    run_report.AddPhase("cost_solve", timing.cost_solve_seconds);
    run_report.AddPhase("size_solve", timing.size_solve_seconds);
    run_report.AddPhase("other", timing.other_seconds);
    run_report.AddPhase("total", timing.total_seconds);
    run_report.SetDigest(digest);
    run_report.SetSolverSummary(nose::SolveLog::Global().SummaryJson());
    run_report.SetMetrics(nose::obs::MetricsRegistry::Global().ToJson());
    std::string error;
    if (!run_report.WriteJson(args["--report-json"], &error)) {
      std::fprintf(stderr, "error: cannot write report: %s\n", error.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote report to %s\n", args["--report-json"].c_str());
  }

  for (const auto& [rec_mix, rec] : results) {
    if (results.size() > 1) {
      std::cout << "##### mix: " << rec_mix << " #####\n";
    }
    if (format == "cql") {
      std::cout << nose::RecommendationToCql(rec);
    } else {
      std::cout << rec.ToString();
    }
    // Advisor findings (e.g. NOSE-W006) go to stderr so text/cql output
    // stays machine-consumable.
    std::cerr << nose::FormatDiagnostics(rec.diagnostics);
    std::fprintf(stderr,
                 "advised '%s' in %.2fs: %zu candidates -> %zu column "
                 "families (workload cost %.4f%s)\n",
                 rec_mix.c_str(), rec.timing.total_seconds,
                 rec.num_candidates, rec.schema.size(), rec.objective,
                 rec.solve_proven ? "" : ", budget-bound");
  }
  return 0;
}
