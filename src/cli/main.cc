// The NoSE command-line tool: the schema advisor as the paper envisions it
// being used — point it at a conceptual model and a workload, get back a
// schema and per-statement implementation plans.
//
//   nose advise  --model FILE --workload FILE [--mix NAME | --all-mixes]
//   nose check   --model FILE --workload FILE [--mix NAME] [--certificate F]
//   nose check   --verify-certificate FILE
//   nose lint    --model FILE --workload FILE
//   nose evolve  --scenario FILE [--horizon]
//   nose serve   --scenario FILE [--threads N] [--rate TPS] ...
//
// advise, check, evolve and serve share one telemetry block (--trace and
// --report-json; see Telemetry).
// `nose` with no arguments prints every option. File formats: the
// entity-graph DSL (see ParseModel), the ';'-separated workload statement
// language (see ParseWorkload) and drift scenarios (see LoadScenarioFile).

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "advisor/advisor.h"
#include "analysis/certify.h"
#include "analysis/invariants.h"
#include "analysis/lint.h"
#include "evolve/scenario.h"
#include "export/cql.h"
#include "obs/file.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "parser/model_parser.h"
#include "parser/workload_parser.h"
#include "serve/serve.h"
#include "solver/certificate.h"
#include "solver/solve_log.h"

namespace {

constexpr const char* kUsage = R"(usage:
  nose advise  --model FILE --workload FILE [options]
  nose check   --model FILE --workload FILE [options]
  nose check   --verify-certificate FILE
  nose lint    --model FILE --workload FILE
  nose evolve  --scenario FILE [options]
  nose serve   --scenario FILE [options]
common options (advise, check, evolve, serve):
  --trace FILE          write a Chrome trace_event JSON timeline
                        (chrome://tracing / Perfetto)
  --report-json FILE    write the machine-readable run report: phase
                        timings, digest, the per-LP and branch-and-bound
                        solve log, its diagnosis (the "explain" text)
                        and the pipeline metrics
options (advise, check):
  --mix NAME            workload mix (default: 'default')
  --solve-budget SECS   time budget for the solver
  --threads N           worker threads for the advisor pipeline
                        (default: hardware cores; same recommendation
                        at any value)
options (advise):
  --all-mixes           advise every mix, sharing the candidate pool
                        and plan spaces across mixes with the same
                        statement set (same output as per-mix runs)
  --space-limit-mb N    storage budget in megabytes
  --format text|cql     output format (default text)
  --verify              audit the recommendation against the
                        workload invariants before printing
options (check):
  --certificate FILE    write the solve certificate for an
                        independent re-verification
  --verify-certificate FILE  re-verify a written certificate in exact
                        arithmetic (no model/workload needed)
options (evolve):
  --scenario FILE       drift scenario (see workloads/rubis_drift.scenario)
  --horizon             plan the whole horizon up front (multi-period
                        BIP; migrate at planned phase boundaries instead
                        of on drift triggers; same as 'mode planned')
options (serve):
  --scenario FILE       drift scenario to replay concurrently
  --threads N           driver worker threads (default 4)
  --streams N           fixed logical client streams (default 8; final
                        store content is identical at any thread count
                        for a given stream count)
  --rate TPS            target aggregate transactions/second
                        (default 0: unpaced)
  --stripes N           store hash stripes per column family
  --migration-threads N drivers that may load migration backfill
                        chunks at once (default 2)
  --advise-deadline SECS  anytime budget for each boundary
                        re-advise (0 = unbudgeted)
)";

int Usage() {
  std::fputs(kUsage, stderr);
  return 2;
}

using Args = std::map<std::string, std::string>;

/// The flags one command accepts. Every command but lint also takes the
/// telemetry block's flags.
struct CommandFlags {
  std::set<std::string> values;
  std::set<std::string> bools;
  bool telemetry = true;
};

const std::set<std::string> kTelemetryFlags = {"--trace", "--report-json"};

const std::map<std::string, CommandFlags> kCommands = {
    {"advise",
     {{"--model", "--workload", "--mix", "--space-limit-mb", "--format",
       "--solve-budget", "--threads"},
      {"--verify", "--all-mixes"}}},
    {"check",
     {{"--model", "--workload", "--mix", "--certificate",
       "--verify-certificate", "--solve-budget", "--threads"},
      {}}},
    {"lint", {{"--model", "--workload"}, {}, false}},
    {"evolve", {{"--scenario"}, {"--horizon"}}},
    {"serve",
     {{"--scenario", "--threads", "--streams", "--stripes",
       "--migration-threads", "--rate", "--advise-deadline"},
      {}}},
};

/// Parses "--flag value" / bare boolean "--flag" argument lists against
/// the command's flags. Rejects unknown flags and value flags with a
/// missing value instead of silently dropping them.
bool ParseArgs(int argc, char** argv, const CommandFlags& flags, Args* args) {
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) {
      std::fprintf(stderr, "error: expected a --flag, got '%s'\n",
                   flag.c_str());
      return false;
    }
    if (flags.bools.count(flag) > 0) {
      (*args)[flag] = "true";
      continue;
    }
    if (flags.values.count(flag) == 0 &&
        !(flags.telemetry && kTelemetryFlags.count(flag) > 0)) {
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

/// The value of `flag`, or `fallback` when it is absent.
std::string Flag(const Args& args, const std::string& flag,
                 const std::string& fallback = "") {
  const auto it = args.find(flag);
  return it == args.end() ? fallback : it->second;
}

enum class Num { kPositive, kNonNegative, kCount };

/// Counts beyond this are typos, not configurations (the error line below
/// names the bound).
constexpr double kMaxCount = 65536;

/// The one numeric-flag parser. Leaves *out alone when `flag` is absent;
/// otherwise the whole value must be a finite number that is > 0
/// (kPositive), >= 0 (kNonNegative), or an integer in [1, kMaxCount]
/// (kCount). A bad value prints an "error: flag ..." line and returns
/// false.
bool NumberFlag(const Args& args, const std::string& flag, Num kind,
                double* out) {
  const auto it = args.find(flag);
  if (it == args.end()) return true;
  const std::string& text = it->second;
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  bool ok = !text.empty() && end == text.c_str() + text.size() &&
            errno == 0 && std::isfinite(value);
  ok = ok && (kind == Num::kNonNegative ? value >= 0.0 : value > 0.0);
  if (kind == Num::kCount) {
    ok = ok && value == std::floor(value) && value <= kMaxCount;
  }
  if (!ok) {
    static const char* const kWant[] = {"a positive number", "a number >= 0",
                                        "an integer in [1, 65536]"};
    std::fprintf(stderr, "error: flag '%s' needs %s, got '%s'\n",
                 flag.c_str(), kWant[static_cast<int>(kind)], text.c_str());
    return false;
  }
  *out = value;
  return true;
}

bool CountFlag(const Args& args, const std::string& flag, size_t* out) {
  double value = static_cast<double>(*out);
  if (!NumberFlag(args, flag, Num::kCount, &value)) return false;
  *out = static_cast<size_t>(value);
  return true;
}

/// Reports one telemetry write on stderr; returns `ok`.
bool Reported(bool ok, const char* what, const std::string& path,
              const std::string& error) {
  if (ok) {
    std::fprintf(stderr, "wrote %s to %s\n", what, path.c_str());
  } else {
    std::fprintf(stderr, "error: cannot write %s: %s\n", what, error.c_str());
  }
  return ok;
}

/// The telemetry block every run command shares: --trace and
/// --report-json. Start() before the run turns recording on; Finish()
/// after it writes the trace, then the run report.
class Telemetry {
 public:
  explicit Telemetry(const Args& args)
      : trace_path_(Flag(args, "--trace")),
        report_path_(Flag(args, "--report-json")) {}

  /// A requested report records the solve log it will carry.
  void Start() const {
    if (!trace_path_.empty()) {
      nose::obs::TraceRecorder::Global().Enable();
      nose::obs::TraceRecorder::EnableCrashFlush(trace_path_);
      nose::obs::SetCurrentThreadName("main");
    }
    if (!report_path_.empty()) nose::SolveLog::Global().Enable();
  }

  /// Call once the run's worker pools are gone, so every trace buffer is
  /// quiescent. `report` gets the solve log, its diagnosis and the metrics
  /// snapshot as its last sections. False (after an error line) on a
  /// failed write.
  bool Finish(nose::obs::RunReport* report) const {
    std::string error;
    if (!trace_path_.empty()) {
      nose::obs::TraceRecorder& trace = nose::obs::TraceRecorder::Global();
      trace.Disable();
      if (!Reported(trace.WriteChromeJson(trace_path_, &error), "trace",
                    trace_path_, error)) {
        return false;
      }
    }
    if (report_path_.empty()) return true;
    const nose::SolveLog& log = nose::SolveLog::Global();
    report->AddSection("solve_log", log.ToJson());
    std::string explain;
    nose::obs::AppendJsonString(&explain, log.Explain());
    report->AddSection("explain", std::move(explain));
    report->AddSection("metrics",
                       nose::obs::MetricsRegistry::Global().ToJson());
    return Reported(report->WriteJson(report_path_, &error), "report",
                    report_path_, error);
  }

 private:
  std::string trace_path_;
  std::string report_path_;
};

/// The advisor flags advise and check share: --threads, --solve-budget,
/// and --mix, which must name one of the workload's mixes. Returns 0, or
/// the exit code to stop with.
int AdvisorFlags(const Args& args, const nose::Workload& workload,
                 nose::AdvisorOptions* options, std::string* mix) {
  if (!CountFlag(args, "--threads", &options->num_threads) ||
      !NumberFlag(args, "--solve-budget", Num::kPositive,
                  &options->optimizer.bip.time_limit_seconds)) {
    return Usage();
  }
  *mix = Flag(args, "--mix", nose::Workload::kDefaultMix);
  const std::vector<std::string> mixes = workload.MixNames();
  if (args.count("--all-mixes") > 0 ||
      std::find(mixes.begin(), mixes.end(), *mix) != mixes.end()) {
    return 0;
  }
  std::fprintf(stderr, "error: workload has no mix '%s'; available:",
               mix->c_str());
  for (const std::string& m : mixes) std::fprintf(stderr, " %s", m.c_str());
  std::fprintf(stderr, "\n");
  return 1;
}

/// The advisor's phase timings, summed over `timings`.
void AddAdvisorPhases(nose::obs::RunReport* report,
                      const std::vector<nose::AdvisorTiming>& timings) {
  using T = nose::AdvisorTiming;
  static const std::pair<const char*, double T::*> kPhases[] = {
      {"enumeration", &T::enumeration_seconds},
      {"cost_calculation", &T::cost_calculation_seconds},
      {"bip_construction", &T::bip_construction_seconds},
      {"bip_solve", &T::bip_solve_seconds},
      {"cost_solve", &T::cost_solve_seconds},
      {"size_solve", &T::size_solve_seconds},
      {"other", &T::other_seconds},
      {"total", &T::total_seconds}};
  for (const auto& [name, field] : kPhases) {
    double seconds = 0.0;
    for (const T& timing : timings) seconds += timing.*field;
    report->AddPhase(name, seconds);
  }
}

/// The run's migrations as a JSON array, one object per migration.
std::string MigrationRecordsJson(
    const std::vector<nose::serve::MigrationRecord>& migrations) {
  std::string out = "[";
  for (const nose::serve::MigrationRecord& m : migrations) {
    const nose::evolve::MigrationProgress& p = m.progress;
    char buf[768];
    std::snprintf(
        buf, sizeof(buf),
        "%s{\"started_at\":%zu,\"finished_at\":%zu,\"builds\":%zu,"
        "\"keeps\":%zu,\"drops\":%zu,\"rows_backfilled\":%" PRIu64
        ",\"catchup_updates\":%" PRIu64 ",\"dual_writes\":%" PRIu64
        ",\"verify_queries\":%" PRIu64 ",\"verify_mismatches\":%" PRIu64
        ",\"est_build_cost_ms\":%.9g,\"actual_ms\":%.9g,"
        "\"advise_incremental\":%s,\"advise_seconds\":%.9g,"
        "\"drift_at_trigger\":%.9g,\"planned\":%s,\"to_window\":%zu,"
        "\"aborted\":%s}",
        out.size() > 1 ? "," : "", m.started_at_transaction,
        m.finished_at_transaction, m.builds, m.keeps, m.drops,
        p.rows_backfilled, p.catchup_updates, p.dual_writes, p.verify_queries,
        p.verify_mismatches, m.est_build_cost_ms, p.simulated_ms,
        m.advise_incremental ? "true" : "false", m.advise_seconds,
        m.drift_at_trigger, m.planned ? "true" : "false", m.to_window,
        m.aborted ? "true" : "false");
    out += buf;
  }
  return out + "]";
}

/// The horizon schedule's transitions as a JSON array.
std::string TransitionsJson(
    const std::vector<nose::HorizonTransition>& transitions) {
  std::string out = "[";
  for (const nose::HorizonTransition& t : transitions) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"at_window\":%zu,\"builds\":%zu,\"drops\":%zu,"
                  "\"build_cost_ms\":%.9g}",
                  out.size() > 1 ? "," : "", t.at_window, t.builds.size(),
                  t.drops.size(), t.build_cost_ms);
    out += buf;
  }
  return out + "]";
}

int RunEvolve(const Args& args, const Telemetry& telemetry) {
  if (args.count("--scenario") == 0) return Usage();
  telemetry.Start();
  auto scenario = nose::evolve::LoadScenarioFile(args.at("--scenario"));
  if (!scenario.ok()) {
    std::cerr << "scenario error: " << scenario.status() << "\n";
    return 1;
  }
  if (args.count("--horizon") > 0) scenario->planned = true;
  auto harness = nose::serve::ServeHarness::CreateEvolve(*scenario);
  if (!harness.ok()) {
    std::cerr << "evolve error: " << harness.status() << "\n";
    return 1;
  }
  nose::Status run = (*harness)->Run();
  const nose::serve::ServeReport& report = (*harness)->report();
  const nose::HorizonPlan* plan = (*harness)->horizon_plan();
  // The planned schedule first: which boundaries the optimizer chose to
  // migrate at, and what it expects that to cost.
  if (plan != nullptr) std::cout << plan->ToString();
  std::cout << report.ToString();
  if (!run.ok()) {
    std::cerr << "evolve error: " << run << "\n";
  }

  nose::obs::RunReport run_report("evolve");
  run_report.AddString("scenario", args.at("--scenario"));
  run_report.AddString("mode", plan != nullptr ? "planned" : "reactive");
  run_report.AddNumber("transactions", report.transactions);
  run_report.AddNumber("statements", report.statements);
  run_report.AddNumber("re_advises_incremental",
                       report.incremental_readvises());
  run_report.AddNumber("re_advises_cold",
                       report.readvises() - report.incremental_readvises());
  run_report.AddNumber("no_op_readvises", report.no_op_readvises);
  run_report.AddNumber("last_drift", report.last_drift);
  run_report.AddNumber("migrations", report.migrations.size());
  run_report.AddNumber("invariant_violations", report.invariant_violations);
  run_report.AddNumber("realized_store_ms", report.store.simulated_ms);
  if (plan != nullptr) {
    run_report.AddNumber("planned_execution_objective",
                         plan->execution_objective);
    run_report.AddNumber("planned_migration_objective",
                         plan->migration_objective);
    run_report.AddNumber("planned_total_objective", plan->total_objective);
    run_report.AddNumber("planned_windows", plan->windows.size());
  }
  double advise_seconds = 0.0;
  for (const auto& a : report.advises) advise_seconds += a.elapsed_seconds;
  run_report.AddPhase("advise", advise_seconds);
  run_report.AddSection("migration_records",
                        MigrationRecordsJson(report.migrations));
  if (plan != nullptr) {
    run_report.AddSection("planned_transitions",
                          TransitionsJson(plan->transitions));
  }
  if (!telemetry.Finish(&run_report)) return 1;

  size_t mismatches = 0, aborted = 0;
  for (const auto& m : report.migrations) {
    mismatches += m.progress.verify_mismatches;
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

int RunServe(const Args& args, const Telemetry& telemetry) {
  if (args.count("--scenario") == 0) return Usage();
  nose::serve::ServeOptions options;
  if (!CountFlag(args, "--threads", &options.threads) ||
      !CountFlag(args, "--streams", &options.streams) ||
      !CountFlag(args, "--stripes", &options.store_stripes) ||
      !CountFlag(args, "--migration-threads", &options.migration_threads) ||
      !NumberFlag(args, "--rate", Num::kNonNegative, &options.target_rate) ||
      !NumberFlag(args, "--advise-deadline", Num::kNonNegative,
                  &options.advise_deadline_seconds)) {
    return Usage();
  }
  telemetry.Start();
  auto scenario = nose::evolve::LoadScenarioFile(args.at("--scenario"));
  if (!scenario.ok()) {
    std::cerr << "scenario error: " << scenario.status() << "\n";
    return 1;
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

  nose::obs::RunReport run_report("serve");
  run_report.AddString("scenario", args.at("--scenario"));
  run_report.AddNumber("threads", report.threads);
  run_report.AddNumber("streams", report.streams);
  run_report.AddNumber("transactions", report.transactions);
  run_report.AddNumber("statements", report.statements);
  run_report.AddNumber("migrations", report.migrations.size());
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
  double advise_seconds = 0.0;
  for (const auto& a : report.advises) {
    if (!a.deadline_hit) ++deadline_misses;
    advise_seconds += a.elapsed_seconds;
  }
  run_report.AddNumber("advises", report.advises.size());
  run_report.AddNumber("advise_deadline_misses", deadline_misses);
  uint64_t rows_dropped = 0, retries = 0;
  double wall = 0.0;
  for (const auto& m : report.migrations) {
    rows_dropped += m.rows_dropped;
    retries += m.progress.verify_retries;
    wall += m.wall_seconds;
  }
  run_report.AddNumber("migration_rows_dropped", rows_dropped);
  run_report.AddNumber("migration_verify_retries", retries);
  run_report.AddPhase("advise", advise_seconds);
  run_report.AddPhase("migrate", wall);
  run_report.AddNumber("realized_store_ms", report.store.simulated_ms);
  run_report.AddSection("digest", "{\"store_digest\":\"" +
                                      std::to_string(report.store_digest) +
                                      "\"}");
  if (!telemetry.Finish(&run_report)) return 1;
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
/// run (error findings refuse earlier); this advises under certificate
/// capture, audits the recommendation invariants, runs the NOSE-S
/// anti-pattern analyses, and verifies the certificate with exact
/// arithmetic. Exit 1 on any error-severity finding or an unverified
/// certificate.
int RunCheck(const Args& args, const Telemetry& telemetry,
             const nose::Workload& workload,
             std::vector<nose::Diagnostic> diags) {
  nose::AdvisorOptions options;
  options.analyze_antipatterns = true;
  options.verify_invariants = false;  // audited below without aborting
  std::string mix;
  if (const int rc = AdvisorFlags(args, workload, &options, &mix)) return rc;

  telemetry.Start();
  nose::SolveCertificate cert;
  cert.instance = args.at("--workload") + ":" + mix;
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
    nose::Status written =
        nose::WriteCertificate(cert, args.at("--certificate"));
    if (!written.ok()) {
      std::cerr << "certificate error: " << written << "\n";
      return 1;
    }
    std::fprintf(stderr, "wrote certificate to %s\n",
                 args.at("--certificate").c_str());
  }

  const size_t errors = nose::CountSeverity(diags, nose::Severity::kError);
  const size_t warnings = nose::CountSeverity(diags, nose::Severity::kWarning);
  std::printf(
      "check %s: %zu error(s), %zu warning(s), %zu note(s); schema %zu "
      "column families, cost %.6g\n",
      cert.instance.c_str(), errors, warnings,
      nose::CountSeverity(diags, nose::Severity::kNote), rec->schema.size(),
      rec->objective);

  nose::obs::RunReport run_report("check");
  run_report.AddString("instance", cert.instance);
  run_report.AddNumber("errors", errors);
  run_report.AddNumber("warnings", warnings);
  AddAdvisorPhases(&run_report, {rec->timing});
  char digest[256];
  std::snprintf(digest, sizeof(digest),
                "{\"objective\":%.9g,\"column_families\":%zu,"
                "\"certificate_verified\":%s,\"certified_gap\":%.9g}",
                rec->objective, rec->schema.size(),
                report.verified ? "true" : "false",
                report.bound_available ? report.certified_gap : 0.0);
  run_report.AddSection("digest", digest);
  if (!telemetry.Finish(&run_report)) return 1;
  return (errors > 0 || !report.verified) ? 1 : 0;
}

int RunAdvise(const Args& args, const Telemetry& telemetry,
              const nose::Workload& workload) {
  nose::AdvisorOptions options;
  double space_limit_mb = 0.0;
  if (!NumberFlag(args, "--space-limit-mb", Num::kPositive, &space_limit_mb)) {
    return Usage();
  }
  if (args.count("--space-limit-mb") > 0) {
    options.optimizer.space_limit_bytes = space_limit_mb * 1e6;
  }
  const std::string format = Flag(args, "--format", "text");
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
  std::string mix;
  if (const int rc = AdvisorFlags(args, workload, &options, &mix)) return rc;

  telemetry.Start();
  nose::Advisor advisor(options);
  std::vector<std::pair<std::string, nose::Recommendation>> results;
  if (all_mixes) {
    auto recs = advisor.AdviseAllMixes(workload);
    if (!recs.ok()) {
      std::cerr << "advisor error: " << recs.status() << "\n";
      return 1;
    }
    results = std::move(*recs);
  } else {
    auto rec = advisor.Recommend(workload, mix);
    if (!rec.ok()) {
      std::cerr << "advisor error: " << rec.status() << "\n";
      return 1;
    }
    results.emplace_back(mix, std::move(*rec));
  }

  nose::obs::RunReport run_report("advise");
  run_report.AddString("model", args.at("--model"));
  run_report.AddString("workload", args.at("--workload"));
  std::vector<nose::AdvisorTiming> timings;
  std::string digest = "[";
  for (const auto& [rec_mix, rec] : results) {
    timings.push_back(rec.timing);
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"mix\":\"%s\",\"column_families\":%zu,"
                  "\"objective\":%.9g,\"candidates\":%zu,"
                  "\"solve_proven\":%s}",
                  digest.size() > 1 ? "," : "", rec_mix.c_str(),
                  rec.schema.size(), rec.objective, rec.num_candidates,
                  rec.solve_proven ? "true" : "false");
    digest += buf;
  }
  AddAdvisorPhases(&run_report, timings);
  run_report.AddSection("digest", digest + "]");
  // The advisor's pool is destroyed inside Recommend, so every worker has
  // drained and the trace buffers are quiescent — safe to export.
  if (!telemetry.Finish(&run_report)) return 1;

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

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];

  const auto spec = kCommands.find(command);
  Args args;
  if (spec == kCommands.end() || !ParseArgs(argc, argv, spec->second, &args)) {
    return Usage();
  }
  const Telemetry telemetry(args);
  if (command == "evolve") return RunEvolve(args, telemetry);
  if (command == "serve") return RunServe(args, telemetry);

  // Standalone certificate verification needs no model or workload.
  if (command == "check" && args.count("--verify-certificate") > 0) {
    if (args.count("--model") > 0 || args.count("--workload") > 0) {
      std::fprintf(stderr,
                   "error: --verify-certificate excludes --model/--workload\n");
      return Usage();
    }
    return VerifyCertificateFile(args.at("--verify-certificate"));
  }
  if (args.count("--model") == 0 || args.count("--workload") == 0) {
    return Usage();
  }

  std::string model_text, workload_text, error;
  if (!nose::obs::ReadFile(args.at("--model"), &model_text, &error) ||
      !nose::obs::ReadFile(args.at("--workload"), &workload_text, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 1;
  }
  auto graph = nose::ParseModel(model_text);
  if (!graph.ok()) {
    std::cerr << "model error: " << graph.status() << "\n";
    return 1;
  }
  auto workload = nose::ParseWorkload(**graph, workload_text);
  if (!workload.ok()) {
    std::cerr << "workload error: " << workload.status() << "\n";
    return 1;
  }

  const nose::LintSources sources{args.at("--model"), args.at("--workload")};
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

  if (command == "check") {
    return RunCheck(args, telemetry, **workload, std::move(diags));
  }
  return RunAdvise(args, telemetry, **workload);
}
