// Tests for the solver-certificate pipeline: exact dyadic arithmetic
// (util/rational.h), certificate serialization (solver/certificate.h), and
// the independent exact-arithmetic checker (analysis/certify.h). The
// end-to-end cases capture real certificates by advising the bundled
// workloads (path baked in as NOSE_WORKLOADS_DIR) and then corrupt them in
// targeted ways: every corruption must map to its documented NOSE-C code.

#include <cmath>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "advisor/advisor.h"
#include "analysis/certify.h"
#include "parser/model_parser.h"
#include "parser/workload_parser.h"
#include "randwl/random_workload.h"
#include "solver/certificate.h"
#include "util/rational.h"

namespace nose {
namespace {

using util::Dyadic;

// ---------------------------------------------------------------------------
// Dyadic exact arithmetic
// ---------------------------------------------------------------------------

TEST(DyadicTest, RoundTripsDoublesExactly) {
  for (double v : {0.0, 1.0, -1.0, 0.1, -3.75, 1e-300, 1.5e300,
                   6.02214076e23, -0.30000000000000004}) {
    EXPECT_EQ(Dyadic::FromDouble(v).ToDouble(), v);
  }
}

TEST(DyadicTest, AdditionIsExactWhereDoublesAreNot) {
  // In doubles 0.1 + 0.2 != 0.3; the dyadic sum is the exact sum of the
  // two rationals the doubles denote, which differs from FromDouble(0.3).
  const Dyadic sum = Dyadic::FromDouble(0.1) + Dyadic::FromDouble(0.2);
  EXPECT_NE(sum.Compare(Dyadic::FromDouble(0.3)), 0);
  EXPECT_EQ(sum.ToDouble(), 0.1 + 0.2);  // nearest double of the exact sum
  // Exactly representable sums stay exact.
  const Dyadic exact = Dyadic::FromDouble(0.25) + Dyadic::FromDouble(0.5);
  EXPECT_EQ(exact.Compare(Dyadic::FromDouble(0.75)), 0);
}

TEST(DyadicTest, MultiplicationIsExact) {
  // (1 + 2^-52)^2 needs 105 mantissa bits — representable in a Dyadic,
  // not in a double.
  const double one_ulp = 1.0 + std::ldexp(1.0, -52);
  const Dyadic sq = Dyadic::FromDouble(one_ulp) * Dyadic::FromDouble(one_ulp);
  EXPECT_FALSE(sq.overflow());
  const Dyadic expected = Dyadic::FromDouble(1.0) +
                          Dyadic::FromDouble(std::ldexp(1.0, -51)) +
                          Dyadic::FromDouble(std::ldexp(1.0, -104));
  EXPECT_EQ(sq.Compare(expected), 0);
  EXPECT_NE(sq.Compare(Dyadic::FromDouble(one_ulp * one_ulp)), 0);
}

TEST(DyadicTest, SubtractionCancelsExactly) {
  const Dyadic a = Dyadic::FromDouble(1e16);
  const Dyadic b = Dyadic::FromDouble(0.0001220703125);  // 2^-13
  EXPECT_TRUE(((a + b) - b - a).IsZero());
  EXPECT_EQ((a - a).Sign(), 0);
}

TEST(DyadicTest, SignAndCompare) {
  EXPECT_EQ(Dyadic::FromDouble(-2.5).Sign(), -1);
  EXPECT_EQ(Dyadic::FromDouble(2.5).Sign(), 1);
  EXPECT_EQ(Dyadic::Zero().Sign(), 0);
  EXPECT_LT(Dyadic::FromDouble(1.0).Compare(Dyadic::FromDouble(1.0000001)), 0);
  EXPECT_GT(Dyadic::FromDouble(-1.0).Compare(Dyadic::FromDouble(-2.0)), 0);
}

TEST(DyadicTest, OverflowIsStickyAndConservative) {
  // Squaring 1e300 exceeds the exponent range; the 128-bit mantissa caps
  // products of large odd mantissas too. Either way the result poisons.
  Dyadic big = Dyadic::FromDouble(1.7e308);
  const Dyadic poisoned = big * big * big;
  EXPECT_TRUE(poisoned.overflow());
  EXPECT_TRUE((poisoned + Dyadic::FromDouble(1.0)).overflow());
  EXPECT_TRUE((poisoned - poisoned).overflow());
  EXPECT_TRUE((poisoned * Dyadic::Zero()).overflow());
  // Poisoned comparisons report "greater" so threshold checks fail safe.
  EXPECT_GT(poisoned.Compare(Dyadic::FromDouble(1e308)), 0);
  // Non-finite input poisons immediately.
  EXPECT_TRUE(Dyadic::FromDouble(std::nan("")).overflow());
  EXPECT_TRUE(Dyadic::FromDouble(INFINITY).overflow());
}

// Mantissa-growth regression: summing many values with a wide exponent
// span must not spuriously poison (normalization strips trailing zeros).
TEST(DyadicTest, LongAccumulationStaysExact) {
  Dyadic acc;
  for (int i = 0; i < 1000; ++i) {
    acc = acc + Dyadic::FromDouble(std::ldexp(1.0, -(i % 40)));
  }
  EXPECT_FALSE(acc.overflow());
  EXPECT_GT(acc.Compare(Dyadic::Zero()), 0);
}

// ---------------------------------------------------------------------------
// End-to-end capture: advising a bundled workload yields a certificate
// ---------------------------------------------------------------------------

std::string ReadFileOrDie(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

struct ParsedFixture {
  std::unique_ptr<EntityGraph> graph;
  std::unique_ptr<Workload> workload;
};

ParsedFixture LoadFixture(const std::string& stem) {
  const std::string dir = NOSE_WORKLOADS_DIR;
  ParsedFixture out;
  auto graph = ParseModel(ReadFileOrDie(dir + "/" + stem + ".model"));
  EXPECT_TRUE(graph.ok()) << graph.status();
  out.graph = std::move(graph).value();
  auto workload =
      ParseWorkload(*out.graph, ReadFileOrDie(dir + "/" + stem + ".workload"));
  EXPECT_TRUE(workload.ok()) << workload.status();
  out.workload = std::move(workload).value();
  return out;
}

SolveCertificate CaptureCertificate(const std::string& stem,
                                    const std::string& mix = "default") {
  ParsedFixture f = LoadFixture(stem);
  SolveCertificate cert;
  cert.instance = stem + ":" + mix;
  AdvisorOptions options;
  options.optimizer.capture_certificate = &cert;
  Advisor advisor(options);
  auto rec = advisor.Recommend(*f.workload, mix);
  EXPECT_TRUE(rec.ok()) << rec.status();
  EXPECT_EQ(cert.status, "optimal");
  EXPECT_EQ(cert.x.size(),
            static_cast<size_t>(cert.problem.num_variables()));
  return cert;
}

TEST(CertificateCaptureTest, BundledWorkloadsVerifyWithNonNegativeGap) {
  struct Case {
    const char* stem;
    const char* mix;
  };
  for (const Case& c : {Case{"hotel", "default"}, Case{"rubis", "default"},
                        Case{"rubis", "browsing"},
                        Case{"antipattern", "default"}}) {
    SCOPED_TRACE(std::string(c.stem) + ":" + c.mix);
    const SolveCertificate cert = CaptureCertificate(c.stem, c.mix);
    const CertificateReport report = CheckCertificate(cert);
    EXPECT_TRUE(report.verified) << FormatDiagnostics(report.diagnostics);
    EXPECT_NEAR(report.exact_objective, cert.objective,
                1e-9 * std::max(1.0, std::abs(cert.objective)));
    ASSERT_TRUE(cert.root_available);
    EXPECT_TRUE(report.bound_available)
        << FormatDiagnostics(report.diagnostics);
    EXPECT_GE(report.certified_gap, 0.0);
    // The certified bound can never exceed the certified solution's value.
    EXPECT_LE(report.dual_bound, report.exact_objective + 1e-12);
  }
}

// The certificate certifies the schema that is returned: its δ values are
// exactly the recommended column families (after the schema-size stage
// and the unused-candidate prune), and that point still verifies.
void ExpectCertifiesReturnedSchema(const Workload& workload,
                                   const std::string& mix) {
  SolveCertificate cert;
  AdvisorOptions options;
  options.optimizer.capture_certificate = &cert;
  auto rec = Advisor(options).Recommend(workload, mix);
  ASSERT_TRUE(rec.ok()) << rec.status();
  ASSERT_EQ(cert.binary_vars.size(), rec->num_candidates);
  for (size_t c = 0; c < cert.binary_vars.size(); ++c) {
    const double delta = cert.x[static_cast<size_t>(cert.binary_vars[c])];
    EXPECT_EQ(delta, rec->schema.ContainsId(static_cast<CfId>(c)) ? 1.0 : 0.0)
        << "candidate " << c;
  }
  const CertificateReport report = CheckCertificate(cert);
  EXPECT_TRUE(report.verified) << FormatDiagnostics(report.diagnostics);
  EXPECT_NEAR(report.exact_objective, rec->objective,
              1e-9 * std::max(1.0, std::abs(rec->objective)));
}

TEST(CertificateCaptureTest, CertifiedPointIsTheReturnedSchema) {
  for (const char* stem : {"hotel", "rubis"}) {
    SCOPED_TRACE(stem);
    ParsedFixture f = LoadFixture(stem);
    ExpectCertifiesReturnedSchema(*f.workload, "default");
  }
  // Here the size stage drops a family from the cost solve's optimum, so
  // the returned schema differs from the solver's point.
  SCOPED_TRACE("randwl seed 1044");
  randwl::GeneratorOptions gen;
  gen.num_entities = 4;
  gen.num_statements = 6;
  gen.seed = 1044;
  auto rw = randwl::Generate(gen);
  ASSERT_TRUE(rw.ok()) << rw.status();
  ExpectCertifiesReturnedSchema(*rw->workload, Workload::kDefaultMix);
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

TEST(CertificateSerializationTest, RoundTripsBitExactly) {
  const SolveCertificate cert = CaptureCertificate("hotel");
  const std::string text = CertificateToString(cert);
  auto parsed = ParseCertificate(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  // Hexfloat round-trip is bit-exact, so re-serialization is byte-identical.
  EXPECT_EQ(CertificateToString(*parsed), text);
  EXPECT_EQ(parsed->instance, cert.instance);
  EXPECT_EQ(parsed->status, cert.status);
  EXPECT_EQ(parsed->binary_vars, cert.binary_vars);
  EXPECT_EQ(parsed->x, cert.x);
  EXPECT_EQ(parsed->root_available, cert.root_available);
  EXPECT_EQ(parsed->root_duals, cert.root_duals);
  EXPECT_EQ(parsed->objective, cert.objective);
  EXPECT_EQ(parsed->problem.num_variables(), cert.problem.num_variables());
  EXPECT_EQ(parsed->problem.num_rows(), cert.problem.num_rows());
  // And the parsed certificate still verifies.
  EXPECT_TRUE(CheckCertificate(*parsed).verified);
}

TEST(CertificateSerializationTest, FileRoundTrip) {
  const SolveCertificate cert = CaptureCertificate("hotel");
  const std::string path = ::testing::TempDir() + "/hotel.cert";
  ASSERT_TRUE(WriteCertificate(cert, path).ok());
  auto loaded = ReadCertificate(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status();
  EXPECT_EQ(CertificateToString(*loaded), CertificateToString(cert));
  EXPECT_TRUE(CheckCertificate(*loaded).verified);
}

TEST(CertificateSerializationTest, MalformedInputIsInvalidArgument) {
  EXPECT_FALSE(ParseCertificate("").ok());
  EXPECT_FALSE(ParseCertificate("not a certificate\n").ok());

  const SolveCertificate cert = CaptureCertificate("hotel");
  const std::string text = CertificateToString(cert);
  // Truncation (drop the trailing "end" line) must fail, not mis-parse.
  const std::string truncated = text.substr(0, text.rfind("end"));
  EXPECT_FALSE(ParseCertificate(truncated).ok());
  // A corrupted numeric field must fail with a line-anchored message.
  std::string corrupted = text;
  const size_t pos = corrupted.find("objective ");
  ASSERT_NE(pos, std::string::npos);
  corrupted.replace(pos, 10, "objective z");
  auto bad = ParseCertificate(corrupted);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line"), std::string::npos)
      << bad.status();
}

// ---------------------------------------------------------------------------
// Corrupted certificates are rejected with the documented code
// ---------------------------------------------------------------------------

std::set<std::string> ErrorCodes(const CertificateReport& report) {
  std::set<std::string> out;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.severity == Severity::kError) out.insert(d.code);
  }
  return out;
}

TEST(CertificateCheckTest, StructuralMismatchIsC001) {
  SolveCertificate cert = CaptureCertificate("hotel");
  cert.x.pop_back();
  const CertificateReport report = CheckCertificate(cert);
  EXPECT_FALSE(report.verified);
  EXPECT_TRUE(ErrorCodes(report).count("NOSE-C001"))
      << FormatDiagnostics(report.diagnostics);
}

TEST(CertificateCheckTest, FlippedBinaryIsC002) {
  SolveCertificate cert = CaptureCertificate("hotel");
  // Flip a selected candidate off: some plan still routes through it, so a
  // linking row must go infeasible.
  bool flipped = false;
  for (int var : cert.binary_vars) {
    if (cert.x[static_cast<size_t>(var)] > 0.5) {
      cert.x[static_cast<size_t>(var)] = 0.0;
      flipped = true;
      break;
    }
  }
  ASSERT_TRUE(flipped) << "expected at least one selected binary";
  const CertificateReport report = CheckCertificate(cert);
  EXPECT_FALSE(report.verified);
  EXPECT_TRUE(ErrorCodes(report).count("NOSE-C002"))
      << FormatDiagnostics(report.diagnostics);
}

TEST(CertificateCheckTest, FractionalBinaryIsC002) {
  SolveCertificate cert = CaptureCertificate("hotel");
  ASSERT_FALSE(cert.binary_vars.empty());
  cert.x[static_cast<size_t>(cert.binary_vars[0])] = 0.5;
  const CertificateReport report = CheckCertificate(cert);
  EXPECT_FALSE(report.verified);
  EXPECT_TRUE(ErrorCodes(report).count("NOSE-C002"))
      << FormatDiagnostics(report.diagnostics);
}

TEST(CertificateCheckTest, PerturbedObjectiveIsC003) {
  SolveCertificate cert = CaptureCertificate("hotel");
  cert.objective += 0.125;
  const CertificateReport report = CheckCertificate(cert);
  EXPECT_FALSE(report.verified);
  EXPECT_TRUE(ErrorCodes(report).count("NOSE-C003"))
      << FormatDiagnostics(report.diagnostics);
}

TEST(CertificateCheckTest, OverclaimedRootBoundIsC004) {
  SolveCertificate cert = CaptureCertificate("hotel");
  ASSERT_TRUE(cert.root_available);
  // Claim a root bound the duals cannot certify.
  cert.root_objective += 1.0;
  const CertificateReport report = CheckCertificate(cert);
  EXPECT_FALSE(report.verified);
  EXPECT_TRUE(ErrorCodes(report).count("NOSE-C004"))
      << FormatDiagnostics(report.diagnostics);
}

TEST(CertificateCheckTest, TamperedDualsAreC004) {
  SolveCertificate cert = CaptureCertificate("hotel");
  ASSERT_TRUE(cert.root_available);
  // Scaling every multiplier breaks dual feasibility; the reduced-cost
  // clamping then certifies a strictly weaker bound than the claimed root
  // optimum, which the checker must flag rather than silently accept.
  for (double& y : cert.root_duals) y *= 16.0;
  const CertificateReport report = CheckCertificate(cert);
  EXPECT_FALSE(report.verified);
  EXPECT_TRUE(ErrorCodes(report).count("NOSE-C004"))
      << FormatDiagnostics(report.diagnostics);
}

TEST(CertificateCheckTest, MissingDualsDegradeToNoBoundNotFailure) {
  SolveCertificate cert = CaptureCertificate("hotel");
  cert.root_available = false;
  cert.root_duals.clear();
  cert.root_objective = 0.0;
  const CertificateReport report = CheckCertificate(cert);
  EXPECT_TRUE(report.verified) << FormatDiagnostics(report.diagnostics);
  EXPECT_FALSE(report.bound_available);
}

}  // namespace
}  // namespace nose
