#ifndef NOSE_ANALYSIS_CERTIFY_H_
#define NOSE_ANALYSIS_CERTIFY_H_

#include <vector>

#include "analysis/diagnostic.h"
#include "solver/certificate.h"

namespace nose {

/// Result of independently re-verifying a SolveCertificate with exact
/// rational arithmetic (util/rational.h). Every verdict below is derived
/// from the certificate alone — the checker shares no code with the simplex
/// solver, so it cannot inherit its bugs or its floating-point drift.
struct CertificateReport {
  /// True when no error-severity diagnostic fired: the solution is exactly
  /// feasible and the claimed objective matches the exact recomputation.
  bool verified = false;
  /// NOSE-C001..C005 findings (empty when fully verified, aside from notes).
  std::vector<Diagnostic> diagnostics;
  /// cᵀx recomputed exactly, rounded to the nearest double for reporting.
  double exact_objective = 0.0;
  /// True when the certificate carried duals and every variable the bound
  /// formula touches has finite bounds, so a safe lower bound exists.
  bool bound_available = false;
  /// Certified lower bound on ANY feasible solution of the instance
  /// (Neumaier–Shcherbina safe bound assembled from the duals in exact
  /// arithmetic; wrong-signed duals are clamped to 0, which can only weaken
  /// the bound, never invalidate it).
  double dual_bound = 0.0;
  /// exact_objective − dual_bound (≥ 0 whenever the solution verified —
  /// weak duality makes an overclaim impossible for a feasible point).
  double certified_gap = 0.0;
};

/// Diagnostic codes (all error severity):
///   NOSE-C001 certificate-malformed   structural mismatch (also used by
///                                     callers for a failed parse)
///   NOSE-C002 primal-infeasible       x violates a row, a variable bound,
///                                     or integrality of a binary
///   NOSE-C003 objective-mismatch      claimed objective differs from the
///                                     exact cᵀx beyond accumulation slack
///   NOSE-C004 bound-overclaimed       claimed root bound exceeds the bound
///                                     the duals actually certify
///   NOSE-C005 arithmetic-overflow     a 128-bit mantissa overflowed; the
///                                     claim is unverifiable (never passes)
///
/// Feasibility is exact: rows whose coefficients, bounds, and solution
/// values are all integers must hold with zero violation. Rows mixing in
/// non-integer coefficients (the storage constraint's byte sizes) get an
/// explicit slack of 1e-9 × max|coefficient| — the formulation tolerance,
/// stated once here rather than hidden in solver epsilons.
CertificateReport CheckCertificate(const SolveCertificate& cert);

}  // namespace nose

#endif  // NOSE_ANALYSIS_CERTIFY_H_
