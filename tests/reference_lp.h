#ifndef NOSE_TESTS_REFERENCE_LP_H_
#define NOSE_TESTS_REFERENCE_LP_H_

#include "solver/lp.h"

namespace nose {

/// Test oracle: solves `problem` from scratch with the original dense
/// full-tableau simplex (every row starts on its own artificial, every
/// pivot updates the explicit B⁻¹A). It shares no code path with
/// LpProblem::Solve beyond the row equilibration, so agreement between
/// the two checks the production engine the way ReferenceBipMinimize
/// checks branch and bound. O(m·n) per pivot: small instances only. No
/// basis, deadline, telemetry, or duals; `hot_started` is always false.
LpResult ReferenceLpSolve(const LpProblem& problem);

}  // namespace nose

#endif  // NOSE_TESTS_REFERENCE_LP_H_
