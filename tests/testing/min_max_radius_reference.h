// The reference minMaxRadius search that ProbabilityFunction::MinMaxRadius
// must equal bit for bit: a value-space bisection with the cumulative test
// written as a per-position loop, log1p evaluated once per term. The
// library gallops in ulp steps and bisects on bit patterns, evaluating the
// term once per test; both return the largest double whose n positions
// still certify influence. The min_max_radius test sweeps PFs, taus and
// ns against it, and the differential harness checks every prepared
// record's radius against it on every fuzz seed.
//
// The reference's value bisection cannot leave +inf: a search seeded at
// +inf (an analytic inverse that overflows) that does not certify there
// returns 0, and one whose doubling overflows to +inf stops below the
// boundary. The min_max_radius test skips the first case and checks the
// library's radius there against the predicate itself; the second needs
// a PF that still certifies past DBL_MAX / 2, which none compared does.

#ifndef PINOCCHIO_TESTS_TESTING_MIN_MAX_RADIUS_REFERENCE_H_
#define PINOCCHIO_TESTS_TESTING_MIN_MAX_RADIUS_REFERENCE_H_

#include <cmath>
#include <cstddef>

#include "prob/probability_function.h"

namespace pinocchio {
namespace testing_reference {

/// Whether n positions, each at `distance`, reach a cumulative influence
/// probability >= tau, one log1p per position.
inline bool PerTermCertifies(const ProbabilityFunction& pf, double distance,
                             size_t n, double tau) {
  const double prob = pf(distance);
  if (prob >= 1.0) return true;
  double log_survival = 0.0;
  for (size_t i = 0; i < n; ++i) log_survival += std::log1p(-prob);
  return -std::expm1(log_survival) >= tau;
}

/// MinMaxRadius by the reference search (see the file comment).
inline double PerTermMinMaxRadius(const ProbabilityFunction& pf, double tau,
                                  size_t n) {
  const auto certifies = [&](double d) {
    return PerTermCertifies(pf, d, n, tau);
  };
  if (!certifies(0.0)) return ProbabilityFunction::kUninfluenceable;
  double lo = 0.0;
  double hi =
      pf.Inverse(-std::expm1(std::log1p(-tau) / static_cast<double>(n)));
  if (!(hi > 0.0)) hi = 1.0;
  while (certifies(hi)) {
    lo = hi;
    if (std::isinf(hi)) return hi;
    hi *= 2.0;
  }
  while (true) {
    const double mid = lo + 0.5 * (hi - lo);
    if (mid <= lo || mid >= hi) break;
    (certifies(mid) ? lo : hi) = mid;
  }
  return lo;
}

}  // namespace testing_reference
}  // namespace pinocchio

#endif  // PINOCCHIO_TESTS_TESTING_MIN_MAX_RADIUS_REFERENCE_H_
