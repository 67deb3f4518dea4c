#include "prob/probability_function.h"

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>

#include "util/logging.h"

namespace pinocchio {
namespace {

// Whether n positions, all at per-position probability `prob`, reach a
// cumulative influence probability >= tau — computed with exactly the
// arithmetic of CumulativeInfluenceProbability (sequential log1p
// accumulation, then -expm1), rounding for rounding. Monotonicity of
// rounded addition makes this the worst case over any n positions whose
// per-position probabilities are all >= prob (and the best case when all
// are <= prob), which is what lets a single radius serve both theorems.
// The per-position term is the same for every position, so it is
// computed once and summed n times: the same values in the same order.
bool CertifiesInfluence(double prob, size_t n, double tau) {
  if (prob >= 1.0) return true;
  const double term = std::log1p(-prob);
  double log_survival = 0.0;
  for (size_t i = 0; i < n; ++i) log_survival += term;
  return -std::expm1(log_survival) >= tau;
}

}  // namespace

double ProbabilityFunction::MinMaxRadius(double tau, size_t n) const {
  PINO_CHECK_GT(tau, 0.0);
  PINO_CHECK_LT(tau, 1.0);
  PINO_CHECK_GT(n, 0u);
  // 1 - (1 - tau)^(1/n), computed via expm1/log1p to stay accurate for
  // large n (where the per-position requirement becomes tiny).
  const double per_position =
      -std::expm1(std::log1p(-tau) / static_cast<double>(n));
  // Uninfluenceable iff not even distance zero certifies — decided by the
  // same floating-point check as below, not the analytic comparison, so
  // the sentinel agrees with the validators on ulp-boundary (tau, n).
  if (!CertifiesInfluence((*this)(0.0), n, tau)) return kUninfluenceable;

  // Align the analytic inverse with the floating-point decision boundary.
  // Theorem 1 certifies influence for distances <= radius and Theorem 2
  // excludes it for distances > radius, both ultimately adjudicated by
  // CumulativeInfluenceProbability — so the returned radius must be the
  // LARGEST representable distance whose computed cumulative probability
  // still clears tau. The analytic Inverse lands near that boundary but
  // can round to either side of it (and in locally flat PF regions the
  // two can sit many representable values apart), so locate the boundary
  // on the certify predicate, which is monotone in distance. Non-negative
  // doubles order like their bit patterns, 0 through +inf, so the search
  // runs on those: gallop away from the analytic seed in doubling ulp
  // steps until the predicate flips, then bisect the bracket down to two
  // adjacent doubles. The seed is usually a few ulps off, so a radius
  // costs a handful of evaluations, and never more than about 128.
  const auto certifies = [&](uint64_t bits) {
    return CertifiesInfluence((*this)(std::bit_cast<double>(bits)), n, tau);
  };
  constexpr uint64_t kInfBits =
      std::bit_cast<uint64_t>(std::numeric_limits<double>::infinity());
  double seed = Inverse(per_position);
  if (!(seed > 0.0)) seed = 1.0;  // the inverse is 0 or NaN
  uint64_t lo = 0;                // certifies (checked above)
  uint64_t hi = std::bit_cast<uint64_t>(seed);
  if (certifies(hi)) {
    lo = hi;
    for (uint64_t step = 1; lo != kInfBits; step *= 2) {
      hi = kInfBits - lo > step ? lo + step : kInfBits;
      if (!certifies(hi)) break;
      lo = hi;
    }
  } else {
    for (uint64_t step = 1;; step *= 2) {
      const uint64_t probe = hi > step ? hi - step : 0;
      if (probe == 0 || certifies(probe)) {
        lo = probe;
        break;
      }
      hi = probe;
    }
  }
  // certifies(lo) and !certifies(hi), or lo = hi = +inf (every distance
  // certifies); bisect down to adjacent patterns.
  while (hi - lo > 1) {
    const uint64_t mid = lo + (hi - lo) / 2;
    (certifies(mid) ? lo : hi) = mid;
  }
  return std::bit_cast<double>(lo);
}

}  // namespace pinocchio
