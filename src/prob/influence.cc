#include "prob/influence.h"

#include <cmath>

namespace pinocchio {

double CumulativeInfluenceProbability(const ProbabilityFunction& pf,
                                      const Point& candidate,
                                      std::span<const Point> positions) {
  double log_survival = 0.0;
  for (const Point& p : positions) {
    const double prob = pf(Distance(candidate, p));
    if (prob >= 1.0) return 1.0;
    log_survival += std::log1p(-prob);
  }
  // 1 - exp(log_survival), accurate when the survival is close to 1.
  return -std::expm1(log_survival);
}

bool Influences(const ProbabilityFunction& pf, const Point& candidate,
                std::span<const Point> positions, double tau) {
  return CumulativeInfluenceProbability(pf, candidate, positions) >= tau;
}

}  // namespace pinocchio
