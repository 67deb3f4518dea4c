// Cumulative influence probability (Definition 1): the scalar reference
// every batch evaluator (prob/influence_kernel.h) must agree with.
//
// All products of survival probabilities are accumulated in log space
// (sum of log1p(-p_i)), which stays accurate even for objects with hundreds
// of positions where the direct product would lose precision.

#ifndef PINOCCHIO_PROB_INFLUENCE_H_
#define PINOCCHIO_PROB_INFLUENCE_H_

#include <span>

#include "geo/point.h"
#include "prob/probability_function.h"

namespace pinocchio {

/// Cumulative influence probability Pr_c(O) = 1 - prod_i (1 - PF(dist(c,p_i)))
/// over all positions of an object (Definition 1).
double CumulativeInfluenceProbability(const ProbabilityFunction& pf,
                                      const Point& candidate,
                                      std::span<const Point> positions);

/// Convenience: true iff Pr_c(O) >= tau (Definition 2).
bool Influences(const ProbabilityFunction& pf, const Point& candidate,
                std::span<const Point> positions, double tau);

}  // namespace pinocchio

#endif  // PINOCCHIO_PROB_INFLUENCE_H_
