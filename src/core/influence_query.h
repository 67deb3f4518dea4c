// Point queries on the influence model: the influence of one candidate,
// and an explanation of *which* objects it influences and how strongly.
// These back the "why was this location chosen?" follow-up a downstream
// user asks after running a solver, and give library users a direct API
// for Definition 2 without constructing a full ProblemInstance sweep.

#ifndef PINOCCHIO_CORE_INFLUENCE_QUERY_H_
#define PINOCCHIO_CORE_INFLUENCE_QUERY_H_

#include <cstdint>
#include <vector>

#include "core/moving_object.h"
#include "core/object_store.h"
#include "core/solver.h"

namespace pinocchio {

class InfluenceKernel;
class PreparedInstance;

/// Exact inf(c) of a single location over `objects`, using the IA/NIB
/// geometry of a prebuilt store to skip cumulative-probability evaluation
/// wherever a pruning rule decides the pair.
int64_t InfluenceOfCandidate(const ObjectStore& store, const Point& candidate,
                             const ProbabilityFunction& pf);

/// The same query through a kernel built for the store's (pf, tau), so
/// repeated probes skip the kernel's construction (its SIMD bound table).
int64_t InfluenceOfCandidate(const ObjectStore& store,
                             const InfluenceKernel& kernel,
                             const Point& candidate);

/// Same query against a prepared instance's store — the point-query
/// counterpart of `Solver::Solve(const PreparedInstance&)`. `candidate`
/// need not be one of the prepared candidates.
int64_t InfluenceOfCandidate(const PreparedInstance& prepared,
                             const Point& candidate);

/// Convenience overload preparing the objects internally (one-shot; prefer
/// the PreparedInstance overload when querying repeatedly).
int64_t InfluenceOfCandidate(const std::vector<MovingObject>& objects,
                             const Point& candidate,
                             const SolverConfig& config);

/// One influenced object in an explanation.
struct InfluencedObject {
  uint32_t object_id = 0;
  /// Cumulative influence probability Pr_c(O).
  double probability = 0.0;
  /// Positions within minMaxRadius of the candidate (a locality hint for
  /// presentation; 0 when the pair was decided by geometry alone and the
  /// caller asked to skip exact evaluation).
  size_t positions_in_radius = 0;
};

/// Full explanation of a candidate's influence.
struct InfluenceExplanation {
  int64_t influence = 0;
  /// All influenced objects, sorted by decreasing probability.
  std::vector<InfluencedObject> influenced;
  /// Number of pairs decided by each rule (for curiosity/debugging).
  int64_t decided_by_ia = 0;
  int64_t decided_by_nib = 0;
};

/// Computes the explanation against a prepared instance. Unlike
/// InfluenceOfCandidate this always evaluates the exact cumulative
/// probability of influenced objects (the IA rule only short-circuits the
/// decision, not the probability).
InfluenceExplanation ExplainInfluence(const PreparedInstance& prepared,
                                      const Point& candidate);

/// Convenience overload preparing the objects internally.
InfluenceExplanation ExplainInfluence(const std::vector<MovingObject>& objects,
                                      const Point& candidate,
                                      const SolverConfig& config);

}  // namespace pinocchio

#endif  // PINOCCHIO_CORE_INFLUENCE_QUERY_H_
