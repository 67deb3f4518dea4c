// PINOCCHIO (Algorithm 2): IA/NIB pruning against a candidate R-tree
// followed by validation of the remnant candidates.

#ifndef PINOCCHIO_CORE_PINOCCHIO_SOLVER_H_
#define PINOCCHIO_CORE_PINOCCHIO_SOLVER_H_

#include <cstddef>

#include "core/solver.h"

namespace pinocchio {

/// PINOCCHIO solver (paper Algorithm 2).
///
/// Per object: a range query with the influence-arcs region credits every
/// candidate inside it without validation (Lemma 2); a range query with the
/// non-influence boundary discards every candidate outside it (Lemma 3);
/// the remnant candidates are validated with a full cumulative-probability
/// scan. Influence counts are exact for all candidates.
///
/// The objects are processed in record morsels on `num_threads` workers
/// (0 = hardware concurrency; 1 runs inline). Each worker accumulates into
/// its own influence vector and counters, summed once at the end — integer
/// sums, so results and counters are bit-identical at every budget.
class PinocchioSolver : public Solver {
 public:
  explicit PinocchioSolver(size_t num_threads = 1);

  /// "PIN", or "PIN-P<n>" for a budget of n > 1 threads.
  std::string Name() const override;

  using Solver::Solve;
  SolverResult Solve(const PreparedInstance& prepared) const override;

 private:
  size_t num_threads_;
};

}  // namespace pinocchio

#endif  // PINOCCHIO_CORE_PINOCCHIO_SOLVER_H_
