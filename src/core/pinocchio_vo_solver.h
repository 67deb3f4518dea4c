// PINOCCHIO-VO (Algorithm 3): the pruning phase of PINOCCHIO decoupled from
// validation, plus the two validation optimisations of Section 5 —
// Strategy 1 (upper/lower influence bounds with a max-heap and the global
// maxminInf cut-off) and Strategy 2 (early stopping of the position scan via
// Lemma 4). PINOCCHIO-VO* is the ablation that keeps the optimisations but
// drops the IA/NIB pruning phase (Section 6.1).

#ifndef PINOCCHIO_CORE_PINOCCHIO_VO_SOLVER_H_
#define PINOCCHIO_CORE_PINOCCHIO_VO_SOLVER_H_

#include <cstddef>

#include "core/solver.h"

namespace pinocchio {

/// PINOCCHIO-VO solver (paper Algorithm 3).
///
/// Guarantees: the top `config.top_k` entries of the returned ranking carry
/// exact influence values (the paper's algorithm is the `top_k == 1` case;
/// larger k generalises Strategy 1 by using the k-th best validated lower
/// bound as the cut-off). Influences of candidates eliminated by Strategy 1
/// are reported as the lower bounds known at elimination time, with
/// `influence_exact == false`.
///
/// Thread budget (`num_threads`, 0 = hardware concurrency): the prune phase
/// runs over record morsels and the bound order over per-worker shards
/// (query_engine.h); the cut-off-driven validation walk is order-dependent
/// by design — the cut-off after candidate i gates candidate i+1 — and runs
/// on the calling thread. Results and every stats counter are bit-identical
/// at every budget.
class PinocchioVOSolver : public Solver {
 public:
  explicit PinocchioVOSolver(size_t num_threads = 1)
      : PinocchioVOSolver(/*use_pruning=*/true, num_threads) {}

  /// "PIN-VO" / "PIN-VO*", with "-P<n>" appended for a budget of n > 1.
  std::string Name() const override;

  using Solver::Solve;
  SolverResult Solve(const PreparedInstance& prepared) const override;

 protected:
  /// `use_pruning == false` gives PINOCCHIO-VO*: every candidate starts with
  /// bounds [0, r] and every object in its verification set.
  PinocchioVOSolver(bool use_pruning, size_t num_threads);

 private:
  bool use_pruning_;
  size_t num_threads_;
};

/// PINOCCHIO-VO*: the no-pruning ablation.
class PinocchioVOStarSolver : public PinocchioVOSolver {
 public:
  explicit PinocchioVOStarSolver(size_t num_threads = 1)
      : PinocchioVOSolver(/*use_pruning=*/false, num_threads) {}
};

}  // namespace pinocchio

#endif  // PINOCCHIO_CORE_PINOCCHIO_VO_SOLVER_H_
