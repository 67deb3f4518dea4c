// Common interface, configuration, result and statistics types for all
// PRIME-LS solvers (NA, PINOCCHIO, PINOCCHIO-VO, PINOCCHIO-VO*) and for the
// classical-semantics baselines.

#ifndef PINOCCHIO_CORE_SOLVER_H_
#define PINOCCHIO_CORE_SOLVER_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/moving_object.h"
#include "prob/probability_function.h"

namespace pinocchio {

class PreparedInstance;

/// Parameters shared by every solver.
struct SolverConfig {
  /// The distance-based influence probability function PF.
  ProbabilityFunctionPtr pf;
  /// The influence probability threshold tau in (0, 1); paper default 0.7.
  double tau = 0.7;
  /// Node capacity of the candidate R-tree; paper uses 8.
  size_t rtree_fanout = 8;
  /// Number of top candidates whose influence must be exact in the result.
  /// 1 reproduces the paper's algorithms; larger values generalise
  /// Strategy 1 to a top-k cut-off (used by the precision experiments).
  size_t top_k = 1;
};

/// Counters filled by the solvers; they power Fig. 10 and the ablations.
struct SolverStats {
  /// Object-candidate pairs decided "influences" by the influence-arcs rule.
  int64_t pairs_pruned_by_ia = 0;
  /// Object-candidate pairs decided "does not influence" by the
  /// non-influence boundary rule.
  int64_t pairs_pruned_by_nib = 0;
  /// Pairs that reached cumulative-probability validation.
  int64_t pairs_validated = 0;
  /// Individual position probabilities evaluated during validation.
  int64_t positions_scanned = 0;
  /// Validations cut short by Strategy 2 (Lemma 4 early stop).
  int64_t early_stops = 0;
  /// Candidates popped from the VO max-heap before the Strategy-1 cut-off.
  int64_t heap_pops = 0;
  /// Candidate validations abandoned because maxInf fell below maxminInf.
  int64_t strategy1_cutoffs = 0;
  /// Wall-clock seconds spent building shared indexes (Algorithm 1's A_2D
  /// and the candidate R-tree). Zero when the caller supplied an already
  /// prepared instance — that is the whole point of preparing once.
  double prepare_seconds = 0.0;
  /// Wall-clock seconds of the query itself (pruning + validation).
  double solve_seconds = 0.0;
  /// prepare_seconds + solve_seconds; kept so existing reports and callers
  /// keep reading total time under its old name.
  double elapsed_seconds = 0.0;

  /// Total object-candidate pairs resolved by either pruning rule.
  int64_t PairsPruned() const { return pairs_pruned_by_ia + pairs_pruned_by_nib; }
};

/// Outcome of a Solve() call.
struct SolverResult {
  /// Index (into ProblemInstance::candidates) of the winning candidate.
  uint32_t best_candidate = std::numeric_limits<uint32_t>::max();
  /// inf(best_candidate).
  int64_t best_influence = 0;
  /// Per-candidate influence. For exact solvers (NA, PIN) this is inf(c)
  /// for every candidate; for VO solvers entries are lower bounds except
  /// for the top-k candidates, which are exact (see `influence_exact`).
  std::vector<int64_t> influence;
  /// True when `influence` holds the exact inf(c) for every candidate.
  bool influence_exact = false;
  /// Candidate indices ordered by decreasing influence (ties by index).
  /// Exact solvers rank all candidates; VO solvers guarantee the first
  /// min(top_k, m) entries.
  std::vector<uint32_t> ranking;
  SolverStats stats;

  /// The first min(k, ranking.size()) entries of `ranking`: asking for
  /// more candidates than exist clamps to the full ranking instead of
  /// reading past it, and TopK(0) is empty. Note the exactness contract
  /// is the solver's, not this accessor's — a VO solve prepared with
  /// top_k = t guarantees exact influence only for the first min(t, m)
  /// entries (influence_exact is false), so TopK(k) with k > t may
  /// return candidates whose influence values are lower bounds.
  std::vector<uint32_t> TopK(size_t k) const;
};

/// Interface implemented by every location-selection algorithm.
///
/// The primary entry point is Solve(const PreparedInstance&): index
/// construction (Algorithm 1's A_2D plus the candidate R-tree) happens once
/// in the PreparedInstance and is shared by every query. The classic
/// Solve(instance, config) stays as a convenience that prepares internally
/// and delegates, recording the build in `stats.prepare_seconds`.
class Solver {
 public:
  virtual ~Solver() = default;

  /// Short identifier used in reports ("NA", "PIN", "PIN-VO", ...).
  virtual std::string Name() const = 0;

  /// Solves against prepared shared state. `stats.solve_seconds` covers
  /// only the query; `stats.prepare_seconds` stays 0 (the build was paid by
  /// the PreparedInstance, see PreparedInstance::build_stats()).
  virtual SolverResult Solve(const PreparedInstance& prepared) const = 0;

  /// One-shot convenience: prepares `instance` under `config`, solves, and
  /// reports stats with prepare_seconds + solve_seconds = elapsed_seconds.
  /// Subclasses re-export this overload with `using Solver::Solve;`.
  SolverResult Solve(const ProblemInstance& instance,
                     const SolverConfig& config) const;
};

namespace internal {

/// Builds `ranking` / `best_*` fields of a result from its influence vector.
/// Ties are broken towards the smaller candidate index, matching the
/// sequential argmax of the paper's pseudo-code.
void FinalizeResultFromInfluence(SolverResult* result);

/// Stamps the query-phase wall clock and keeps `elapsed_seconds` equal to
/// prepare + solve.
void FinishSolveTiming(SolverStats* stats, double solve_seconds);

/// A solver's report name at a resolved thread budget: the paper name at
/// 1 thread, "<name>-P<n>" otherwise.
std::string BudgetedName(const std::string& name, size_t num_threads);

}  // namespace internal
}  // namespace pinocchio

#endif  // PINOCCHIO_CORE_SOLVER_H_
