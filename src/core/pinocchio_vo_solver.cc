#include "core/pinocchio_vo_solver.h"

#include <algorithm>
#include <utility>

#include "core/morsel_scheduler.h"
#include "core/prepared_instance.h"
#include "core/query_engine.h"
#include "prob/influence_kernel.h"
#include "util/stopwatch.h"

namespace pinocchio {

PinocchioVOSolver::PinocchioVOSolver(bool use_pruning, size_t num_threads)
    : use_pruning_(use_pruning),
      num_threads_(MorselScheduler(num_threads).num_threads()) {}

std::string PinocchioVOSolver::Name() const {
  return internal::BudgetedName(use_pruning_ ? "PIN-VO" : "PIN-VO*",
                                num_threads_);
}

SolverResult PinocchioVOSolver::Solve(const PreparedInstance& prepared) const {
  const SolverConfig& config = prepared.config();
  PINO_CHECK_GT(config.top_k, 0u);
  Stopwatch watch;
  SolverResult result;
  const size_t m = prepared.num_candidates();
  result.influence.assign(m, 0);
  result.influence_exact = false;
  if (m == 0) {
    internal::FinishSolveTiming(&result.stats, watch.ElapsedSeconds());
    return result;
  }

  const InfluenceKernel kernel(prepared.pf(), prepared.tau());
  const MorselScheduler scheduler(num_threads_);

  // Prune phase: IA certificates as lower bounds, CSR verification sets,
  // maxInf = minInf + |VS| (query_engine.h documents the invariants; VO*
  // skips the phase and starts every candidate at [0, r]).
  query::CandidateBrackets brackets = query::BuildCandidateBrackets(
      prepared, kernel, use_pruning_, &result.stats, scheduler);

  // Max-heap over candidates ordered by maxInf, then minInf (Algorithm 3
  // line 13); realised as a sorted order since bounds of waiting candidates
  // do not change once the prune phase is over.
  const std::vector<uint32_t> order =
      query::BoundDominationOrder(brackets, scheduler);

  // Validation (Algorithm 3 lines 13-27): Strategy-1 cut-offs at the k-th
  // best validated lower bound, Strategy-2 early exits in the kernel.
  query::TopKCutoffPolicy policy(std::min(config.top_k, order.size()),
                                 &brackets.min_inf, &brackets.max_inf);
  const auto verification_set = [&](uint32_t j) -> std::span<const uint32_t> {
    return brackets.VerificationSet(j);
  };
  query::EvaluateBoundOrdered(prepared, kernel, order, verification_set,
                              &result.stats, policy);

  // minInf is exact for every fully validated candidate and a valid lower
  // bound for the rest; by construction the k best exact values dominate
  // all bounds of eliminated candidates, so sorting by minInf yields an
  // exact top-k prefix.
  result.influence = std::move(brackets.min_inf);
  internal::FinalizeResultFromInfluence(&result);
  internal::FinishSolveTiming(&result.stats, watch.ElapsedSeconds());
  return result;
}

}  // namespace pinocchio
