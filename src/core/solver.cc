#include "core/solver.h"

#include <algorithm>
#include <numeric>

#include "core/prepared_instance.h"
#include "util/stopwatch.h"

namespace pinocchio {

std::vector<uint32_t> SolverResult::TopK(size_t k) const {
  const size_t count = std::min(k, ranking.size());
  return std::vector<uint32_t>(ranking.begin(),
                               ranking.begin() + static_cast<ptrdiff_t>(count));
}

SolverResult Solver::Solve(const ProblemInstance& instance,
                           const SolverConfig& config) const {
  Stopwatch watch;
  const PreparedInstance prepared(instance, config);
  const double prepare_seconds = watch.ElapsedSeconds();
  SolverResult result = Solve(prepared);
  result.stats.prepare_seconds = prepare_seconds;
  result.stats.elapsed_seconds = prepare_seconds + result.stats.solve_seconds;
  return result;
}

namespace internal {

void FinalizeResultFromInfluence(SolverResult* result) {
  const size_t m = result->influence.size();
  result->ranking.resize(m);
  std::iota(result->ranking.begin(), result->ranking.end(), 0u);
  std::stable_sort(result->ranking.begin(), result->ranking.end(),
                   [&](uint32_t a, uint32_t b) {
                     return result->influence[a] > result->influence[b];
                   });
  if (m > 0) {
    result->best_candidate = result->ranking.front();
    result->best_influence = result->influence[result->best_candidate];
  }
}

void FinishSolveTiming(SolverStats* stats, double solve_seconds) {
  stats->solve_seconds = solve_seconds;
  stats->elapsed_seconds = stats->prepare_seconds + solve_seconds;
}

std::string BudgetedName(const std::string& name, size_t num_threads) {
  if (num_threads == 1) return name;
  return name + "-P" + std::to_string(num_threads);
}

}  // namespace internal
}  // namespace pinocchio
