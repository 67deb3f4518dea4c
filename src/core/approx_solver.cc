#include "core/approx_solver.h"

#include <algorithm>

#include "core/pinocchio_vo_solver.h"

namespace pinocchio {

ApproxTopKResult SolveApproxTopK(const PreparedInstance& prepared, size_t k,
                                 const SketchParams& /*params*/,
                                 size_t num_threads) {
  const SolverResult exact =
      SolvePinocchioVO(prepared, k, /*use_pruning=*/true, num_threads);
  ApproxTopKResult result;
  const size_t n = std::min(k, exact.ranking.size());
  result.entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t c = exact.ranking[i];
    const int64_t inf = exact.influence[c];
    result.entries.push_back({c, inf, inf, inf, /*exact=*/true});
  }
  result.pairs_refined = exact.stats.pairs_validated;
  result.stats = exact.stats;
  return result;
}

}  // namespace pinocchio
