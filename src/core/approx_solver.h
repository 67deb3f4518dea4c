// Top-k under the approximate-tier API, answered exactly.
//
// SolveApproxTopK is PINOCCHIO-VO's top-k (core/pinocchio_vo_solver.h) at
// the caller's k: one prune -> order -> walk, the same code and counters as
// PinocchioVOSolver at `top_k = k`. Every entry carries its exact influence
// as a degenerate bracket (lo == hi == estimate) flagged `exact`, and no
// verification-set record is skipped. The (epsilon, delta, seed) accuracy
// contract is accepted and not read: an exact answer meets every one.
//
// Determinism: the answer and every counter are bit-identical at every
// thread budget, as PIN-VO's are.

#ifndef PINOCCHIO_CORE_APPROX_SOLVER_H_
#define PINOCCHIO_CORE_APPROX_SOLVER_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/prepared_instance.h"
#include "core/solver.h"

namespace pinocchio {

/// Accuracy contract of an approximate top-k request: additive error
/// `epsilon` on a verification set's influenced fraction, failure
/// probability `delta`, sampling `seed`. Exact answers satisfy any value.
struct SketchParams {
  double epsilon = 0.05;
  double delta = 0.01;
  uint64_t seed = 0;
};

/// One top-k answer entry: the candidate and its exact influence, as a
/// degenerate [lo, hi] bracket around `estimate`.
struct ApproxEntry {
  uint32_t candidate = 0;
  int64_t estimate = 0;
  int64_t lo = 0;
  int64_t hi = 0;
  bool exact = false;
};

struct ApproxTopKResult {
  /// min(k, m) entries, influence descending (ties: candidate index
  /// ascending).
  std::vector<ApproxEntry> entries;
  /// Verification-set records skipped: always 0.
  int64_t pairs_skipped = 0;
  /// Verification-set records decided: stats.pairs_validated.
  int64_t pairs_refined = 0;
  SolverStats stats;
};

/// PIN-VO's exact top-k at `k` (> 0) and thread budget `num_threads`
/// (0 = hardware concurrency); `params` is not read.
ApproxTopKResult SolveApproxTopK(const PreparedInstance& prepared, size_t k,
                                 const SketchParams& params,
                                 size_t num_threads = 1);

}  // namespace pinocchio

#endif  // PINOCCHIO_CORE_APPROX_SOLVER_H_
