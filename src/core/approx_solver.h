// Approximate top-k with certified error brackets — the sampling-sketch
// tier over the bound-domination engine.
//
// SolveApproxTopK walks the same prune -> order -> validate pipeline as
// PINOCCHIO-VO, but instead of validating a candidate's whole verification
// set it validates the InfluenceSketch's deterministic sample of it
// (prob/influence_sketch.h) and scales the observed influenced fraction
// into a Hoeffding-certified [lo, hi] influence bracket at the caller's
// (eps, delta). A candidate is settled when its bracket
//
//   * misses the running top-k cutoff (hi < cutoff) — discarded with no
//     further work (the engine's Strategy-1 abort handles the mid-walk
//     case on the certain envelope);
//   * clears the cutoff (lo >= cutoff, or the cutoff is not saturated yet)
//     with width <= 2 * eps * num_objects — accepted approximately,
//     carrying the certified bracket;
//   * straddles the cutoff (or is wider than the cap) — the unsampled
//     remainder of its verification set falls back to
//     InfluenceKernel::DecideMany, collapsing the bracket to the exact
//     influence.
//
// Every returned entry's bracket contains the candidate's exact influence
// with probability >= 1 - delta, so the reported estimate (bracket
// midpoint) is within eps * num_objects of the exact influence at the
// same confidence. Entries whose whole verification set was decided
// (small sets, or straddler refinement) are flagged `exact` — their
// bracket is degenerate and unconditional. With eps -> 0 or sample
// budgets >= every set size, the solver degenerates to exact PIN-VO
// answers.
//
// Determinism: samples are pure in (seed, candidate index), the prune
// phase's verification sets and the bound order are byte-identical at
// every thread budget, and the evaluation walk runs at budget 1 on the
// calling thread — so results, certified brackets included, are
// bit-identical at every budget. The walk does not decide ahead like exact
// PIN-VO's: the sample callback keeps the candidate under validation in the
// policy, so no helper may call it.

#ifndef PINOCCHIO_CORE_APPROX_SOLVER_H_
#define PINOCCHIO_CORE_APPROX_SOLVER_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/prepared_instance.h"
#include "core/query_engine.h"
#include "core/solver.h"
#include "prob/influence_sketch.h"

namespace pinocchio {

/// One approximate top-k answer entry.
struct ApproxEntry {
  uint32_t candidate = 0;
  /// Bracket midpoint — the reported influence estimate.
  int64_t estimate = 0;
  /// Certified influence bracket: contains the exact influence with
  /// probability >= 1 - delta (exactly, when `exact`).
  int64_t lo = 0;
  int64_t hi = 0;
  /// True when every record of the verification set was decided — the
  /// bracket is then [inf(c), inf(c)] unconditionally.
  bool exact = false;
};

struct ApproxTopKResult {
  /// At most k entries, estimate-descending (ties: lo descending, then
  /// candidate index ascending).
  std::vector<ApproxEntry> entries;
  /// Samples decided per candidate whose verification set is larger.
  size_t sample_budget = 0;
  /// Verification-set records SKIPPED by bracket settlement (the work the
  /// exact solver would have validated).
  int64_t pairs_skipped = 0;
  /// Unsampled records decided exactly during straddler refinement.
  int64_t pairs_refined = 0;
  SolverStats stats;
};

/// Approximate top-k over a prepared instance at the sketch's (eps, delta).
/// `num_threads` is the budget of the prune and order phases (0 = hardware
/// concurrency); the evaluation walk runs at budget 1 on the calling
/// thread, whatever `num_threads` is.
ApproxTopKResult SolveApproxTopK(const PreparedInstance& prepared, size_t k,
                                 const SketchParams& params,
                                 size_t num_threads = 1);

}  // namespace pinocchio

#endif  // PINOCCHIO_CORE_APPROX_SOLVER_H_
