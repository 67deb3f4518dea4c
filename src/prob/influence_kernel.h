// The shared validation kernel: batch evaluation of the cumulative
// influence probability (Definition 1) with the Lemma-4 early exit
// (Strategy 2) over contiguous position spans.
//
// Every solver's validation phase funnels through this kernel instead of
// re-implementing the log-space survival accumulation privately. The
// kernel's decisions are exactly those of the scalar reference
// (CumulativeInfluenceProbability / Influences): the early-exit threshold
// is nudged conservatively so that crossing it certifies the full-scan
// test -expm1(sum log1p(-p_i)) >= tau, never anticipates it wrongly.

#ifndef PINOCCHIO_PROB_INFLUENCE_KERNEL_H_
#define PINOCCHIO_PROB_INFLUENCE_KERNEL_H_

#include <cstdint>
#include <memory>
#include <span>

#include "geo/point.h"
#include "prob/influence_kernel_simd.h"
#include "prob/probability_function.h"

namespace pinocchio {

/// Outcome of one candidate-against-object validation.
struct InfluenceDecision {
  bool influenced = false;
  /// Positions consumed before the decision — the span size unless
  /// Lemma 4 fired earlier.
  uint32_t positions_seen = 0;
  /// True when Lemma 4 decided strictly before the last position.
  bool decided_early = false;
};

/// Aggregate work counters of a batch call (SolverStats currency).
struct InfluenceBatchCounters {
  int64_t positions_seen = 0;
  int64_t early_stops = 0;
};

/// Immutable (PF, tau) evaluation context with the precomputed Lemma-4
/// log-survival threshold. Cheap to construct per solve; safe to share
/// across threads.
class InfluenceKernel {
 public:
  InfluenceKernel(const ProbabilityFunction& pf, double tau);

  const ProbabilityFunction& pf() const { return *pf_; }
  double tau() const { return tau_; }

  /// The certified Lemma-4 threshold: any computed log-survival fold at or
  /// below this value implies the full-scan test -expm1(sum) >= tau.
  /// Exposed so delta-maintenance code (core/incremental.h) can reuse the
  /// kernel's decision boundary for its certified sum brackets.
  double early_exit_log_survival() const { return early_exit_log_survival_; }

  /// The SIMD tier this kernel's DecideMany dispatches to, resolved once at
  /// construction (see ResolveSimdTier); kScalar means the filter is off
  /// and every decision takes the scalar path.
  SimdTier simd_tier() const { return tier_; }

  /// Exact Pr_c(O) over a position span; identical accumulation (and hence
  /// bit-identical result) to the scalar CumulativeInfluenceProbability.
  double Probability(const Point& candidate,
                     std::span<const Point> positions) const;

  /// Pr_c(O) >= tau with the Lemma-4 early exit. Agrees with
  /// Influences(pf, candidate, positions, tau) on every input. Under
  /// PINOCCHIO_SELF_CHECK (see util/self_check.h, sampled at kernel
  /// construction) every decision is re-verified against the naive
  /// full-scan test Pr_c(O) >= tau.
  InfluenceDecision Decide(const Point& candidate,
                           std::span<const Point> positions) const;

  /// Batch variant: decides every candidate against ONE object's position
  /// span. It is the decision unit of every solver: the prune pipeline's
  /// remnant batches, and one-candidate batches for the bound-ordered walk,
  /// approx's refine and the probes. `influenced[i]`
  /// receives the decision for `candidates[i]`; the two spans' contiguity
  /// is what the columnar arena buys.
  ///
  /// On tiers above kScalar every batch, one candidate included, first
  /// runs the SIMD filter (influence_kernel_simd.h): lanes whose
  /// conservative log-survival bracket clears a threshold are decided from
  /// the bound table, the rest are refined through the exact scalar
  /// Decide — so the decisions are bit-identical to the scalar path on
  /// every input. Counters are chunk-granular for filter-decided lanes:
  /// positions_seen per pair is >= the scalar path's value and <= the span
  /// size, and deterministic for a given (candidates, positions) batch.
  InfluenceBatchCounters DecideMany(std::span<const Point> candidates,
                                    std::span<const Point> positions,
                                    std::span<uint8_t> influenced) const;

 private:
  InfluenceDecision DecideImpl(const Point& candidate,
                               std::span<const Point> positions) const;

  const ProbabilityFunction* pf_;
  double tau_;
  /// log-survival values <= this certify influence under the full-scan
  /// test (a log1p(-tau) nudged down past any faithful-rounding slack).
  double early_exit_log_survival_;
  /// SelfCheckEnabled() at construction; kernels are built per solve, so
  /// this keeps the hot loop free of atomic loads.
  bool self_check_;
  /// ResolveSimdTier() at construction — per-thread kernels built from the
  /// same environment therefore share the dispatch decision.
  SimdTier tier_ = SimdTier::kScalar;
  /// Bound table + tier for DecideMany's filter phase; null on kScalar.
  /// shared_ptr keeps the kernel cheaply copyable.
  std::shared_ptr<const SimdInfluenceFilter> filter_;
};

}  // namespace pinocchio

#endif  // PINOCCHIO_PROB_INFLUENCE_KERNEL_H_
