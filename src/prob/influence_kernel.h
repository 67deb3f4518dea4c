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
#include <limits>
#include <memory>
#include <span>

#include "geo/point.h"
#include "prob/influence_kernel_simd.h"
#include "prob/probability_function.h"
#include "util/function_ref.h"

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

/// Outcome and work of one InfluenceKernel::DecideSet call.
struct InfluenceSetCounters {
  /// Records decided influenced and not influenced (refuted).
  int64_t influenced = 0;
  int64_t refuted = 0;
  int64_t positions_seen = 0;
  int64_t early_stops = 0;
  /// False iff the refutation budget stopped the walk with records left.
  bool complete = true;
};

/// A refutation budget that never stops a DecideSet walk.
inline constexpr int64_t kUnlimitedRefutations =
    std::numeric_limits<int64_t>::max();

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

  /// The filter DecideMany runs, null on kScalar. The stream engine sums
  /// its bound table instead of building a second one.
  const std::shared_ptr<const SimdInfluenceFilter>& filter() const {
    return filter_;
  }

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
  /// span: the prune pipeline's remnant batches and the probes.
  /// `influenced[i]` receives the decision for `candidates[i]`; the two
  /// spans' contiguity is what the columnar arena buys.
  ///
  /// On tiers above kScalar every batch first runs the SIMD filter
  /// (influence_kernel_simd.h): lanes whose conservative log-survival
  /// bracket clears a threshold are decided from the bound table, the rest
  /// are refined through the exact scalar Decide — so the decisions are
  /// bit-identical to the scalar path on every input. Lanes past the
  /// tier's last full vector, and so a one-candidate batch, take the
  /// portable one-lane loop, DecideSet's per-record unit. Counters are
  /// chunk-granular for filter-decided lanes: positions_seen per pair is
  /// >= the scalar path's value and <= the span size, and deterministic
  /// for a given (candidates, positions) batch.
  InfluenceBatchCounters DecideMany(std::span<const Point> candidates,
                                    std::span<const Point> positions,
                                    std::span<uint8_t> influenced) const;

  /// Set-at-a-time variant: decides ONE candidate against the objects
  /// `records`, in order, where `positions(r)` is record r's span. It stops
  /// before the next record once more than `refutation_budget` records
  /// have been refuted (complete = false); a walk whose budget runs out on
  /// its last record is complete. This is the bound-ordered walk's
  /// Strategy-1 abort; kUnlimitedRefutations decides the whole set. Every
  /// pair's decision, positions_seen and early stop equal a one-candidate
  /// DecideMany's on the same tier, self-check included; the span
  /// thresholds are computed once per run of equal span sizes, so a set
  /// ordered by position count computes them once per distinct n.
  InfluenceSetCounters DecideSet(
      const Point& candidate, std::span<const uint32_t> records,
      FunctionRef<std::span<const Point>(uint32_t)> positions,
      int64_t refutation_budget) const;

 private:
  InfluenceDecision DecideImpl(const Point& candidate,
                               std::span<const Point> positions) const;

  /// The filter's verdict on one pair turned into a decision: undecided
  /// lanes are refined through Decide, decided ones re-verified against
  /// the naive test under self-check.
  InfluenceDecision Resolve(const Point& candidate,
                            std::span<const Point> positions,
                            const simd_internal::LaneOutcome& lane) const;

  /// Self-check of one filter-decided pair against Pr_c(O) >= tau. Out of
  /// line so Resolve, which runs per lane, stays small enough to inline.
  [[gnu::cold, gnu::noinline]] void VerifyFilterDecision(
      const Point& candidate, std::span<const Point> positions,
      bool influenced) const;

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
