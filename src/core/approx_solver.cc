#include "core/approx_solver.h"

#include <algorithm>
#include <utility>

#include "prob/influence_kernel.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace pinocchio {
namespace {

/// Approximate top-k acceptance. The engine walks the SAMPLED verification
/// set (PrepareSample below is the `verification_set` callback), every
/// sampled record is decided exactly, and the caller's bracket vectors
/// track the certain envelope [min_inf + influenced, max_inf - refuted] —
/// so the engine's Strategy-1 budget stays sound mid-walk. At Settle the
/// observed fraction is scaled into the Hoeffding bracket and the
/// candidate is settled per the header contract: miss -> discard,
/// clear -> accept approximately, straddle -> exact refinement of the
/// unsampled remainder.
class ApproxTopKPolicy {
 public:
  ApproxTopKPolicy(size_t capacity, const PreparedInstance& prepared,
                   const InfluenceKernel& kernel, const InfluenceSketch& sketch,
                   int64_t width_cap, query::CandidateBrackets* brackets,
                   ApproxTopKResult* result)
      : cutoff_(capacity),
        prepared_(&prepared),
        kernel_(&kernel),
        sketch_(&sketch),
        width_cap_(width_cap),
        brackets_(brackets),
        result_(result) {}

  /// The engine's verification-set callback: the deterministic sample of
  /// candidate j's set (the set itself when the budget covers it). Also
  /// snapshots the per-candidate context Settle needs.
  std::span<const uint32_t> PrepareSample(uint32_t j) {
    const std::span<const uint32_t> records = brackets_->VerificationSet(j);
    set_size_ = records.size();
    lo_base_ = brackets_->min_inf[j];
    positions_ = sketch_->SamplePositions(j, set_size_);
    sampled_records_.clear();
    sampled_records_.reserve(positions_.size());
    for (uint32_t p : positions_) sampled_records_.push_back(records[p]);
    return sampled_records_;
  }

  query::CandidateAdmission Admit(uint32_t j) const {
    return Dominated(j) ? query::CandidateAdmission::kStop
                        : query::CandidateAdmission::kEvaluate;
  }

  int64_t Threshold() const {
    return cutoff_.Saturated() ? cutoff_.Value() : query::kNoThreshold;
  }

  int64_t UpperBound(uint32_t j) const { return brackets_->max_inf[j]; }

  void Settle(uint32_t j, int64_t influenced, int64_t refuted,
              bool complete) {
    brackets_->min_inf[j] += influenced;
    brackets_->max_inf[j] -= refuted;
    if (!complete) {
      // Strategy-1 abort: the certain lower bound is still a valid floor.
      cutoff_.Push(brackets_->min_inf[j]);
      return;
    }

    const size_t sampled = positions_.size();
    const SketchBracket bracket = sketch_->Bracket(
        set_size_, sampled, static_cast<size_t>(influenced));
    int64_t lo = lo_base_ + bracket.lo;
    int64_t hi = lo_base_ + bracket.hi;
    bool exact = bracket.exact;

    const bool miss = cutoff_.Saturated() && hi < cutoff_.Value();
    if (!exact && !miss) {
      const bool clears = !cutoff_.Saturated() || lo >= cutoff_.Value();
      const int64_t width = hi - lo;
      if (!clears || width > width_cap_) {
        // Straddler fallback: decide the unsampled remainder exactly; the
        // bracket collapses to the exact influence.
        Refine(j);
        lo = hi = brackets_->min_inf[j];
        exact = true;
      }
    }
    if (!exact) {
      brackets_->min_inf[j] = lo;
      brackets_->max_inf[j] = hi;
      result_->pairs_skipped += static_cast<int64_t>(set_size_ - sampled);
    }

    if (!miss) {
      ApproxEntry entry;
      entry.candidate = j;
      entry.lo = lo;
      entry.hi = hi;
      entry.estimate = lo + (hi - lo) / 2;
      entry.exact = exact;
      settled_.push_back(entry);
    }
    cutoff_.Push(lo);
  }

  /// The k best settled entries, estimate-descending.
  std::vector<ApproxEntry> TakeEntries(size_t k) {
    std::sort(settled_.begin(), settled_.end(),
              [](const ApproxEntry& a, const ApproxEntry& b) {
                if (a.estimate != b.estimate) return a.estimate > b.estimate;
                if (a.lo != b.lo) return a.lo > b.lo;
                return a.candidate < b.candidate;
              });
    if (settled_.size() > k) settled_.resize(k);
    return std::move(settled_);
  }

 private:
  bool Dominated(uint32_t j) const { return UpperBound(j) < Threshold(); }

  // Decides the records the sample skipped (the complement of the sorted
  // sample positions) in one exact set call. Afterwards
  // min_inf[j] == max_inf[j] == inf(j) by the bracket invariant.
  void Refine(uint32_t j) {
    const std::span<const uint32_t> records = brackets_->VerificationSet(j);
    unsampled_.clear();
    size_t next = 0;  // cursor into the sorted sample positions
    for (uint32_t p = 0; p < set_size_; ++p) {
      if (next < positions_.size() && positions_[next] == p) {
        ++next;
      } else {
        unsampled_.push_back(records[p]);
      }
    }
    const ObjectStore& store = prepared_->store();
    const InfluenceSetCounters decided = kernel_->DecideSet(
        prepared_->candidate(j), unsampled_,
        [&store](uint32_t rec) { return store.positions(rec); },
        kUnlimitedRefutations);
    result_->stats.positions_scanned += decided.positions_seen;
    result_->stats.early_stops += decided.early_stops;
    result_->pairs_refined += decided.influenced + decided.refuted;
    brackets_->min_inf[j] += decided.influenced;
    brackets_->max_inf[j] -= decided.refuted;
  }

  query::CutoffTracker cutoff_;
  const PreparedInstance* prepared_;
  const InfluenceKernel* kernel_;
  const InfluenceSketch* sketch_;
  int64_t width_cap_;
  query::CandidateBrackets* brackets_;
  ApproxTopKResult* result_;

  // Context of the candidate currently under validation.
  size_t set_size_ = 0;
  int64_t lo_base_ = 0;
  std::vector<uint32_t> positions_;
  std::vector<uint32_t> sampled_records_;
  std::vector<uint32_t> unsampled_;

  std::vector<ApproxEntry> settled_;
};

}  // namespace

ApproxTopKResult SolveApproxTopK(const PreparedInstance& prepared, size_t k,
                                 const SketchParams& params,
                                 size_t num_threads) {
  PINO_CHECK_GT(k, 0u);
  Stopwatch watch;
  ApproxTopKResult result;
  if (prepared.num_candidates() == 0) {
    internal::FinishSolveTiming(&result.stats, watch.ElapsedSeconds());
    return result;
  }

  const InfluenceKernel kernel(prepared.pf(), prepared.tau());
  const MorselScheduler scheduler(num_threads);
  query::CandidateBrackets brackets = query::BuildCandidateBrackets(
      prepared, kernel, /*use_pruning=*/true, &result.stats, scheduler);
  const std::vector<uint32_t> order =
      query::BoundDominationOrder(brackets, scheduler);

  const InfluenceSketch sketch(params);
  result.sample_budget = sketch.sample_budget();
  // The Hoeffding width never exceeds 2 eps |set| <= this cap, so the cap
  // only guards degenerate roundings; estimates stay within
  // eps * num_objects of the exact influence whenever the bracket holds.
  const auto width_cap = static_cast<int64_t>(
      2.0 * params.epsilon * static_cast<double>(prepared.num_objects()));

  ApproxTopKPolicy policy(std::min(k, order.size()), prepared, kernel, sketch,
                          width_cap, &brackets, &result);
  const auto verification_set = [&](uint32_t j) -> std::span<const uint32_t> {
    return policy.PrepareSample(j);
  };
  // PrepareSample keeps the candidate under validation in the policy, so
  // the walk stays at budget 1 whatever the prune phase's budget.
  query::EvaluateBoundOrdered(prepared, kernel, order, verification_set,
                              &result.stats, policy);
  result.entries = policy.TakeEntries(k);
  internal::FinishSolveTiming(&result.stats, watch.ElapsedSeconds());
  return result;
}

}  // namespace pinocchio
