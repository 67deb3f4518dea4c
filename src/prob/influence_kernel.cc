#include "prob/influence_kernel.h"

#include <cmath>
#include <limits>
#include <sstream>
#include <vector>

#include "prob/influence.h"
#include "util/logging.h"
#include "util/self_check.h"

namespace pinocchio {

InfluenceKernel::InfluenceKernel(const ProbabilityFunction& pf, double tau)
    : pf_(&pf), tau_(tau), self_check_(SelfCheckEnabled()) {
  PINO_CHECK_GT(tau, 0.0);
  PINO_CHECK_LT(tau, 1.0);
  // log1p and expm1 are faithfully rounded but not exact inverses, so
  // -expm1(log1p(-tau)) may land an ulp below tau. Back the threshold off
  // until crossing it provably implies the scalar test succeeds; expm1's
  // monotonicity then guarantees agreement for every smaller log-survival.
  double threshold = std::log1p(-tau);
  while (-std::expm1(threshold) < tau) {
    threshold =
        std::nextafter(threshold, -std::numeric_limits<double>::infinity());
  }
  early_exit_log_survival_ = threshold;
  tier_ = ResolveSimdTier();
  if (tier_ != SimdTier::kScalar) {
    filter_ = std::make_shared<const SimdInfluenceFilter>(
        pf, tau, early_exit_log_survival_, tier_);
  }
}

double InfluenceKernel::Probability(const Point& candidate,
                                    std::span<const Point> positions) const {
  return CumulativeInfluenceProbability(*pf_, candidate, positions);
}

InfluenceDecision InfluenceKernel::Decide(
    const Point& candidate, std::span<const Point> positions) const {
  const InfluenceDecision decision = DecideImpl(candidate, positions);
  if (self_check_) {
    const double probability = Probability(candidate, positions);
    const bool naive = probability >= tau_;
    if (decision.influenced != naive) {
      std::ostringstream msg;
      msg.precision(17);
      msg << "kernel Decide disagrees with naive Pr_c(O) >= tau: decided "
          << (decision.influenced ? "influenced" : "not influenced")
          << (decision.decided_early ? " (early exit)" : "") << " but Pr_c(O)="
          << probability << " vs tau=" << tau_ << " for candidate ("
          << candidate.x << ", " << candidate.y << ") over "
          << positions.size() << " positions, pf=" << pf_->Name();
      ReportSelfCheckViolation(msg.str());
    }
  }
  return decision;
}

InfluenceDecision InfluenceKernel::DecideImpl(
    const Point& candidate, std::span<const Point> positions) const {
  const auto n = static_cast<uint32_t>(positions.size());
  double log_survival = 0.0;
  uint32_t seen = 0;
  for (const Point& p : positions) {
    const double prob = (*pf_)(Distance(candidate, p));
    ++seen;
    if (prob >= 1.0) return {true, seen, seen < n};
    log_survival += std::log1p(-prob);
    if (log_survival <= early_exit_log_survival_) return {true, seen, seen < n};
  }
  return {-std::expm1(log_survival) >= tau_, seen, false};
}

void InfluenceKernel::VerifyFilterDecision(const Point& candidate,
                                           std::span<const Point> positions,
                                           bool influenced) const {
  const double probability = Probability(candidate, positions);
  if ((probability >= tau_) == influenced) return;
  std::ostringstream msg;
  msg.precision(17);
  msg << "SIMD filter (" << SimdTierName(tier_)
      << ") disagrees with naive Pr_c(O) >= tau: certified "
      << (influenced ? "influenced" : "not influenced")
      << " but Pr_c(O)=" << probability << " vs tau=" << tau_
      << " for candidate (" << candidate.x << ", " << candidate.y << ") over "
      << positions.size() << " positions, pf=" << pf_->Name();
  ReportSelfCheckViolation(msg.str());
}

inline InfluenceDecision InfluenceKernel::Resolve(
    const Point& candidate, std::span<const Point> positions,
    const simd_internal::LaneOutcome& lane) const {
  if (lane.state == simd_internal::LaneState::kUndecided) {
    // Boundary band: the conservative bracket straddles a threshold, so
    // the exact scalar path (which self-checks internally) decides.
    return Decide(candidate, positions);
  }
  const bool influenced = lane.state == simd_internal::LaneState::kInfluenced;
  if (self_check_) VerifyFilterDecision(candidate, positions, influenced);
  return {influenced, lane.positions_seen,
          influenced && lane.positions_seen < positions.size()};
}

InfluenceBatchCounters InfluenceKernel::DecideMany(
    std::span<const Point> candidates, std::span<const Point> positions,
    std::span<uint8_t> influenced) const {
  PINO_CHECK_EQ(influenced.size(), candidates.size());
  InfluenceBatchCounters counters;
  const auto record = [&](size_t i, const InfluenceDecision& d) {
    influenced[i] = d.influenced ? 1 : 0;
    counters.positions_seen += d.positions_seen;
    if (d.decided_early) ++counters.early_stops;
  };
  // Any batch size runs the filter: a batch narrower than the tier's
  // vector takes the portable one-lane code, which still replaces pow +
  // log1p per position with two table loads. Empty position spans are
  // degenerate and take the scalar path.
  if (filter_ == nullptr || positions.empty()) {
    for (size_t i = 0; i < candidates.size(); ++i) {
      record(i, Decide(candidates[i], positions));
    }
    return counters;
  }
  thread_local std::vector<simd_internal::LaneOutcome> outcomes;
  outcomes.resize(candidates.size());
  filter_->Filter(candidates, positions, outcomes.data());
  for (size_t i = 0; i < candidates.size(); ++i) {
    record(i, Resolve(candidates[i], positions, outcomes[i]));
  }
  return counters;
}

InfluenceSetCounters InfluenceKernel::DecideSet(
    const Point& candidate, std::span<const uint32_t> records,
    FunctionRef<std::span<const Point>(uint32_t)> positions,
    int64_t refutation_budget) const {
  PINO_CHECK_GE(refutation_budget, 0);
  InfluenceSetCounters out;
  size_t thresholds_n = 0;  // no span is empty on the filtered path
  simd_internal::SpanThresholds thresholds;
  for (size_t i = 0; i < records.size(); ++i) {
    const std::span<const Point> span = positions(records[i]);
    InfluenceDecision d;
    if (filter_ == nullptr || span.empty()) {
      d = Decide(candidate, span);
    } else {
      if (span.size() != thresholds_n) {
        thresholds_n = span.size();
        thresholds = filter_->Thresholds(thresholds_n);
      }
      d = Resolve(candidate, span,
                  filter_->FilterOne(candidate, span, thresholds));
    }
    out.positions_seen += d.positions_seen;
    if (d.decided_early) ++out.early_stops;
    if (d.influenced) {
      ++out.influenced;
    } else if (++out.refuted > refutation_budget && i + 1 < records.size()) {
      out.complete = false;
      break;
    }
  }
  return out;
}

}  // namespace pinocchio
