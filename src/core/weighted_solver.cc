#include "core/weighted_solver.h"

#include <algorithm>
#include <numeric>

#include "core/prepared_instance.h"
#include "core/prune_pipeline.h"
#include "core/query_engine.h"
#include "prob/influence_kernel.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace pinocchio {
namespace {

/// Weighted Strategy-1 acceptance over the shared bound-domination engine:
/// the bracket is the weight sum [running, running + remaining] instead of
/// an integer pair, and domination compares against the best fully
/// validated score. The floating-point accumulation order (remaining
/// always debited before running is credited, record by record) is exactly
/// the pre-engine loop's, keeping scores bit-identical.
class WeightedCutoffPolicy {
 public:
  WeightedCutoffPolicy(std::span<const double> weights,
                       std::span<const double> min_score,
                       std::span<const double> undecided,
                       WeightedVOResult* result)
      : weights_(weights),
        min_score_(min_score),
        undecided_(undecided),
        result_(result) {}

  query::CandidateAdmission Admit(uint32_t j) {
    if (min_score_[j] + undecided_[j] < best_) {
      return query::CandidateAdmission::kStop;
    }
    running_ = min_score_[j];
    remaining_ = undecided_[j];
    return query::CandidateAdmission::kEvaluate;
  }

  bool AbortValidation(uint32_t /*j*/) const {
    return running_ + remaining_ < best_;
  }

  void OnDecision(uint32_t /*j*/, uint32_t rec_idx, bool influenced) {
    remaining_ -= weights_[rec_idx];
    if (influenced) running_ += weights_[rec_idx];
  }

  void Settle(uint32_t j, bool complete) {
    result_->score[j] = running_;
    result_->score_exact[j] = complete;
    if (complete && running_ > best_) {
      best_ = running_;
      best_candidate_ = j;
    }
  }

  double best() const { return best_; }
  uint32_t best_candidate() const { return best_candidate_; }
  void set_best_candidate(uint32_t j) { best_candidate_ = j; }

 private:
  std::span<const double> weights_;
  std::span<const double> min_score_;
  std::span<const double> undecided_;
  WeightedVOResult* result_;
  double best_ = -1.0;
  uint32_t best_candidate_ = 0;
  double running_ = 0.0;
  double remaining_ = 0.0;
};

}  // namespace

WeightedSolverResult SolveWeightedPinocchio(const PreparedInstance& prepared,
                                            std::span<const double> weights) {
  PINO_CHECK_EQ(weights.size(), prepared.num_objects());
  for (double w : weights) PINO_CHECK_GE(w, 0.0);

  Stopwatch watch;
  WeightedSolverResult result;
  const size_t m = prepared.num_candidates();
  result.score.assign(m, 0.0);
  if (m == 0) {
    internal::FinishSolveTiming(&result.stats, watch.ElapsedSeconds());
    return result;
  }

  // The boolean solver's prune-and-validate pass, crediting the object's
  // weight instead of 1. It runs sequentially: records are visited in
  // order, so each candidate's floating-point sum has one fixed order.
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());
  PruneAndValidate(prepared.candidate_rtree(), prepared.store(), kernel, 0,
                   static_cast<uint32_t>(prepared.num_objects()), m,
                   &result.stats, [&](uint32_t j, uint32_t k) {
                     result.score[j] += weights[k];
                   });

  result.ranking.resize(m);
  std::iota(result.ranking.begin(), result.ranking.end(), 0u);
  std::stable_sort(result.ranking.begin(), result.ranking.end(),
                   [&](uint32_t a, uint32_t b) {
                     return result.score[a] > result.score[b];
                   });
  result.best_candidate = result.ranking.front();
  result.best_score = result.score[result.best_candidate];
  internal::FinishSolveTiming(&result.stats, watch.ElapsedSeconds());
  return result;
}

WeightedSolverResult SolveWeightedPinocchio(const ProblemInstance& instance,
                                            std::span<const double> weights,
                                            const SolverConfig& config) {
  Stopwatch watch;
  const PreparedInstance prepared(instance, config);
  const double prepare_seconds = watch.ElapsedSeconds();
  WeightedSolverResult result = SolveWeightedPinocchio(prepared, weights);
  result.stats.prepare_seconds = prepare_seconds;
  result.stats.elapsed_seconds = prepare_seconds + result.stats.solve_seconds;
  return result;
}

WeightedVOResult SolveWeightedPinocchioVO(const PreparedInstance& prepared,
                                          std::span<const double> weights) {
  PINO_CHECK_EQ(weights.size(), prepared.num_objects());
  for (double w : weights) PINO_CHECK_GE(w, 0.0);

  Stopwatch watch;
  WeightedVOResult result;
  const size_t m = prepared.num_candidates();
  result.score.assign(m, 0.0);
  result.score_exact.assign(m, false);
  if (m == 0) {
    internal::FinishSolveTiming(&result.stats, watch.ElapsedSeconds());
    return result;
  }

  const ObjectStore& store = prepared.store();
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());

  // Prune phase: IA certificates raise the lower bound; the verification
  // set carries the undecided weight. Like the boolean VO solver, the sets
  // live in one flat CSR layout (vs_data sliced by vs_offsets) transposed
  // from the record-major remnant lists.
  std::vector<double> min_score(m, 0.0);
  std::vector<double> undecided(m, 0.0);
  RecordCandidateLists remnants;
  remnants.counts.assign(store.records().size(), 0);
  ClassifyCandidates(
      prepared.candidate_rtree(), store, kernel, 0,
      static_cast<uint32_t>(store.records().size()), m, &result.stats,
      [&](const RTreeEntry& e, uint32_t k) { min_score[e.id] += weights[k]; },
      [&](const RTreeEntry& e, uint32_t k) {
        remnants.candidates.push_back(e.id);
        ++remnants.counts[k];
        undecided[e.id] += weights[k];
      });
  std::vector<uint32_t> vs_offsets;
  std::vector<uint32_t> vs_data;
  query::RecordListsToCsr(m, {&remnants, 1}, &vs_offsets, &vs_data);

  // Validation in decreasing upper-bound order with Strategy-1 cut-offs.
  std::vector<uint32_t> order(m);
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return min_score[a] + undecided[a] > min_score[b] + undecided[b];
  });

  WeightedCutoffPolicy policy(weights, min_score, undecided, &result);
  policy.set_best_candidate(order.front());
  const auto verification_set = [&](uint32_t j) -> std::span<const uint32_t> {
    return std::span<const uint32_t>(vs_data).subspan(
        vs_offsets[j], vs_offsets[j + 1] - vs_offsets[j]);
  };
  query::EvaluateBoundOrdered(prepared, kernel, order, verification_set,
                              &result.stats, policy);
  result.best_candidate = policy.best_candidate();
  result.best_score = std::max(0.0, policy.best());
  internal::FinishSolveTiming(&result.stats, watch.ElapsedSeconds());
  return result;
}

WeightedVOResult SolveWeightedPinocchioVO(const ProblemInstance& instance,
                                          std::span<const double> weights,
                                          const SolverConfig& config) {
  Stopwatch watch;
  const PreparedInstance prepared(instance, config);
  const double prepare_seconds = watch.ElapsedSeconds();
  WeightedVOResult result = SolveWeightedPinocchioVO(prepared, weights);
  result.stats.prepare_seconds = prepare_seconds;
  result.stats.elapsed_seconds = prepare_seconds + result.stats.solve_seconds;
  return result;
}

}  // namespace pinocchio
