#include "core/weighted_solver.h"

#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/influence_query.h"
#include "core/object_store.h"
#include "core/pinocchio_solver.h"
#include "testing/instance_helpers.h"
#include "util/random.h"

namespace pinocchio {
namespace {

using testing_helpers::DefaultConfig;
using testing_helpers::RandomInstance;

TEST(WeightedSolverTest, UnitWeightsMatchUnweightedSolver) {
  const ProblemInstance instance = RandomInstance(1501);
  const SolverConfig config = DefaultConfig();
  const std::vector<double> unit(instance.objects.size(), 1.0);
  const WeightedSolverResult weighted =
      SolveWeightedPinocchio(instance, unit, config);
  const SolverResult plain = PinocchioSolver().Solve(instance, config);
  ASSERT_EQ(weighted.score.size(), plain.influence.size());
  for (size_t j = 0; j < weighted.score.size(); ++j) {
    EXPECT_DOUBLE_EQ(weighted.score[j],
                     static_cast<double>(plain.influence[j]));
  }
  EXPECT_EQ(weighted.best_candidate, plain.best_candidate);
  // Both run the same prune-and-validate pass, so every pass counter agrees.
  EXPECT_EQ(weighted.stats.pairs_pruned_by_ia, plain.stats.pairs_pruned_by_ia);
  EXPECT_EQ(weighted.stats.pairs_pruned_by_nib,
            plain.stats.pairs_pruned_by_nib);
  EXPECT_EQ(weighted.stats.pairs_validated, plain.stats.pairs_validated);
  EXPECT_EQ(weighted.stats.positions_scanned, plain.stats.positions_scanned);
  EXPECT_EQ(weighted.stats.early_stops, plain.stats.early_stops);
}

TEST(WeightedSolverTest, MatchesQueryPathPerCandidate) {
  const ProblemInstance instance = RandomInstance(1502);
  const SolverConfig config = DefaultConfig();
  std::vector<double> weights;
  Rng rng(3);
  for (size_t k = 0; k < instance.objects.size(); ++k) {
    weights.push_back(rng.Uniform(0.0, 10.0));
  }
  const WeightedSolverResult result =
      SolveWeightedPinocchio(instance, weights, config);
  const ObjectStore store(instance.objects, *config.pf, config.tau);
  for (size_t j = 0; j < instance.candidates.size(); ++j) {
    EXPECT_NEAR(result.score[j],
                WeightedInfluenceOfCandidate(store, weights,
                                             instance.candidates[j],
                                             *config.pf),
                1e-9)
        << "candidate " << j;
  }
}

TEST(WeightedSolverTest, ZeroWeightObjectsDoNotCount) {
  const ProblemInstance instance = RandomInstance(1503);
  const SolverConfig config = DefaultConfig();
  const std::vector<double> zero(instance.objects.size(), 0.0);
  const WeightedSolverResult result =
      SolveWeightedPinocchio(instance, zero, config);
  for (double s : result.score) EXPECT_DOUBLE_EQ(s, 0.0);
}

TEST(WeightedSolverTest, RankingSortedByScore) {
  const ProblemInstance instance = RandomInstance(1504);
  std::vector<double> weights(instance.objects.size(), 2.5);
  const WeightedSolverResult result =
      SolveWeightedPinocchio(instance, weights, DefaultConfig());
  for (size_t i = 1; i < result.ranking.size(); ++i) {
    EXPECT_GE(result.score[result.ranking[i - 1]],
              result.score[result.ranking[i]]);
  }
}

TEST(WeightedSolverTest, HeavyCrowdWins) {
  // Two crowds; the small crowd carries huge weights and must win.
  ProblemInstance instance;
  Rng rng(21);
  std::vector<double> weights;
  for (uint32_t k = 0; k < 30; ++k) {
    MovingObject o;
    o.id = k;
    const bool heavy = k < 5;  // 5 heavy objects at (20000, 0)
    const double cx = heavy ? 20000.0 : 0.0;
    for (int i = 0; i < 6; ++i) {
      o.positions.push_back({cx + rng.Gaussian(0, 200),
                             rng.Gaussian(0, 200)});
    }
    instance.objects.push_back(std::move(o));
    weights.push_back(heavy ? 100.0 : 1.0);
  }
  instance.candidates = {{0, 0}, {20000, 0}};
  const WeightedSolverResult result =
      SolveWeightedPinocchio(instance, weights, DefaultConfig());
  EXPECT_EQ(result.best_candidate, 1u);
  EXPECT_GE(result.best_score, 500.0);
}

TEST(WeightedSolverTest, EmptyCandidateSetScoresZero) {
  ProblemInstance instance = RandomInstance(908);
  instance.candidates.clear();
  const std::vector<double> weights(instance.objects.size(), 1.0);
  const WeightedSolverResult result =
      SolveWeightedPinocchio(instance, weights, DefaultConfig());
  EXPECT_EQ(result.best_candidate, 0u);
  EXPECT_DOUBLE_EQ(result.best_score, 0.0);
}

TEST(WeightedSolverTest, PassCountersDoNotDependOnWeights) {
  // Weights change only what the visitor adds up, never which pairs the
  // pass prunes, validates or scans.
  const ProblemInstance instance = RandomInstance(1511);
  const SolverConfig config = DefaultConfig();
  const std::vector<double> unit(instance.objects.size(), 1.0);
  Rng rng(1511);
  std::vector<double> weights;
  for (size_t k = 0; k < instance.objects.size(); ++k) {
    weights.push_back(rng.Uniform(0.0, 5.0));
  }
  const WeightedSolverResult a = SolveWeightedPinocchio(instance, unit, config);
  const WeightedSolverResult b =
      SolveWeightedPinocchio(instance, weights, config);
  EXPECT_EQ(a.stats.pairs_pruned_by_ia, b.stats.pairs_pruned_by_ia);
  EXPECT_EQ(a.stats.pairs_pruned_by_nib, b.stats.pairs_pruned_by_nib);
  EXPECT_EQ(a.stats.pairs_validated, b.stats.pairs_validated);
  EXPECT_EQ(a.stats.positions_scanned, b.stats.positions_scanned);
  EXPECT_EQ(a.stats.early_stops, b.stats.early_stops);
}

TEST(WeightedVOTest, WinnerAttainsTrueMaximum) {
  Rng rng(7);
  for (uint64_t seed : {1506u, 1507u, 1508u}) {
    const ProblemInstance instance = RandomInstance(seed);
    const SolverConfig config = DefaultConfig();
    std::vector<double> weights;
    for (size_t k = 0; k < instance.objects.size(); ++k) {
      weights.push_back(rng.Uniform(0.0, 5.0));
    }
    const WeightedSolverResult exact =
        SolveWeightedPinocchio(instance, weights, config);
    const WeightedVOResult vo =
        SolveWeightedPinocchioVO(instance, weights, config);
    EXPECT_NEAR(vo.best_score, exact.best_score, 1e-9) << seed;
    EXPECT_NEAR(exact.score[vo.best_candidate], exact.best_score, 1e-9)
        << seed;
  }
}

TEST(WeightedVOTest, ExactFlagsAreTrustworthy) {
  const ProblemInstance instance = RandomInstance(1509);
  const SolverConfig config = DefaultConfig();
  std::vector<double> weights(instance.objects.size(), 1.0);
  const WeightedSolverResult exact =
      SolveWeightedPinocchio(instance, weights, config);
  const WeightedVOResult vo =
      SolveWeightedPinocchioVO(instance, weights, config);
  for (size_t j = 0; j < instance.candidates.size(); ++j) {
    if (vo.score_exact[j]) {
      EXPECT_NEAR(vo.score[j], exact.score[j], 1e-9) << j;
    } else {
      EXPECT_LE(vo.score[j], exact.score[j] + 1e-9) << j;  // lower bound
    }
  }
}

TEST(WeightedVOTest, AllZeroWeights) {
  const ProblemInstance instance = RandomInstance(1510);
  const std::vector<double> zero(instance.objects.size(), 0.0);
  const WeightedVOResult vo =
      SolveWeightedPinocchioVO(instance, zero, DefaultConfig());
  EXPECT_DOUBLE_EQ(vo.best_score, 0.0);
}

TEST(WeightedSolverDeathTest, RejectsBadWeights) {
  const ProblemInstance instance = RandomInstance(1505);
  const SolverConfig config = DefaultConfig();
  const std::vector<double> short_weights(instance.objects.size() - 1, 1.0);
  EXPECT_DEATH(SolveWeightedPinocchio(instance, short_weights, config),
               "Check failed");
  std::vector<double> negative(instance.objects.size(), 1.0);
  negative[0] = -1.0;
  EXPECT_DEATH(SolveWeightedPinocchio(instance, negative, config),
               "Check failed");
}

}  // namespace
}  // namespace pinocchio
