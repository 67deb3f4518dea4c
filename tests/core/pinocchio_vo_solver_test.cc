#include "core/pinocchio_vo_solver.h"

#include <algorithm>
#include <tuple>

#include <gtest/gtest.h>

#include "core/naive_solver.h"
#include "core/prepared_instance.h"
#include "testing/instance_helpers.h"

namespace pinocchio {
namespace {

using testing_helpers::DefaultConfig;
using testing_helpers::InstanceOptions;
using testing_helpers::RandomInstance;

TEST(PinocchioVOTest, EmptyInstance) {
  ProblemInstance instance;
  const SolverResult result =
      PinocchioVOSolver().Solve(instance, DefaultConfig());
  EXPECT_TRUE(result.influence.empty());
}

TEST(PinocchioVOTest, WinnerMatchesNaive) {
  const ProblemInstance instance = RandomInstance(301);
  const SolverConfig config = DefaultConfig();
  const SolverResult naive = NaiveSolver().Solve(instance, config);
  const SolverResult vo = PinocchioVOSolver().Solve(instance, config);
  // Winners may differ only among exact ties.
  EXPECT_EQ(naive.influence[vo.best_candidate], naive.best_influence);
  EXPECT_EQ(vo.best_influence, naive.best_influence);
}

TEST(PinocchioVOTest, InfluencesAreLowerBounds) {
  const ProblemInstance instance = RandomInstance(302);
  const SolverConfig config = DefaultConfig();
  const SolverResult naive = NaiveSolver().Solve(instance, config);
  const SolverResult vo = PinocchioVOSolver().Solve(instance, config);
  EXPECT_FALSE(vo.influence_exact);
  ASSERT_EQ(vo.influence.size(), naive.influence.size());
  for (size_t j = 0; j < vo.influence.size(); ++j) {
    EXPECT_LE(vo.influence[j], naive.influence[j]) << "candidate " << j;
    EXPECT_GE(vo.influence[j], 0);
  }
}

TEST(PinocchioVOTest, StarVariantAlsoFindsWinner) {
  const ProblemInstance instance = RandomInstance(303);
  const SolverConfig config = DefaultConfig();
  const SolverResult naive = NaiveSolver().Solve(instance, config);
  const SolverResult star = PinocchioVOStarSolver().Solve(instance, config);
  EXPECT_EQ(naive.influence[star.best_candidate], naive.best_influence);
  EXPECT_EQ(star.best_influence, naive.best_influence);
  // Without pruning there are no IA/NIB statistics.
  EXPECT_EQ(star.stats.pairs_pruned_by_ia, 0);
  EXPECT_EQ(star.stats.pairs_pruned_by_nib, 0);
}

TEST(PinocchioVOTest, TopKPrefixIsExact) {
  const ProblemInstance instance = RandomInstance(304);
  SolverConfig config = DefaultConfig();
  const SolverResult naive = NaiveSolver().Solve(instance, config);
  for (size_t k : {1u, 3u, 5u, 10u}) {
    config.top_k = k;
    const SolverResult vo = PinocchioVOSolver().Solve(instance, config);
    const auto top = vo.TopK(k);
    ASSERT_EQ(top.size(), std::min(k, instance.candidates.size()));
    for (size_t i = 0; i < top.size(); ++i) {
      // The i-th reported influence must be exact and equal to the i-th
      // best true influence.
      EXPECT_EQ(vo.influence[top[i]], naive.influence[top[i]])
          << "k=" << k << " rank " << i;
      EXPECT_EQ(vo.influence[top[i]], naive.influence[naive.ranking[i]])
          << "k=" << k << " rank " << i;
    }
  }
}

TEST(PinocchioVOTest, Strategy1SkipsWork) {
  // With a clear winner, Strategy 1 should avoid validating every candidate.
  InstanceOptions opts;
  opts.num_objects = 80;
  opts.num_candidates = 100;
  opts.roamer_fraction = 0.0;
  const ProblemInstance instance = RandomInstance(305, opts);
  const SolverResult vo = PinocchioVOSolver().Solve(instance, DefaultConfig());
  EXPECT_LT(vo.stats.heap_pops,
            static_cast<int64_t>(instance.candidates.size()));
}

TEST(PinocchioVOTest, Strategy2StopsEarly) {
  // Objects with many positions close to candidates: the partial
  // non-influence probability collapses quickly, so early stops must fire.
  InstanceOptions opts;
  opts.min_positions = 20;
  opts.max_positions = 40;
  opts.roamer_fraction = 0.0;
  opts.extent_meters = 4000.0;  // dense: influence probabilities high
  const ProblemInstance instance = RandomInstance(306, opts);
  SolverConfig config = DefaultConfig(0.3);
  const SolverResult vo = PinocchioVOStarSolver().Solve(instance, config);
  EXPECT_GT(vo.stats.early_stops, 0);
  // Early stopping means strictly fewer positions scanned than full scans.
  const SolverResult naive = NaiveSolver().Solve(instance, config);
  EXPECT_LT(vo.stats.positions_scanned, naive.stats.positions_scanned);
}

TEST(PinocchioVOTest, ScansFewerPositionsThanPlainPinocchioWouldNeed) {
  const ProblemInstance instance = RandomInstance(307);
  const SolverConfig config = DefaultConfig();
  const SolverResult naive = NaiveSolver().Solve(instance, config);
  const SolverResult vo = PinocchioVOSolver().Solve(instance, config);
  EXPECT_LE(vo.stats.positions_scanned, naive.stats.positions_scanned);
}

TEST(PinocchioVOTest, TopKLargerThanCandidateCount) {
  const ProblemInstance instance = RandomInstance(308);
  SolverConfig config = DefaultConfig();
  config.top_k = instance.candidates.size() + 50;
  const SolverResult naive = NaiveSolver().Solve(instance, config);
  const SolverResult vo = PinocchioVOSolver().Solve(instance, config);
  // With top_k >= m every candidate is fully validated: exact everywhere.
  EXPECT_EQ(vo.influence, naive.influence);
}

// Same answer and counters; timings may differ.
void ExpectSameSolve(const SolverResult& got, const SolverResult& want) {
  const auto counters = [](const SolverStats& s) {
    return std::tuple(s.pairs_pruned_by_ia, s.pairs_pruned_by_nib,
                      s.pairs_validated, s.positions_scanned, s.early_stops,
                      s.heap_pops, s.strategy1_cutoffs);
  };
  EXPECT_EQ(got.influence, want.influence);
  EXPECT_EQ(got.influence_exact, want.influence_exact);
  EXPECT_EQ(got.ranking, want.ranking);
  EXPECT_EQ(counters(got.stats), counters(want.stats));
}

// Solve is SolvePinocchioVO at the config's top_k and the solver's budget;
// use_pruning == false is the PIN-VO* ablation.
TEST(SolvePinocchioVOTest, SolveRunsItAtConfigTopK) {
  SolverConfig config = DefaultConfig();
  config.top_k = 4;
  const PreparedInstance prepared(RandomInstance(310), config);
  for (size_t threads : {1u, 3u}) {
    ExpectSameSolve(PinocchioVOSolver(threads).Solve(prepared),
                    SolvePinocchioVO(prepared, 4, true, threads));
  }
}

TEST(SolvePinocchioVOTest, WithoutPruningIsTheStarAblation) {
  SolverConfig config = DefaultConfig();
  config.top_k = 3;
  const PreparedInstance prepared(RandomInstance(311), config);
  for (size_t threads : {1u, 3u}) {
    ExpectSameSolve(PinocchioVOStarSolver(threads).Solve(prepared),
                    SolvePinocchioVO(prepared, 3, false, threads));
  }
}

// The walk's capacity is `k`, not the top_k the instance was prepared at.
TEST(SolvePinocchioVOTest, KOverridesConfigTopK) {
  const ProblemInstance instance = RandomInstance(312);
  SolverConfig wide = DefaultConfig();
  wide.top_k = 6;
  ExpectSameSolve(SolvePinocchioVO(PreparedInstance(instance, DefaultConfig()),
                                   6, true, 1),  // prepared at top_k 1
                  PinocchioVOSolver().Solve(instance, wide));
}

TEST(PinocchioVODeathTest, RejectsZeroTopK) {
  const ProblemInstance instance = RandomInstance(309);
  SolverConfig config = DefaultConfig();
  config.top_k = 0;
  EXPECT_DEATH(
      { PinocchioVOSolver().Solve(instance, config); }, "Check failed");
}

TEST(SolvePinocchioVODeathTest, RejectsZeroK) {
  const ProblemInstance instance = RandomInstance(313);
  const PreparedInstance prepared(instance, DefaultConfig());
  EXPECT_DEATH({ SolvePinocchioVO(prepared, 0, true, 1); }, "Check failed");
}

}  // namespace
}  // namespace pinocchio
