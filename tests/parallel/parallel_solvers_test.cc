// Thread-budget sweep of the solvers: every result and every stats counter
// at budgets 2, 3, 4 and 7 must be bit-identical to budget 1, and budget 1
// must agree with the sequential NA oracle.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <thread>

#include "core/morsel_scheduler.h"
#include "core/naive_solver.h"
#include "core/pinocchio_solver.h"
#include "core/pinocchio_vo_solver.h"
#include "core/prepared_instance.h"
#include "parallel/parallel_solvers.h"
#include "testing/instance_helpers.h"

namespace pinocchio {
namespace {

using testing_helpers::DefaultConfig;
using testing_helpers::InstanceOptions;
using testing_helpers::RandomInstance;

constexpr size_t kBudgets[] = {2, 3, 4, 7};

void ExpectIdentical(const SolverResult& got, const SolverResult& want,
                     const std::string& label) {
  EXPECT_EQ(got.influence, want.influence) << label;
  EXPECT_EQ(got.influence_exact, want.influence_exact) << label;
  EXPECT_EQ(got.ranking, want.ranking) << label;
  EXPECT_EQ(got.best_candidate, want.best_candidate) << label;
  EXPECT_EQ(got.best_influence, want.best_influence) << label;
  EXPECT_EQ(got.stats.pairs_pruned_by_ia, want.stats.pairs_pruned_by_ia)
      << label;
  EXPECT_EQ(got.stats.pairs_pruned_by_nib, want.stats.pairs_pruned_by_nib)
      << label;
  EXPECT_EQ(got.stats.pairs_validated, want.stats.pairs_validated) << label;
  EXPECT_EQ(got.stats.positions_scanned, want.stats.positions_scanned)
      << label;
  EXPECT_EQ(got.stats.early_stops, want.stats.early_stops) << label;
  EXPECT_EQ(got.stats.heap_pops, want.stats.heap_pops) << label;
  EXPECT_EQ(got.stats.strategy1_cutoffs, want.stats.strategy1_cutoffs)
      << label;
}

/// Runs `Budgeted` at every budget of kBudgets and diffs each result
/// against budget 1, which it returns.
template <typename Budgeted>
SolverResult SweepBudgets(const ProblemInstance& instance,
                          const SolverConfig& config) {
  const SolverResult one = Budgeted(1).Solve(instance, config);
  for (size_t threads : kBudgets) {
    const Budgeted solver(threads);
    ExpectIdentical(solver.Solve(instance, config), one, solver.Name());
  }
  return one;
}

/// Sweeps PIN, PIN-VO and PIN-VO*; at budget 1 each must agree with the
/// NA oracle (PIN exactly, the VO solvers on their exact top-k).
void SweepAllSolvers(const ProblemInstance& instance,
                     const SolverConfig& config) {
  const SolverResult oracle = NaiveSolver().Solve(instance, config);
  const SolverResult pin = SweepBudgets<PinocchioSolver>(instance, config);
  EXPECT_EQ(pin.influence, oracle.influence);
  EXPECT_EQ(pin.best_candidate, oracle.best_candidate);
  const SolverResult vo = SweepBudgets<PinocchioVOSolver>(instance, config);
  const SolverResult star =
      SweepBudgets<PinocchioVOStarSolver>(instance, config);
  if (!oracle.influence.empty()) {
    EXPECT_EQ(vo.best_influence, oracle.best_influence);
    EXPECT_EQ(star.best_influence, oracle.best_influence);
  }
}

TEST(ThreadBudgetTest, PinMatchesOracleAtEveryBudget) {
  const ProblemInstance instance = RandomInstance(602);
  const SolverConfig config = DefaultConfig();
  const SolverResult oracle = NaiveSolver().Solve(instance, config);
  const SolverResult pin = SweepBudgets<PinocchioSolver>(instance, config);
  EXPECT_EQ(pin.influence, oracle.influence);
  EXPECT_EQ(pin.best_candidate, oracle.best_candidate);
}

TEST(ThreadBudgetTest, PinVOBitIdenticalAcrossBudgets) {
  const ProblemInstance instance = RandomInstance(603);
  for (size_t top_k : {1u, 3u}) {
    SolverConfig config = DefaultConfig();
    config.top_k = top_k;
    SCOPED_TRACE("top_k " + std::to_string(top_k));
    SweepBudgets<PinocchioVOSolver>(instance, config);
  }
}

TEST(ThreadBudgetTest, PinVOStarBitIdenticalAcrossBudgets) {
  const ProblemInstance instance = RandomInstance(605);
  for (size_t top_k : {1u, 3u}) {
    SolverConfig config = DefaultConfig();
    config.top_k = top_k;
    SCOPED_TRACE("top_k " + std::to_string(top_k));
    SweepBudgets<PinocchioVOStarSolver>(instance, config);
  }
}

TEST(ThreadBudgetTest, PinEmptyInstance) {
  EXPECT_TRUE(PinocchioSolver(4)
                  .Solve(ProblemInstance(), DefaultConfig())
                  .influence.empty());
}

TEST(ThreadBudgetTest, PinVOEmptyInstance) {
  EXPECT_TRUE(PinocchioVOSolver(4)
                  .Solve(ProblemInstance(), DefaultConfig())
                  .influence.empty());
}

TEST(ThreadBudgetTest, SingleObjectSingleCandidate) {
  const InstanceOptions opts{1, 1, 1, 3, 5000.0, 0.5};
  const ProblemInstance instance = RandomInstance(604, opts);
  const SolverConfig config = DefaultConfig();
  const SolverResult oracle = NaiveSolver().Solve(instance, config);
  EXPECT_EQ(PinocchioSolver(8).Solve(instance, config).influence,
            oracle.influence);
  ExpectIdentical(PinocchioVOSolver(8).Solve(instance, config),
                  PinocchioVOSolver(1).Solve(instance, config), "PIN-VO");
}

TEST(ThreadBudgetTest, NamesEncodeTheBudget) {
  EXPECT_EQ(PinocchioSolver().Name(), "PIN");
  EXPECT_EQ(PinocchioVOSolver().Name(), "PIN-VO");
  EXPECT_EQ(PinocchioVOStarSolver().Name(), "PIN-VO*");
  EXPECT_EQ(PinocchioSolver(5).Name(), "PIN-P5");
  EXPECT_EQ(PinocchioVOSolver(7).Name(), "PIN-VO-P7");
  EXPECT_EQ(PinocchioVOStarSolver(3).Name(), "PIN-VO*-P3");
}

TEST(ThreadBudgetTest, ZeroResolvesToHardwareConcurrency) {
  const size_t hardware = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(MorselScheduler(0).num_threads(), hardware);
  EXPECT_EQ(PinocchioSolver(0).Name(), PinocchioSolver(hardware).Name());
  EXPECT_EQ(PinocchioVOSolver(0).Name(), PinocchioVOSolver(hardware).Name());
}

TEST(ThreadBudgetTest, CompatibilityAliasIsTheBudgetedPinVO) {
  const ProblemInstance instance = RandomInstance(606);
  const SolverConfig config = DefaultConfig();
  const PreparedInstance prepared(instance, config);
  for (size_t threads : {1u, 4u}) {
    const ParallelPinocchioVOSolver alias(threads);
    EXPECT_EQ(alias.Name(), PinocchioVOSolver(threads).Name());
    ExpectIdentical(alias.Solve(prepared),
                    PinocchioVOSolver(threads).Solve(prepared), alias.Name());
  }
}

class ThreadBudgetShapeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ThreadBudgetShapeTest, AgreementAcrossInstanceShapes) {
  const uint64_t seed = 700 + GetParam();
  InstanceOptions opts;
  switch (GetParam()) {
    case 0:
      opts = {3, 2, 1, 3, 5000.0, 0.5};  // tiny
      break;
    case 1:
      opts = {100, 5, 1, 10, 30000.0, 0.3};  // many objects, few candidates
      break;
    case 2:
      opts = {5, 100, 1, 10, 30000.0, 0.3};  // few objects, many candidates
      break;
    case 3:
      opts = {50, 50, 30, 60, 30000.0, 0.7};  // heavy positions
      break;
  }
  SweepAllSolvers(RandomInstance(seed, opts), DefaultConfig());
}

INSTANTIATE_TEST_SUITE_P(Shapes, ThreadBudgetShapeTest,
                         ::testing::Values<size_t>(0, 1, 2, 3));

}  // namespace
}  // namespace pinocchio
