// Accounting invariants of the SolverStats counters across all exact
// solvers and instance shapes: every object-candidate pair is decided by
// exactly one mechanism, and the work counters are mutually consistent.

#include <memory>
#include <tuple>

#include <gtest/gtest.h>

#include "core/naive_solver.h"
#include "core/pinocchio_solver.h"
#include "core/pinocchio_vo_solver.h"
#include "testing/instance_helpers.h"

namespace pinocchio {
namespace {

using testing_helpers::DefaultConfig;
using testing_helpers::InstanceOptions;
using testing_helpers::RandomInstance;

struct StatsCase {
  std::shared_ptr<Solver> solver;
  uint64_t seed;
  double tau;
  std::string label;
};

// Each case's seed is 5001 + its ordinal, and the ordinal ends its test
// name, so a solver's cases keep their seeds and names when another
// solver's cases are added or dropped.
constexpr uint64_t kFirstSeed = 5001;

std::vector<StatsCase> MakeCases() {
  std::vector<StatsCase> cases;
  const std::vector<std::tuple<std::string, std::shared_ptr<Solver>, uint64_t>>
      solvers = {{"pin", std::make_shared<PinocchioSolver>(), 0},
                 {"na", std::make_shared<NaiveSolver>(), 2},
                 {"pin_t4", std::make_shared<PinocchioSolver>(4), 6}};
  for (const auto& [name, solver, ordinal] : solvers) {
    uint64_t seed = kFirstSeed + ordinal;
    for (double tau : {0.2, 0.7}) {
      cases.push_back(
          {solver, seed++, tau, name + "_tau" + std::to_string(tau)});
    }
  }
  return cases;
}

class SolverStatsTest : public ::testing::TestWithParam<StatsCase> {};

TEST_P(SolverStatsTest, PairAccountingIsExhaustive) {
  const StatsCase& c = GetParam();
  const ProblemInstance instance = RandomInstance(c.seed);
  const SolverResult result =
      c.solver->Solve(instance, DefaultConfig(c.tau));
  const auto pairs = static_cast<int64_t>(instance.objects.size() *
                                          instance.candidates.size());
  EXPECT_EQ(result.stats.pairs_pruned_by_ia + result.stats.pairs_pruned_by_nib +
                result.stats.pairs_validated,
            pairs)
      << c.label;
}

TEST_P(SolverStatsTest, WorkCountersConsistent) {
  const StatsCase& c = GetParam();
  const ProblemInstance instance = RandomInstance(c.seed + 1);
  const SolverResult result =
      c.solver->Solve(instance, DefaultConfig(c.tau));
  EXPECT_GE(result.stats.pairs_pruned_by_ia, 0) << c.label;
  EXPECT_GE(result.stats.pairs_pruned_by_nib, 0) << c.label;
  EXPECT_GE(result.stats.pairs_validated, 0) << c.label;
  // Exact solvers scan every position of every validated pair, no more.
  int64_t max_positions = 0;
  for (const MovingObject& o : instance.objects) {
    max_positions = std::max(
        max_positions, static_cast<int64_t>(o.positions.size()));
  }
  EXPECT_LE(result.stats.positions_scanned,
            result.stats.pairs_validated * max_positions)
      << c.label;
  EXPECT_GE(result.stats.elapsed_seconds, 0.0) << c.label;
}

TEST_P(SolverStatsTest, InfluenceConsistentWithIaCredits) {
  // Every IA-credited pair contributes one influence unit, so the total
  // influence can never be below the IA credits.
  const StatsCase& c = GetParam();
  const ProblemInstance instance = RandomInstance(c.seed + 2);
  const SolverResult result =
      c.solver->Solve(instance, DefaultConfig(c.tau));
  int64_t total_influence = 0;
  for (int64_t v : result.influence) total_influence += v;
  EXPECT_GE(total_influence, result.stats.pairs_pruned_by_ia) << c.label;
}

INSTANTIATE_TEST_SUITE_P(
    Solvers, SolverStatsTest, ::testing::ValuesIn(MakeCases()),
    [](const ::testing::TestParamInfo<StatsCase>& info) {
      std::string name = info.param.label;
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name + "_" + std::to_string(info.param.seed - kFirstSeed);
    });

// VO-specific: bounds relationships.
TEST(VoStatsTest, HeapPopsBoundedByCandidates) {
  const ProblemInstance instance = RandomInstance(5101);
  const SolverResult vo =
      PinocchioVOSolver().Solve(instance, DefaultConfig());
  EXPECT_LE(vo.stats.heap_pops,
            static_cast<int64_t>(instance.candidates.size()));
  EXPECT_LE(vo.stats.strategy1_cutoffs, vo.stats.heap_pops);
  EXPECT_LE(vo.stats.early_stops, vo.stats.pairs_validated);
}

TEST(VoStatsTest, NaiveScansEveryPositionOfEveryPair) {
  const ProblemInstance instance = RandomInstance(5102);
  const SolverResult na = NaiveSolver().Solve(instance, DefaultConfig());
  EXPECT_EQ(na.stats.positions_scanned,
            static_cast<int64_t>(instance.TotalPositions() *
                                 instance.candidates.size()));
}

}  // namespace
}  // namespace pinocchio
