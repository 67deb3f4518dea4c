// The central correctness property of the paper: NA, PIN, PIN-VO and
// PIN-VO* agree. NA and PIN agree on the full influence vector; the VO
// variants agree on the optimum (and the top-k prefix). Swept across
// instance shapes, thresholds and probability functions.

#include <memory>
#include <tuple>

#include <gtest/gtest.h>

#include "baselines/brnn_star.h"
#include "baselines/range_solver.h"
#include "core/naive_solver.h"
#include "core/pinocchio_grid_solver.h"
#include "core/pinocchio_hull_solver.h"
#include "core/pinocchio_solver.h"
#include "core/pinocchio_vo_solver.h"
#include "core/prepared_instance.h"
#include "prob/alternative_pfs.h"
#include "prob/power_law.h"
#include "testing/instance_helpers.h"

namespace pinocchio {
namespace {

using testing_helpers::InstanceOptions;
using testing_helpers::RandomInstance;

struct SweepCase {
  uint64_t seed;
  ProbabilityFunctionPtr pf;
  double tau;
  InstanceOptions opts;
  std::string label;
};

std::vector<SweepCase> MakeCases() {
  std::vector<SweepCase> cases;
  const auto power_law = std::make_shared<PowerLawPF>(0.9, 1.0);
  const auto power_law_steep = std::make_shared<PowerLawPF>(0.7, 1.25);
  const auto logsig = std::make_shared<LogsigPF>(0.5);
  const auto linear = std::make_shared<LinearPF>(0.5, 3000.0);
  const auto concave = std::make_shared<ConcavePF>(0.5, 3000.0);

  uint64_t seed = 9000;
  // 0.01/0.99 exercise the extremes: near-total influence and the
  // uninfluenceable-object sentinel (0.99 needs a per-position probability
  // above several PFs' maxima for small n).
  for (double tau : {0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99}) {
    for (const ProbabilityFunctionPtr& pf :
         std::vector<ProbabilityFunctionPtr>{power_law, power_law_steep,
                                             logsig, linear, concave}) {
      SweepCase c;
      c.seed = ++seed;
      c.pf = pf;
      c.tau = tau;
      c.label = pf->Name() + "_tau" + std::to_string(tau);
      cases.push_back(c);
    }
  }
  // Shape extremes under the default PF.
  const std::vector<std::pair<std::string, InstanceOptions>> shapes = {
      {"tiny", {3, 2, 1, 3, 5000.0, 0.5}},
      {"single_positions", {40, 30, 1, 1, 30000.0, 0.3}},
      {"many_positions", {15, 15, 60, 120, 30000.0, 0.3}},
      {"all_roamers", {30, 25, 5, 30, 30000.0, 1.0}},
      {"no_roamers", {30, 25, 5, 30, 30000.0, 0.0}},
      {"dense_small_extent", {30, 25, 5, 30, 2000.0, 0.3}},
      {"sparse_huge_extent", {30, 25, 5, 30, 300000.0, 0.3}},
      {"many_candidates", {10, 150, 5, 20, 30000.0, 0.3}},
      {"many_objects", {200, 10, 2, 10, 30000.0, 0.3}},
  };
  for (const auto& [label, opts] : shapes) {
    SweepCase c;
    c.seed = ++seed;
    c.pf = power_law;
    c.tau = 0.7;
    c.opts = opts;
    c.label = label;
    cases.push_back(c);
  }
  return cases;
}

class SolverEquivalenceTest : public ::testing::TestWithParam<SweepCase> {};

TEST_P(SolverEquivalenceTest, AllSolversAgree) {
  const SweepCase& c = GetParam();
  const ProblemInstance instance = RandomInstance(c.seed, c.opts);
  SolverConfig config;
  config.pf = c.pf;
  config.tau = c.tau;

  const SolverResult naive = NaiveSolver().Solve(instance, config);
  const SolverResult pin = PinocchioSolver().Solve(instance, config);
  const SolverResult vo = PinocchioVOSolver().Solve(instance, config);
  const SolverResult star = PinocchioVOStarSolver().Solve(instance, config);

  // PIN is exact on every candidate.
  EXPECT_EQ(pin.influence, naive.influence) << c.label;

  // VO variants return an optimum with the true maximum influence.
  EXPECT_EQ(vo.best_influence, naive.best_influence) << c.label;
  EXPECT_EQ(naive.influence[vo.best_candidate], naive.best_influence)
      << c.label;
  EXPECT_EQ(star.best_influence, naive.best_influence) << c.label;
  EXPECT_EQ(naive.influence[star.best_candidate], naive.best_influence)
      << c.label;

  // And their reported influences never exceed the truth.
  for (size_t j = 0; j < instance.candidates.size(); ++j) {
    EXPECT_LE(vo.influence[j], naive.influence[j]) << c.label;
    EXPECT_LE(star.influence[j], naive.influence[j]) << c.label;
  }
}

// The engine-layer counterpart of the equivalence sweep: one shared
// PreparedInstance handed to EVERY solver must reproduce the legacy
// prepare-per-call path bit for bit — influence vectors, winners and
// rankings alike. This is the contract that makes "build once, query many"
// safe to adopt.
TEST_P(SolverEquivalenceTest, SharedPreparedInstanceMatchesLegacyPath) {
  const SweepCase& c = GetParam();
  const ProblemInstance instance = RandomInstance(c.seed, c.opts);
  SolverConfig config;
  config.pf = c.pf;
  config.tau = c.tau;

  const PreparedInstance prepared(instance, config);

  const NaiveSolver na;
  const PinocchioSolver pin;
  const PinocchioVOSolver vo;
  const PinocchioVOStarSolver star;
  const PinocchioGridSolver grid;
  const PinocchioHullSolver hull;
  const PinocchioSolver pin_t2(2);
  const PinocchioVOSolver vo_t2(2);
  const BrnnStarSolver brnn;
  const RangeSolver range(0.5, 2000.0);

  const std::vector<const Solver*> solvers = {&na,   &pin,    &vo,
                                              &star, &grid,   &hull,
                                              &pin_t2, &vo_t2, &brnn, &range};
  for (const Solver* solver : solvers) {
    const SolverResult from_prepared = solver->Solve(prepared);
    const SolverResult legacy = solver->Solve(instance, config);
    EXPECT_EQ(from_prepared.influence, legacy.influence)
        << c.label << " " << solver->Name();
    EXPECT_EQ(from_prepared.best_candidate, legacy.best_candidate)
        << c.label << " " << solver->Name();
    EXPECT_EQ(from_prepared.best_influence, legacy.best_influence)
        << c.label << " " << solver->Name();
    EXPECT_EQ(from_prepared.ranking, legacy.ranking)
        << c.label << " " << solver->Name();
    EXPECT_EQ(from_prepared.influence_exact, legacy.influence_exact)
        << c.label << " " << solver->Name();
    // Prepared solves pay no build cost; legacy solves record it.
    EXPECT_EQ(from_prepared.stats.prepare_seconds, 0.0)
        << c.label << " " << solver->Name();
    EXPECT_GE(legacy.stats.elapsed_seconds, legacy.stats.solve_seconds)
        << c.label << " " << solver->Name();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SolverEquivalenceTest, ::testing::ValuesIn(MakeCases()),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      std::string name = info.param.label;
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name + "_" + std::to_string(info.index);
    });

}  // namespace
}  // namespace pinocchio
