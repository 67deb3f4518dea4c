#include "core/query_engine.h"

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "core/multi_facility.h"
#include "core/naive_solver.h"
#include "core/pinocchio_vo_solver.h"
#include "core/prepared_instance.h"
#include "geo/point.h"
#include "prob/influence_kernel.h"
#include "testing/instance_helpers.h"
#include "util/random.h"

namespace pinocchio {
namespace {

using testing_helpers::DefaultConfig;
using testing_helpers::InstanceOptions;
using testing_helpers::RandomInstance;

// ------------------------------------------------- SolverResult::TopK

// Pins the clamp contract: TopK(k) returns the first min(k, m) ranking
// entries; k beyond the ranking clamps instead of reading past it.
TEST(TopKContractTest, ClampsToRankingSize) {
  const ProblemInstance instance = RandomInstance(7101);
  const SolverConfig config = DefaultConfig();
  const SolverResult result = NaiveSolver().Solve(instance, config);
  const size_t m = result.ranking.size();
  ASSERT_EQ(m, instance.candidates.size());

  EXPECT_TRUE(result.TopK(0).empty());
  EXPECT_EQ(result.TopK(1), std::vector<uint32_t>(result.ranking.begin(),
                                                  result.ranking.begin() + 1));
  EXPECT_EQ(result.TopK(m), result.ranking);
  EXPECT_EQ(result.TopK(m + 1), result.ranking);
  EXPECT_EQ(result.TopK(1u << 20), result.ranking);

  const std::vector<uint32_t> prefix = result.TopK(3);
  ASSERT_EQ(prefix.size(), std::min<size_t>(3, m));
  for (size_t i = 0; i < prefix.size(); ++i) {
    EXPECT_EQ(prefix[i], result.ranking[i]);
  }
}

// A VO solve prepared with top_k = t guarantees exact influence for the
// first min(t, m) ranking entries even when TopK asks for more.
TEST(TopKContractTest, VOExactPrefixSurvivesOverAsking) {
  const ProblemInstance instance = RandomInstance(7102);
  SolverConfig config = DefaultConfig();
  config.top_k = 4;
  const SolverResult naive = NaiveSolver().Solve(instance, config);
  const SolverResult vo = PinocchioVOSolver().Solve(instance, config);
  EXPECT_FALSE(vo.influence_exact);

  const std::vector<uint32_t> over_asked = vo.TopK(instance.candidates.size());
  const size_t exact = std::min<size_t>(config.top_k, over_asked.size());
  for (size_t i = 0; i < exact; ++i) {
    EXPECT_EQ(vo.influence[over_asked[i]], naive.influence[over_asked[i]])
        << "entry " << i << " inside the exact prefix";
  }
}

// ------------------------------------------------- candidate brackets

TEST(CandidateBracketsTest, BracketsContainExactInfluence) {
  const ProblemInstance instance = RandomInstance(7103);
  const SolverConfig config = DefaultConfig();
  const PreparedInstance prepared(instance, config);
  const SolverResult naive = NaiveSolver().Solve(prepared);
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());

  SolverStats stats;
  const query::CandidateBrackets brackets = query::BuildCandidateBrackets(
      prepared, kernel, /*use_pruning=*/true, &stats);
  ASSERT_EQ(brackets.num_candidates(), naive.influence.size());
  for (size_t j = 0; j < brackets.num_candidates(); ++j) {
    EXPECT_LE(brackets.min_inf[j], naive.influence[j]);
    EXPECT_GE(brackets.max_inf[j], naive.influence[j]);
    const auto vs =
        brackets.VerificationSet(static_cast<uint32_t>(j)).size();
    EXPECT_EQ(brackets.max_inf[j] - brackets.min_inf[j],
              static_cast<int64_t>(vs));
  }
}

TEST(CandidateBracketsTest, UnprunedBracketsAreTrivial) {
  const ProblemInstance instance = RandomInstance(7104, {.num_objects = 12});
  const SolverConfig config = DefaultConfig();
  const PreparedInstance prepared(instance, config);
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());

  const query::CandidateBrackets brackets = query::BuildCandidateBrackets(
      prepared, kernel, /*use_pruning=*/false, nullptr);
  const auto r = static_cast<int64_t>(prepared.store().size());
  for (size_t j = 0; j < brackets.num_candidates(); ++j) {
    EXPECT_EQ(brackets.min_inf[j], 0);
    EXPECT_EQ(brackets.max_inf[j], r);
    EXPECT_EQ(brackets.VerificationSet(static_cast<uint32_t>(j)).size(),
              static_cast<size_t>(r));
  }
}

TEST(CandidateBracketsTest, ThreadBudgetsAreByteIdentical) {
  const ProblemInstance instance = RandomInstance(7105);
  const SolverConfig config = DefaultConfig();
  const PreparedInstance prepared(instance, config);
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());

  SolverStats one_stats;
  const query::CandidateBrackets one = query::BuildCandidateBrackets(
      prepared, kernel, /*use_pruning=*/true, &one_stats);
  // The budget-1 order is one sort under OrderBefore.
  std::vector<uint32_t> sorted(one.num_candidates());
  std::iota(sorted.begin(), sorted.end(), 0u);
  std::sort(sorted.begin(), sorted.end(), [&](uint32_t a, uint32_t b) {
    return query::OrderBefore(one.min_inf, one.max_inf, a, b);
  });
  EXPECT_EQ(query::BoundDominationOrder(one), sorted);

  for (size_t threads : {2, 3, 5}) {
    SolverStats stats;
    const MorselScheduler scheduler(threads);
    const query::CandidateBrackets got = query::BuildCandidateBrackets(
        prepared, kernel, /*use_pruning=*/true, &stats, scheduler);
    EXPECT_EQ(got.min_inf, one.min_inf);
    EXPECT_EQ(got.max_inf, one.max_inf);
    EXPECT_EQ(got.vs_offsets, one.vs_offsets);
    EXPECT_EQ(got.vs_data, one.vs_data);
    EXPECT_EQ(stats.pairs_pruned_by_ia, one_stats.pairs_pruned_by_ia);
    EXPECT_EQ(stats.pairs_pruned_by_nib, one_stats.pairs_pruned_by_nib);
    EXPECT_EQ(query::BoundDominationOrder(got, scheduler), sorted);
  }
}

TEST(InfluenceSetsTest, ThreadBudgetsAreByteIdenticalAndExact) {
  const ProblemInstance instance = RandomInstance(7106);
  const SolverConfig config = DefaultConfig();
  const PreparedInstance prepared(instance, config);
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());
  const SolverResult naive = NaiveSolver().Solve(prepared);

  const query::InfluenceSets one = query::BuildInfluenceSets(prepared, kernel);
  ASSERT_EQ(one.num_candidates(), naive.influence.size());
  for (uint32_t j = 0; j < one.num_candidates(); ++j) {
    EXPECT_EQ(static_cast<int64_t>(one.Objects(j).size()), naive.influence[j]);
    EXPECT_TRUE(std::is_sorted(one.Objects(j).begin(), one.Objects(j).end()));
  }
  for (size_t threads : {2, 7}) {
    const query::InfluenceSets got =
        query::BuildInfluenceSets(prepared, kernel, MorselScheduler(threads));
    EXPECT_EQ(got.offsets, one.offsets);
    EXPECT_EQ(got.objects, one.objects);
  }
}

// ----------------------------------------------------------- skyline

// Brute-force skyline over exact influences: j survives iff no i with
// cost[i] <= cost[j] and inf[i] >= inf[j], strict in at least one.
std::vector<uint32_t> BruteForceSkyline(const std::vector<int64_t>& inf,
                                        const std::vector<double>& cost) {
  std::vector<uint32_t> kept;
  const size_t m = inf.size();
  for (uint32_t j = 0; j < m; ++j) {
    bool dominated = false;
    for (uint32_t i = 0; i < m && !dominated; ++i) {
      dominated = cost[i] <= cost[j] && inf[i] >= inf[j] &&
                  (cost[i] < cost[j] || inf[i] > inf[j]);
    }
    if (!dominated) kept.push_back(j);
  }
  std::sort(kept.begin(), kept.end(), [&](uint32_t a, uint32_t b) {
    if (cost[a] != cost[b]) return cost[a] < cost[b];
    return a < b;
  });
  return kept;
}

TEST(SkylineTest, MatchesBruteForceOnRandomInstances) {
  for (uint64_t seed : {7201u, 7202u, 7203u, 7204u}) {
    const ProblemInstance instance = RandomInstance(seed);
    const SolverConfig config = DefaultConfig();
    const PreparedInstance prepared(instance, config);
    const SolverResult naive = NaiveSolver().Solve(prepared);

    Rng rng(seed);
    std::vector<double> cost(naive.influence.size());
    for (double& c : cost) c = rng.Uniform(0.0, 50.0);

    const std::vector<uint32_t> expected =
        BruteForceSkyline(naive.influence, cost);
    const query::SkylineResult got = query::SolveSkyline(prepared, cost);
    ASSERT_EQ(got.members.size(), expected.size()) << "seed " << seed;
    for (size_t i = 0; i < expected.size(); ++i) {
      EXPECT_EQ(got.members[i].candidate, expected[i]);
      EXPECT_EQ(got.members[i].influence, naive.influence[expected[i]]);
      EXPECT_EQ(got.members[i].cost, cost[expected[i]]);
    }
  }
}

// All-equal costs: every candidate shares one cost group, so the skyline
// is exactly the maximum-influence candidates (the all-dominated edge).
TEST(SkylineTest, EqualCostsKeepOnlyTheInfluenceMaximum) {
  const ProblemInstance instance = RandomInstance(7205);
  const SolverConfig config = DefaultConfig();
  const PreparedInstance prepared(instance, config);
  const SolverResult naive = NaiveSolver().Solve(prepared);
  const std::vector<double> cost(naive.influence.size(), 7.5);

  const query::SkylineResult got = query::SolveSkyline(prepared, cost);
  const int64_t best =
      *std::max_element(naive.influence.begin(), naive.influence.end());
  size_t winners = 0;
  for (int64_t inf : naive.influence) winners += inf == best ? 1 : 0;
  ASSERT_EQ(got.members.size(), winners);
  for (const query::SkylineMember& member : got.members) {
    EXPECT_EQ(member.influence, best);
    EXPECT_EQ(member.cost, 7.5);
  }
}

TEST(SkylineTest, HandCraftedDomination) {
  // Three objects pinned at known spots; candidate 0 sits on all three
  // (influence 3), candidate 1 reaches none, candidate 2 duplicates 0.
  ProblemInstance instance;
  for (uint32_t i = 0; i < 3; ++i) {
    instance.objects.push_back({i, {Point{100.0 * i, 0.0}}});
  }
  instance.candidates = {Point{100.0, 0.0}, Point{1e7, 1e7},
                         Point{100.0, 0.0}};
  SolverConfig config = DefaultConfig(/*tau=*/0.05);
  const PreparedInstance prepared(instance, config);

  // Cheap useless candidate survives; expensive duplicate of the best
  // does not; equal-cost duplicates both survive.
  {
    const std::vector<double> cost = {10.0, 1.0, 20.0};
    const query::SkylineResult got = query::SolveSkyline(prepared, cost);
    ASSERT_EQ(got.members.size(), 2u);
    EXPECT_EQ(got.members[0].candidate, 1u);  // cheapest first
    EXPECT_EQ(got.members[1].candidate, 0u);
  }
  {
    const std::vector<double> cost = {10.0, 1.0, 10.0};
    const query::SkylineResult got = query::SolveSkyline(prepared, cost);
    ASSERT_EQ(got.members.size(), 3u);  // 0 and 2 tie on (inf, cost)
  }
}

TEST(SkylineTest, ThreadBudgetsAreBitIdentical) {
  const ProblemInstance instance = RandomInstance(7206);
  const SolverConfig config = DefaultConfig();
  const PreparedInstance prepared(instance, config);
  Rng rng(7206);
  std::vector<double> cost(instance.candidates.size());
  for (double& c : cost) c = rng.Uniform(0.0, 50.0);

  const query::SkylineResult seq = query::SolveSkyline(prepared, cost);
  for (size_t threads : {2, 4}) {
    const query::SkylineResult par =
        query::SolveSkyline(prepared, cost, threads);
    ASSERT_EQ(par.members.size(), seq.members.size());
    for (size_t i = 0; i < seq.members.size(); ++i) {
      EXPECT_EQ(par.members[i].candidate, seq.members[i].candidate);
      EXPECT_EQ(par.members[i].influence, seq.members[i].influence);
      EXPECT_EQ(par.members[i].cost, seq.members[i].cost);
    }
    EXPECT_EQ(par.bound_skipped, seq.bound_skipped);
    EXPECT_EQ(par.stats.pairs_validated, seq.stats.pairs_validated);
    EXPECT_EQ(par.stats.heap_pops, seq.stats.heap_pops);
    EXPECT_EQ(par.stats.strategy1_cutoffs, seq.stats.strategy1_cutoffs);
  }
}

// ------------------------------------------------------- diversified

TEST(DiversifiedTest, ZeroSeparationEqualsMultiFacility) {
  const ProblemInstance instance = RandomInstance(7301);
  const SolverConfig config = DefaultConfig();
  const PreparedInstance prepared(instance, config);

  for (size_t k : {1, 3, 8}) {
    const MultiFacilityResult mf = SelectFacilities(prepared, k);
    const query::DiversifiedResult dv =
        query::SelectDiversified(prepared, k, /*min_separation=*/0.0);
    EXPECT_EQ(dv.selected, mf.selected);
    EXPECT_EQ(dv.coverage, mf.coverage);
    EXPECT_EQ(dv.gain_evaluations, mf.gain_evaluations);
    EXPECT_EQ(dv.separation_rejections, 0);
  }
}

TEST(DiversifiedTest, SeparationIsRespected) {
  const ProblemInstance instance = RandomInstance(7302);
  const SolverConfig config = DefaultConfig();
  const PreparedInstance prepared(instance, config);
  const double delta = 8000.0;

  const query::DiversifiedResult dv =
      query::SelectDiversified(prepared, 6, delta);
  for (size_t a = 0; a < dv.selected.size(); ++a) {
    for (size_t b = a + 1; b < dv.selected.size(); ++b) {
      EXPECT_GE(Distance(prepared.candidate(dv.selected[a]),
                         prepared.candidate(dv.selected[b])),
                delta);
    }
  }
  EXPECT_EQ(dv.selected.size(), dv.coverage.size());
}

TEST(DiversifiedTest, SeparationBeyondDiameterPicksExactlyOne) {
  const ProblemInstance instance = RandomInstance(7303);
  const SolverConfig config = DefaultConfig();
  const PreparedInstance prepared(instance, config);

  double diameter = 0.0;
  const auto m = static_cast<uint32_t>(prepared.num_candidates());
  for (uint32_t a = 0; a < m; ++a) {
    for (uint32_t b = a + 1; b < m; ++b) {
      diameter = std::max(
          diameter, Distance(prepared.candidate(a), prepared.candidate(b)));
    }
  }
  const query::DiversifiedResult dv =
      query::SelectDiversified(prepared, 5, diameter + 1.0);
  ASSERT_EQ(dv.selected.size(), 1u);
  // The lone feasible pick is greedy's first: the coverage maximum.
  const SolverResult naive = NaiveSolver().Solve(prepared);
  EXPECT_EQ(dv.coverage[0], naive.best_influence);
  EXPECT_GT(dv.separation_rejections, 0);
}

TEST(DiversifiedTest, ThreadBudgetsAreBitIdentical) {
  const ProblemInstance instance = RandomInstance(7304);
  const SolverConfig config = DefaultConfig();
  const PreparedInstance prepared(instance, config);

  for (double delta : {0.0, 5000.0, 15000.0}) {
    const query::DiversifiedResult seq =
        query::SelectDiversified(prepared, 4, delta);
    for (size_t threads : {2, 4}) {
      const query::DiversifiedResult par =
          query::SelectDiversified(prepared, 4, delta, threads);
      EXPECT_EQ(par.selected, seq.selected);
      EXPECT_EQ(par.coverage, seq.coverage);
      EXPECT_EQ(par.gain_evaluations, seq.gain_evaluations);
      EXPECT_EQ(par.separation_rejections, seq.separation_rejections);
    }
  }
}

TEST(DiversifiedTest, KBeyondCandidatesClampsToAllFeasible) {
  const ProblemInstance instance =
      RandomInstance(7305, {.num_objects = 10, .num_candidates = 5});
  const SolverConfig config = DefaultConfig();
  const PreparedInstance prepared(instance, config);

  const query::DiversifiedResult dv =
      query::SelectDiversified(prepared, 100, /*min_separation=*/0.0);
  EXPECT_EQ(dv.selected.size(), prepared.num_candidates());
}

}  // namespace
}  // namespace pinocchio
