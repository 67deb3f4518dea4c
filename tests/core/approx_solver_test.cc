#include "core/approx_solver.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "core/naive_solver.h"
#include "testing/instance_helpers.h"

namespace pinocchio {
namespace {

using testing_helpers::DefaultConfig;
using testing_helpers::InstanceOptions;
using testing_helpers::RandomInstance;

// Many-object options so the sampled tier actually engages (verification
// sets far above the sample budget at the eps used below).
InstanceOptions ManyObjectOptions() {
  InstanceOptions opts;
  opts.num_objects = 400;
  opts.num_candidates = 24;
  return opts;
}

TEST(ApproxSolverTest, EmptyInstanceYieldsNoEntries) {
  ProblemInstance instance;
  const PreparedInstance prepared(instance, DefaultConfig());
  const ApproxTopKResult result =
      SolveApproxTopK(prepared, 3, {0.1, 0.05, 7});
  EXPECT_TRUE(result.entries.empty());
}

TEST(ApproxSolverTest, BracketsContainTheExactInfluence) {
  const ProblemInstance instance = RandomInstance(501, ManyObjectOptions());
  const SolverConfig config = DefaultConfig();
  const SolverResult naive = NaiveSolver().Solve(instance, config);
  const PreparedInstance prepared(instance, config);

  const SketchParams params{0.2, 0.05, 31};
  const ApproxTopKResult result = SolveApproxTopK(prepared, 5, params);
  ASSERT_EQ(result.entries.size(), 5u);
  const double slack =
      params.epsilon * static_cast<double>(instance.objects.size());
  for (const ApproxEntry& entry : result.entries) {
    const int64_t exact = naive.influence[entry.candidate];
    EXPECT_LE(entry.lo, exact) << "candidate " << entry.candidate;
    EXPECT_GE(entry.hi, exact) << "candidate " << entry.candidate;
    EXPECT_LE(entry.lo, entry.estimate);
    EXPECT_GE(entry.hi, entry.estimate);
    EXPECT_LE(std::abs(static_cast<double>(entry.estimate - exact)), slack);
    if (entry.exact) {
      EXPECT_EQ(entry.lo, entry.hi);
    }
  }
  // Estimates are reported in descending order.
  for (size_t i = 1; i < result.entries.size(); ++i) {
    EXPECT_GE(result.entries[i - 1].estimate, result.entries[i].estimate);
  }
}

TEST(ApproxSolverTest, SketchTierActuallySettlesPairs) {
  const ProblemInstance instance = RandomInstance(502, ManyObjectOptions());
  const PreparedInstance prepared(instance, DefaultConfig());
  const ApproxTopKResult result =
      SolveApproxTopK(prepared, 3, {0.25, 0.1, 17});
  EXPECT_GT(result.sample_budget, 0u);
  EXPECT_GT(result.pairs_skipped, 0);
}

TEST(ApproxSolverTest, TinyEpsilonDegeneratesToExactTopK) {
  const ProblemInstance instance = RandomInstance(503);
  const SolverConfig config = DefaultConfig();
  const SolverResult naive = NaiveSolver().Solve(instance, config);
  const PreparedInstance prepared(instance, config);

  const size_t k = 4;
  const ApproxTopKResult result =
      SolveApproxTopK(prepared, k, {1e-9, 0.5, 3});
  ASSERT_EQ(result.entries.size(), k);
  EXPECT_EQ(result.pairs_skipped, 0);

  std::vector<int64_t> exact_sorted = naive.influence;
  std::sort(exact_sorted.rbegin(), exact_sorted.rend());
  for (size_t i = 0; i < k; ++i) {
    const ApproxEntry& entry = result.entries[i];
    EXPECT_TRUE(entry.exact);
    EXPECT_EQ(entry.lo, entry.hi);
    EXPECT_EQ(entry.estimate, naive.influence[entry.candidate]);
    EXPECT_EQ(entry.estimate, exact_sorted[i]) << "rank " << i;
  }
}

TEST(ApproxSolverTest, DeltaNearOneStillAnswers) {
  const ProblemInstance instance = RandomInstance(504, ManyObjectOptions());
  const PreparedInstance prepared(instance, DefaultConfig());
  const ApproxTopKResult result =
      SolveApproxTopK(prepared, 3, {0.3, 0.999, 11});
  ASSERT_EQ(result.entries.size(), 3u);
  for (const ApproxEntry& entry : result.entries) {
    EXPECT_LE(entry.lo, entry.hi);
    EXPECT_GE(entry.lo, 0);
    EXPECT_LE(entry.hi,
              static_cast<int64_t>(instance.objects.size()));
  }
}

TEST(ApproxSolverTest, KLargerThanCandidateCountReturnsAll) {
  const ProblemInstance instance = RandomInstance(505);
  const PreparedInstance prepared(instance, DefaultConfig());
  const ApproxTopKResult result =
      SolveApproxTopK(prepared, 1000, {0.1, 0.05, 7});
  EXPECT_EQ(result.entries.size(), instance.candidates.size());
}

TEST(ApproxSolverTest, BitIdenticalAcrossThreadBudgets) {
  const ProblemInstance instance = RandomInstance(506, ManyObjectOptions());
  const PreparedInstance prepared(instance, DefaultConfig());
  const SketchParams params{0.2, 0.05, 23};

  const ApproxTopKResult sequential = SolveApproxTopK(prepared, 5, params);
  for (size_t threads : {1ul, 2ul, 3ul, 4ul}) {
    const ApproxTopKResult parallel =
        SolveApproxTopK(prepared, 5, params, threads);
    ASSERT_EQ(parallel.entries.size(), sequential.entries.size())
        << threads << " threads";
    for (size_t i = 0; i < sequential.entries.size(); ++i) {
      EXPECT_EQ(parallel.entries[i].candidate, sequential.entries[i].candidate);
      EXPECT_EQ(parallel.entries[i].estimate, sequential.entries[i].estimate);
      EXPECT_EQ(parallel.entries[i].lo, sequential.entries[i].lo);
      EXPECT_EQ(parallel.entries[i].hi, sequential.entries[i].hi);
      EXPECT_EQ(parallel.entries[i].exact, sequential.entries[i].exact);
    }
    EXPECT_EQ(parallel.sample_budget, sequential.sample_budget);
    EXPECT_EQ(parallel.pairs_skipped, sequential.pairs_skipped);
    EXPECT_EQ(parallel.pairs_refined, sequential.pairs_refined);
  }
}

TEST(ApproxSolverDeathTest, RejectsZeroK) {
  const ProblemInstance instance = RandomInstance(507);
  const PreparedInstance prepared(instance, DefaultConfig());
  EXPECT_DEATH({ SolveApproxTopK(prepared, 0, {0.1, 0.05, 7}); },
               "Check failed");
}

TEST(ApproxSolverDeathTest, RejectsBadParams) {
  const ProblemInstance instance = RandomInstance(508);
  const PreparedInstance prepared(instance, DefaultConfig());
  EXPECT_DEATH({ SolveApproxTopK(prepared, 1, {0.0, 0.05, 7}); },
               "Check failed");
  EXPECT_DEATH({ SolveApproxTopK(prepared, 1, {0.1, 1.0, 7}); },
               "Check failed");
}

}  // namespace
}  // namespace pinocchio
