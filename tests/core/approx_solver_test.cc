#include "core/approx_solver.h"

#include <algorithm>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "core/naive_solver.h"
#include "core/pinocchio_vo_solver.h"
#include "testing/instance_helpers.h"

namespace pinocchio {
namespace {

using testing_helpers::DefaultConfig;
using testing_helpers::InstanceOptions;
using testing_helpers::RandomInstance;

InstanceOptions ManyObjectOptions() {
  InstanceOptions opts;
  opts.num_objects = 400;
  opts.num_candidates = 24;
  return opts;
}

void ExpectSameEntries(const ApproxTopKResult& got,
                       const ApproxTopKResult& want) {
  ASSERT_EQ(got.entries.size(), want.entries.size());
  for (size_t i = 0; i < want.entries.size(); ++i) {
    EXPECT_EQ(got.entries[i].candidate, want.entries[i].candidate) << i;
    EXPECT_EQ(got.entries[i].estimate, want.entries[i].estimate) << i;
    EXPECT_EQ(got.entries[i].lo, want.entries[i].lo) << i;
    EXPECT_EQ(got.entries[i].hi, want.entries[i].hi) << i;
    EXPECT_EQ(got.entries[i].exact, want.entries[i].exact) << i;
  }
}

// `result` is naive's top-min(k, m) under (influence descending, index
// ascending), each entry a degenerate exact bracket, nothing skipped.
void ExpectExactTopK(const ApproxTopKResult& result, const SolverResult& naive,
                     size_t k) {
  std::vector<uint32_t> order(naive.influence.size());
  std::iota(order.begin(), order.end(), 0u);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return naive.influence[a] > naive.influence[b];
  });
  ASSERT_EQ(result.entries.size(), std::min(k, order.size()));
  for (size_t i = 0; i < result.entries.size(); ++i) {
    const ApproxEntry& e = result.entries[i];
    const int64_t exact = naive.influence[order[i]];
    EXPECT_EQ(e.candidate, order[i]) << "rank " << i;
    EXPECT_TRUE(e.estimate == exact && e.lo == exact && e.hi == exact &&
                e.exact)
        << "rank " << i << ": [" << e.lo << ", " << e.hi << "] vs " << exact;
  }
  EXPECT_EQ(result.pairs_skipped, 0);
}

// ExpectExactTopK for SolveApproxTopK at (k, params) on instance `seed`.
void ExpectExactTopKOn(uint64_t seed, size_t k, const SketchParams& params) {
  const ProblemInstance instance = RandomInstance(seed, ManyObjectOptions());
  const PreparedInstance prepared(instance, DefaultConfig());
  ExpectExactTopK(SolveApproxTopK(prepared, k, params),
                  NaiveSolver().Solve(instance, DefaultConfig()), k);
}

// `result` is the walk that gave `vo`: its ranked prefix and counters.
void ExpectTheWalkOf(const ApproxTopKResult& result, const SolverResult& vo) {
  for (size_t i = 0; i < result.entries.size(); ++i) {
    EXPECT_EQ(result.entries[i].candidate, vo.ranking[i]) << "rank " << i;
  }
  EXPECT_EQ(result.pairs_refined, vo.stats.pairs_validated);
  EXPECT_EQ(result.stats.positions_scanned, vo.stats.positions_scanned);
  EXPECT_EQ(result.stats.heap_pops, vo.stats.heap_pops);
  EXPECT_EQ(result.stats.strategy1_cutoffs, vo.stats.strategy1_cutoffs);
}

TEST(ApproxSolverTest, EmptyInstanceYieldsNoEntries) {
  ProblemInstance instance;
  const PreparedInstance prepared(instance, DefaultConfig());
  const ApproxTopKResult result =
      SolveApproxTopK(prepared, 3, {0.1, 0.05, 7});
  EXPECT_TRUE(result.entries.empty());
}

// The answer is PIN-VO's at top_k = k: the exact top-k, PIN-VO's walk.
TEST(ApproxSolverTest, EqualsPinocchioVOTopK) {
  const ProblemInstance instance = RandomInstance(501, ManyObjectOptions());
  SolverConfig config = DefaultConfig();
  config.top_k = 5;
  const PreparedInstance prepared(instance, config);
  const ApproxTopKResult result = SolveApproxTopK(prepared, 5, {0.2, 0.05, 31});
  ExpectExactTopK(result, NaiveSolver().Solve(instance, config), 5);
  ExpectTheWalkOf(result, PinocchioVOSolver().Solve(prepared));
}

// Each entry's bracket is its candidate's exact influence, nothing wider.
TEST(ApproxSolverTest, BracketsContainTheExactInfluence) {
  const ProblemInstance instance = RandomInstance(502, ManyObjectOptions());
  const SolverResult naive = NaiveSolver().Solve(instance, DefaultConfig());
  const PreparedInstance prepared(instance, DefaultConfig());
  for (const ApproxEntry& e :
       SolveApproxTopK(prepared, 12, {0.2, 0.05, 3}).entries) {
    const int64_t exact = naive.influence[e.candidate];
    EXPECT_TRUE(e.lo == exact && e.hi == exact && e.estimate == exact)
        << "candidate " << e.candidate;
  }
}

// The tightest accuracy contract answers the exact top-k, like any other.
TEST(ApproxSolverTest, TinyEpsilonDegeneratesToExactTopK) {
  ExpectExactTopKOn(508, 6, {1e-9, 0.05, 11});
}

// So does the loosest (failure probability near one).
TEST(ApproxSolverTest, DeltaNearOneStillAnswers) {
  ExpectExactTopKOn(509, 6, {0.5, 0.999, 13});
}

// k = 1 is the paper's query: the one most influential candidate.
TEST(ApproxSolverTest, TopOneIsTheMostInfluentialCandidate) {
  ExpectExactTopKOn(510, 1, {0.1, 0.05, 7});
}

// At k = m nothing is cut: every candidate is popped and ranked exactly.
TEST(ApproxSolverTest, KAtCandidateCountRanksEveryCandidate) {
  const ProblemInstance instance = RandomInstance(511, ManyObjectOptions());
  const PreparedInstance prepared(instance, DefaultConfig());
  const size_t m = instance.candidates.size();
  const ApproxTopKResult result = SolveApproxTopK(prepared, m, {0.1, 0.05, 7});
  ExpectExactTopK(result, NaiveSolver().Solve(instance, DefaultConfig()), m);
  EXPECT_EQ(result.stats.strategy1_cutoffs, 0);
  EXPECT_EQ(result.stats.heap_pops, static_cast<int64_t>(m));
}

// The exact order is one strict order, so every k answers a prefix.
TEST(ApproxSolverTest, SmallerKAnswersAPrefix) {
  const ProblemInstance instance = RandomInstance(512, ManyObjectOptions());
  const PreparedInstance prepared(instance, DefaultConfig());
  const size_t m = instance.candidates.size();
  ApproxTopKResult prefix = SolveApproxTopK(prepared, m, {0.1, 0.05, 7});
  for (size_t k = m - 1; k > 0; --k) {
    prefix.entries.resize(k);
    ExpectSameEntries(SolveApproxTopK(prepared, k, {0.1, 0.05, 7}), prefix);
  }
}

// The walk runs at the wrapper's k, not at the prepared config's top_k.
TEST(ApproxSolverTest, UsesItsKNotTheConfigTopK) {
  const ProblemInstance instance = RandomInstance(513, ManyObjectOptions());
  const PreparedInstance prepared(instance, DefaultConfig());  // top_k 1
  for (size_t k : {2u, 5u, 9u}) {
    SCOPED_TRACE(k);
    ExpectTheWalkOf(SolveApproxTopK(prepared, k, {0.1, 0.05, 7}),
                    SolvePinocchioVO(prepared, k, /*use_pruning=*/true, 1));
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
    SCOPED_TRACE(threads);
    const ApproxTopKResult parallel =
        SolveApproxTopK(prepared, 5, params, threads);
    ExpectSameEntries(parallel, sequential);
    EXPECT_EQ(parallel.pairs_skipped, sequential.pairs_skipped);
    EXPECT_EQ(parallel.pairs_refined, sequential.pairs_refined);
    EXPECT_EQ(parallel.stats.positions_scanned,
              sequential.stats.positions_scanned);
    EXPECT_EQ(parallel.stats.heap_pops, sequential.stats.heap_pops);
  }
}

TEST(ApproxSolverDeathTest, RejectsZeroK) {
  const ProblemInstance instance = RandomInstance(507);
  const PreparedInstance prepared(instance, DefaultConfig());
  EXPECT_DEATH({ SolveApproxTopK(prepared, 0, {0.1, 0.05, 7}); },
               "Check failed");
}

}  // namespace
}  // namespace pinocchio
