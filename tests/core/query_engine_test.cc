#include "core/query_engine.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/naive_solver.h"
#include "core/pinocchio_vo_solver.h"
#include "core/prepared_instance.h"
#include "geo/point.h"
#include "prob/influence.h"
#include "prob/influence_kernel.h"
#include "testing/instance_helpers.h"
#include "testing/scoped_env.h"
#include "util/random.h"

namespace pinocchio {
namespace {

using testing_helpers::DefaultConfig;
using testing_helpers::InstanceOptions;
using testing_helpers::RandomInstance;
using testing_helpers::ScopedEnv;

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

  for (size_t threads : {2, 3, 5, 7}) {
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
  }
}

// Every verification set lists short objects first: strictly ascending by
// (position count, record), holding exactly the records of the prune
// phase's record-order transpose, at budgets 1, 2 and 7. PIN-VO*'s shared
// set is every record in the same order.
TEST(CandidateBracketsTest, SetsListShortObjectsFirst) {
  const ProblemInstance instance = RandomInstance(7107);
  const PreparedInstance prepared(instance, DefaultConfig());
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());
  const ObjectStore& store = prepared.store();
  const size_t m = prepared.num_candidates();
  const auto before = [&](uint32_t a, uint32_t b) {
    const uint32_t na = store.records()[a].position_count;
    const uint32_t nb = store.records()[b].position_count;
    return na != nb ? na < nb : a < b;
  };

  std::vector<int64_t> ia_credits(m, 0);
  RecordCandidateLists lists;
  ClassifyCandidates(prepared.candidate_rtree(), store, kernel, 0,
                     static_cast<uint32_t>(store.size()), m, nullptr,
                     ia_credits, &lists);
  std::vector<uint32_t> offsets, data;
  query::RecordListsToCsr(m, {&lists, 1}, &offsets, &data);

  const query::CandidateBrackets one = query::BuildCandidateBrackets(
      prepared, kernel, /*use_pruning=*/true, nullptr);
  ASSERT_EQ(one.vs_offsets, offsets);
  size_t reordered = 0;
  for (uint32_t j = 0; j < m; ++j) {
    const std::span<const uint32_t> got = one.VerificationSet(j);
    EXPECT_EQ(std::adjacent_find(got.begin(), got.end(),
                                 [&](uint32_t a, uint32_t b) {
                                   return !before(a, b);
                                 }),
              got.end())
        << "candidate " << j;
    std::vector<uint32_t> records(got.begin(), got.end());
    std::sort(records.begin(), records.end());
    EXPECT_TRUE(std::equal(records.begin(), records.end(),
                           data.begin() + offsets[j],
                           data.begin() + offsets[j + 1]))
        << "candidate " << j;
    if (!std::equal(got.begin(), got.end(), records.begin())) ++reordered;
  }
  EXPECT_GT(reordered, 0u);  // position counts vary, so the order bites

  for (size_t threads : {2, 7}) {
    const query::CandidateBrackets got = query::BuildCandidateBrackets(
        prepared, kernel, /*use_pruning=*/true, nullptr,
        MorselScheduler(threads));
    EXPECT_EQ(got.vs_offsets, one.vs_offsets) << threads << " threads";
    EXPECT_EQ(got.vs_data, one.vs_data) << threads << " threads";
  }

  std::vector<uint32_t> all(store.size());
  std::iota(all.begin(), all.end(), 0u);
  std::sort(all.begin(), all.end(), before);
  EXPECT_EQ(query::ShortObjectsFirst(store), all);
  EXPECT_EQ(query::BuildCandidateBrackets(prepared, kernel,
                                          /*use_pruning=*/false, nullptr)
                .all_records,
            all);
}

// ------------------------------------------------------- bound order

// The order is one sort under OrderBefore, which is the sequence a stable
// sort by (maxInf, minInf) descending gives over ascending indices.
TEST(BoundDominationOrderTest, IsOneSortUnderOrderBefore) {
  const PreparedInstance prepared(RandomInstance(7108), DefaultConfig());
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());
  const query::CandidateBrackets b =
      query::BuildCandidateBrackets(prepared, kernel, true, nullptr);
  std::vector<uint32_t> sorted(b.num_candidates());
  std::iota(sorted.begin(), sorted.end(), 0u);
  std::vector<uint32_t> stable = sorted;
  std::sort(sorted.begin(), sorted.end(), [&](uint32_t x, uint32_t y) {
    return query::OrderBefore(b.min_inf, b.max_inf, x, y);
  });
  std::stable_sort(stable.begin(), stable.end(), [&](uint32_t x, uint32_t y) {
    return std::pair(b.max_inf[x], b.min_inf[x]) >
           std::pair(b.max_inf[y], b.min_inf[y]);
  });
  EXPECT_EQ(query::BoundDominationOrder(b), sorted);
  EXPECT_EQ(sorted, stable);
}

// maxInf descending, then minInf descending, then index ascending.
TEST(BoundDominationOrderTest, TiesBreakByCandidateIndex) {
  query::CandidateBrackets brackets;
  brackets.min_inf = {2, 5, 2, 0, 5, 2};
  brackets.max_inf = {9, 9, 9, 4, 9, 7};
  EXPECT_EQ(query::BoundDominationOrder(brackets),
            (std::vector<uint32_t>{1, 4, 0, 2, 5, 3}));
}

TEST(BoundDominationOrderTest, EmptyBracketsGiveEmptyOrder) {
  EXPECT_TRUE(query::BoundDominationOrder({}).empty());
}

// Unpruned brackets are all [0, r]: PIN-VO* walks in index order.
TEST(BoundDominationOrderTest, UnprunedOrderIsIndexAscending) {
  const PreparedInstance prepared(RandomInstance(7109), DefaultConfig());
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());
  const std::vector<uint32_t> order = query::BoundDominationOrder(
      query::BuildCandidateBrackets(prepared, kernel, false, nullptr));
  ASSERT_EQ(order.size(), prepared.num_candidates());
  EXPECT_TRUE(std::is_sorted(order.begin(), order.end()));
}

// Irreflexive, total over distinct candidates and transitive, on bounds
// drawn from three values so that ties on both bounds are common.
TEST(OrderBeforeTest, IsAStrictTotalOrder) {
  Rng rng(7110);
  std::vector<int64_t> min_inf(24), max_inf(24);
  for (size_t j = 0; j < min_inf.size(); ++j) {
    min_inf[j] = rng.UniformInt(0, 2);
    max_inf[j] = min_inf[j] + rng.UniformInt(0, 2);
  }
  const auto before = [&](uint32_t a, uint32_t b) {
    return query::OrderBefore(min_inf, max_inf, a, b);
  };
  for (uint32_t a = 0; a < 24; ++a) {
    for (uint32_t b = 0; b < 24; ++b) {
      EXPECT_EQ(before(a, b) + before(b, a), a == b ? 0 : 1) << a << " " << b;
      for (uint32_t c = 0; c < 24; ++c) {
        EXPECT_TRUE(!before(a, b) || !before(b, c) || before(a, c))
            << a << " " << b << " " << c;
      }
    }
  }
}

// The transpose fills each slice in the given record order, ascending
// record index by default, however the records are split into ranges and
// in whatever order the ranges come.
TEST(RecordListsToCsrTest, FillsInRecordOrderWhateverTheRanges) {
  RecordCandidateLists low;  // records 0-2: {0}, {0, 2}, {}
  low.first_record = 0;
  low.counts = {1, 2, 0};
  low.candidates = {0, 0, 2};
  RecordCandidateLists high;  // records 3-4: {2, 0}, {1}
  high.first_record = 3;
  high.counts = {2, 1};
  high.candidates = {2, 0, 1};
  const std::vector<RecordCandidateLists> ranges = {high, low};

  std::vector<uint32_t> offsets, data;
  query::RecordListsToCsr(3, ranges, &offsets, &data);
  EXPECT_EQ(offsets, (std::vector<uint32_t>{0, 3, 4, 6}));
  EXPECT_EQ(data, (std::vector<uint32_t>{0, 1, 3, 4, 1, 3}));

  const std::vector<uint32_t> reversed = {4, 3, 2, 1, 0};
  query::RecordListsToCsr(3, ranges, &offsets, &data, reversed);
  EXPECT_EQ(offsets, (std::vector<uint32_t>{0, 3, 4, 6}));
  EXPECT_EQ(data, (std::vector<uint32_t>{3, 1, 0, 4, 3, 1}));
}

TEST(InfluenceSetsTest, ThreadBudgetsAreByteIdenticalAndExact) {
  const ProblemInstance instance = RandomInstance(7106);
  const SolverConfig config = DefaultConfig();
  const PreparedInstance prepared(instance, config);
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());
  const ObjectStore& store = prepared.store();

  const query::InfluenceSets one = query::BuildInfluenceSets(prepared, kernel);
  ASSERT_EQ(one.num_candidates(), prepared.num_candidates());
  // The pass's brackets are the ones the bound-ordered families start from.
  const query::CandidateBrackets brackets = query::BuildCandidateBrackets(
      prepared, kernel, /*use_pruning=*/true, nullptr);
  EXPECT_EQ(one.min_inf, brackets.min_inf);
  EXPECT_EQ(one.max_inf, brackets.max_inf);
  for (uint32_t j = 0; j < one.num_candidates(); ++j) {
    // Exactly the records the scalar Definition-2 test says j influences,
    // in ascending record order.
    std::vector<uint32_t> want;
    for (uint32_t k = 0; k < store.size(); ++k) {
      if (Influences(prepared.pf(), prepared.candidate(j), store.positions(k),
                     prepared.tau())) {
        want.push_back(k);
      }
    }
    const std::span<const uint32_t> got = one.Objects(j);
    EXPECT_EQ(std::vector<uint32_t>(got.begin(), got.end()), want)
        << "candidate " << j;
    EXPECT_EQ(one.Influence(j), static_cast<int64_t>(want.size()));
  }
  // The reader index: PIN's ranking, and per candidate how many candidates
  // reach its max_inf (>=) and exceed it (>).
  const SolverResult naive = NaiveSolver().Solve(prepared);
  EXPECT_EQ(one.ranking, naive.ranking);
  for (uint32_t j = 0; j < one.num_candidates(); ++j) {
    uint32_t ge = 0;
    uint32_t gt = 0;
    for (int64_t inf : naive.influence) {
      ge += inf >= one.max_inf[j] ? 1 : 0;
      gt += inf > one.max_inf[j] ? 1 : 0;
    }
    EXPECT_EQ(one.ge_max[j], ge) << "candidate " << j;
    EXPECT_EQ(one.gt_max[j], gt) << "candidate " << j;
  }
  for (size_t threads : {2, 7}) {
    const query::InfluenceSets got =
        query::BuildInfluenceSets(prepared, kernel, MorselScheduler(threads));
    EXPECT_EQ(got.offsets, one.offsets);
    EXPECT_EQ(got.objects, one.objects);
    EXPECT_EQ(got.min_inf, one.min_inf);
    EXPECT_EQ(got.max_inf, one.max_inf);
    EXPECT_EQ(got.ranking, one.ranking);
    EXPECT_EQ(got.ge_max, one.ge_max);
    EXPECT_EQ(got.gt_max, one.gt_max);
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
  for (size_t threads : {2, 3, 4, 7}) {
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
    EXPECT_EQ(par.stats.positions_scanned, seq.stats.positions_scanned);
    EXPECT_EQ(par.stats.early_stops, seq.stats.early_stops);
    EXPECT_EQ(par.stats.heap_pops, seq.stats.heap_pops);
    EXPECT_EQ(par.stats.strategy1_cutoffs, seq.stats.strategy1_cutoffs);
  }
}

// The skyline read off the exact pass equals the engine walk, members
// (costs by bit pattern) and bound_skipped, in four cost regimes:
// distances from an origin, uniform costs, one shared cost, and three
// distinct costs over every candidate but a duplicated candidate point,
// whose two copies cost +0.0 and -0.0. At least one walk must abort a
// candidate mid-validation, which the pass's skyline never has to.
TEST(SkylineTest, ReplayOverTheExactPassMatchesTheEngineWalk) {
  int64_t aborted = 0;
  for (uint64_t seed : {7211u, 7212u, 7213u, 7214u, 7215u, 7216u}) {
    ProblemInstance instance =
        RandomInstance(seed, InstanceOptions{.num_candidates = 60});
    instance.candidates.push_back(instance.candidates.front());
    const PreparedInstance prepared(instance, DefaultConfig());
    const InfluenceKernel kernel(prepared.pf(), prepared.tau());
    const query::InfluenceSets pass =
        query::BuildInfluenceSets(prepared, kernel);
    const size_t m = prepared.num_candidates();

    Rng rng(seed);
    const Point origin{rng.Uniform(0.0, 30000.0), rng.Uniform(0.0, 30000.0)};
    std::vector<std::vector<double>> regimes(4, std::vector<double>(m));
    for (uint32_t j = 0; j < m; ++j) {
      regimes[0][j] = Distance(prepared.candidate(j), origin);
      regimes[1][j] = rng.Uniform(0.0, 50.0);
      regimes[2][j] = 7.5;
    }
    for (double& c : regimes[3]) c = static_cast<double>(rng.UniformInt(1, 3));
    regimes[3].front() = 0.0;
    regimes[3].back() = -0.0;
    for (size_t mode = 0; mode < regimes.size(); ++mode) {
      SCOPED_TRACE("seed " + std::to_string(seed) + ", cost mode " +
                   std::to_string(mode));
      const std::vector<double>& cost = regimes[mode];
      const query::SkylineResult walk = query::SolveSkyline(prepared, cost);
      const query::SkylineResult replay = query::SolveSkyline(pass, cost);
      aborted += walk.stats.strategy1_cutoffs;
      EXPECT_EQ(replay.bound_skipped, walk.bound_skipped);
      ASSERT_EQ(replay.members.size(), walk.members.size());
      for (size_t i = 0; i < walk.members.size(); ++i) {
        EXPECT_EQ(replay.members[i].candidate, walk.members[i].candidate);
        EXPECT_EQ(replay.members[i].influence, walk.members[i].influence);
        EXPECT_EQ(std::bit_cast<uint64_t>(replay.members[i].cost),
                  std::bit_cast<uint64_t>(walk.members[i].cost));
      }
      if (mode == 3) {
        // The copies alone are cheapest and tie on influence: both are
        // members, each with its own zero.
        ASSERT_GE(replay.members.size(), 2u);
        EXPECT_EQ(replay.members[0].candidate, 0u);
        EXPECT_FALSE(std::signbit(replay.members[0].cost));
        EXPECT_EQ(replay.members[1].candidate, m - 1);
        EXPECT_TRUE(std::signbit(replay.members[1].cost));
      }
    }
  }
  EXPECT_GT(aborted, 0);
}

// --------------------------------------------------- counter contract

/// The decision counters of a filtered solve equal the forced-scalar ones;
/// the scan counters are chunk-granular on SIMD tiers: positions_scanned
/// lies between the scalar early-exit count and `full_scan`, and no more
/// early stops are reported than the scalar kernel found.
void ExpectCounterContract(const SolverStats& got, const SolverStats& want,
                           int64_t full_scan, const char* family) {
  EXPECT_EQ(got.pairs_pruned_by_ia, want.pairs_pruned_by_ia) << family;
  EXPECT_EQ(got.pairs_pruned_by_nib, want.pairs_pruned_by_nib) << family;
  EXPECT_EQ(got.pairs_validated, want.pairs_validated) << family;
  EXPECT_EQ(got.heap_pops, want.heap_pops) << family;
  EXPECT_EQ(got.strategy1_cutoffs, want.strategy1_cutoffs) << family;
  EXPECT_GE(got.positions_scanned, want.positions_scanned) << family;
  EXPECT_LE(got.positions_scanned, full_scan) << family;
  EXPECT_LE(got.early_stops, want.early_stops) << family;
}

// The bound-ordered families decide each pair as a one-candidate batch
// through the SIMD filter. Forcing the scalar kernel around the solve must
// leave every result and decision counter unchanged.
TEST(CounterContractTest, FilteredSolvesMatchForcedScalar) {
  constexpr int64_t kPositions = 24;  // every span: full scan = pairs * 24
  InstanceOptions opts;
  opts.num_objects = 80;
  opts.num_candidates = 50;
  opts.min_positions = kPositions;
  opts.max_positions = kPositions;
  const ProblemInstance instance = RandomInstance(7250, opts);
  SolverConfig config = DefaultConfig();
  config.top_k = 3;
  const PreparedInstance prepared(instance, config);
  Rng rng(7250);
  std::vector<double> cost(instance.candidates.size());
  for (double& c : cost) c = rng.Uniform(0.0, 50.0);

  struct Solves {
    SolverResult vo;
    query::SkylineResult skyline;
  };
  const auto solve = [&] {
    return Solves{PinocchioVOSolver().Solve(prepared),
                  query::SolveSkyline(prepared, cost)};
  };
  const Solves filtered = [&] {
    ScopedEnv tier("PINOCCHIO_SIMD_TIER", nullptr);
    return solve();
  }();
  const Solves scalar = [&] {
    ScopedEnv tier("PINOCCHIO_SIMD_TIER", "scalar");
    return solve();
  }();

  EXPECT_EQ(filtered.vo.influence, scalar.vo.influence);
  EXPECT_EQ(filtered.vo.ranking, scalar.vo.ranking);
  EXPECT_EQ(filtered.vo.best_candidate, scalar.vo.best_candidate);
  ASSERT_GT(scalar.vo.stats.pairs_validated, 0);
  ExpectCounterContract(filtered.vo.stats, scalar.vo.stats,
                        scalar.vo.stats.pairs_validated * kPositions, "vo");

  ASSERT_EQ(filtered.skyline.members.size(), scalar.skyline.members.size());
  for (size_t i = 0; i < scalar.skyline.members.size(); ++i) {
    EXPECT_EQ(filtered.skyline.members[i].candidate,
              scalar.skyline.members[i].candidate);
    EXPECT_EQ(filtered.skyline.members[i].influence,
              scalar.skyline.members[i].influence);
  }
  EXPECT_EQ(filtered.skyline.bound_skipped, scalar.skyline.bound_skipped);
  ExpectCounterContract(filtered.skyline.stats, scalar.skyline.stats,
                        scalar.skyline.stats.pairs_validated * kPositions,
                        "skyline");
}

// ------------------------------------------------------- decide-ahead

/// A walk policy of the engine's shape whose threshold rises by one after
/// every Settle, so a set decided ahead under the threshold the walk
/// published before its last Settle has a budget one too large. With
/// `await_speculation`, Admit of the candidate at walk position p returns
/// only once the upper bound of the candidate at p + 1 has been read, that
/// is once its set is being decided ahead; each such set that refutes past
/// its true budget then has to be decided again.
class RisingThresholdPolicy {
 public:
  static constexpr size_t kNever = std::numeric_limits<size_t>::max();

  RisingThresholdPolicy(const query::CandidateBrackets& brackets,
                        std::span<const uint32_t> order,
                        bool await_speculation, size_t stop_at = kNever)
      : min_inf_(brackets.min_inf),
        max_inf_(brackets.max_inf),
        complete_(brackets.num_candidates(), 0),
        order_(order),
        upper_reads_(std::make_unique<std::atomic<int>[]>(
            brackets.num_candidates())),
        await_speculation_(await_speculation),
        stop_at_(stop_at) {}

  query::CandidateAdmission Admit(uint32_t j) {
    const size_t p = position_++;
    if (p == stop_at_) return query::CandidateAdmission::kStop;
    if (await_speculation_ && p + 1 < order_.size()) {
      AwaitUpperRead(order_[p + 1]);
    }
    return max_inf_[j] < threshold_ ? query::CandidateAdmission::kSkip
                                    : query::CandidateAdmission::kEvaluate;
  }

  int64_t Threshold() const { return threshold_; }

  int64_t UpperBound(uint32_t j) const {
    upper_reads_[j].fetch_add(1, std::memory_order_release);
    return max_inf_[j];
  }

  void Settle(uint32_t j, int64_t influenced, int64_t refuted,
              bool complete) {
    min_inf_[j] += influenced;
    max_inf_[j] -= refuted;
    complete_[j] = complete ? 1 : 0;
    ++threshold_;
  }

  const std::vector<int64_t>& min_inf() const { return min_inf_; }
  const std::vector<int64_t>& max_inf() const { return max_inf_; }
  const std::vector<char>& complete() const { return complete_; }

 private:
  // Bounded, so a regression that never decides ahead fails the
  // re-decide assertion instead of hanging.
  void AwaitUpperRead(uint32_t j) const {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (upper_reads_[j].load(std::memory_order_acquire) == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::microseconds(20));
    }
  }

  std::vector<int64_t> min_inf_;
  std::vector<int64_t> max_inf_;
  std::vector<char> complete_;
  std::span<const uint32_t> order_;
  std::unique_ptr<std::atomic<int>[]> upper_reads_;
  bool await_speculation_;
  size_t stop_at_;
  size_t position_ = 0;
  int64_t threshold_ = 0;
};

struct RisingWalk {
  std::vector<int64_t> min_inf;
  std::vector<int64_t> max_inf;
  std::vector<char> complete;
  SolverStats stats;
  query::DecideAheadCounts ahead;
};

RisingWalk WalkRising(const PreparedInstance& prepared,
                      const InfluenceKernel& kernel,
                      const query::CandidateBrackets& brackets,
                      std::span<const uint32_t> order, size_t budget,
                      size_t stop_at = RisingThresholdPolicy::kNever) {
  RisingThresholdPolicy policy(brackets, order, budget > 1, stop_at);
  RisingWalk walk;
  walk.ahead = query::EvaluateBoundOrdered(
      prepared, kernel, order,
      [&](uint32_t j) { return brackets.VerificationSet(j); }, &walk.stats,
      policy, MorselScheduler(budget));
  walk.min_inf = policy.min_inf();
  walk.max_inf = policy.max_inf();
  walk.complete = policy.complete();
  return walk;
}

/// The five counters the walk owns.
void ExpectSameWalkCounters(const SolverStats& got, const SolverStats& want) {
  EXPECT_EQ(got.pairs_validated, want.pairs_validated);
  EXPECT_EQ(got.positions_scanned, want.positions_scanned);
  EXPECT_EQ(got.early_stops, want.early_stops);
  EXPECT_EQ(got.heap_pops, want.heap_pops);
  EXPECT_EQ(got.strategy1_cutoffs, want.strategy1_cutoffs);
}

void ExpectSameWalk(const RisingWalk& got, const RisingWalk& want) {
  EXPECT_EQ(got.min_inf, want.min_inf);
  EXPECT_EQ(got.max_inf, want.max_inf);
  EXPECT_EQ(got.complete, want.complete);
  ExpectSameWalkCounters(got.stats, want.stats);
}

constexpr size_t kWalkBudgets[] = {2, 3, 4, 7};

// Every set decided ahead under a stale threshold that refuted past its
// true budget is decided again: the re-decide path runs at every budget
// and tier, and the brackets and counters equal budget 1's.
TEST(DecideAheadTest, StaleSpeculationIsRedecidedBitIdentically) {
  const ProblemInstance instance =
      RandomInstance(7301, InstanceOptions{.num_objects = 80,
                                           .num_candidates = 60});
  const PreparedInstance prepared(instance, DefaultConfig());
  for (const char* tier : {"scalar", "portable", "avx2"}) {
    SCOPED_TRACE(tier);
    const InfluenceKernel kernel = [&] {
      ScopedEnv simd("PINOCCHIO_SIMD_TIER", tier);
      return InfluenceKernel(prepared.pf(), prepared.tau());
    }();
    const query::CandidateBrackets brackets =
        query::BuildCandidateBrackets(prepared, kernel, true, nullptr);
    const std::vector<uint32_t> order = query::BoundDominationOrder(brackets);
    const RisingWalk one = WalkRising(prepared, kernel, brackets, order, 1);
    ASSERT_GT(one.stats.strategy1_cutoffs, 0);
    EXPECT_EQ(one.ahead.taken + one.ahead.redecided, 0);
    for (size_t budget : kWalkBudgets) {
      SCOPED_TRACE("budget " + std::to_string(budget));
      const RisingWalk got =
          WalkRising(prepared, kernel, brackets, order, budget);
      ExpectSameWalk(got, one);
      EXPECT_GT(got.ahead.redecided, 0);
    }
  }
}

// A policy that stops at the first candidate ends the walk before any set
// is decided, whatever the helpers started.
TEST(DecideAheadTest, StopAtTheFirstCandidate) {
  const ProblemInstance instance = RandomInstance(7302);
  const PreparedInstance prepared(instance, DefaultConfig());
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());
  const query::CandidateBrackets brackets =
      query::BuildCandidateBrackets(prepared, kernel, true, nullptr);
  const std::vector<uint32_t> order = query::BoundDominationOrder(brackets);
  for (size_t budget : {1, 2, 3, 4, 7}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    RisingThresholdPolicy policy(brackets, order, false, /*stop_at=*/0);
    SolverStats stats;
    const query::DecideAheadCounts ahead = query::EvaluateBoundOrdered(
        prepared, kernel, order,
        [&](uint32_t j) { return brackets.VerificationSet(j); }, &stats,
        policy, MorselScheduler(budget));
    ExpectSameWalkCounters(stats, SolverStats{});
    EXPECT_EQ(ahead.taken + ahead.redecided, 0);
    EXPECT_EQ(policy.min_inf(), brackets.min_inf);
    EXPECT_EQ(policy.max_inf(), brackets.max_inf);
  }
}

void ExpectSameSolve(const SolverResult& got, const SolverResult& want) {
  EXPECT_EQ(got.influence, want.influence);
  EXPECT_EQ(got.influence_exact, want.influence_exact);
  EXPECT_EQ(got.ranking, want.ranking);
  EXPECT_EQ(got.best_candidate, want.best_candidate);
  ExpectSameWalkCounters(got.stats, want.stats);
}

// PIN-VO at every budget on the walk's edge cases: one candidate; k >= m,
// where the cut-off never saturates and every budget is unlimited; and
// PIN-VO*, whose candidates all share the `all_records` set.
TEST(DecideAheadTest, EdgeCasesAreBitIdentical) {
  struct Case {
    const char* name;
    InstanceOptions options;
    size_t top_k;
    bool star;
  };
  for (const Case& c :
       {Case{"one candidate", {.num_objects = 40, .num_candidates = 1}, 1,
             false},
        Case{"k >= m", {.num_objects = 40, .num_candidates = 12}, 12, false},
        Case{"k > m", {.num_objects = 40, .num_candidates = 12}, 20, false},
        Case{"PIN-VO*", {.num_objects = 40, .num_candidates = 30}, 3, true}}) {
    SCOPED_TRACE(c.name);
    const ProblemInstance instance = RandomInstance(7303, c.options);
    SolverConfig config = DefaultConfig();
    config.top_k = c.top_k;
    const PreparedInstance prepared(instance, config);
    const auto solve = [&](size_t budget) {
      return c.star ? PinocchioVOStarSolver(budget).Solve(prepared)
                    : PinocchioVOSolver(budget).Solve(prepared);
    };
    const SolverResult one = solve(1);
    ASSERT_GT(one.stats.heap_pops, 0);
    for (size_t budget : kWalkBudgets) {
      SCOPED_TRACE("budget " + std::to_string(budget));
      ExpectSameSolve(solve(budget), one);
    }
  }
}

// ------------------------------------------------------- diversified

// Brute-force union coverage of a facility set: the records at least one
// facility influences under the scalar Definition-2 test.
int64_t UnionCoverage(const PreparedInstance& prepared,
                      std::span<const uint32_t> facilities) {
  const ObjectStore& store = prepared.store();
  int64_t covered = 0;
  for (uint32_t k = 0; k < store.size(); ++k) {
    for (uint32_t j : facilities) {
      if (Influences(prepared.pf(), prepared.candidate(j), store.positions(k),
                     prepared.tau())) {
        ++covered;
        break;
      }
    }
  }
  return covered;
}

// Greedy's invariants on random instances, with and without a separation
// constraint (min_separation 0 is the classic multi-facility objective):
// the first pick is a coverage maximum, every prefix covers exactly its
// brute-force union, picks are distinct and separated with non-increasing
// gains, and CELF evaluates fewer gains than plain greedy's m + (k - 1) * m.
class DiversifiedPropertyTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, double>> {
 protected:
  void SetUp() override {
    const auto [seed, delta] = GetParam();
    delta_ = delta;
    prepared_ = std::make_unique<PreparedInstance>(RandomInstance(seed),
                                                   DefaultConfig());
    naive_ = NaiveSolver().Solve(*prepared_);
    for (size_t k : {1, 5, 10}) {
      runs_.emplace_back(k, query::SelectDiversified(*prepared_, k, delta));
      if (delta == 0.0) {
        ASSERT_EQ(runs_.back().second.selected.size(), k);
        EXPECT_EQ(runs_.back().second.separation_rejections, 0);
      }
      ASSERT_FALSE(runs_.back().second.selected.empty());
      ASSERT_EQ(runs_.back().second.coverage.size(),
                runs_.back().second.selected.size());
    }
  }

  double delta_ = 0.0;
  std::unique_ptr<PreparedInstance> prepared_;
  SolverResult naive_;
  std::vector<std::pair<size_t, query::DiversifiedResult>> runs_;
};

TEST_P(DiversifiedPropertyTest, FirstPickIsTheCoverageMaximum) {
  for (const auto& [k, dv] : runs_) {
    SCOPED_TRACE("k " + std::to_string(k));
    EXPECT_EQ(naive_.influence[dv.selected[0]], naive_.best_influence);
    EXPECT_EQ(dv.coverage[0], naive_.best_influence);
  }
}

TEST_P(DiversifiedPropertyTest, PrefixCoverageMatchesBruteForceUnion) {
  for (const auto& [k, dv] : runs_) {
    for (size_t i = 0; i < dv.selected.size(); ++i) {
      EXPECT_EQ(dv.coverage[i],
                UnionCoverage(*prepared_, std::span(dv.selected).first(i + 1)))
          << "k " << k << ", after " << i + 1 << " facilities";
    }
  }
}

TEST_P(DiversifiedPropertyTest, PicksAreDistinctSeparatedWithShrinkingGains) {
  for (const auto& [k, dv] : runs_) {
    SCOPED_TRACE("k " + std::to_string(k));
    EXPECT_EQ(std::set<uint32_t>(dv.selected.begin(), dv.selected.end())
                  .size(),
              dv.selected.size());
    int64_t last_gain = std::numeric_limits<int64_t>::max();
    for (size_t i = 0; i < dv.selected.size(); ++i) {
      for (size_t a = 0; a < i; ++a) {
        EXPECT_GE(Distance(prepared_->candidate(dv.selected[a]),
                           prepared_->candidate(dv.selected[i])),
                  delta_);
      }
      const int64_t gain = dv.coverage[i] - (i > 0 ? dv.coverage[i - 1] : 0);
      EXPECT_GE(gain, 0);
      EXPECT_LE(gain, last_gain) << "greedy gains must be non-increasing";
      last_gain = gain;
    }
  }
}

TEST_P(DiversifiedPropertyTest, CelfEvaluatesFewerGainsThanPlainGreedy) {
  const auto m = static_cast<int64_t>(prepared_->num_candidates());
  for (const auto& [k, dv] : runs_) {
    if (k > 1) {
      EXPECT_LT(dv.gain_evaluations, m + (static_cast<int64_t>(k) - 1) * m)
          << "k " << k;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, DiversifiedPropertyTest,
    ::testing::Combine(::testing::Values(1601, 1602, 1603, 1604, 1606),
                       ::testing::Values(0.0, 6000.0)),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) + "_delta" +
             std::to_string(static_cast<int>(std::get<1>(info.param)));
    });

// Two far-apart crowds: one facility covers half, two cover everyone.
TEST(DiversifiedTest, TwoFarCrowdsNeedTwoFacilities) {
  ProblemInstance instance;
  Rng rng(31);
  for (uint32_t k = 0; k < 40; ++k) {
    MovingObject o;
    o.id = k;
    const double cx = (k < 20) ? 0.0 : 50000.0;
    for (int i = 0; i < 6; ++i) {
      o.positions.push_back({cx + rng.Gaussian(0, 300), rng.Gaussian(0, 300)});
    }
    instance.objects.push_back(std::move(o));
  }
  instance.candidates = {{0, 0}, {50000, 0}, {25000, 25000}};
  const PreparedInstance prepared(instance, DefaultConfig());

  const query::DiversifiedResult dv =
      query::SelectDiversified(prepared, 2, /*min_separation=*/0.0);
  ASSERT_EQ(dv.selected.size(), 2u);
  EXPECT_EQ(dv.coverage, (std::vector<int64_t>{20, 40}));
  EXPECT_EQ(std::set<uint32_t>(dv.selected.begin(), dv.selected.end()),
            (std::set<uint32_t>{0, 1}));
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

// The greedy over a prebuilt pass, at any of its build budgets, is the
// selection SelectDiversified makes, CELF's gain evaluations included.
TEST(DiversifiedTest, GreedyOverTheExactPassMatchesSelection) {
  const ProblemInstance instance = RandomInstance(7306);
  const PreparedInstance prepared(instance, DefaultConfig());
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());

  for (size_t threads : {1, 3}) {
    const query::InfluenceSets pass =
        query::BuildInfluenceSets(prepared, kernel, MorselScheduler(threads));
    for (double delta : {0.0, 5000.0}) {
      const query::DiversifiedResult want =
          query::SelectDiversified(prepared, 4, delta);
      const query::DiversifiedResult got =
          query::SelectDiversified(prepared, pass, 4, delta);
      EXPECT_EQ(got.selected, want.selected);
      EXPECT_EQ(got.coverage, want.coverage);
      EXPECT_EQ(got.gain_evaluations, want.gain_evaluations);
      EXPECT_EQ(got.separation_rejections, want.separation_rejections);
    }
  }
}

TEST(DiversifiedTest, KBeyondCandidatesClampsToAllFeasible) {
  const ProblemInstance instance =
      RandomInstance(7305, {.num_objects = 10, .num_candidates = 5});
  const PreparedInstance prepared(instance, DefaultConfig());

  const query::DiversifiedResult dv =
      query::SelectDiversified(prepared, 100, /*min_separation=*/0.0);
  EXPECT_EQ(dv.selected.size(), 5u);
  EXPECT_EQ(dv.coverage.size(), 5u);
}

TEST(DiversifiedTest, EmptyCandidateSetSelectsNothing) {
  const ProblemInstance instance =
      RandomInstance(7305, {.num_objects = 10, .num_candidates = 0});
  const PreparedInstance prepared(instance, DefaultConfig());

  for (double delta : {0.0, 5000.0}) {
    const query::DiversifiedResult dv =
        query::SelectDiversified(prepared, 3, delta);
    EXPECT_TRUE(dv.selected.empty());
    EXPECT_TRUE(dv.coverage.empty());
    EXPECT_EQ(dv.gain_evaluations, 0);
  }
}

}  // namespace
}  // namespace pinocchio
