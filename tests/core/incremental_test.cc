#include "core/incremental.h"

#include <gtest/gtest.h>

#include "core/naive_solver.h"
#include "testing/instance_helpers.h"

namespace pinocchio {
namespace {

using testing_helpers::DefaultConfig;
using testing_helpers::RandomInstance;

TEST(IncrementalTest, EmptyStructure) {
  IncrementalPrimeLS inc({}, DefaultConfig());
  EXPECT_EQ(inc.NumLiveObjects(), 0u);
  EXPECT_EQ(inc.NumLiveCandidates(), 0u);
  EXPECT_FALSE(inc.Best().has_value());
}

TEST(IncrementalTest, MatchesBatchAfterAllInsertions) {
  const ProblemInstance instance = RandomInstance(401);
  const SolverConfig config = DefaultConfig();
  IncrementalPrimeLS inc(instance.candidates, config);
  for (const MovingObject& o : instance.objects) inc.AddObject(o);

  const SolverResult naive = NaiveSolver().Solve(instance, config);
  for (size_t j = 0; j < instance.candidates.size(); ++j) {
    EXPECT_EQ(inc.InfluenceOf(j), naive.influence[j]) << "candidate " << j;
  }
  const auto best = inc.Best();
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->second, naive.best_influence);
}

TEST(IncrementalTest, RemovalRestoresPreviousState) {
  const ProblemInstance instance = RandomInstance(402);
  const SolverConfig config = DefaultConfig();
  IncrementalPrimeLS inc(instance.candidates, config);
  for (size_t k = 0; k + 1 < instance.objects.size(); ++k) {
    inc.AddObject(instance.objects[k]);
  }
  std::vector<int64_t> before;
  for (size_t j = 0; j < instance.candidates.size(); ++j) {
    before.push_back(inc.InfluenceOf(j));
  }
  const MovingObject& last = instance.objects.back();
  inc.AddObject(last);
  EXPECT_TRUE(inc.RemoveObject(last.id));
  for (size_t j = 0; j < instance.candidates.size(); ++j) {
    EXPECT_EQ(inc.InfluenceOf(j), before[j]);
  }
}

TEST(IncrementalTest, RemoveUnknownObjectReturnsFalse) {
  IncrementalPrimeLS inc({{0, 0}}, DefaultConfig());
  EXPECT_FALSE(inc.RemoveObject(12345));
}

TEST(IncrementalTest, ChurnMatchesBatchRecompute) {
  const ProblemInstance instance = RandomInstance(403);
  const SolverConfig config = DefaultConfig();
  IncrementalPrimeLS inc(instance.candidates, config);

  // Insert everything, remove every third object, re-add half of those.
  for (const MovingObject& o : instance.objects) inc.AddObject(o);
  std::vector<MovingObject> live(instance.objects);
  std::vector<MovingObject> removed;
  for (size_t k = 0; k < instance.objects.size(); k += 3) {
    inc.RemoveObject(instance.objects[k].id);
    removed.push_back(instance.objects[k]);
  }
  std::vector<MovingObject> survivors;
  for (size_t k = 0; k < instance.objects.size(); ++k) {
    if (k % 3 != 0) survivors.push_back(instance.objects[k]);
  }
  for (size_t i = 0; i < removed.size(); i += 2) {
    inc.AddObject(removed[i]);
    survivors.push_back(removed[i]);
  }

  ProblemInstance current;
  current.objects = survivors;
  current.candidates = instance.candidates;
  const SolverResult naive = NaiveSolver().Solve(current, config);
  for (size_t j = 0; j < instance.candidates.size(); ++j) {
    EXPECT_EQ(inc.InfluenceOf(j), naive.influence[j]) << "candidate " << j;
  }
}

TEST(IncrementalTest, AddCandidateComputesItsInfluence) {
  ProblemInstance instance = RandomInstance(404);
  const SolverConfig config = DefaultConfig();
  const Point extra = instance.candidates.back();
  instance.candidates.pop_back();

  IncrementalPrimeLS inc(instance.candidates, config);
  for (const MovingObject& o : instance.objects) inc.AddObject(o);
  const size_t idx = inc.AddCandidate(extra);
  EXPECT_EQ(idx, instance.candidates.size());

  instance.candidates.push_back(extra);
  const SolverResult naive = NaiveSolver().Solve(instance, config);
  EXPECT_EQ(inc.InfluenceOf(idx), naive.influence[idx]);
}

TEST(IncrementalTest, AddCandidateThenObjectsSeesBoth) {
  // Objects added after a late candidate must count it too.
  ProblemInstance instance = RandomInstance(405);
  const SolverConfig config = DefaultConfig();
  const Point extra = instance.candidates.back();
  instance.candidates.pop_back();

  IncrementalPrimeLS inc(instance.candidates, config);
  const size_t half = instance.objects.size() / 2;
  for (size_t k = 0; k < half; ++k) inc.AddObject(instance.objects[k]);
  const size_t idx = inc.AddCandidate(extra);
  for (size_t k = half; k < instance.objects.size(); ++k) {
    inc.AddObject(instance.objects[k]);
  }

  instance.candidates.push_back(extra);
  const SolverResult naive = NaiveSolver().Solve(instance, config);
  for (size_t j = 0; j < instance.candidates.size(); ++j) {
    EXPECT_EQ(inc.InfluenceOf(j), naive.influence[j]) << "candidate " << j;
  }
  EXPECT_EQ(inc.InfluenceOf(idx), naive.influence[idx]);
}

TEST(IncrementalTest, RetiredCandidateExcludedFromBest) {
  const ProblemInstance instance = RandomInstance(406);
  const SolverConfig config = DefaultConfig();
  IncrementalPrimeLS inc(instance.candidates, config);
  for (const MovingObject& o : instance.objects) inc.AddObject(o);
  const auto best = inc.Best();
  ASSERT_TRUE(best.has_value());
  EXPECT_TRUE(inc.RetireCandidate(best->first));
  EXPECT_FALSE(inc.RetireCandidate(best->first));  // already retired
  EXPECT_EQ(inc.InfluenceOf(best->first), 0);
  const auto next_best = inc.Best();
  if (next_best.has_value()) {
    EXPECT_NE(next_best->first, best->first);
    EXPECT_LE(next_best->second, best->second);
  }
  EXPECT_EQ(inc.NumLiveCandidates(), instance.candidates.size() - 1);
}

TEST(IncrementalTest, TopKOrderedAndLive) {
  const ProblemInstance instance = RandomInstance(407);
  const SolverConfig config = DefaultConfig();
  IncrementalPrimeLS inc(instance.candidates, config);
  for (const MovingObject& o : instance.objects) inc.AddObject(o);
  const auto top = inc.TopK(5);
  ASSERT_LE(top.size(), 5u);
  for (size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].second, top[i].second);
  }
  const SolverResult naive = NaiveSolver().Solve(instance, config);
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].second, naive.influence[naive.ranking[i]]);
  }
}

TEST(IncrementalTest, UpdateObjectMatchesBatchRecompute) {
  const ProblemInstance instance = RandomInstance(409);
  const SolverConfig config = DefaultConfig();
  IncrementalPrimeLS inc(instance.candidates, config);
  for (const MovingObject& o : instance.objects) inc.AddObject(o);

  // Every other object takes over its successor's trajectory, so updates
  // both gain and lose candidates.
  ProblemInstance current = instance;
  const size_t n = instance.objects.size();
  for (size_t k = 0; k < n; k += 2) {
    const std::vector<Point>& moved = instance.objects[(k + 1) % n].positions;
    ASSERT_TRUE(inc.UpdateObject(instance.objects[k].id, moved));
    current.objects[k].positions = moved;
  }
  EXPECT_EQ(inc.NumLiveObjects(), n);

  const SolverResult naive = NaiveSolver().Solve(current, config);
  for (size_t j = 0; j < instance.candidates.size(); ++j) {
    EXPECT_EQ(inc.InfluenceOf(j), naive.influence[j]) << "candidate " << j;
  }
}

TEST(IncrementalTest, UpdateUnknownObjectReturnsFalse) {
  IncrementalPrimeLS inc({{0, 0}}, DefaultConfig());
  EXPECT_FALSE(inc.UpdateObject(42, {{0, 0}}));
  EXPECT_EQ(inc.NumLiveObjects(), 0u);
  EXPECT_EQ(inc.InfluenceOf(0), 0);
}

TEST(IncrementalTest, SlidingWindowMatchesBatchRecompute) {
  // Objects grown one position at a time and then trimmed from the front
  // count exactly what a batch solve of their final windows counts.
  const ProblemInstance instance = RandomInstance(410);
  const SolverConfig config = DefaultConfig();
  IncrementalPrimeLS inc(instance.candidates, config);
  ProblemInstance current;
  current.candidates = instance.candidates;
  for (const MovingObject& o : instance.objects) {
    for (const Point& p : o.positions) inc.AppendPosition(o.id, p);
    const size_t expired = o.positions.size() / 3;
    for (size_t i = 0; i < expired; ++i) {
      ASSERT_TRUE(inc.ExpireOldestPosition(o.id));
    }
    MovingObject window = o;
    window.positions.erase(
        window.positions.begin(),
        window.positions.begin() + static_cast<std::ptrdiff_t>(expired));
    EXPECT_EQ(inc.NumPositionsOf(o.id), window.positions.size());
    current.objects.push_back(std::move(window));
  }

  const SolverResult naive = NaiveSolver().Solve(current, config);
  for (size_t j = 0; j < instance.candidates.size(); ++j) {
    EXPECT_EQ(inc.InfluenceOf(j), naive.influence[j]) << "candidate " << j;
  }
}

TEST(IncrementalDeathTest, DuplicateObjectIdRejected) {
  const ProblemInstance instance = RandomInstance(408);
  IncrementalPrimeLS inc(instance.candidates, DefaultConfig());
  inc.AddObject(instance.objects[0]);
  EXPECT_DEATH(inc.AddObject(instance.objects[0]), "already live");
}

}  // namespace
}  // namespace pinocchio
