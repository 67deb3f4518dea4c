#include "core/incremental.h"

#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <numbers>
#include <optional>
#include <string>
#include <utility>

#include <gtest/gtest.h>

#include "core/naive_solver.h"
#include "prob/alternative_pfs.h"
#include "prob/influence_kernel.h"
#include "prob/power_law.h"
#include "testing/instance_helpers.h"
#include "util/random.h"
#include "util/self_check.h"

namespace pinocchio {
namespace {

using testing_helpers::DefaultConfig;
using testing_helpers::RandomInstance;

// Feeds every position of `objects` through AppendPosition, object by
// object, so each object is born by its first position.
void AppendAll(IncrementalPrimeLS& inc,
               const std::vector<MovingObject>& objects) {
  for (const MovingObject& o : objects) {
    for (const Point& p : o.positions) inc.AppendPosition(o.id, p);
  }
}

// Expires every in-window position of `id`, which removes the object.
void ExpireAll(IncrementalPrimeLS& inc, uint32_t id) {
  while (inc.NumPositionsOf(id) > 0) {
    ASSERT_TRUE(inc.ExpireOldestPosition(id));
  }
}

std::vector<int64_t> Influences(const IncrementalPrimeLS& inc, size_t m) {
  std::vector<int64_t> influence;
  for (size_t j = 0; j < m; ++j) influence.push_back(inc.InfluenceOf(j));
  return influence;
}

// Expires every third object completely, then appends half of those again,
// so the re-appended objects are born a second time. Returns the objects
// live afterwards.
std::vector<MovingObject> Churn(IncrementalPrimeLS& inc,
                                const std::vector<MovingObject>& objects) {
  std::vector<MovingObject> survivors;
  std::vector<MovingObject> expired;
  for (size_t k = 0; k < objects.size(); ++k) {
    if (k % 3 == 0) {
      ExpireAll(inc, objects[k].id);
      expired.push_back(objects[k]);
    } else {
      survivors.push_back(objects[k]);
    }
  }
  for (size_t i = 0; i < expired.size(); i += 2) {
    AppendAll(inc, {expired[i]});
    survivors.push_back(expired[i]);
  }
  return survivors;
}

TEST(IncrementalTest, EmptyStructure) {
  IncrementalPrimeLS inc({}, DefaultConfig());
  EXPECT_EQ(inc.NumLiveObjects(), 0u);
  EXPECT_FALSE(inc.Best().has_value());
}

TEST(IncrementalTest, MatchesBatchAfterAllInsertions) {
  const ProblemInstance instance = RandomInstance(401);
  const SolverConfig config = DefaultConfig();
  IncrementalPrimeLS inc(instance.candidates, config);
  AppendAll(inc, instance.objects);
  EXPECT_EQ(inc.NumLiveObjects(), instance.objects.size());

  const SolverResult naive = NaiveSolver().Solve(instance, config);
  EXPECT_EQ(Influences(inc, instance.candidates.size()), naive.influence);
  const auto best = inc.Best();
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->second, naive.best_influence);
}

TEST(IncrementalTest, RemovalRestoresPreviousState) {
  const ProblemInstance instance = RandomInstance(402);
  const SolverConfig config = DefaultConfig();
  const size_t m = instance.candidates.size();
  IncrementalPrimeLS inc(instance.candidates, config);
  const std::vector<MovingObject> head(instance.objects.begin(),
                                       instance.objects.end() - 1);
  AppendAll(inc, head);
  const std::vector<int64_t> before = Influences(inc, m);

  const MovingObject& last = instance.objects.back();
  AppendAll(inc, {last});
  ExpireAll(inc, last.id);
  EXPECT_EQ(inc.NumLiveObjects(), head.size());
  EXPECT_EQ(Influences(inc, m), before);
}

TEST(IncrementalTest, RemoveUnknownObjectReturnsFalse) {
  IncrementalPrimeLS inc({{0, 0}}, DefaultConfig());
  EXPECT_FALSE(inc.ExpireOldestPosition(12345));
  EXPECT_EQ(inc.NumLiveObjects(), 0u);
  EXPECT_EQ(inc.InfluenceOf(0), 0);
}

// A one-position object standing on a candidate influences it from birth,
// and the expiry of that position takes the influence away again.
TEST(IncrementalTest, BirthAndLastExpiryMoveTheCounters) {
  using Entry = std::pair<size_t, int64_t>;
  IncrementalPrimeLS inc({{5000, 5000}, {0, 0}}, DefaultConfig());
  EXPECT_EQ(inc.AppendPosition(7, {0, 0}), 1u);
  EXPECT_EQ(inc.InfluenceOf(1), 1);
  EXPECT_EQ(inc.InfluenceOf(0), 0);
  EXPECT_EQ(inc.Best(), std::make_optional(Entry{1, 1}));

  ASSERT_TRUE(inc.ExpireOldestPosition(7));
  EXPECT_EQ(inc.NumLiveObjects(), 0u);
  EXPECT_EQ(inc.InfluenceOf(1), 0);
  EXPECT_EQ(inc.Best(), std::make_optional(Entry{0, 0}));
}

TEST(IncrementalTest, ChurnMatchesBatchRecompute) {
  const ProblemInstance instance = RandomInstance(403);
  const SolverConfig config = DefaultConfig();
  IncrementalPrimeLS inc(instance.candidates, config);
  AppendAll(inc, instance.objects);

  ProblemInstance current;
  current.objects = Churn(inc, instance.objects);
  current.candidates = instance.candidates;
  EXPECT_EQ(inc.NumLiveObjects(), current.objects.size());
  EXPECT_EQ(Influences(inc, instance.candidates.size()),
            NaiveSolver().Solve(current, config).influence);
}

TEST(IncrementalTest, TopKOrderedAndLive) {
  const ProblemInstance instance = RandomInstance(407);
  const SolverConfig config = DefaultConfig();
  IncrementalPrimeLS inc(instance.candidates, config);
  AppendAll(inc, instance.objects);
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

  EXPECT_EQ(Influences(inc, instance.candidates.size()),
            NaiveSolver().Solve(current, config).influence);
}

// The same invariants over more random instances, one case per invariant
// and per seed. Every object is born by AppendPosition over an empty watch
// set, so these pin the creation path against NaiveSolver.
class IncrementalSeedTest : public ::testing::TestWithParam<uint64_t> {
 protected:
  void SetUp() override { instance_ = RandomInstance(GetParam()); }

  SolverResult Naive(const std::vector<MovingObject>& objects) const {
    ProblemInstance current;
    current.objects = objects;
    current.candidates = instance_.candidates;
    return NaiveSolver().Solve(current, config_);
  }

  ProblemInstance instance_;
  SolverConfig config_ = DefaultConfig();
};

TEST_P(IncrementalSeedTest, InfluenceMatchesNaiveAfterAppends) {
  IncrementalPrimeLS inc(instance_.candidates, config_);
  AppendAll(inc, instance_.objects);
  EXPECT_EQ(Influences(inc, instance_.candidates.size()),
            Naive(instance_.objects).influence);
}

TEST_P(IncrementalSeedTest, TopKMatchesNaiveRanking) {
  IncrementalPrimeLS inc(instance_.candidates, config_);
  AppendAll(inc, instance_.objects);
  const SolverResult naive = Naive(instance_.objects);
  const auto top = inc.TopK(5);
  ASSERT_EQ(top.size(), std::min<size_t>(5, instance_.candidates.size()));
  for (size_t i = 0; i < top.size(); ++i) {
    EXPECT_EQ(top[i].first, naive.ranking[i]) << "rank " << i;
    EXPECT_EQ(top[i].second, naive.influence[naive.ranking[i]]) << "rank " << i;
  }
  ASSERT_TRUE(inc.Best().has_value());
  EXPECT_EQ(*inc.Best(), top.front());
}

TEST_P(IncrementalSeedTest, ExpiringEveryObjectEmptiesTheStructure) {
  IncrementalPrimeLS inc(instance_.candidates, config_);
  AppendAll(inc, instance_.objects);
  for (const MovingObject& o : instance_.objects) ExpireAll(inc, o.id);
  EXPECT_EQ(inc.NumLiveObjects(), 0u);
  EXPECT_EQ(Influences(inc, instance_.candidates.size()),
            std::vector<int64_t>(instance_.candidates.size(), 0));
}

TEST_P(IncrementalSeedTest, RebornObjectsMatchNaive) {
  IncrementalPrimeLS inc(instance_.candidates, config_);
  AppendAll(inc, instance_.objects);
  const std::vector<MovingObject> live = Churn(inc, instance_.objects);
  EXPECT_EQ(inc.NumLiveObjects(), live.size());
  EXPECT_EQ(Influences(inc, instance_.candidates.size()),
            Naive(live).influence);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IncrementalSeedTest,
                         ::testing::Values(411, 412, 413, 414, 415));

// Self-check on for one test: every stream decision is re-verified against
// the exact kernel, and a disagreement aborts.
class SelfCheckOn {
 public:
  SelfCheckOn() : was_(SelfCheckEnabled()) { SetSelfCheckEnabled(true); }
  ~SelfCheckOn() { SetSelfCheckEnabled(was_); }

 private:
  bool was_;
};

// A PF with PF(0) >= 1, under which a position on a candidate saturates
// (decides influence alone) and the bound table has -inf buckets.
struct SaturatedCase {
  std::string name;
  ProbabilityFunctionPtr pf;
  double tau;
};

class IncrementalSaturatedTest
    : public ::testing::TestWithParam<SaturatedCase> {
 protected:
  SolverConfig Config() const {
    SolverConfig config;
    config.pf = GetParam().pf;
    config.tau = GetParam().tau;
    return config;
  }

  // Compares every counter with a naive solve of the mirrored windows.
  void ExpectMatchesNaive(const IncrementalPrimeLS& inc,
                          const std::vector<Point>& candidates,
                          const std::map<uint32_t, std::deque<Point>>& live,
                          const std::string& step) const {
    ProblemInstance window;
    window.candidates = candidates;
    for (const auto& [id, positions] : live) {
      window.objects.push_back(
          {id, std::vector<Point>(positions.begin(), positions.end())});
    }
    const SolverResult naive = NaiveSolver().Solve(window, Config());
    ASSERT_EQ(Influences(inc, candidates.size()), naive.influence) << step;
    ASSERT_EQ(inc.NumLiveObjects(), live.size()) << step;
  }
};

TEST_P(IncrementalSaturatedTest, PositionsOnCandidatesMatchNaive) {
  const SelfCheckOn self_check;
  testing_helpers::InstanceOptions options;
  options.num_objects = 10;
  options.num_candidates = 12;
  options.max_positions = 9;
  options.extent_meters = 4000.0;
  const ProblemInstance instance = testing_helpers::RandomInstance(
      431, options);
  const std::vector<Point>& candidates = instance.candidates;
  IncrementalPrimeLS inc(candidates, Config());
  std::map<uint32_t, std::deque<Point>> live;

  // Append, every third position exactly on a candidate.
  size_t step = 0;
  for (const MovingObject& o : instance.objects) {
    for (size_t i = 0; i < o.positions.size(); ++i) {
      const Point p = (o.id + i) % 3 == 0
                          ? candidates[(o.id + i) % candidates.size()]
                          : o.positions[i];
      inc.AppendPosition(o.id, p);
      live[o.id].push_back(p);
      ExpectMatchesNaive(inc, candidates, live,
                         "append " + std::to_string(step++));
    }
  }
  // Partial expiry: every object down to half its window.
  for (const MovingObject& o : instance.objects) {
    while (live[o.id].size() > (o.positions.size() + 1) / 2) {
      ASSERT_TRUE(inc.ExpireOldestPosition(o.id));
      live[o.id].pop_front();
      ExpectMatchesNaive(inc, candidates, live,
                         "partial expiry " + std::to_string(step++));
    }
  }
  // Full expiry: each object leaves with its last position.
  for (const MovingObject& o : instance.objects) {
    while (live.count(o.id) > 0) {
      ASSERT_TRUE(inc.ExpireOldestPosition(o.id));
      live[o.id].pop_front();
      if (live[o.id].empty()) live.erase(o.id);
      ExpectMatchesNaive(inc, candidates, live,
                         "full expiry " + std::to_string(step++));
    }
  }
  EXPECT_EQ(inc.NumLiveObjects(), 0u);
  EXPECT_EQ(Influences(inc, candidates.size()),
            std::vector<int64_t>(candidates.size(), 0));
}

INSTANTIATE_TEST_SUITE_P(
    Pfs, IncrementalSaturatedTest,
    ::testing::Values(
        SaturatedCase{"LinearRho1", std::make_shared<LinearPF>(1.0, 3000.0),
                      0.7},
        SaturatedCase{"PowerLawRho1", std::make_shared<PowerLawPF>(1.0, 1.0),
                      0.7},
        // PF >= 1 out to 500 m: whole buckets are saturated (-inf upper
        // bounds), and at tau 0.999 a bucket straddling 500 m cannot
        // decide from the table, so the band bracket counts saturated
        // positions.
        SaturatedCase{"PowerLawFlatTop",
                      std::make_shared<PowerLawPF>(1.0, 1.0, 0.5), 0.7},
        SaturatedCase{"PowerLawFlatTopTau999",
                      std::make_shared<PowerLawPF>(1.0, 1.0, 0.5), 0.999}),
    [](const ::testing::TestParamInfo<SaturatedCase>& info) {
      return info.param.name;
    });

// Walks one pair's log-survival sum across tau and back: a window of n
// positions, mostly at the distance where n of them put the sum at
// log(1 - tau), with some nearer and farther ones, slides one append and
// one expiry at a time. One position moves the sum by a few percent at
// most, so it drifts through the table's straddle band, where the band
// bracket opens and serves several deltas, and out past the drop margin,
// where it is dropped. Two more candidates a little off-centre hover near
// their own boundaries, so several band brackets are open at once. Every
// decision is checked against the exact kernel.
TEST(IncrementalTest, BandChurnAcrossTheThreshold) {
  const SelfCheckOn self_check;
  const SolverConfig config = DefaultConfig();
  constexpr size_t kN = 40;
  const double boundary = config.pf->Inverse(
      -std::expm1(std::log1p(-config.tau) / static_cast<double>(kN)));
  const std::vector<Point> candidates = {
      {0.0, 0.0}, {0.03 * boundary, 0.0}, {0.0, -0.03 * boundary}};
  IncrementalPrimeLS inc(candidates, config);
  const InfluenceKernel kernel(*config.pf, config.tau);

  constexpr double kFactors[] = {1.0, 1.0, 1.0, 1.0, 0.98,
                                 1.02, 0.9, 1.1, 0.6, 2.0};
  Rng rng(433);
  std::deque<Point> window;
  const auto check = [&](int step) {
    const std::vector<Point> span(window.begin(), window.end());
    for (size_t j = 0; j < candidates.size(); ++j) {
      const bool exact = kernel.Decide(candidates[j], span).influenced;
      ASSERT_EQ(inc.InfluenceOf(j), exact ? 1 : 0)
          << "step " << step << " candidate " << j;
    }
  };
  for (int step = 0; step < 2000; ++step) {
    const double factor =
        step < static_cast<int>(kN) ? 1.0 : kFactors[rng.UniformInt(0, 9)];
    const double angle = rng.Uniform(0.0, 2.0 * std::numbers::pi);
    const Point p{boundary * factor * std::cos(angle),
                  boundary * factor * std::sin(angle)};
    inc.AppendPosition(1, p);
    window.push_back(p);
    check(step);
    if (window.size() > kN) {
      ASSERT_TRUE(inc.ExpireOldestPosition(1));
      window.pop_front();
      check(step);
    }
  }
  const IncrementalPrimeLS::DeltaCounters& work = inc.delta_counters();
  // Opened and dropped many times, and each bracket serves several deltas
  // while it is open.
  EXPECT_GE(work.band_opens, 50u);
  EXPECT_GE(work.band_drops, 50u);
  EXPECT_GE(work.exact_folds, 3 * work.band_opens);
}

}  // namespace
}  // namespace pinocchio
