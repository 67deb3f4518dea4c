#include "core/streaming.h"

#include <algorithm>
#include <cmath>
#include <map>

#include <gtest/gtest.h>

#include "core/naive_solver.h"
#include "prob/alternative_pfs.h"
#include "prob/power_law.h"
#include "testing/instance_helpers.h"
#include "util/random.h"

namespace pinocchio {
namespace {

using testing_helpers::DefaultConfig;

StreamingPrimeLS::Options MakeOptions(double window_seconds) {
  StreamingPrimeLS::Options options;
  options.config = DefaultConfig();
  options.window_seconds = window_seconds;
  return options;
}

// Batch reference: influence over the given (object -> positions) map.
std::vector<int64_t> BatchInfluence(
    const std::vector<Point>& candidates,
    const std::map<uint32_t, std::vector<Point>>& live,
    const SolverConfig& config) {
  ProblemInstance instance;
  instance.candidates = candidates;
  for (const auto& [id, positions] : live) {
    if (positions.empty()) continue;
    MovingObject o;
    o.id = id;
    o.positions = positions;
    instance.objects.push_back(std::move(o));
  }
  return NaiveSolver().Solve(instance, config).influence;
}

TEST(StreamingTest, EmptyEngine) {
  StreamingPrimeLS engine({{0, 0}, {10, 10}}, MakeOptions(60));
  EXPECT_EQ(engine.NumLiveObjects(), 0u);
  EXPECT_EQ(engine.NumLivePositions(), 0u);
  EXPECT_EQ(engine.InfluenceOf(0), 0);
}

TEST(StreamingTest, SingleObservationInfluences) {
  const std::vector<Point> candidates = {{0, 0}, {50000, 50000}};
  StreamingPrimeLS engine(candidates, MakeOptions(60));
  engine.Observe(1, 0.0, {10, 10});
  EXPECT_EQ(engine.NumLiveObjects(), 1u);
  EXPECT_EQ(engine.InfluenceOf(0), 1);  // essentially at candidate 0
  EXPECT_EQ(engine.InfluenceOf(1), 0);
}

TEST(StreamingTest, ExpiryRemovesInfluence) {
  const std::vector<Point> candidates = {{0, 0}};
  StreamingPrimeLS engine(candidates, MakeOptions(60));
  engine.Observe(1, 0.0, {5, 5});
  EXPECT_EQ(engine.InfluenceOf(0), 1);
  engine.AdvanceTo(59.0);
  EXPECT_EQ(engine.InfluenceOf(0), 1);  // still inside the window
  engine.AdvanceTo(61.0);
  EXPECT_EQ(engine.InfluenceOf(0), 0);
  EXPECT_EQ(engine.NumLiveObjects(), 0u);
  EXPECT_EQ(engine.NumLivePositions(), 0u);
}

TEST(StreamingTest, WindowKeepsOnlyRecentPositions) {
  const std::vector<Point> candidates = {{0, 0}};
  StreamingPrimeLS engine(candidates, MakeOptions(100));
  // Two far positions early, a near one later: after the early ones
  // expire, the near one alone sustains the influence.
  engine.Observe(1, 0.0, {40000, 0});
  engine.Observe(1, 10.0, {40000, 100});
  EXPECT_EQ(engine.InfluenceOf(0), 0);  // too far
  engine.Observe(1, 90.0, {10, 0});
  EXPECT_EQ(engine.InfluenceOf(0), 1);
  engine.AdvanceTo(150.0);  // early positions expired, near one remains
  EXPECT_EQ(engine.NumLivePositions(), 1u);
  EXPECT_EQ(engine.InfluenceOf(0), 1);
}

TEST(StreamingTest, PartialExpiryKeepsTheObjectLive) {
  // Expiry drops an object's positions oldest first; the object leaves the
  // live set only with its last position.
  const std::vector<Point> candidates = {{0, 0}};
  StreamingPrimeLS engine(candidates, MakeOptions(50));
  engine.Observe(1, 0.0, {5, 5});
  engine.Observe(1, 20.0, {6, 6});
  engine.Observe(2, 30.0, {40000, 40000});
  EXPECT_EQ(engine.NumLiveObjects(), 2u);
  EXPECT_EQ(engine.NumLivePositions(), 3u);
  engine.AdvanceTo(60.0);  // object 1 loses its t=0 position only
  EXPECT_EQ(engine.NumLiveObjects(), 2u);
  EXPECT_EQ(engine.NumLivePositions(), 2u);
  EXPECT_EQ(engine.InfluenceOf(0), 1);
  engine.AdvanceTo(75.0);  // object 1 gone, object 2 still live
  EXPECT_EQ(engine.NumLiveObjects(), 1u);
  EXPECT_EQ(engine.NumLivePositions(), 1u);
  EXPECT_EQ(engine.InfluenceOf(0), 0);
}

TEST(StreamingTest, ObservationAtExactWindowBoundaryStaysLive) {
  // Window convention regression (closed interval [now - W, now]): an
  // observation timestamped exactly now - W is still inside the window,
  // before and after an AdvanceTo that lands precisely on the boundary.
  const std::vector<Point> candidates = {{0, 0}};
  StreamingPrimeLS engine(candidates, MakeOptions(60));
  engine.Observe(1, 0.0, {5, 5});
  engine.AdvanceTo(60.0);  // horizon == observation time: still live
  EXPECT_EQ(engine.NumLivePositions(), 1u);
  EXPECT_EQ(engine.InfluenceOf(0), 1);

  // A second observation arriving exactly W after the first must not expire
  // it either (Observe advances the clock to the same boundary).
  StreamingPrimeLS engine2(candidates, MakeOptions(60));
  engine2.Observe(1, 0.0, {5, 5});
  engine2.Observe(2, 60.0, {40000, 40000});
  EXPECT_EQ(engine2.NumLivePositions(), 2u);
  EXPECT_EQ(engine2.InfluenceOf(0), 1);

  // Strictly past the boundary it expires.
  engine.AdvanceTo(std::nextafter(60.0, 61.0));
  EXPECT_EQ(engine.NumLivePositions(), 0u);
  EXPECT_EQ(engine.InfluenceOf(0), 0);
}

TEST(StreamingDeathTest, RejectsTimeTravel) {
  StreamingPrimeLS engine({{0, 0}}, MakeOptions(60));
  engine.Observe(1, 100.0, {1, 1});
  EXPECT_DEATH(engine.Observe(1, 99.0, {1, 1}), "non-decreasing");
}

TEST(StreamingTest, MatchesBatchRecomputeUnderRandomStream) {
  Rng rng(1234);
  std::vector<Point> candidates;
  for (int j = 0; j < 15; ++j) {
    candidates.push_back({rng.Uniform(0, 30000), rng.Uniform(0, 30000)});
  }
  const double window = 500.0;
  StreamingPrimeLS engine(candidates, MakeOptions(window));

  // Reference bookkeeping.
  struct Event {
    uint32_t id;
    double time;
    Point position;
  };
  std::vector<Event> history;

  double now = 0.0;
  for (int step = 0; step < 300; ++step) {
    now += rng.Uniform(0.0, 30.0);
    const auto id = static_cast<uint32_t>(rng.UniformInt(0, 9));
    const Point p{rng.Uniform(0, 30000), rng.Uniform(0, 30000)};
    engine.Observe(id, now, p);
    history.push_back({id, now, p});

    if (step % 25 == 0) {
      std::map<uint32_t, std::vector<Point>> live;
      for (const Event& e : history) {
        if (e.time >= now - window) live[e.id].push_back(e.position);
      }
      const auto expected =
          BatchInfluence(candidates, live, MakeOptions(window).config);
      for (size_t j = 0; j < candidates.size(); ++j) {
        ASSERT_EQ(engine.InfluenceOf(j), expected[j])
            << "step " << step << " candidate " << j;
      }
    }
  }
}

// The documented contract of streaming.h, end to end: after an arbitrary
// mix of Observe and AdvanceTo calls, InfluenceOf and TopK must equal a
// fresh batch solve over exactly the window contents ([now - W, now],
// closed on both ends).
TEST(StreamingTest, StreamingEqualsBatchAfterRandomObserveAdvanceMix) {
  Rng rng(4321);
  std::vector<Point> candidates;
  for (int j = 0; j < 12; ++j) {
    candidates.push_back({rng.Uniform(0, 25000), rng.Uniform(0, 25000)});
  }
  const double window = 300.0;
  StreamingPrimeLS engine(candidates, MakeOptions(window));

  struct Event {
    uint32_t id;
    double time;
    Point position;
  };
  std::vector<Event> history;

  double now = 0.0;
  for (int step = 0; step < 250; ++step) {
    // Mostly integral increments so timestamps regularly land exactly on
    // expiry horizons, exercising the closed-boundary semantics.
    now += static_cast<double>(rng.UniformInt(0, 60));
    if (rng.NextDouble() < 0.3) {
      engine.AdvanceTo(now);
    } else {
      const auto id = static_cast<uint32_t>(rng.UniformInt(0, 7));
      const Point p{rng.Uniform(0, 25000), rng.Uniform(0, 25000)};
      engine.Observe(id, now, p);
      history.push_back({id, now, p});
    }

    if (step % 20 != 0) continue;
    std::map<uint32_t, std::vector<Point>> live;
    for (const Event& e : history) {
      if (e.time >= now - window) live[e.id].push_back(e.position);
    }
    const auto expected =
        BatchInfluence(candidates, live, MakeOptions(window).config);
    for (size_t j = 0; j < candidates.size(); ++j) {
      ASSERT_EQ(engine.InfluenceOf(j), expected[j])
          << "step " << step << " candidate " << j;
    }
    // TopK must rank by influence descending, ties towards the smaller
    // candidate index — same convention as the batch solvers.
    std::vector<std::pair<size_t, int64_t>> want;
    for (size_t j = 0; j < candidates.size(); ++j) {
      want.emplace_back(j, expected[j]);
    }
    std::stable_sort(want.begin(), want.end(), [](const auto& a, const auto& b) {
      return a.second > b.second;
    });
    want.resize(5);
    ASSERT_EQ(engine.TopK(5), want) << "step " << step;
  }
}

// Delta maintenance must equal a batch solve of the live window at every
// step under a random interleaving of Observe and AdvanceTo with heavy
// object-id reuse.
TEST(StreamingTest, DeltaMatchesBatchUnderRandomInterleaving) {
  Rng rng(2718);
  std::vector<Point> candidates;
  for (int j = 0; j < 14; ++j) {
    candidates.push_back({rng.Uniform(0, 28000), rng.Uniform(0, 28000)});
  }
  const double window = 200.0;
  StreamingPrimeLS engine(candidates, MakeOptions(window));

  struct Event {
    uint32_t id;
    double time;
    Point position;
  };
  std::vector<Event> history;
  double now = 0.0;
  for (int step = 0; step < 400; ++step) {
    now += rng.Uniform(0.0, 20.0);
    if (rng.NextDouble() < 0.2) {
      engine.AdvanceTo(now);
    } else {
      // Only 4 distinct ids: every object is re-observed many times while
      // it still has live positions (duplicate-id pressure on the delta
      // append path).
      const auto id = static_cast<uint32_t>(rng.UniformInt(0, 3));
      const Point p{rng.Uniform(0, 28000), rng.Uniform(0, 28000)};
      engine.Observe(id, now, p);
      history.push_back({id, now, p});
    }
    std::map<uint32_t, std::vector<Point>> live;
    size_t live_positions = 0;
    for (const Event& e : history) {
      if (e.time < now - window) continue;
      live[e.id].push_back(e.position);
      ++live_positions;
    }
    ASSERT_EQ(engine.NumLiveObjects(), live.size()) << step;
    ASSERT_EQ(engine.NumLivePositions(), live_positions) << step;
    const auto expected =
        BatchInfluence(candidates, live, MakeOptions(window).config);
    for (size_t j = 0; j < candidates.size(); ++j) {
      ASSERT_EQ(engine.InfluenceOf(j), expected[j])
          << "step " << step << " candidate " << j;
    }
    std::vector<std::pair<size_t, int64_t>> want;
    for (size_t j = 0; j < candidates.size(); ++j) {
      want.emplace_back(j, expected[j]);
    }
    std::stable_sort(want.begin(), want.end(), [](const auto& a, const auto& b) {
      return a.second > b.second;
    });
    want.resize(4);
    ASSERT_EQ(engine.TopK(4), want) << step;
    if (!live.empty()) {
      ASSERT_TRUE(engine.Best().has_value()) << step;
      ASSERT_EQ(engine.Best()->second, want.front().second) << step;
    }
  }
}

// Every timestamp lands exactly on a multiple of the window width, so
// each advance puts the expiry horizon precisely on older observation
// timestamps — the closed-boundary case the delta expiry path must get
// right (expire strictly-older only, keep the boundary observation).
TEST(StreamingTest, HorizonExactTimestampsMatchBatch) {
  Rng rng(99);
  std::vector<Point> candidates;
  for (int j = 0; j < 10; ++j) {
    candidates.push_back({rng.Uniform(0, 20000), rng.Uniform(0, 20000)});
  }
  const double window = 64.0;
  StreamingPrimeLS engine(candidates, MakeOptions(window));

  struct Event {
    uint32_t id;
    double time;
    Point position;
  };
  std::vector<Event> history;

  double now = 0.0;
  for (int step = 0; step < 200; ++step) {
    // Steps are 0, W/4, W/2 or W: timestamps stay on the W/4 grid, so
    // horizons repeatedly coincide with live observation times.
    now += (window / 4.0) * static_cast<double>(rng.UniformInt(0, 4));
    if (rng.NextDouble() < 0.25) {
      engine.AdvanceTo(now);
    } else {
      const auto id = static_cast<uint32_t>(rng.UniformInt(0, 5));
      const Point p{rng.Uniform(0, 20000), rng.Uniform(0, 20000)};
      engine.Observe(id, now, p);
      history.push_back({id, now, p});
    }
    std::map<uint32_t, std::vector<Point>> live;
    for (const Event& e : history) {
      if (e.time >= now - window) live[e.id].push_back(e.position);
    }
    const auto expected =
        BatchInfluence(candidates, live, MakeOptions(window).config);
    size_t live_positions = 0;
    for (const auto& [id, positions] : live) live_positions += positions.size();
    ASSERT_EQ(engine.NumLivePositions(), live_positions) << step;
    for (size_t j = 0; j < candidates.size(); ++j) {
      ASSERT_EQ(engine.InfluenceOf(j), expected[j])
          << "step " << step << " candidate " << j;
    }
  }
}

TEST(StreamingTest, BestTracksWindow) {
  // Two candidate hubs; the crowd moves from hub A to hub B.
  const std::vector<Point> candidates = {{0, 0}, {20000, 20000}};
  StreamingPrimeLS engine(candidates, MakeOptions(100));
  Rng rng(5);
  for (uint32_t id = 0; id < 20; ++id) {
    engine.Observe(id, static_cast<double>(id),
                   {rng.Uniform(-100, 100), rng.Uniform(-100, 100)});
  }
  auto best = engine.Best();
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->first, 0u);

  for (uint32_t id = 0; id < 20; ++id) {
    engine.Observe(100 + id, 300.0 + id,
                   {20000 + rng.Uniform(-100, 100),
                    20000 + rng.Uniform(-100, 100)});
  }
  engine.AdvanceTo(350.0);  // hub-A crowd (t <= 19) has expired; B is live
  best = engine.Best();
  ASSERT_TRUE(best.has_value());
  EXPECT_EQ(best->first, 1u);
  EXPECT_EQ(engine.TopK(2).front().first, 1u);
}

TEST(StreamingTest, BestChangedCallbackFires) {
  const std::vector<Point> candidates = {{0, 0}, {20000, 0}};
  StreamingPrimeLS engine(candidates, MakeOptions(100));
  std::vector<std::pair<std::optional<size_t>, double>> notifications;
  engine.SetBestChangedCallback(
      [&](const std::optional<std::pair<size_t, int64_t>>& best, double now) {
        notifications.emplace_back(
            best ? std::optional<size_t>(best->first) : std::nullopt, now);
      });

  engine.Observe(1, 0.0, {10, 0});  // candidate 0 becomes best
  ASSERT_EQ(notifications.size(), 1u);
  EXPECT_EQ(notifications.back().first, std::optional<size_t>(0));

  engine.Observe(2, 1.0, {19990, 0});   // tie; candidate 0 keeps index order
  engine.Observe(3, 2.0, {20010, 0});   // candidate 1 pulls ahead
  ASSERT_GE(notifications.size(), 2u);
  EXPECT_EQ(notifications.back().first, std::optional<size_t>(1));

  const size_t count_before = notifications.size();
  engine.AdvanceTo(50.0);  // nothing expires -> no notification
  EXPECT_EQ(notifications.size(), count_before);

  engine.AdvanceTo(1000.0);  // everything expires -> influence drops
  EXPECT_GT(notifications.size(), count_before);
  EXPECT_DOUBLE_EQ(notifications.back().second, 1000.0);
}

TEST(StreamingTest, CallbackNotFiredWhenBestStable) {
  const std::vector<Point> candidates = {{0, 0}};
  StreamingPrimeLS engine(candidates, MakeOptions(1000));
  engine.Observe(1, 0.0, {1, 1});
  int calls = 0;
  engine.SetBestChangedCallback(
      [&](const std::optional<std::pair<size_t, int64_t>>&, double) {
        ++calls;
      });
  // Re-observing the same influenced object does not change (site, count).
  engine.Observe(1, 1.0, {2, 2});
  engine.Observe(1, 2.0, {3, 3});
  EXPECT_EQ(calls, 0);
}

// Under a PF with PF(0) = 1 a position exactly on a candidate saturates:
// it alone decides influence, and its bound-table bucket has a -inf lower
// bound. Observations land on candidates (and near them) while the window
// appends, partially expires and finally empties; after every step the
// counters equal a naive solve of the live window.
class StreamingSaturatedTest
    : public ::testing::TestWithParam<ProbabilityFunctionPtr> {
};

TEST_P(StreamingSaturatedTest, ObservationsOnCandidatesMatchNaive) {
  const std::vector<Point> candidates = {
      {0, 0}, {1500, 0}, {0, 2500}, {4000, 4000}, {1200, 1300}};
  StreamingPrimeLS::Options options = MakeOptions(40);
  options.config.pf = GetParam();
  StreamingPrimeLS engine(candidates, options);
  Rng rng(77);
  struct Event {
    uint32_t id;
    double time;
    Point position;
  };
  std::vector<Event> history;
  const auto check = [&](double now, int step) {
    std::map<uint32_t, std::vector<Point>> live;
    for (const Event& e : history) {
      if (e.time >= now - 40) live[e.id].push_back(e.position);
    }
    const auto expected = BatchInfluence(candidates, live, options.config);
    ASSERT_EQ(engine.NumLiveObjects(), live.size()) << "step " << step;
    for (size_t j = 0; j < candidates.size(); ++j) {
      ASSERT_EQ(engine.InfluenceOf(j), expected[j])
          << "step " << step << " candidate " << j;
    }
  };
  // Append for 60 s (the window starts expiring at 40 s), one observation
  // a second, every other one exactly on a candidate.
  double now = 0.0;
  for (int step = 0; step < 60; ++step) {
    now = static_cast<double>(step);
    const auto id = static_cast<uint32_t>(rng.UniformInt(0, 5));
    const Point& c = candidates[rng.UniformInt(0, 4)];
    const Point p = step % 2 == 0
                        ? c
                        : Point{c.x + rng.Uniform(-800, 800),
                                c.y + rng.Uniform(-800, 800)};
    engine.Observe(id, now, p);
    history.push_back({id, now, p});
    check(now, step);
  }
  // Then let the window drain a few seconds at a time until it is empty.
  for (int step = 60; engine.NumLivePositions() > 0; ++step) {
    now += 3.0;
    engine.AdvanceTo(now);
    check(now, step);
  }
  EXPECT_EQ(engine.NumLiveObjects(), 0u);
  for (size_t j = 0; j < candidates.size(); ++j) {
    EXPECT_EQ(engine.InfluenceOf(j), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Pfs, StreamingSaturatedTest,
    ::testing::Values(std::make_shared<LinearPF>(1.0, 3000.0),
                      std::make_shared<PowerLawPF>(1.0, 1.0)),
    [](const ::testing::TestParamInfo<ProbabilityFunctionPtr>&
           info) { return info.index == 0 ? "LinearRho1" : "PowerLawRho1"; });

TEST(StreamingTest, ReobservationAfterFullExpiry) {
  const std::vector<Point> candidates = {{0, 0}};
  StreamingPrimeLS engine(candidates, MakeOptions(50));
  engine.Observe(7, 0.0, {1, 1});
  engine.AdvanceTo(1000.0);
  EXPECT_EQ(engine.NumLiveObjects(), 0u);
  engine.Observe(7, 1000.0, {2, 2});  // same id returns
  EXPECT_EQ(engine.NumLiveObjects(), 1u);
  EXPECT_EQ(engine.InfluenceOf(0), 1);
}

}  // namespace
}  // namespace pinocchio
