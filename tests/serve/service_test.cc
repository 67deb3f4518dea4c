// InfluenceService contract: responses agree exactly with direct solver
// calls on the snapshot they were computed from, what-if answers match a
// fresh prepare under the altered parameters, updates bump the epoch and
// are visible after DrainUpdates(), and malformed requests come back as
// typed errors.

#include <algorithm>
#include <bit>
#include <initializer_list>
#include <iterator>
#include <latch>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/influence_query.h"
#include "core/naive_solver.h"
#include "core/query_engine.h"
#include "geo/point.h"
#include "core/pinocchio_solver.h"
#include "core/pinocchio_vo_solver.h"
#include "core/prepared_instance.h"
#include "core/streaming.h"
#include "prob/power_law.h"
#include "serve/service.h"
#include "testing/instance_helpers.h"
#include "util/random.h"

namespace pinocchio {
namespace serve {
namespace {

using testing_helpers::DefaultConfig;
using testing_helpers::InstanceOptions;
using testing_helpers::RandomInstance;

// The what-if path rebuilds its PF with this unit; DefaultConfig()'s
// PowerLawPF uses the constructor default of 1000 m, so matching it here
// makes service what-if answers comparable to fresh local prepares.
ServiceOptions TestOptions(size_t prepared_top_k = 8) {
  ServiceOptions options;
  options.prepared_top_k = prepared_top_k;
  options.pf_unit_meters = 1000.0;
  return options;
}

Request SolveRequestFor(WireAlgorithm algorithm, uint32_t k) {
  Request request;
  request.type = RequestType::kSolve;
  request.solve.algorithm = algorithm;
  request.solve.top_k = k;
  return request;
}

TEST(ServiceTest, SolveMatchesDirectSolveOnTheSameSnapshot) {
  const ProblemInstance instance = RandomInstance(11);
  InfluenceService service(instance, DefaultConfig(), TestOptions());

  // Acquire the very snapshot the service will answer from, then compare
  // the response against a direct Solve on that snapshot's prepared
  // state. Influence counts are integers, so equality is bit-exactness.
  const SnapshotPtr snap = service.snapshot();
  for (const WireAlgorithm algorithm :
       {WireAlgorithm::kPinVO, WireAlgorithm::kPin, WireAlgorithm::kNaive}) {
    const Response response =
        service.Execute(SolveRequestFor(algorithm, 5));
    ASSERT_EQ(response.type, ResponseType::kSolve);

    std::unique_ptr<Solver> solver;
    switch (algorithm) {
      case WireAlgorithm::kPinVO:
        solver = std::make_unique<PinocchioVOSolver>();
        break;
      case WireAlgorithm::kPin:
        solver = std::make_unique<PinocchioSolver>();
        break;
      case WireAlgorithm::kNaive:
        solver = std::make_unique<NaiveSolver>();
        break;
    }
    const SolverResult direct = solver->Solve(snap->prepared);

    EXPECT_EQ(response.solve.epoch, snap->epoch);
    EXPECT_EQ(response.solve.num_objects, snap->prepared.num_objects());
    EXPECT_EQ(response.solve.num_candidates,
              snap->prepared.num_candidates());
    EXPECT_EQ(response.solve.best_candidate, direct.best_candidate);
    EXPECT_EQ(response.solve.best_influence, direct.best_influence);
    ASSERT_EQ(response.solve.topk.size(),
              std::min<size_t>(5, direct.ranking.size()));
    for (size_t i = 0; i < response.solve.topk.size(); ++i) {
      EXPECT_EQ(response.solve.topk[i].candidate, direct.ranking[i]);
      EXPECT_EQ(response.solve.topk[i].influence,
                direct.influence[direct.ranking[i]]);
    }
  }
}

// kTopK is PIN's exact ranking at every k, on both sides of the prepared
// top_k (8): one case per k, up to every candidate.
class ServiceTopKTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(ServiceTopKTest, RanksLikePinWithEveryEntryExact) {
  const ProblemInstance instance =
      RandomInstance(12, InstanceOptions{.num_candidates = 40});
  InfluenceService service(instance, DefaultConfig(), TestOptions());
  const SnapshotPtr snap = service.snapshot();
  const SolverResult pin = PinocchioSolver().Solve(snap->prepared);
  const SolverResult naive = NaiveSolver().Solve(snap->prepared);

  Request request;
  request.type = RequestType::kTopK;
  request.top_k.k = GetParam();
  const Response response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kSolve);
  ASSERT_EQ(response.solve.topk.size(), GetParam());
  for (size_t i = 0; i < response.solve.topk.size(); ++i) {
    const RankedCandidate& rc = response.solve.topk[i];
    EXPECT_EQ(rc.candidate, pin.ranking[i]) << i;
    EXPECT_EQ(rc.influence, naive.influence[rc.candidate]) << i;
    EXPECT_TRUE(rc.exact) << i;
  }
  EXPECT_EQ(response.solve.best_candidate, pin.best_candidate);
  EXPECT_EQ(response.solve.best_influence, naive.best_influence);
}

INSTANTIATE_TEST_SUITE_P(AroundPreparedK, ServiceTopKTest,
                         ::testing::Values(1u, 5u, 8u, 9u, 20u, 40u),
                         [](const auto& info) {
                           return "k" + std::to_string(info.param);
                         });

// Probes run on the snapshot's one kernel; before and after a rebuild
// they answer what a fresh InfluenceOfCandidate does on that snapshot.
TEST(ServiceTest, ProbeMatchesInfluenceOfCandidate) {
  const ProblemInstance instance = RandomInstance(13);
  InfluenceService service(instance, DefaultConfig(), TestOptions());
  const std::vector<Point> locations = {
      instance.candidates[0], Point{0.0, 0.0}, Point{15000.0, 9000.0}};
  const auto expect_probes_match = [&](uint64_t epoch) {
    const SnapshotPtr snap = service.snapshot();
    ASSERT_EQ(snap->epoch, epoch);
    for (const Point& location : locations) {
      Request request;
      request.type = RequestType::kProbe;
      request.probe.location = location;
      const Response response = service.Execute(request);
      ASSERT_EQ(response.type, ResponseType::kProbe);
      EXPECT_EQ(response.probe.influence,
                InfluenceOfCandidate(snap->prepared, location));
      EXPECT_EQ(response.probe.epoch, epoch);
    }
  };
  expect_probes_match(1);

  // New objects around the probe locations move their influences.
  Request update;
  update.type = RequestType::kUpdate;
  for (uint32_t i = 0; i < locations.size(); ++i) {
    UpdateObject object;
    object.object_id = 9000 + i;
    object.positions = {locations[i],
                        {locations[i].x + 50.0, locations[i].y - 30.0}};
    update.update.objects.push_back(object);
  }
  ASSERT_EQ(service.Execute(update).type, ResponseType::kUpdate);
  service.DrainUpdates();
  expect_probes_match(2);
}

TEST(ServiceTest, WhatIfMatchesFreshPrepareUnderAlteredParameters) {
  const ProblemInstance instance = RandomInstance(14);
  InfluenceService service(instance, DefaultConfig(), TestOptions());

  Request request;
  request.type = RequestType::kWhatIf;
  request.what_if.tau = 0.55;
  request.what_if.rho = 0.8;
  request.what_if.lambda = 1.3;
  request.what_if.top_k = 3;
  const Response response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kSolve);

  SolverConfig altered = DefaultConfig(0.55);
  altered.pf = std::make_shared<PowerLawPF>(0.8, 1.3, /*d0=*/1.0,
                                            /*unit_meters=*/1000.0);
  altered.top_k = 8;  // the service's prepared_top_k
  const PreparedInstance fresh(instance, altered);
  const SolverResult direct = PinocchioVOSolver().Solve(fresh);

  EXPECT_EQ(response.solve.best_candidate, direct.best_candidate);
  EXPECT_EQ(response.solve.best_influence, direct.best_influence);
  ASSERT_EQ(response.solve.topk.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(response.solve.topk[i].candidate, direct.ranking[i]);
  }

  // A second what-if at the same epoch rides the Reprepare fast path and
  // must produce identical results to the first for equal parameters.
  const Response again = service.Execute(request);
  ASSERT_EQ(again.type, ResponseType::kSolve);
  EXPECT_EQ(again.solve.best_candidate, response.solve.best_candidate);
  EXPECT_EQ(again.solve.best_influence, response.solve.best_influence);
}

TEST(ServiceTest, WhatIfRejectsOutOfRangeParameters) {
  InfluenceService service(RandomInstance(15), DefaultConfig(),
                           TestOptions());
  Request request;
  request.type = RequestType::kWhatIf;
  request.what_if.tau = 1.5;
  Response response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kError);
  EXPECT_EQ(response.error.code, ErrorCode::kBadRequest);

  request.what_if.tau = 0.7;
  request.what_if.rho = 0.0;
  response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kError);

  request.what_if.rho = 0.9;
  request.what_if.lambda = -1.0;
  response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kError);
}

TEST(ServiceTest, UpdateBumpsEpochAndExtendsTheInstance) {
  const ProblemInstance instance = RandomInstance(16);
  const size_t original_objects = instance.objects.size();
  const size_t original_candidates = instance.candidates.size();
  InfluenceService service(instance, DefaultConfig(), TestOptions());
  EXPECT_EQ(service.snapshot()->epoch, 1u);

  Request request;
  request.type = RequestType::kUpdate;
  UpdateObject object;
  object.object_id = 9999;
  object.positions = {{100.0, 200.0}, {110.0, 210.0}};
  request.update.objects.push_back(object);
  request.update.candidates.push_back(Point{5000.0, 5000.0});

  const Response response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kUpdate);
  EXPECT_TRUE(response.update.accepted);
  EXPECT_EQ(response.update.epoch, 1u);

  service.DrainUpdates();
  const SnapshotPtr snap = service.snapshot();
  EXPECT_EQ(snap->epoch, 2u);
  EXPECT_EQ(snap->prepared.num_objects(), original_objects + 1);
  EXPECT_EQ(snap->prepared.num_candidates(), original_candidates + 1);
  EXPECT_EQ(snap->instance.objects.back().id, 9999u);
  EXPECT_EQ(service.snapshot_swaps(), 1u);

  // The rebuilt snapshot serves exactly like a from-scratch prepare of
  // the extended instance.
  const Response solve = service.Execute(
      SolveRequestFor(WireAlgorithm::kPinVO, 1));
  ASSERT_EQ(solve.type, ResponseType::kSolve);
  const SolverResult direct = PinocchioVOSolver().Solve(snap->prepared);
  EXPECT_EQ(solve.solve.best_candidate, direct.best_candidate);
  EXPECT_EQ(solve.solve.best_influence, direct.best_influence);
  EXPECT_EQ(solve.solve.epoch, 2u);
}

TEST(ServiceTest, EmptyAndInvalidUpdatesAreRejected) {
  InfluenceService service(RandomInstance(17), DefaultConfig(),
                           TestOptions());
  Request request;
  request.type = RequestType::kUpdate;  // no objects, no candidates
  Response response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kError);
  EXPECT_EQ(response.error.code, ErrorCode::kBadRequest);

  UpdateObject empty_object;
  empty_object.object_id = 90000;
  request.update.objects.push_back(empty_object);  // zero positions
  response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kError);
  EXPECT_EQ(service.snapshot()->epoch, 1u);
}

Request UpdateWithIds(std::initializer_list<uint32_t> ids) {
  Request request;
  request.type = RequestType::kUpdate;
  for (uint32_t id : ids) {
    UpdateObject object;
    object.object_id = id;
    object.positions = {{1000.0, 2000.0}};
    request.update.objects.push_back(object);
  }
  return request;
}

// A refused update leaves the epoch and the queue as they were.
void ExpectRefusedAndNothingQueued(InfluenceService& service,
                                   const Request& update,
                                   uint64_t epoch) {
  const Response response = service.Execute(update);
  ASSERT_EQ(response.type, ResponseType::kError);
  EXPECT_EQ(response.error.code, ErrorCode::kBadRequest);
  Request stats;
  stats.type = RequestType::kStats;
  EXPECT_EQ(service.Execute(stats).stats.pending_updates, 0u);
  service.DrainUpdates();
  EXPECT_EQ(service.snapshot()->epoch, epoch);
}

size_t CountObjectsWithId(const InfluenceService& service, uint32_t id) {
  const SnapshotPtr snap = service.snapshot();
  const std::vector<MovingObject>& objects = snap->instance.objects;
  return static_cast<size_t>(
      std::count_if(objects.begin(), objects.end(),
                    [id](const MovingObject& o) { return o.id == id; }));
}

TEST(ServiceTest, UpdateRefusesAnIdTheSnapshotHolds) {
  const ProblemInstance instance = RandomInstance(18);
  InfluenceService service(instance, DefaultConfig(), TestOptions());
  ExpectRefusedAndNothingQueued(
      service, UpdateWithIds({instance.objects[3].id}), 1);
  EXPECT_EQ(CountObjectsWithId(service, instance.objects[3].id), 1u);
  EXPECT_EQ(service.snapshot_swaps(), 0u);
}

TEST(ServiceTest, UpdateRefusesAnIdAlreadyAccepted) {
  InfluenceService service(RandomInstance(18), DefaultConfig(),
                           TestOptions());
  ASSERT_EQ(service.Execute(UpdateWithIds({70000})).type,
            ResponseType::kUpdate);
  // Refused while the first update may still be queued or rebuilding, and
  // again once it is in the published snapshot.
  const Response queued = service.Execute(UpdateWithIds({70000}));
  ASSERT_EQ(queued.type, ResponseType::kError);
  EXPECT_EQ(queued.error.code, ErrorCode::kBadRequest);
  service.DrainUpdates();
  ExpectRefusedAndNothingQueued(service, UpdateWithIds({70000}), 2);
  EXPECT_EQ(CountObjectsWithId(service, 70000), 1u);
  EXPECT_EQ(service.snapshot_swaps(), 1u);
}

TEST(ServiceTest, UpdateRefusesAnIdRepeatedInTheRequest) {
  InfluenceService service(RandomInstance(18), DefaultConfig(),
                           TestOptions());
  ExpectRefusedAndNothingQueued(service, UpdateWithIds({71000, 71000}), 1);
  EXPECT_EQ(CountObjectsWithId(service, 71000), 0u);
  // The refused request recorded no id: the same id alone is accepted.
  ASSERT_EQ(service.Execute(UpdateWithIds({71000})).type,
            ResponseType::kUpdate);
  service.DrainUpdates();
  EXPECT_EQ(CountObjectsWithId(service, 71000), 1u);
}

TEST(ServiceTest, MultiThreadedSolvesMatchSequentialBitForBit) {
  ServiceOptions options = TestOptions();
  options.solve_threads = 3;
  InfluenceService service(RandomInstance(21), DefaultConfig(), options);
  const SnapshotPtr snap = service.snapshot();

  for (const WireAlgorithm algorithm :
       {WireAlgorithm::kPinVO, WireAlgorithm::kPin, WireAlgorithm::kNaive}) {
    const Response response = service.Execute(SolveRequestFor(algorithm, 5));
    ASSERT_EQ(response.type, ResponseType::kSolve);

    std::unique_ptr<Solver> solver;
    switch (algorithm) {
      case WireAlgorithm::kPinVO:
        solver = std::make_unique<PinocchioVOSolver>();
        break;
      case WireAlgorithm::kPin:
        solver = std::make_unique<PinocchioSolver>();
        break;
      case WireAlgorithm::kNaive:
        solver = std::make_unique<NaiveSolver>();
        break;
    }
    const SolverResult direct = solver->Solve(snap->prepared);
    EXPECT_EQ(response.solve.best_candidate, direct.best_candidate);
    EXPECT_EQ(response.solve.best_influence, direct.best_influence);
    ASSERT_EQ(response.solve.topk.size(),
              std::min<size_t>(5, direct.ranking.size()));
    for (size_t i = 0; i < response.solve.topk.size(); ++i) {
      EXPECT_EQ(response.solve.topk[i].candidate, direct.ranking[i]);
      EXPECT_EQ(response.solve.topk[i].influence,
                direct.influence[direct.ranking[i]]);
    }
  }
}

TEST(ServiceTest, StatsReportSolveThreadBudgetAndBusyTime) {
  ServiceOptions options = TestOptions();
  options.solve_threads = 2;
  InfluenceService service(RandomInstance(22), DefaultConfig(), options);
  service.Execute(SolveRequestFor(WireAlgorithm::kPinVO, 3));

  Request stats;
  stats.type = RequestType::kStats;
  const Response response = service.Execute(stats);
  ASSERT_EQ(response.type, ResponseType::kStats);
  EXPECT_EQ(response.stats.solve_threads, 2u);
  // Busy time is process-wide and monotone; after at least one solve it
  // must be positive (the inline path counts too).
  EXPECT_GT(response.stats.solve_busy_seconds, 0.0);
}

TEST(ServiceTest, StatsCountRequestsPerType) {
  InfluenceService service(RandomInstance(18), DefaultConfig(),
                           TestOptions());
  service.Execute(SolveRequestFor(WireAlgorithm::kPinVO, 1));
  Request probe;
  probe.type = RequestType::kProbe;
  probe.probe.location = Point{1.0, 2.0};
  service.Execute(probe);
  service.Execute(probe);

  Request stats;
  stats.type = RequestType::kStats;
  const Response response = service.Execute(stats);
  ASSERT_EQ(response.type, ResponseType::kStats);
  EXPECT_EQ(response.stats.solve_requests, 1u);
  EXPECT_EQ(response.stats.probe_requests, 2u);
  EXPECT_EQ(response.stats.stats_requests, 1u);
  EXPECT_EQ(response.stats.epoch, 1u);
  EXPECT_EQ(response.stats.snapshot_swaps, 0u);
  EXPECT_GE(response.stats.uptime_seconds, 0.0);
}

TEST(ServiceTest, SkylineMatchesDirectSolveOnTheSameSnapshot) {
  const ProblemInstance instance = RandomInstance(23);
  // solve_threads = 3 also exercises the parallel skyline path, which is
  // bit-identical to the sequential reference computed below.
  ServiceOptions options = TestOptions();
  options.solve_threads = 3;
  InfluenceService service(instance, DefaultConfig(), options);
  const SnapshotPtr snap = service.snapshot();

  Request request;
  request.type = RequestType::kSkyline;
  request.skyline.cost_origin = Point{12000.0, 8000.0};
  const Response response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kSkyline);
  EXPECT_EQ(response.skyline.epoch, snap->epoch);
  EXPECT_EQ(response.skyline.num_objects, snap->prepared.num_objects());
  EXPECT_EQ(response.skyline.num_candidates,
            snap->prepared.num_candidates());

  std::vector<double> cost(snap->prepared.num_candidates());
  for (size_t j = 0; j < cost.size(); ++j) {
    cost[j] =
        Distance(snap->prepared.candidate(j), request.skyline.cost_origin);
  }
  const query::SkylineResult direct =
      query::SolveSkyline(snap->prepared, cost);
  EXPECT_EQ(response.skyline.bound_skipped,
            static_cast<uint64_t>(direct.bound_skipped));
  ASSERT_EQ(response.skyline.skyline.size(), direct.members.size());
  for (size_t i = 0; i < direct.members.size(); ++i) {
    EXPECT_EQ(response.skyline.skyline[i].candidate,
              direct.members[i].candidate);
    EXPECT_EQ(response.skyline.skyline[i].influence,
              direct.members[i].influence);
    EXPECT_EQ(response.skyline.skyline[i].cost, direct.members[i].cost);
  }
}

TEST(ServiceTest, DiversifiedMatchesDirectSelection) {
  const ProblemInstance instance = RandomInstance(24);
  ServiceOptions options = TestOptions();
  options.solve_threads = 3;
  InfluenceService service(instance, DefaultConfig(), options);
  const SnapshotPtr snap = service.snapshot();

  Request request;
  request.type = RequestType::kDiversified;
  request.diversified.k = 4;
  request.diversified.min_separation = 6000.0;
  const Response response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kDiversified);
  EXPECT_EQ(response.diverse.epoch, snap->epoch);

  const query::DiversifiedResult direct =
      query::SelectDiversified(snap->prepared, 4, 6000.0);
  EXPECT_EQ(response.diverse.gain_evaluations,
            static_cast<uint64_t>(direct.gain_evaluations));
  ASSERT_EQ(response.diverse.selected.size(), direct.selected.size());
  for (size_t i = 0; i < direct.selected.size(); ++i) {
    EXPECT_EQ(response.diverse.selected[i].candidate, direct.selected[i]);
    EXPECT_EQ(response.diverse.selected[i].coverage, direct.coverage[i]);
  }
}

TEST(ServiceTest, DiversifiedRejectsNegativeSeparationAndClampsK) {
  InfluenceService service(RandomInstance(25), DefaultConfig(),
                           TestOptions());
  Request request;
  request.type = RequestType::kDiversified;
  request.diversified.k = 1;
  request.diversified.min_separation = -1.0;
  Response response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kError);
  EXPECT_EQ(response.error.code, ErrorCode::kBadRequest);

  // NaN passes a plain `< 0.0` test; it must be refused, not reach the
  // selector's check and abort the process.
  request.diversified.min_separation =
      std::numeric_limits<double>::quiet_NaN();
  response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kError);
  EXPECT_EQ(response.error.code, ErrorCode::kBadRequest);

  // k = 0 is clamped up to 1 rather than rejected.
  request.diversified.k = 0;
  request.diversified.min_separation = 0.0;
  response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kDiversified);
  EXPECT_EQ(response.diverse.selected.size(), 1u);
}

TEST(ServiceTest, StatsCountSkylineAndDiverseRequests) {
  InfluenceService service(RandomInstance(26), DefaultConfig(),
                           TestOptions());
  Request skyline;
  skyline.type = RequestType::kSkyline;
  skyline.skyline.cost_origin = Point{0.0, 0.0};
  service.Execute(skyline);
  service.Execute(skyline);
  Request diverse;
  diverse.type = RequestType::kDiversified;
  diverse.diversified.k = 2;
  service.Execute(diverse);

  Request stats;
  stats.type = RequestType::kStats;
  const Response response = service.Execute(stats);
  ASSERT_EQ(response.type, ResponseType::kStats);
  EXPECT_EQ(response.stats.skyline_requests, 2u);
  EXPECT_EQ(response.stats.diverse_requests, 1u);
  EXPECT_EQ(response.stats.error_responses, 0u);
}

TEST(ServiceTest, EveryRejectedRequestCountsOneErrorResponse) {
  // Streaming stays disabled, so observe and advance are rejections too.
  InfluenceService service(RandomInstance(27), DefaultConfig(),
                           TestOptions());
  Request stats;
  stats.type = RequestType::kStats;
  const auto errors = [&] {
    return service.Execute(stats).stats.error_responses;
  };

  Request what_if;
  what_if.type = RequestType::kWhatIf;
  what_if.what_if.tau = 1.5;
  Request empty_update;
  empty_update.type = RequestType::kUpdate;
  Request observe;
  observe.type = RequestType::kObserve;
  observe.observe.observations = {{1, 0.0, {10.0, 10.0}}};
  Request advance;
  advance.type = RequestType::kAdvance;
  advance.advance.time = 1.0;
  Request approx;
  approx.type = RequestType::kApproxTopK;
  approx.approx.epsilon = 1.5;
  Request diverse;
  diverse.type = RequestType::kDiversified;
  diverse.diversified.min_separation = -1.0;
  Request unknown;
  unknown.type = static_cast<RequestType>(0xee);

  for (const Request& rejected :
       {what_if, empty_update, observe, advance, approx, diverse, unknown}) {
    const uint64_t before = errors();
    const Response response = service.Execute(rejected);
    ASSERT_EQ(response.type, ResponseType::kError);
    EXPECT_EQ(errors(), before + 1)
        << "request type " << static_cast<int>(rejected.type);
  }
  EXPECT_EQ(service.Execute(unknown).error.code, ErrorCode::kUnknownType);
}

TEST(ServiceTest, CoalescedUpdatesBuildMonotonicEpochs) {
  InfluenceService service(RandomInstance(19), DefaultConfig(),
                           TestOptions());
  for (int round = 0; round < 5; ++round) {
    Request request;
    request.type = RequestType::kUpdate;
    UpdateObject object;
    object.object_id = static_cast<uint32_t>(10000 + round);
    object.positions = {{round * 10.0, round * 20.0}};
    request.update.objects.push_back(object);
    const Response response = service.Execute(request);
    ASSERT_EQ(response.type, ResponseType::kUpdate);
  }
  service.DrainUpdates();
  const SnapshotPtr snap = service.snapshot();
  // Bursts may coalesce into fewer swaps, but every accepted object must
  // be present and the epoch must have advanced at least once.
  EXPECT_GE(snap->epoch, 2u);
  EXPECT_LE(snap->epoch, 6u);
  size_t appended = 0;
  for (const MovingObject& object : snap->instance.objects) {
    if (object.id >= 10000) ++appended;
  }
  EXPECT_EQ(appended, 5u);
}

// ------------------------------------------------------------- streaming

TEST(ServiceTest, ObserveRejectedWhenStreamingDisabled) {
  InfluenceService service(RandomInstance(3), DefaultConfig(), TestOptions());
  Request request;
  request.type = RequestType::kObserve;
  request.observe.observations = {{1, 0.0, {10.0, 10.0}}};
  const Response response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kError);
  EXPECT_EQ(response.error.code, ErrorCode::kBadRequest);

  Request advance;
  advance.type = RequestType::kAdvance;
  advance.advance.time = 1.0;
  EXPECT_EQ(service.Execute(advance).type, ResponseType::kError);
}

TEST(ServiceTest, ObserveMatchesDirectStreamingEngine) {
  const ProblemInstance instance = RandomInstance(17);
  ServiceOptions options = TestOptions();
  options.stream_window_seconds = 100.0;
  InfluenceService service(instance, DefaultConfig(), options);

  // The reference engine runs over the same candidates and config.
  StreamingPrimeLS::Options stream_options;
  stream_options.config = DefaultConfig();
  stream_options.config.top_k = std::max<size_t>(1, options.prepared_top_k);
  stream_options.window_seconds = options.stream_window_seconds;
  StreamingPrimeLS reference(instance.candidates, stream_options);

  Rng rng(5);
  double now = 0.0;
  for (int batch = 0; batch < 10; ++batch) {
    Request request;
    request.type = RequestType::kObserve;
    for (int i = 0; i < 8; ++i) {
      now += rng.Uniform(0.0, 5.0);
      Observation o;
      o.object_id = static_cast<uint32_t>(rng.UniformInt(0, 5));
      o.time = now;
      o.position = Point{rng.Uniform(0, 30000), rng.Uniform(0, 30000)};
      request.observe.observations.push_back(o);
      reference.Observe(o.object_id, o.time, o.position);
    }
    const Response response = service.Execute(request);
    ASSERT_EQ(response.type, ResponseType::kStream);
    const StreamResponse& s = response.stream;
    EXPECT_EQ(s.applied, 8u);
    EXPECT_EQ(s.now, reference.now());
    EXPECT_EQ(s.live_objects, reference.NumLiveObjects());
    EXPECT_EQ(s.live_positions, reference.NumLivePositions());
    const auto best = reference.Best();
    ASSERT_EQ(s.has_best, best.has_value());
    if (best.has_value()) {
      EXPECT_EQ(s.best_candidate, best->first);
      EXPECT_EQ(s.best_influence, best->second);
    }
  }

  // Advance far past the window: everything expires on both sides.
  Request advance;
  advance.type = RequestType::kAdvance;
  advance.advance.time = now + 10 * options.stream_window_seconds;
  reference.AdvanceTo(advance.advance.time);
  const Response response = service.Execute(advance);
  ASSERT_EQ(response.type, ResponseType::kStream);
  EXPECT_EQ(response.stream.live_objects, 0u);
  EXPECT_EQ(response.stream.live_positions, 0u);
  // Best() reports a zero-influence candidate for an empty window (it is
  // nullopt only when no live candidate exists) — same as the reference.
  ASSERT_EQ(response.stream.has_best, reference.Best().has_value());
  EXPECT_EQ(response.stream.best_influence, 0);
}

TEST(ServiceTest, ObserveBatchIsAllOrNothingOnBadTimes) {
  ServiceOptions options = TestOptions();
  options.stream_window_seconds = 50.0;
  InfluenceService service(RandomInstance(7), DefaultConfig(), options);

  Request good;
  good.type = RequestType::kObserve;
  good.observe.observations = {{1, 10.0, {5.0, 5.0}}};
  ASSERT_EQ(service.Execute(good).type, ResponseType::kStream);

  // A batch that goes back in time mid-way is rejected and applies
  // nothing — the engine's state (including live counts) is unchanged.
  Request bad;
  bad.type = RequestType::kObserve;
  bad.observe.observations = {{2, 20.0, {6.0, 6.0}}, {3, 15.0, {7.0, 7.0}}};
  const Response rejected = service.Execute(bad);
  ASSERT_EQ(rejected.type, ResponseType::kError);
  EXPECT_EQ(rejected.error.code, ErrorCode::kBadRequest);

  // A batch older than the stream clock is also rejected up front.
  Request stale;
  stale.type = RequestType::kObserve;
  stale.observe.observations = {{4, 5.0, {8.0, 8.0}}};
  EXPECT_EQ(service.Execute(stale).type, ResponseType::kError);

  Request advance;
  advance.type = RequestType::kAdvance;
  advance.advance.time = 5.0;  // < stream clock
  EXPECT_EQ(service.Execute(advance).type, ResponseType::kError);

  Request stats;
  stats.type = RequestType::kStats;
  const Response after = service.Execute(stats);
  ASSERT_EQ(after.type, ResponseType::kStats);
  EXPECT_EQ(after.stats.stream_observations, 1u);
  EXPECT_EQ(after.stats.stream_live_positions, 1u);
  EXPECT_EQ(after.stats.stream_live_objects, 1u);
  EXPECT_EQ(after.stats.observe_requests, 3u);
  EXPECT_EQ(after.stats.advance_requests, 1u);
  EXPECT_EQ(after.stats.stream_window_seconds, 50.0);
}

// Served approx answers PIN's exact top-k from the snapshot's pass: every
// bracket is degenerate at the exact influence, which satisfies any
// (epsilon, delta) certificate, so no parameter changes the answer.
TEST(ServiceTest, ApproxTopKIsPinsExactTopKForEveryParameter) {
  const ProblemInstance instance =
      RandomInstance(31, InstanceOptions{.num_objects = 200});
  InfluenceService service(instance, DefaultConfig(), TestOptions());
  const SnapshotPtr snap = service.snapshot();
  const SolverResult pin = PinocchioSolver().Solve(snap->prepared);

  const ApproxTopKRequest params[] = {
      {5, 0.2, 0.05, 99}, {5, 0.01, 0.5, 1}, {5, 1.0, 1e-9, 12345},
      {5, 0.5, 0.99, 0},  {1, 0.3, 0.1, 7},  {64, 0.1, 0.05, 99}};
  for (const ApproxTopKRequest& p : params) {
    SCOPED_TRACE("k " + std::to_string(p.k) + " epsilon " +
                 std::to_string(p.epsilon) + " delta " +
                 std::to_string(p.delta) + " seed " + std::to_string(p.seed));
    Request request;
    request.type = RequestType::kApproxTopK;
    request.approx = p;
    const Response response = service.Execute(request);
    ASSERT_EQ(response.type, ResponseType::kApprox);
    EXPECT_EQ(response.approx.epoch, snap->epoch);
    EXPECT_EQ(response.approx.num_objects, snap->prepared.num_objects());
    EXPECT_EQ(response.approx.num_candidates,
              snap->prepared.num_candidates());
    ASSERT_EQ(response.approx.entries.size(),
              std::min<size_t>(p.k, pin.ranking.size()));
    for (size_t i = 0; i < response.approx.entries.size(); ++i) {
      const ApproxRankedCandidate& e = response.approx.entries[i];
      const int64_t exact = pin.influence[pin.ranking[i]];
      EXPECT_EQ(e.candidate, pin.ranking[i]) << i;
      EXPECT_EQ(e.estimate, exact) << i;
      EXPECT_EQ(e.lo, exact) << i;
      EXPECT_EQ(e.hi, exact) << i;
      EXPECT_TRUE(e.exact) << i;
    }
  }

  Request stats;
  stats.type = RequestType::kStats;
  const Response after = service.Execute(stats);
  ASSERT_EQ(after.type, ResponseType::kStats);
  EXPECT_EQ(after.stats.approx_requests, std::size(params));
}

TEST(ServiceTest, ApproxTopKBracketsContainExactInfluence) {
  const ProblemInstance instance =
      RandomInstance(32, InstanceOptions{.num_objects = 300});
  InfluenceService service(instance, DefaultConfig(), TestOptions());
  const SnapshotPtr snap = service.snapshot();
  const SolverResult exact = NaiveSolver().Solve(snap->prepared);

  Request request;
  request.type = RequestType::kApproxTopK;
  request.approx.k = 4;
  request.approx.epsilon = 0.15;
  request.approx.delta = 0.05;
  request.approx.seed = 7;
  const Response response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kApprox);
  for (const ApproxRankedCandidate& e : response.approx.entries) {
    EXPECT_LE(e.lo, exact.influence[e.candidate]) << e.candidate;
    EXPECT_GE(e.hi, exact.influence[e.candidate]) << e.candidate;
  }
}

TEST(ServiceTest, ApproxTopKRejectsOutOfRangeParameters) {
  InfluenceService service(RandomInstance(33), DefaultConfig(), TestOptions());
  Request request;
  request.type = RequestType::kApproxTopK;
  request.approx.k = 2;
  request.approx.epsilon = 0.0;
  request.approx.delta = 0.5;
  Response response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kError);
  EXPECT_EQ(response.error.code, ErrorCode::kBadRequest);
  request.approx.epsilon = 0.1;
  request.approx.delta = 1.0;
  response = service.Execute(request);
  ASSERT_EQ(response.type, ResponseType::kError);
  EXPECT_EQ(response.error.code, ErrorCode::kBadRequest);
}

// A refused skyline leaves the service answering: the stats request that
// follows gets its reply and counts exactly one error.
void ExpectSkylineRefusedAndStillServing(InfluenceService& service,
                                         const Point& origin) {
  Request skyline;
  skyline.type = RequestType::kSkyline;
  skyline.skyline.cost_origin = origin;
  const Response response = service.Execute(skyline);
  ASSERT_EQ(response.type, ResponseType::kError);
  EXPECT_EQ(response.error.code, ErrorCode::kBadRequest);
  EXPECT_NE(response.error.message.find("skyline cost inf"),
            std::string::npos)
      << response.error.message;

  Request stats;
  stats.type = RequestType::kStats;
  const Response after = service.Execute(stats);
  ASSERT_EQ(after.type, ResponseType::kStats);
  EXPECT_EQ(after.stats.skyline_requests, 1u);
  EXPECT_EQ(after.stats.error_responses, 1u);
}

// A finite origin far enough away squares past DBL_MAX for every
// candidate.
TEST(ServiceTest, SkylineRefusesAFarOriginAndKeepsServing) {
  InfluenceService service(RandomInstance(34), DefaultConfig(),
                           TestOptions());
  ExpectSkylineRefusedAndStillServing(service, Point{1e200, 0.0});
}

// A far candidate, accepted by an update, overflows the cost of an
// ordinary origin; the rest of its snapshot still serves.
TEST(ServiceTest, SkylineRefusesAFarCandidateAndKeepsServing) {
  InfluenceService service(RandomInstance(35), DefaultConfig(),
                           TestOptions());
  Request update;
  update.type = RequestType::kUpdate;
  update.update.candidates.push_back(Point{1e200, 1e200});
  ASSERT_EQ(service.Execute(update).type, ResponseType::kUpdate);
  service.DrainUpdates();
  ASSERT_EQ(service.snapshot()->epoch, 2u);
  ExpectSkylineRefusedAndStillServing(service, Point{0.0, 0.0});

  Request topk;
  topk.type = RequestType::kTopK;
  topk.top_k.k = 3;
  const Response ranked = service.Execute(topk);
  ASSERT_EQ(ranked.type, ResponseType::kSolve);
  EXPECT_EQ(ranked.solve.epoch, 2u);
}

// The first top-k, skyline, diversified and approx requests of an epoch
// race to its one exact pass; every answer equals the in-process result on
// that snapshot. Checked on the epoch-1 snapshot, whose pass the first of
// them builds, and again on a rebuilt one, whose pass the rebuild built.
TEST(ServiceTest, FirstRequestsOfAnEpochRaceToOnePassAndAnswerExactly) {
  constexpr size_t kThreads = 8;
  ServiceOptions options = TestOptions();
  options.solve_threads = 2;
  InfluenceService service(
      RandomInstance(36, InstanceOptions{.num_objects = 120,
                                         .num_candidates = 30}),
      DefaultConfig(), options);

  Request topk;
  topk.type = RequestType::kTopK;
  topk.top_k.k = 6;
  Request skyline;
  skyline.type = RequestType::kSkyline;
  skyline.skyline.cost_origin = Point{12000.0, 8000.0};
  Request diverse;
  diverse.type = RequestType::kDiversified;
  diverse.diversified.k = 3;
  diverse.diversified.min_separation = 4000.0;
  Request approx;
  approx.type = RequestType::kApproxTopK;
  approx.approx = ApproxTopKRequest{6, 0.2, 0.05, 3};
  const Request requests[] = {topk, skyline, diverse, approx};

  for (uint64_t epoch : {1u, 2u}) {
    if (epoch == 2) {
      ASSERT_EQ(service.Execute(UpdateWithIds({80000})).type,
                ResponseType::kUpdate);
      service.DrainUpdates();
    }
    SCOPED_TRACE("epoch " + std::to_string(epoch));
    const SnapshotPtr snap = service.snapshot();
    ASSERT_EQ(snap->epoch, epoch);

    std::latch start(kThreads);
    std::vector<Response> responses(kThreads);
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        responses[t] = service.Execute(requests[t % std::size(requests)]);
      });
    }
    for (std::thread& thread : threads) thread.join();

    const PreparedInstance& prepared = snap->prepared;
    const SolverResult pin = PinocchioSolver().Solve(prepared);
    std::vector<double> cost(prepared.num_candidates());
    for (uint32_t j = 0; j < cost.size(); ++j) {
      cost[j] = Distance(prepared.candidate(j), skyline.skyline.cost_origin);
    }
    const query::SkylineResult sky = query::SolveSkyline(prepared, cost);
    const query::DiversifiedResult div =
        query::SelectDiversified(prepared, 3, 4000.0);

    for (size_t t = 0; t < kThreads; ++t) {
      SCOPED_TRACE("thread " + std::to_string(t));
      const Response& r = responses[t];
      switch (t % std::size(requests)) {
        case 0:
          ASSERT_EQ(r.type, ResponseType::kSolve);
          EXPECT_EQ(r.solve.epoch, epoch);
          ASSERT_EQ(r.solve.topk.size(), 6u);
          for (size_t i = 0; i < 6; ++i) {
            EXPECT_EQ(r.solve.topk[i].candidate, pin.ranking[i]);
            EXPECT_EQ(r.solve.topk[i].influence,
                      pin.influence[pin.ranking[i]]);
            EXPECT_TRUE(r.solve.topk[i].exact);
          }
          break;
        case 1:
          ASSERT_EQ(r.type, ResponseType::kSkyline);
          EXPECT_EQ(r.skyline.epoch, epoch);
          EXPECT_EQ(r.skyline.bound_skipped,
                    static_cast<uint64_t>(sky.bound_skipped));
          ASSERT_EQ(r.skyline.skyline.size(), sky.members.size());
          for (size_t i = 0; i < sky.members.size(); ++i) {
            EXPECT_EQ(r.skyline.skyline[i].candidate,
                      sky.members[i].candidate);
            EXPECT_EQ(r.skyline.skyline[i].influence,
                      sky.members[i].influence);
            EXPECT_EQ(r.skyline.skyline[i].cost, sky.members[i].cost);
          }
          break;
        case 2:
          ASSERT_EQ(r.type, ResponseType::kDiversified);
          EXPECT_EQ(r.diverse.epoch, epoch);
          EXPECT_EQ(r.diverse.gain_evaluations,
                    static_cast<uint64_t>(div.gain_evaluations));
          ASSERT_EQ(r.diverse.selected.size(), div.selected.size());
          for (size_t i = 0; i < div.selected.size(); ++i) {
            EXPECT_EQ(r.diverse.selected[i].candidate, div.selected[i]);
            EXPECT_EQ(r.diverse.selected[i].coverage, div.coverage[i]);
          }
          break;
        default:
          ASSERT_EQ(r.type, ResponseType::kApprox);
          EXPECT_EQ(r.approx.epoch, epoch);
          ASSERT_EQ(r.approx.entries.size(), 6u);
          for (size_t i = 0; i < 6; ++i) {
            const int64_t exact = pin.influence[pin.ranking[i]];
            EXPECT_EQ(r.approx.entries[i].candidate, pin.ranking[i]);
            EXPECT_EQ(r.approx.entries[i].lo, exact);
            EXPECT_EQ(r.approx.entries[i].hi, exact);
            EXPECT_TRUE(r.approx.entries[i].exact);
          }
          break;
      }
    }
  }
}

// A rebuild publishes its epoch with the exact pass built: after an update
// and DrainUpdates() the new snapshot's pass exists before any reader asks
// for it, while epoch 1's waits for its first reader. The new epoch's
// top-k, approx, skyline and diversified answers equal PIN, SolveSkyline
// and SelectDiversified on that epoch's instance.
TEST(ServiceTest, RebuildPublishesTheNewEpochWithItsPassBuilt) {
  InfluenceService service(
      RandomInstance(37, InstanceOptions{.num_objects = 120,
                                         .num_candidates = 30}),
      DefaultConfig(), TestOptions());
  EXPECT_FALSE(service.snapshot()->HasExactPass());

  Request update = UpdateWithIds({81000});
  update.update.candidates.push_back(Point{9000.0, 7000.0});
  ASSERT_EQ(service.Execute(update).type, ResponseType::kUpdate);
  service.DrainUpdates();
  const SnapshotPtr snap = service.snapshot();
  ASSERT_EQ(snap->epoch, 2u);
  EXPECT_TRUE(snap->HasExactPass());

  const PreparedInstance& prepared = snap->prepared;
  const SolverResult pin = PinocchioSolver().Solve(prepared);
  const size_t m = prepared.num_candidates();

  Request topk;
  topk.type = RequestType::kTopK;
  topk.top_k.k = static_cast<uint32_t>(m);
  const Response ranked = service.Execute(topk);
  ASSERT_EQ(ranked.type, ResponseType::kSolve);
  EXPECT_EQ(ranked.solve.epoch, 2u);
  EXPECT_EQ(ranked.solve.best_candidate, pin.best_candidate);
  EXPECT_EQ(ranked.solve.best_influence, pin.best_influence);
  ASSERT_EQ(ranked.solve.topk.size(), m);
  for (size_t i = 0; i < m; ++i) {
    EXPECT_EQ(ranked.solve.topk[i].candidate, pin.ranking[i]) << i;
    EXPECT_EQ(ranked.solve.topk[i].influence, pin.influence[pin.ranking[i]])
        << i;
    EXPECT_TRUE(ranked.solve.topk[i].exact) << i;
  }

  Request approx;
  approx.type = RequestType::kApproxTopK;
  approx.approx = ApproxTopKRequest{5, 0.2, 0.05, 3};
  const Response top5 = service.Execute(approx);
  ASSERT_EQ(top5.type, ResponseType::kApprox);
  EXPECT_EQ(top5.approx.epoch, 2u);
  ASSERT_EQ(top5.approx.entries.size(), 5u);
  for (size_t i = 0; i < 5; ++i) {
    const int64_t exact = pin.influence[pin.ranking[i]];
    EXPECT_EQ(top5.approx.entries[i].candidate, pin.ranking[i]) << i;
    EXPECT_EQ(top5.approx.entries[i].estimate, exact) << i;
    EXPECT_EQ(top5.approx.entries[i].lo, exact) << i;
    EXPECT_EQ(top5.approx.entries[i].hi, exact) << i;
  }

  Request skyline;
  skyline.type = RequestType::kSkyline;
  skyline.skyline.cost_origin = Point{12000.0, 8000.0};
  const Response sky = service.Execute(skyline);
  ASSERT_EQ(sky.type, ResponseType::kSkyline);
  EXPECT_EQ(sky.skyline.epoch, 2u);
  std::vector<double> cost(m);
  for (uint32_t j = 0; j < m; ++j) {
    cost[j] = Distance(prepared.candidate(j), skyline.skyline.cost_origin);
  }
  const query::SkylineResult walk = query::SolveSkyline(prepared, cost);
  EXPECT_EQ(sky.skyline.bound_skipped,
            static_cast<uint64_t>(walk.bound_skipped));
  ASSERT_EQ(sky.skyline.skyline.size(), walk.members.size());
  for (size_t i = 0; i < walk.members.size(); ++i) {
    EXPECT_EQ(sky.skyline.skyline[i].candidate, walk.members[i].candidate);
    EXPECT_EQ(sky.skyline.skyline[i].influence, walk.members[i].influence);
    EXPECT_EQ(std::bit_cast<uint64_t>(sky.skyline.skyline[i].cost),
              std::bit_cast<uint64_t>(walk.members[i].cost));
  }

  Request diverse;
  diverse.type = RequestType::kDiversified;
  diverse.diversified.k = 3;
  diverse.diversified.min_separation = 4000.0;
  const Response picks = service.Execute(diverse);
  ASSERT_EQ(picks.type, ResponseType::kDiversified);
  EXPECT_EQ(picks.diverse.epoch, 2u);
  const query::DiversifiedResult greedy =
      query::SelectDiversified(prepared, 3, 4000.0);
  EXPECT_EQ(picks.diverse.gain_evaluations,
            static_cast<uint64_t>(greedy.gain_evaluations));
  ASSERT_EQ(picks.diverse.selected.size(), greedy.selected.size());
  for (size_t i = 0; i < greedy.selected.size(); ++i) {
    EXPECT_EQ(picks.diverse.selected[i].candidate, greedy.selected[i]);
    EXPECT_EQ(picks.diverse.selected[i].coverage, greedy.coverage[i]);
  }
}

}  // namespace
}  // namespace serve
}  // namespace pinocchio
