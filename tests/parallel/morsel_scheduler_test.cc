#include "core/morsel_scheduler.h"

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/object_store.h"
#include "prob/power_law.h"

namespace pinocchio {
namespace {

// Every plan must partition [0, n): contiguous, gapless, in order.
void ExpectPartitions(const std::vector<Morsel>& morsels, uint32_t n) {
  uint32_t next = 0;
  for (const Morsel& m : morsels) {
    EXPECT_EQ(m.first_record, next);
    EXPECT_LT(m.first_record, m.last_record);
    next = m.last_record;
  }
  EXPECT_EQ(next, n);
}

TEST(PlanMorselsTest, EmptyStoreYieldsNoMorsels) {
  EXPECT_TRUE(PlanMorsels(std::span<const uint32_t>{}).empty());
  EXPECT_TRUE(PlanUniformMorsels(0, 8).empty());
}

TEST(PlanMorselsTest, SingleRecord) {
  const std::vector<uint32_t> counts = {17};
  const std::vector<Morsel> morsels = PlanMorsels(counts);
  ASSERT_EQ(morsels.size(), 1u);
  ExpectPartitions(morsels, 1);
}

TEST(PlanMorselsTest, TargetLargerThanStoreYieldsOneMorsel) {
  const std::vector<uint32_t> counts(20, 3);  // 60 positions << target 4096
  const std::vector<Morsel> morsels = PlanMorsels(counts);
  ASSERT_EQ(morsels.size(), 1u);
  ExpectPartitions(morsels, 20);
}

TEST(PlanMorselsTest, SplitsByPositionCountNotRecordCount) {
  // One rich record per poor stretch: cuts land after the rich records.
  MorselPlanOptions options;
  options.target_positions = 100;
  const std::vector<uint32_t> counts = {100, 1, 1, 1, 100, 100};
  const std::vector<Morsel> morsels = PlanMorsels(counts, options);
  ExpectPartitions(morsels, static_cast<uint32_t>(counts.size()));
  ASSERT_GE(morsels.size(), 3u);
  EXPECT_EQ(morsels[0].last_record, 1u);  // the first rich record alone
}

TEST(PlanMorselsTest, ZeroPositionRecordsRideAlong) {
  MorselPlanOptions options;
  options.target_positions = 10;
  const std::vector<uint32_t> counts = {0, 0, 10, 0, 0};
  const std::vector<Morsel> morsels = PlanMorsels(counts, options);
  ExpectPartitions(morsels, 5);
  // The zero-cost tail records must still be covered by some morsel.
  EXPECT_EQ(morsels.back().last_record, 5u);
}

TEST(PlanMorselsTest, MinMorselsShrinksTarget) {
  MorselPlanOptions options;
  options.target_positions = 1 << 20;
  options.min_morsels = 10;
  const std::vector<uint32_t> counts(100, 1);
  const std::vector<Morsel> morsels = PlanMorsels(counts, options);
  ExpectPartitions(morsels, 100);
  EXPECT_GE(morsels.size(), 10u);
}

TEST(PlanUniformMorselsTest, CoversCountWithBoundedWidth) {
  const std::vector<Morsel> morsels = PlanUniformMorsels(10, 3);
  ExpectPartitions(morsels, 10);
  for (const Morsel& m : morsels) EXPECT_LE(m.size(), 3u);
}

TEST(PlanUniformMorselsTest, MinMorselsShrinksWidth) {
  const std::vector<Morsel> morsels = PlanUniformMorsels(10, 100, 4);
  ExpectPartitions(morsels, 10);
  EXPECT_GE(morsels.size(), 4u);
}

TEST(MorselSchedulerTest, RunsEveryMorselExactlyOnce) {
  const std::vector<Morsel> morsels = PlanUniformMorsels(256, 4);
  std::vector<std::atomic<int>> seen(morsels.size());
  const MorselScheduler scheduler(4);
  const MorselRunStats stats =
      scheduler.Run(morsels, [&](size_t, size_t mi, const Morsel&) {
        seen[mi].fetch_add(1, std::memory_order_relaxed);
      });
  EXPECT_EQ(stats.num_morsels, morsels.size());
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(MorselSchedulerTest, WorkerIndicesStayInRange) {
  const std::vector<Morsel> morsels = PlanUniformMorsels(64, 1);
  const MorselScheduler scheduler(3);
  std::atomic<bool> in_range{true};
  const MorselRunStats stats =
      scheduler.Run(morsels, [&](size_t worker, size_t, const Morsel&) {
        if (worker >= 3) in_range.store(false);
      });
  EXPECT_TRUE(in_range.load());
  EXPECT_LE(stats.num_workers, 3u);
}

TEST(MorselSchedulerTest, NeverMoreWorkersThanMorsels) {
  const std::vector<Morsel> morsels = PlanUniformMorsels(3, 1);
  const MorselScheduler scheduler(8);
  const MorselRunStats stats =
      scheduler.Run(morsels, [&](size_t worker, size_t, const Morsel&) {
        EXPECT_LT(worker, 3u);
      });
  EXPECT_LE(stats.num_workers, 3u);
}

TEST(MorselSchedulerTest, EmptyMorselListIsNoOp) {
  const MorselScheduler scheduler(4);
  const MorselRunStats stats = scheduler.Run(
      {}, [&](size_t, size_t, const Morsel&) { FAIL() << "no morsels"; });
  EXPECT_EQ(stats.num_morsels, 0u);
  EXPECT_EQ(stats.num_workers, 0u);
}

TEST(MorselSchedulerTest, StealsHappenUnderSkew) {
  // Worker 0's first morsel stalls; the rest of its deal can only finish
  // in time if the other workers steal it.
  const std::vector<Morsel> morsels = PlanUniformMorsels(64, 1);
  const MorselScheduler scheduler(4);
  const MorselRunStats stats =
      scheduler.Run(morsels, [&](size_t, size_t mi, const Morsel&) {
        if (mi == 0) {
          std::this_thread::sleep_for(std::chrono::milliseconds(50));
        }
      });
  EXPECT_GT(stats.steals, 0);
}

TEST(MorselSchedulerTest, PropagatesBodyException) {
  const std::vector<Morsel> morsels = PlanUniformMorsels(64, 1);
  const MorselScheduler scheduler(4);
  EXPECT_THROW(scheduler.Run(morsels,
                             [&](size_t, size_t mi, const Morsel&) {
                               if (mi == 7) {
                                 throw std::runtime_error("morsel body");
                               }
                             }),
               std::runtime_error);
}

TEST(MorselSchedulerTest, SingleThreadRunsInlineInOrder) {
  const std::vector<Morsel> morsels = PlanUniformMorsels(10, 2);
  const MorselScheduler scheduler(1);
  std::vector<size_t> visited;
  scheduler.Run(morsels, [&](size_t worker, size_t mi, const Morsel&) {
    EXPECT_EQ(worker, 0u);
    visited.push_back(mi);
  });
  std::vector<size_t> expected(morsels.size());
  std::iota(expected.begin(), expected.end(), 0u);
  EXPECT_EQ(visited, expected);
}

TEST(MorselSchedulerTest, BudgetOneUsesOneWorkerAndNeverSteals) {
  const std::vector<Morsel> morsels = PlanUniformMorsels(64, 1);
  const MorselScheduler scheduler(1);
  const std::thread::id caller = std::this_thread::get_id();
  const MorselRunStats stats =
      scheduler.Run(morsels, [&](size_t, size_t, const Morsel&) {
        EXPECT_EQ(std::this_thread::get_id(), caller);
      });
  EXPECT_EQ(stats.num_morsels, morsels.size());
  EXPECT_EQ(stats.num_workers, 1u);
  EXPECT_EQ(stats.steals, 0);
}

TEST(MorselSchedulerTest, ReusableAcrossRuns) {
  // Stateless between runs: every Run() covers its morsels exactly once.
  const std::vector<Morsel> morsels = PlanUniformMorsels(100, 3);
  const MorselScheduler scheduler(3);
  for (int round = 0; round < 5; ++round) {
    std::atomic<int> items{0};
    scheduler.Run(morsels, [&](size_t, size_t, const Morsel& m) {
      items.fetch_add(static_cast<int>(m.size()), std::memory_order_relaxed);
    });
    EXPECT_EQ(items.load(), 100) << "round " << round;
  }
}

TEST(MorselSchedulerTest, UsableAfterBodyException) {
  const std::vector<Morsel> morsels = PlanUniformMorsels(32, 1);
  const MorselScheduler scheduler(4);
  EXPECT_THROW(scheduler.Run(morsels,
                             [&](size_t, size_t mi, const Morsel&) {
                               if (mi == 0) throw std::runtime_error("first");
                             }),
               std::runtime_error);
  std::vector<std::atomic<int>> seen(morsels.size());
  scheduler.Run(morsels, [&](size_t, size_t mi, const Morsel&) {
    seen[mi].fetch_add(1, std::memory_order_relaxed);
  });
  for (const auto& s : seen) EXPECT_EQ(s.load(), 1);
}

TEST(MorselSchedulerTest, InlineExceptionStopsLaterMorsels) {
  // Budget 1 runs in morsel order on the caller, so a throw at morsel 3
  // leaves morsels 4.. unrun.
  const std::vector<Morsel> morsels = PlanUniformMorsels(10, 1);
  const MorselScheduler scheduler(1);
  std::vector<size_t> visited;
  EXPECT_THROW(scheduler.Run(morsels,
                             [&](size_t, size_t mi, const Morsel&) {
                               visited.push_back(mi);
                               if (mi == 3) throw std::runtime_error("inline");
                             }),
               std::runtime_error);
  EXPECT_EQ(visited, (std::vector<size_t>{0, 1, 2, 3}));
}

TEST(MorselSchedulerTest, ConcurrentRunsAreIndependent) {
  const std::vector<Morsel> morsels = PlanUniformMorsels(200, 1);
  const MorselScheduler scheduler(3);
  std::vector<std::atomic<int>> a(morsels.size());
  std::vector<std::atomic<int>> b(morsels.size());
  const auto run_into = [&](std::vector<std::atomic<int>>* seen) {
    scheduler.Run(morsels, [&](size_t, size_t mi, const Morsel&) {
      (*seen)[mi].fetch_add(1, std::memory_order_relaxed);
    });
  };
  std::thread other(run_into, &b);
  run_into(&a);
  other.join();
  for (size_t i = 0; i < morsels.size(); ++i) {
    EXPECT_EQ(a[i].load(), 1) << i;
    EXPECT_EQ(b[i].load(), 1) << i;
  }
}

std::vector<MovingObject> ObjectsWithCounts(
    const std::vector<uint32_t>& counts) {
  std::vector<MovingObject> objects;
  for (uint32_t id = 0; id < counts.size(); ++id) {
    MovingObject o;
    o.id = id;
    for (uint32_t k = 0; k < counts[id]; ++k) {
      o.positions.push_back({static_cast<double>(id), static_cast<double>(k)});
    }
    objects.push_back(std::move(o));
  }
  return objects;
}

TEST(PlanRecordMorselsTest, PartitionsTheStoreLikePlanMorsels) {
  const std::vector<uint32_t> counts = {5, 1, 9, 2, 2, 7, 1, 1, 3, 4};
  const PowerLawPF pf(0.9, 1.0);
  const ObjectStore store(ObjectsWithCounts(counts), pf, 0.7);
  const MorselScheduler scheduler(2);
  const std::vector<Morsel> morsels = PlanRecordMorsels(store, scheduler);
  ExpectPartitions(morsels, static_cast<uint32_t>(counts.size()));
  MorselPlanOptions plan;
  plan.min_morsels = 2 * kMorselsPerWorker;
  const std::vector<Morsel> expected = PlanMorsels(counts, plan);
  ASSERT_EQ(morsels.size(), expected.size());
  for (size_t i = 0; i < morsels.size(); ++i) {
    EXPECT_EQ(morsels[i].first_record, expected[i].first_record);
    EXPECT_EQ(morsels[i].last_record, expected[i].last_record);
  }
}

TEST(PlanRecordMorselsTest, DealsSeveralMorselsPerWorker) {
  const std::vector<uint32_t> counts(64, 4);
  const PowerLawPF pf(0.9, 1.0);
  const ObjectStore store(ObjectsWithCounts(counts), pf, 0.7);
  // Budgets that divide the position total evenly, so the shrunken target
  // lands on whole records.
  for (size_t threads : {1u, 2u, 4u, 8u}) {
    const std::vector<Morsel> morsels =
        PlanRecordMorsels(store, MorselScheduler(threads));
    ExpectPartitions(morsels, 64);
    EXPECT_GE(morsels.size(), threads * kMorselsPerWorker) << threads;
  }
}

TEST(MorselSchedulerTest, BusySecondsAccumulate) {
  const double before = MorselEngineBusySeconds();
  const std::vector<Morsel> morsels = PlanUniformMorsels(8, 1);
  const MorselScheduler scheduler(2);
  const MorselRunStats stats =
      scheduler.Run(morsels, [&](size_t, size_t, const Morsel&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      });
  EXPECT_GT(stats.busy_seconds, 0.0);
  EXPECT_GE(MorselEngineBusySeconds(), before);
}

}  // namespace
}  // namespace pinocchio
