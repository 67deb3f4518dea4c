// Morsel-engine concurrency contract, pinned under ThreadSanitizer (this
// test is part of the TSan CI job): solver threads run PIN-VO at thread
// budgets 2 and 3 against RCU-acquired snapshots while a writer thread keeps
// publishing replacement snapshots. Each solve spawns its own work-stealing
// crew, so the test exercises (a) the stealing deques under contention,
// (b) several concurrent MorselScheduler::Run() calls in one process, and
// (c) the snapshot pin: a solve must keep reading one coherent
// PreparedInstance even when the holder swaps mid-flight. Results and
// every work counter are checked bit-identical against a budget-1 solve of
// the same snapshot; the budgets above 1 also run the walk's decide-ahead
// helpers.

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pinocchio_vo_solver.h"
#include "serve/snapshot.h"
#include "testing/instance_helpers.h"

namespace pinocchio {
namespace {

using serve::ServerSnapshot;
using serve::SnapshotHolder;
using serve::SnapshotPtr;
using testing_helpers::DefaultConfig;
using testing_helpers::InstanceOptions;
using testing_helpers::RandomInstance;

// Small instances keep prepares and solves fast so readers overlap many
// swaps within the test budget.
ProblemInstance MakeInstance(uint64_t seed) {
  InstanceOptions opts{24, 16, 1, 6, 20000.0, 0.5};
  return RandomInstance(seed, opts);
}

// The answer and every work counter of the bit-identity contract.
bool SameResult(const SolverResult& a, const SolverResult& b) {
  return a.influence == b.influence &&
         a.influence_exact == b.influence_exact && a.ranking == b.ranking &&
         a.best_candidate == b.best_candidate &&
         a.stats.pairs_pruned_by_ia == b.stats.pairs_pruned_by_ia &&
         a.stats.pairs_pruned_by_nib == b.stats.pairs_pruned_by_nib &&
         a.stats.pairs_validated == b.stats.pairs_validated &&
         a.stats.positions_scanned == b.stats.positions_scanned &&
         a.stats.early_stops == b.stats.early_stops &&
         a.stats.heap_pops == b.stats.heap_pops &&
         a.stats.strategy1_cutoffs == b.stats.strategy1_cutoffs;
}

TEST(MorselStressTest, WorkStealingUnderConcurrentSnapshotSwaps) {
  const SolverConfig config = DefaultConfig();
  SnapshotHolder holder(
      std::make_shared<ServerSnapshot>(1, MakeInstance(900), config));

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> solves{0};
  std::atomic<uint64_t> mismatches{0};

  constexpr size_t kReaders = 3;
  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t t = 0; t < kReaders; ++t) {
    readers.emplace_back([&, t] {
      const PinocchioVOSolver parallel(2 + t % 2);
      const PinocchioVOSolver sequential(1);
      while (!stop.load(std::memory_order_relaxed)) {
        const SnapshotPtr snap = holder.Acquire();
        const SolverResult par = parallel.Solve(snap->prepared);
        const SolverResult seq = sequential.Solve(snap->prepared);
        if (!SameResult(par, seq)) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        solves.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::thread writer([&] {
    uint64_t epoch = 2;
    while (!stop.load(std::memory_order_relaxed)) {
      holder.Publish(std::make_shared<ServerSnapshot>(
          epoch, MakeInstance(900 + epoch), config));
      ++epoch;
      std::this_thread::yield();
    }
  });

  // Run until every reader has overlapped a healthy number of swaps.
  while (solves.load(std::memory_order_relaxed) < 60) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& r : readers) r.join();
  writer.join();

  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_GE(solves.load(), 60u);
}

}  // namespace
}  // namespace pinocchio
