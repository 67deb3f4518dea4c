// Snapshot-swap concurrency contract, pinned under ThreadSanitizer (this
// test is part of the TSan CI job): N reader threads hammer the service
// with solve/topk/skyline/diversified/approx/probe/stats requests while a
// writer thread keeps appending objects (forcing background rebuilds,
// each of which builds its epoch's exact pass while readers read the
// previous epoch's, then swaps; epoch 1's pass is built by the first
// readers, racing each other) — every response must be internally
// consistent with exactly one epoch, epochs must be monotonic per reader,
// and nothing may tear.

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "core/pinocchio_vo_solver.h"
#include "serve/service.h"
#include "testing/instance_helpers.h"
#include "util/random.h"

namespace pinocchio {
namespace serve {
namespace {

using testing_helpers::DefaultConfig;
using testing_helpers::InstanceOptions;
using testing_helpers::RandomInstance;

// Small instance: rebuilds are fast, so the test cycles through many
// epochs; solves are fast, so readers overlap many swaps.
InstanceOptions SmallInstance() {
  InstanceOptions options;
  options.num_objects = 12;
  options.num_candidates = 8;
  options.max_positions = 6;
  return options;
}

TEST(SwapStressTest, ReadersSeeConsistentEpochsDuringSwaps) {
  constexpr size_t kReaders = 4;
  constexpr int kWriterRounds = 12;
  constexpr size_t kBaseObjects = 12;

  ServiceOptions options;
  options.prepared_top_k = 4;
  InfluenceService service(RandomInstance(21, SmallInstance()),
                           DefaultConfig(), options);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> violations{0};
  std::atomic<uint64_t> reads{0};

  std::vector<std::thread> readers;
  readers.reserve(kReaders);
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back([&service, &stop, &violations, &reads, r] {
      Rng rng(1000 + r);
      uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        Request request;
        switch (rng.UniformInt(0, 6)) {
          case 0:
            request.type = RequestType::kSolve;
            request.solve.top_k = 3;
            break;
          case 1:
            request.type = RequestType::kTopK;
            request.top_k.k = 2;
            break;
          case 2:
            request.type = RequestType::kProbe;
            request.probe.location =
                Point{rng.Uniform(0.0, 30000.0), rng.Uniform(0.0, 30000.0)};
            break;
          case 3:
            request.type = RequestType::kSkyline;
            request.skyline.cost_origin =
                Point{rng.Uniform(0.0, 30000.0), rng.Uniform(0.0, 30000.0)};
            break;
          case 4:
            request.type = RequestType::kDiversified;
            request.diversified.k = 2;
            request.diversified.min_separation = 3000.0;
            break;
          case 5:
            request.type = RequestType::kApproxTopK;
            request.approx = ApproxTopKRequest{2, 0.2, 0.05, r};
            break;
          default:
            request.type = RequestType::kStats;
            break;
        }
        const Response response = service.Execute(request);
        reads.fetch_add(1, std::memory_order_relaxed);

        uint64_t epoch = 0;
        uint64_t num_objects = 0;
        switch (response.type) {
          case ResponseType::kSolve:
            epoch = response.solve.epoch;
            num_objects = response.solve.num_objects;
            break;
          case ResponseType::kProbe:
            epoch = response.probe.epoch;
            num_objects = response.probe.num_objects;
            break;
          case ResponseType::kStats:
            epoch = response.stats.epoch;
            num_objects = response.stats.num_objects;
            break;
          case ResponseType::kSkyline:
            epoch = response.skyline.epoch;
            num_objects = response.skyline.num_objects;
            break;
          case ResponseType::kDiversified:
            epoch = response.diverse.epoch;
            num_objects = response.diverse.num_objects;
            break;
          case ResponseType::kApprox:
            epoch = response.approx.epoch;
            num_objects = response.approx.num_objects;
            break;
          default:
            violations.fetch_add(1, std::memory_order_relaxed);
            continue;
        }
        // Epoch e carries exactly the base objects plus the e-1 appended
        // ones (the writer adds one object per accepted update; bursts
        // may coalesce but an epoch still pins one exact object count —
        // a mismatch would mean a response mixed two snapshots).
        if (epoch < 1 || num_objects != kBaseObjects + (epoch - 1)) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
        // Snapshots are published in epoch order, so the epochs one
        // reader observes can never go backwards.
        if (epoch < last_epoch) {
          violations.fetch_add(1, std::memory_order_relaxed);
        }
        last_epoch = epoch;
      }
    });
  }

  // Swap only once a reader is live, so every run overlaps reads with the
  // swaps it checks: on a loaded machine the writer could otherwise finish
  // all its rounds before any reader is scheduled.
  while (reads.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }

  for (int round = 0; round < kWriterRounds; ++round) {
    Request update;
    update.type = RequestType::kUpdate;
    UpdateObject object;
    object.object_id = static_cast<uint32_t>(50000 + round);
    object.positions = {{round * 100.0, round * 50.0},
                        {round * 100.0 + 10.0, round * 50.0 + 10.0}};
    update.update.objects.push_back(object);
    const Response response = service.Execute(update);
    ASSERT_EQ(response.type, ResponseType::kUpdate);
    // Publish before the next append so every update lands in its own
    // epoch and the num_objects arithmetic above stays exact.
    service.DrainUpdates();
  }

  stop.store(true, std::memory_order_relaxed);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(violations.load(), 0u);
  EXPECT_GT(reads.load(), 0u);
  EXPECT_EQ(service.snapshot()->epoch,
            static_cast<uint64_t>(kWriterRounds) + 1);
  EXPECT_EQ(service.snapshot()->prepared.num_objects(),
            kBaseObjects + kWriterRounds);
}

TEST(SwapStressTest, WhatIfRunsConcurrentlyWithSwapsAndReads) {
  ServiceOptions options;
  options.prepared_top_k = 4;
  InfluenceService service(RandomInstance(22, SmallInstance()),
                           DefaultConfig(), options);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> failures{0};

  std::thread whatif_thread([&service, &stop, &failures] {
    Rng rng(77);
    while (!stop.load(std::memory_order_relaxed)) {
      Request request;
      request.type = RequestType::kWhatIf;
      request.what_if.tau = rng.Uniform(0.5, 0.9);
      request.what_if.rho = rng.Uniform(0.7, 0.95);
      request.what_if.lambda = rng.Uniform(0.8, 1.2);
      request.what_if.top_k = 2;
      const Response response = service.Execute(request);
      if (response.type != ResponseType::kSolve) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });
  std::thread reader_thread([&service, &stop, &failures] {
    while (!stop.load(std::memory_order_relaxed)) {
      Request request;
      request.type = RequestType::kSolve;
      request.solve.top_k = 1;
      if (service.Execute(request).type != ResponseType::kSolve) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  for (int round = 0; round < 6; ++round) {
    Request update;
    update.type = RequestType::kUpdate;
    update.update.candidates.push_back(
        Point{1000.0 * round, 2000.0 * round});
    ASSERT_EQ(service.Execute(update).type, ResponseType::kUpdate);
    service.DrainUpdates();
  }

  stop.store(true, std::memory_order_relaxed);
  whatif_thread.join();
  reader_thread.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(service.snapshot()->epoch, 7u);
}

// The destructor races: destroying the service while updates are still
// queued must drain or drop cleanly, never crash or deadlock.
TEST(SwapStressTest, DestructionWithQueuedUpdatesIsClean) {
  for (int round = 0; round < 3; ++round) {
    InfluenceService service(RandomInstance(23, SmallInstance()),
                             DefaultConfig());
    for (int i = 0; i < 4; ++i) {
      Request update;
      update.type = RequestType::kUpdate;
      UpdateObject object;
      object.object_id = static_cast<uint32_t>(60000 + i);
      object.positions = {{1.0 * i, 2.0 * i}};
      update.update.objects.push_back(object);
      ASSERT_EQ(service.Execute(update).type, ResponseType::kUpdate);
    }
    // Destructor runs here with the queue possibly non-empty.
  }
}

}  // namespace
}  // namespace serve
}  // namespace pinocchio
