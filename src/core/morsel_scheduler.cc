#include "core/morsel_scheduler.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

#include "core/object_store.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace pinocchio {
namespace {

std::atomic<int64_t> g_busy_micros{0};

void AddBusySeconds(double seconds) {
  g_busy_micros.fetch_add(static_cast<int64_t>(seconds * 1e6),
                          std::memory_order_relaxed);
}

// One worker's share of morsel indices, stolen from the back. head (high
// 32 bits) is the owner's next index, tail (low 32 bits) one past the last
// unclaimed index; the range is empty when head >= tail.
class StealingDeque {
 public:
  void Reset(uint32_t begin, uint32_t end) {
    state_.store(Pack(begin, end), std::memory_order_relaxed);
  }

  /// Owner side: claims the front index, or returns false when drained.
  bool PopFront(uint32_t* index) {
    uint64_t cur = state_.load(std::memory_order_relaxed);
    for (;;) {
      const uint32_t head = Head(cur);
      const uint32_t tail = Tail(cur);
      if (head >= tail) return false;
      if (state_.compare_exchange_weak(cur, Pack(head + 1, tail),
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
        *index = head;
        return true;
      }
    }
  }

  /// Thief side: claims the back index, or returns false when drained.
  bool PopBack(uint32_t* index) {
    uint64_t cur = state_.load(std::memory_order_relaxed);
    for (;;) {
      const uint32_t head = Head(cur);
      const uint32_t tail = Tail(cur);
      if (head >= tail) return false;
      if (state_.compare_exchange_weak(cur, Pack(head, tail - 1),
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
        *index = tail - 1;
        return true;
      }
    }
  }

 private:
  static uint64_t Pack(uint32_t head, uint32_t tail) {
    return (static_cast<uint64_t>(head) << 32) | tail;
  }
  static uint32_t Head(uint64_t v) { return static_cast<uint32_t>(v >> 32); }
  static uint32_t Tail(uint64_t v) {
    return static_cast<uint32_t>(v & 0xffffffffu);
  }

  std::atomic<uint64_t> state_{0};
};

}  // namespace

double MorselEngineBusySeconds() {
  return static_cast<double>(g_busy_micros.load(std::memory_order_relaxed)) /
         1e6;
}

std::vector<Morsel> PlanMorsels(std::span<const uint32_t> position_counts,
                                const MorselPlanOptions& options) {
  std::vector<Morsel> morsels;
  const size_t n = position_counts.size();
  if (n == 0) return morsels;

  uint64_t total = 0;
  for (uint32_t count : position_counts) total += count;

  // Shrink the target until the plan yields at least min_morsels (capped
  // by the record count: records are never split).
  const size_t wanted = std::max<size_t>(1, options.min_morsels);
  uint64_t target = std::max<uint64_t>(1, options.target_positions);
  if (wanted > 1) {
    const uint64_t per_morsel = total / wanted;  // 0 when positions < wanted
    target = std::max<uint64_t>(1, std::min(target, per_morsel));
  }

  uint32_t first = 0;
  uint64_t acc = 0;
  for (size_t k = 0; k < n; ++k) {
    acc += position_counts[k];
    if (acc >= target) {
      morsels.push_back({first, static_cast<uint32_t>(k + 1)});
      first = static_cast<uint32_t>(k + 1);
      acc = 0;
    }
  }
  if (first < n) morsels.push_back({first, static_cast<uint32_t>(n)});
  return morsels;
}

std::vector<Morsel> PlanMorsels(const ObjectStore& store,
                                const MorselPlanOptions& options) {
  std::vector<uint32_t> counts;
  counts.reserve(store.size());
  for (const ObjectRecord& rec : store.records()) {
    counts.push_back(rec.position_count);
  }
  return PlanMorsels(counts, options);
}

std::vector<Morsel> PlanRecordMorsels(const ObjectStore& store,
                                      const MorselScheduler& scheduler) {
  MorselPlanOptions plan;
  plan.min_morsels = scheduler.num_threads() * kMorselsPerWorker;
  return PlanMorsels(store, plan);
}

std::vector<Morsel> PlanUniformMorsels(size_t count, size_t target_items,
                                       size_t min_morsels) {
  std::vector<Morsel> morsels;
  if (count == 0) return morsels;
  size_t target = std::max<size_t>(1, target_items);
  if (min_morsels > 1) {
    target = std::max<size_t>(
        1, std::min(target, (count + min_morsels - 1) / min_morsels));
  }
  for (size_t begin = 0; begin < count; begin += target) {
    morsels.push_back({static_cast<uint32_t>(begin),
                       static_cast<uint32_t>(std::min(count, begin + target))});
  }
  return morsels;
}

MorselScheduler::MorselScheduler(size_t num_threads)
    : num_threads_(num_threads == 0
                       ? std::max(1u, std::thread::hardware_concurrency())
                       : num_threads) {}

MorselRunStats MorselScheduler::Run(
    std::span<const Morsel> morsels,
    const std::function<void(size_t, size_t, const Morsel&)>& body) const {
  MorselRunStats stats;
  stats.num_morsels = morsels.size();
  if (morsels.empty()) return stats;

  const size_t workers = std::min(num_threads_, morsels.size());
  stats.num_workers = workers;
  if (workers == 1) {
    Stopwatch watch;
    for (size_t i = 0; i < morsels.size(); ++i) body(0, i, morsels[i]);
    stats.busy_seconds = watch.ElapsedSeconds();
    AddBusySeconds(stats.busy_seconds);
    return stats;
  }

  // Deal contiguous index ranges: worker w owns [w * M / W, (w+1) * M / W).
  const size_t total = morsels.size();
  std::vector<StealingDeque> deques(workers);
  for (size_t w = 0; w < workers; ++w) {
    deques[w].Reset(static_cast<uint32_t>(w * total / workers),
                    static_cast<uint32_t>((w + 1) * total / workers));
  }

  std::atomic<int64_t> steals{0};
  std::atomic<bool> abort{false};
  std::atomic<int64_t> busy_micros{0};
  std::mutex error_mu;
  std::exception_ptr first_error;

  const auto worker_loop = [&](size_t w) {
    Stopwatch watch;
    uint32_t index = 0;
    try {
      // Own range first, front to back; then scan the other deques and
      // steal from their backs until everything is drained.
      while (!abort.load(std::memory_order_relaxed) &&
             deques[w].PopFront(&index)) {
        body(w, index, morsels[index]);
      }
      for (size_t offset = 1;
           offset < workers && !abort.load(std::memory_order_relaxed);
           ++offset) {
        const size_t victim = (w + offset) % workers;
        while (!abort.load(std::memory_order_relaxed) &&
               deques[victim].PopBack(&index)) {
          steals.fetch_add(1, std::memory_order_relaxed);
          body(w, index, morsels[index]);
        }
      }
    } catch (...) {
      abort.store(true, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(error_mu);
      if (!first_error) first_error = std::current_exception();
    }
    busy_micros.fetch_add(watch.ElapsedMicros(), std::memory_order_relaxed);
  };

  std::vector<std::thread> threads;
  threads.reserve(workers - 1);
  for (size_t w = 1; w < workers; ++w) {
    threads.emplace_back(worker_loop, w);
  }
  worker_loop(0);
  for (std::thread& t : threads) t.join();

  stats.steals = steals.load(std::memory_order_relaxed);
  stats.busy_seconds =
      static_cast<double>(busy_micros.load(std::memory_order_relaxed)) / 1e6;
  AddBusySeconds(stats.busy_seconds);
  if (first_error) std::rethrow_exception(first_error);
  return stats;
}

}  // namespace pinocchio
