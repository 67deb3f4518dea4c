#include "core/morsel_scheduler.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>
#include <mutex>
#include <system_error>
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

using Body = std::function<void(size_t, size_t, const Morsel&)>;

// One Run's shared state. The caller publishes it to the helper set, works
// as worker 0 and closes it; a helper that joined holds a reference until
// it has signalled `left`, so the caller may return the moment the last
// one has.
struct Job {
  Job(std::span<const Morsel> morsels, const Body& body, size_t workers)
      : morsels(morsels),
        body(body),
        workers(workers),
        deques(workers),
        claimed_at(workers, -1.0) {
    // Deal contiguous index ranges: worker w owns [w * M / W, (w+1) * M / W).
    const size_t total = morsels.size();
    for (size_t w = 0; w < workers; ++w) {
      deques[w].Reset(static_cast<uint32_t>(w * total / workers),
                      static_cast<uint32_t>((w + 1) * total / workers));
    }
  }

  void Work(size_t w);

  /// A joined helper's last touch of the job.
  void Leave() {
    left.fetch_add(1, std::memory_order_seq_cst);
    left.notify_one();
  }

  /// Caller side: returns once `joined` helpers have left.
  void AwaitHelpers(uint32_t joined) {
    for (uint32_t n = left.load(std::memory_order_seq_cst); n != joined;
         n = left.load(std::memory_order_seq_cst)) {
      left.wait(n, std::memory_order_seq_cst);
    }
  }

  const Stopwatch entry;  // started at Run() entry
  const std::span<const Morsel> morsels;
  const Body& body;
  const size_t workers;
  std::vector<StealingDeque> deques;
  /// Per worker: seconds from entry to its first morsel, < 0 before.
  std::vector<double> claimed_at;
  size_t next_worker = 1;  // guarded by HelperSet's mutex; 0 is the caller
  std::atomic<uint32_t> left{0};
  std::atomic<bool> abort{false};
  std::atomic<int64_t> steals{0};
  std::atomic<int64_t> busy_micros{0};
  std::mutex error_mu;
  std::exception_ptr first_error;
};

void Job::Work(size_t w) {
  Stopwatch watch;
  uint32_t index = 0;
  const auto run = [&](uint32_t i) {
    if (claimed_at[w] < 0.0) claimed_at[w] = entry.ElapsedSeconds();
    body(w, i, morsels[i]);
  };
  try {
    // Own range first, front to back; then scan the other deques and
    // steal from their backs until everything is drained.
    while (!abort.load(std::memory_order_relaxed) &&
           deques[w].PopFront(&index)) {
      run(index);
    }
    for (size_t offset = 1;
         offset < workers && !abort.load(std::memory_order_relaxed);
         ++offset) {
      const size_t victim = (w + offset) % workers;
      while (!abort.load(std::memory_order_relaxed) &&
             deques[victim].PopBack(&index)) {
        steals.fetch_add(1, std::memory_order_relaxed);
        run(index);
      }
    }
  } catch (...) {
    abort.store(true, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(error_mu);
    if (!first_error) first_error = std::current_exception();
  }
  busy_micros.fetch_add(watch.ElapsedMicros(), std::memory_order_relaxed);
}

// The process-wide helper threads. The first Run above one worker starts
// them, later Runs grow them to the most helpers any Run could use, and
// they park on generation_ between jobs. The set is never destroyed, so no
// static destructor waits on a parked thread at exit.
class HelperSet {
 public:
  static HelperSet& Get() {
    static HelperSet* const set = new HelperSet;
    return *set;
  }

  size_t size() const { return size_.load(std::memory_order_relaxed); }

  /// Grows the set to `helpers` threads (as far as the system lets it),
  /// queues the job and wakes the set.
  void Publish(std::shared_ptr<Job> job, size_t helpers) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (size_t n = size(); n < helpers; ++n) {
        try {
          std::thread([this] { Park(); }).detach();
        } catch (const std::system_error&) {
          break;  // the Run goes ahead with the helpers there are
        }
        size_.store(n + 1, std::memory_order_relaxed);
      }
      jobs_.push_back(std::move(job));
    }
    // seq_cst, as in SetDecider: notify_all skips the futex wake while its
    // waiter count reads zero, so the bump must be ordered before that read.
    generation_.fetch_add(1, std::memory_order_seq_cst);
    generation_.notify_all();
  }

  /// Takes the job off the queue, so no helper joins it any more, and
  /// returns how many joined.
  uint32_t Close(const Job& job) {
    std::lock_guard<std::mutex> lock(mu_);
    jobs_.erase(std::find_if(jobs_.begin(), jobs_.end(),
                             [&](const auto& j) { return j.get() == &job; }));
    return static_cast<uint32_t>(job.next_worker - 1);
  }

 private:
  /// A helper's life: join the oldest queued job with a free worker index,
  /// work it, and park once none is left.
  void Park() {
    for (;;) {
      const uint32_t seen = generation_.load(std::memory_order_seq_cst);
      size_t worker = 0;
      if (const std::shared_ptr<Job> job = Join(&worker)) {
        job->Work(worker);
        job->Leave();
      } else {
        generation_.wait(seen, std::memory_order_seq_cst);
      }
    }
  }

  std::shared_ptr<Job> Join(size_t* worker) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const std::shared_ptr<Job>& job : jobs_) {
      if (job->next_worker < job->workers) {
        *worker = job->next_worker++;
        return job;
      }
    }
    return nullptr;
  }

  std::mutex mu_;
  std::vector<std::shared_ptr<Job>> jobs_;  // open jobs, oldest first
  std::atomic<size_t> size_{0};             // written under mu_
  std::atomic<uint32_t> generation_{0};     // bumped by every Publish
};

}  // namespace

size_t MorselEngineHelpers() { return HelperSet::Get().size(); }

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

MorselRunStats MorselScheduler::Run(std::span<const Morsel> morsels,
                                    const Body& body) const {
  MorselRunStats stats;
  stats.num_morsels = morsels.size();
  if (morsels.empty()) return stats;

  const size_t workers = std::min(num_threads_, morsels.size());
  if (workers == 1) {
    stats.num_workers = 1;
    Stopwatch watch;
    for (size_t i = 0; i < morsels.size(); ++i) body(0, i, morsels[i]);
    stats.busy_seconds = watch.ElapsedSeconds();
    AddBusySeconds(stats.busy_seconds);
    return stats;
  }

  const auto job = std::make_shared<Job>(morsels, body, workers);
  HelperSet& helpers = HelperSet::Get();
  helpers.Publish(job, std::min(workers, kMaxThreadBudget) - 1);
  job->Work(0);
  // Every morsel is claimed (or the run aborted): wait only for the
  // helpers that joined, never for one still to wake.
  const uint32_t joined = helpers.Close(*job);
  job->AwaitHelpers(joined);

  stats.num_workers = 1 + joined;
  stats.steals = job->steals.load(std::memory_order_relaxed);
  stats.busy_seconds =
      static_cast<double>(job->busy_micros.load(std::memory_order_relaxed)) /
      1e6;
  for (size_t w = 1; w <= joined; ++w) {
    if (job->claimed_at[w] >= 0.0) {
      stats.helper_claim_seconds.push_back(job->claimed_at[w]);
    }
  }
  AddBusySeconds(stats.busy_seconds);
  if (job->first_error) std::rethrow_exception(job->first_error);
  return stats;
}

}  // namespace pinocchio
