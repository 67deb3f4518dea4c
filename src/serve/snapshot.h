// Snapshot-swapped prepared instances: the RCU core of the serving layer.
//
// A ServerSnapshot is an immutable unit of serving state — the source
// ProblemInstance, the PreparedInstance built from it, and a monotonically
// increasing epoch. Readers obtain the current snapshot through
// SnapshotHolder::Acquire(), which copies the shared_ptr under a mutex
// held only for that copy: queries never wait for a rebuild, never see a
// half-built snapshot, and keep "their" snapshot alive for the duration of
// the query even if a writer publishes a replacement mid-flight. Writers
// build the next snapshot off to the side (full prepare or Reprepare) and
// Publish() it with one pointer swap under the same mutex; the old
// snapshot is destroyed when its last in-flight reader drops it.
//
// One member may be written after publication: the snapshot's exact pass
// (ExactPass()) with its reader index, built once under std::call_once.
// The rebuild thread builds it for every epoch >= 2 before Publish(), so
// readers of those epochs only read it; epoch 1's is built by its first
// top-k, skyline, diversified or approx request, which keeps the pass out
// of the server's boot. Every other caller waits for that build or finds
// it done, and nobody writes it again.
//
// Thread-safety: Acquire(), Publish() and ExactPass() may race freely from
// any number of threads. The PreparedInstance inside a published snapshot
// must never be mutated (no Reprepare) — that is what the epoch discipline
// is for: parameter changes produce a *new* snapshot.

#ifndef PINOCCHIO_SERVE_SNAPSHOT_H_
#define PINOCCHIO_SERVE_SNAPSHOT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <utility>

#include "core/morsel_scheduler.h"
#include "core/moving_object.h"
#include "core/prepared_instance.h"
#include "core/query_engine.h"
#include "prob/influence_kernel.h"

namespace pinocchio {
namespace serve {

/// One immutable serving state. The instance is retained alongside the
/// prepared indexes because rebuilds (object/candidate updates) derive
/// the next instance from the current one.
struct ServerSnapshot {
  /// 1 for the initial snapshot, +1 per published rebuild.
  uint64_t epoch = 0;
  /// The source data this snapshot was prepared from.
  ProblemInstance instance;
  /// Indexes built over `instance` under `prepared.config()`.
  PreparedInstance prepared;
  /// The influence kernel of `prepared`'s (pf, tau), built once with its
  /// SIMD bound table: probes and the exact pass share it.
  InfluenceKernel kernel;

  ServerSnapshot(uint64_t epoch_in, ProblemInstance instance_in,
                 const SolverConfig& config)
      : epoch(epoch_in),
        instance(std::move(instance_in)),
        prepared(instance, config),
        kernel(prepared.pf(), prepared.tau()) {}

  /// Algorithm 2's exact pass over `prepared` (query::BuildInfluenceSets):
  /// every candidate's influence set, exact influence and starting
  /// bracket. The first caller builds it at `num_threads` (0 = hardware
  /// concurrency); concurrent first callers wait for that one build. The
  /// pass is byte-identical at any budget, so the first caller's serves
  /// every later one.
  const query::InfluenceSets& ExactPass(size_t num_threads) const {
    std::call_once(pass_once_, [&] {
      pass_ = query::BuildInfluenceSets(prepared, kernel,
                                        MorselScheduler(num_threads));
      pass_built_.store(true, std::memory_order_release);
    });
    return pass_;
  }

  /// True once ExactPass() has built the pass; builds nothing.
  bool HasExactPass() const {
    return pass_built_.load(std::memory_order_acquire);
  }

 private:
  mutable std::once_flag pass_once_;
  mutable query::InfluenceSets pass_;
  mutable std::atomic<bool> pass_built_{false};
};

using SnapshotPtr = std::shared_ptr<const ServerSnapshot>;

/// The RCU handle. Readers Acquire(), writers Publish(); each holds the
/// mutex for one shared_ptr copy or swap. A mutex rather than
/// std::atomic<std::shared_ptr>: libstdc++'s atomic (GCC 12) is not
/// lock-free either — it spins on a lock bit inside the pointer — and
/// ThreadSanitizer cannot see that lock, so it reports every swap as a
/// race.
class SnapshotHolder {
 public:
  SnapshotHolder() = default;
  explicit SnapshotHolder(SnapshotPtr initial) { Publish(std::move(initial)); }

  SnapshotHolder(const SnapshotHolder&) = delete;
  SnapshotHolder& operator=(const SnapshotHolder&) = delete;

  /// The current snapshot; never null once a snapshot has been published.
  /// The returned shared_ptr pins the snapshot for the caller's lifetime.
  SnapshotPtr Acquire() const {
    std::lock_guard<std::mutex> lock(mu_);
    return current_;
  }

  /// Replaces the current snapshot. The caller must have finished building
  /// `next` (including its PreparedInstance) before publishing; the mutex
  /// makes the build visible to every subsequent Acquire(). The replaced
  /// snapshot leaves with `next`, after the lock, so dropping a last
  /// reference never destroys a snapshot while readers wait.
  void Publish(SnapshotPtr next) {
    std::lock_guard<std::mutex> lock(mu_);
    current_.swap(next);
  }

 private:
  mutable std::mutex mu_;
  SnapshotPtr current_;
};

}  // namespace serve
}  // namespace pinocchio

#endif  // PINOCCHIO_SERVE_SNAPSHOT_H_
