// Morsel-driven work-stealing execution over record ranges.
//
// Splitting the object store into num_threads contiguous slices lets one
// slice with a few position-rich objects dominate the wall clock while
// every other worker idles. This scheduler deals *morsels* instead: small
// [first_record, last_record)
// ranges sized by position count (validation cost is linear in positions,
// not records), dealt to per-worker deques and work-stolen when a worker
// drains its own share.
//
// Determinism contract: the scheduler promises only that every morsel runs
// exactly once, on some worker. Callers that need results bit-identical to
// a sequential pass must make their per-morsel outputs either
//   * associative merges (int64 counter / influence-vector additions are
//     commutative and exact, so any completion order yields the same sums:
//     this is how PruneAndValidate rides the engine), or
//   * indexed by morsel: per-morsel output slots concatenated in morsel
//     order afterwards reproduce the sequential record order exactly (this
//     is how the PIN-VO prune phase rebuilds its verification-set CSR).
//
// Work stealing is a single packed (head, tail) atomic per worker over a
// pre-partitioned range of morsel indices: the owner CAS-advances head,
// thieves CAS-retreat tail. head only grows and tail only shrinks within
// one Run(), so the CAS loop is ABA-free, and each morsel index is claimed
// exactly once.
//
// Workers: the calling thread is worker 0, and the rest come from one
// process-wide set of helper threads. The first Run() above one worker
// starts the set; it grows to the most helpers any Run() could use
// (budget - 1, fewer for a shorter morsel list) and lives until process
// exit, parked on an atomic word between Runs. A Run() publishes its job,
// wakes the set and works its own share; each helper that wakes in time
// joins with the next free worker index. Once every morsel is claimed the
// caller closes the job and waits only for the helpers that joined, never
// for one still to wake. So concurrent Runs (server workers solving at
// once, or a Run whose helpers sit in a decide-ahead walk) go ahead with
// fewer helpers, down to none, and since every morsel still runs exactly
// once, the contract above holds however many joined.

#ifndef PINOCCHIO_CORE_MORSEL_SCHEDULER_H_
#define PINOCCHIO_CORE_MORSEL_SCHEDULER_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace pinocchio {

class ObjectStore;

/// One unit of schedulable work: records [first_record, last_record).
struct Morsel {
  uint32_t first_record = 0;
  uint32_t last_record = 0;  // exclusive

  uint32_t size() const { return last_record - first_record; }
};

struct MorselPlanOptions {
  /// Target total position count per morsel. Validation cost is linear in
  /// positions scanned, so equal-position morsels load-balance where
  /// equal-record slices do not. A single record richer than the target
  /// gets a morsel of its own (records are never split).
  uint64_t target_positions = 4096;
  /// Lower bound on the number of morsels produced (capped by the record
  /// count): the effective target shrinks until at least this many morsels
  /// exist. Solvers pass ~4x their worker count so stealing has something
  /// to steal even on small stores.
  size_t min_morsels = 1;
};

/// Cuts [0, position_counts.size()) into morsels whose cumulative position
/// count reaches the effective target. Pure function of the counts — records
/// with zero positions are legal here (they add no cost and ride along in
/// whichever morsel is open) even though ObjectStore rejects them.
std::vector<Morsel> PlanMorsels(std::span<const uint32_t> position_counts,
                                const MorselPlanOptions& options = {});

/// PlanMorsels over the store's per-record position counts.
std::vector<Morsel> PlanMorsels(const ObjectStore& store,
                                const MorselPlanOptions& options = {});

/// Equal-width morsels over `count` items of uniform cost (the walk and
/// helper bodies of the decide-ahead walk are one item each):
/// ceil(count / target_items) morsels, at least min_morsels when count
/// allows.
std::vector<Morsel> PlanUniformMorsels(size_t count, size_t target_items,
                                       size_t min_morsels = 1);

/// What one Run() did; informational (the solvers fold busy_seconds into
/// their utilisation accounting, tests assert on steals).
struct MorselRunStats {
  size_t num_morsels = 0;
  /// Workers that took part: the caller and the helpers that joined
  /// (<= num_threads(): never more than morsels).
  size_t num_workers = 0;
  /// Morsels executed by a worker other than the one they were dealt to.
  int64_t steals = 0;
  /// Sum of per-worker wall time inside the run loop, across workers.
  double busy_seconds = 0.0;
  /// Seconds from Run() entry to each joined helper's first morsel, in
  /// worker order; a helper that found every morsel claimed adds none.
  std::vector<double> helper_claim_seconds;
};

/// Process-wide sum of worker busy seconds across every MorselScheduler
/// run so far (relaxed; reporting only). The serving layer divides this by
/// uptime x solve_threads to expose solve-thread utilisation.
double MorselEngineBusySeconds();

/// Helper threads the engine has started in this process: 0 until the
/// first Run() above one worker, then the most any Run() could use.
size_t MorselEngineHelpers();

/// Executes a morsel list with work stealing on the calling thread and the
/// process-wide helpers that join it (see the file comment). Holds only its
/// budget; safe to use from multiple threads concurrently (each Run() is
/// independent).
class MorselScheduler {
 public:
  /// `num_threads == 0` selects the hardware concurrency.
  explicit MorselScheduler(size_t num_threads = 0);

  size_t num_threads() const { return num_threads_; }

  /// body(worker, morsel_index, morsel) runs exactly once per morsel; the
  /// worker index is stable within the run and < num_workers, so bodies can
  /// index per-worker accumulators without synchronisation. With one worker
  /// (or one morsel) the body runs inline on the calling thread and no
  /// helper is started. The first exception thrown by any body aborts
  /// outstanding morsels of this run and is rethrown here after every
  /// joined helper has left it.
  MorselRunStats Run(
      std::span<const Morsel> morsels,
      const std::function<void(size_t, size_t, const Morsel&)>& body) const;

 private:
  size_t num_threads_;
};

/// The largest thread budget the tools accept. The engine's helper set grows
/// to the largest budget - 1 a Run() uses (never past kMaxThreadBudget - 1)
/// and keeps its threads until exit, so a flag is refused above this rather
/// than left to grow the set without bound.
inline constexpr size_t kMaxThreadBudget = 256;

/// Morsels dealt per worker by PlanRecordMorsels; more than one so drained
/// workers find work to steal.
inline constexpr size_t kMorselsPerWorker = 4;

/// PlanMorsels over the store's records with at least kMorselsPerWorker
/// morsels per worker of `scheduler` — the record plan every prune phase
/// runs on.
std::vector<Morsel> PlanRecordMorsels(const ObjectStore& store,
                                      const MorselScheduler& scheduler);

}  // namespace pinocchio

#endif  // PINOCCHIO_CORE_MORSEL_SCHEDULER_H_
