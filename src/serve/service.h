// The influence query service: protocol requests in, responses out,
// independent of any transport.
//
// An InfluenceService owns a SnapshotHolder plus one background rebuild
// thread. Execute() is safe to call concurrently from any number of
// request threads:
//
//   * Every read op acquires the current snapshot (one pointer copy
//     under the holder's mutex) and runs entirely against that immutable
//     state, so a response is internally consistent with exactly one
//     epoch.
//   * kTopK, kSkyline, kDiversified and kApproxTopK read the snapshot's
//     exact pass and its reader index (ServerSnapshot::ExactPass), which
//     the rebuild thread builds before publishing an epoch and the first
//     of them builds for epoch 1: kTopK is PIN's exact ranking at every k,
//     kSkyline and kDiversified equal query::SolveSkyline and
//     query::SelectDiversified on the snapshot (bound_skipped and
//     gain_evaluations included), and kApproxTopK answers PIN's exact
//     top-k with degenerate brackets.
//   * kSolve still runs the named algorithm and kProbe the point query;
//     solve responses are bit-identical to a direct
//     Solve(const PreparedInstance&) on the same snapshot.
//   * kWhatIf re-parameterises a private scratch PreparedInstance via
//     Reprepare (cheap: positions and MBRs are reused) under a mutex, so
//     tau/rho/lambda exploration never touches the published snapshot.
//   * kUpdate validates and enqueues appended objects/candidates (object
//     ids must be new to every snapshot and the queue) and returns
//     immediately; the rebuild thread coalesces pending updates,
//     builds the next snapshot and its exact pass off to the side and
//     publishes it with an atomic swap. Readers never block on a
//     rebuild.
//
// The service is also usable without any server in front of it — the
// tests and the differential harness call Execute() directly.

#ifndef PINOCCHIO_SERVE_SERVICE_H_
#define PINOCCHIO_SERVE_SERVICE_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <thread>
#include <unordered_set>
#include <vector>

#include "core/moving_object.h"
#include "core/solver.h"
#include "core/streaming.h"
#include "serve/protocol.h"
#include "serve/snapshot.h"
#include "util/function_ref.h"
#include "util/stopwatch.h"

namespace pinocchio {
namespace serve {

struct ServiceOptions {
  /// top_k the snapshots are prepared with: a kSolve naming pin-vo and a
  /// what-if guarantee exact influence for this many leading candidates
  /// (their exact prefix). kTopK reads the exact pass and is exact at
  /// every k.
  size_t prepared_top_k = 16;
  /// Distance unit (metres) of the power-law PF rebuilt by what-if
  /// requests; must match the PF the service was constructed with.
  double pf_unit_meters = 100.0;
  /// Thread budget of PIN and PIN-VO solves, what-if included, and of
  /// each snapshot's exact pass, which the rebuild thread builds before
  /// publishing an epoch and epoch 1's first top-k, skyline, diversified
  /// or approx request builds (0 selects the hardware concurrency; 1 runs
  /// inline on the building thread). Results are bit-identical at any
  /// setting. A kSolve naming kNaive runs the sequential NA oracle
  /// whatever the budget.
  size_t solve_threads = 1;
  /// Width of the streaming ingestion window in seconds; 0 disables the
  /// kObserve/kAdvance request family. When enabled, the service runs a
  /// StreamingPrimeLS over the construction-time candidate set, fed by
  /// observe frames — independent of the snapshot path (see
  /// docs/ARCHITECTURE.md, "Streaming ingestion").
  double stream_window_seconds = 0.0;
};

class InfluenceService {
 public:
  /// Builds the epoch-1 snapshot from `instance` under `config` and
  /// starts the rebuild thread. `config.pf` must be set; `config.top_k`
  /// is overridden by `options.prepared_top_k`.
  InfluenceService(ProblemInstance instance, SolverConfig config,
                   const ServiceOptions& options = {});

  /// Drains pending updates and joins the rebuild thread.
  ~InfluenceService();

  InfluenceService(const InfluenceService&) = delete;
  InfluenceService& operator=(const InfluenceService&) = delete;

  /// Executes one request. Thread-safe; never throws — malformed or
  /// unserviceable requests yield a kError response.
  Response Execute(const Request& request);

  /// The current snapshot. Exposed so callers can run direct
  /// Solve() calls against the very same state a response came from.
  SnapshotPtr snapshot() const { return holder_.Acquire(); }

  /// Blocks until every update accepted so far has been applied and
  /// published. Used by tests and by graceful shutdown.
  void DrainUpdates();

  /// Number of snapshot swaps published so far (epoch - 1).
  uint64_t snapshot_swaps() const {
    return swaps_.load(std::memory_order_relaxed);
  }

 private:
  // One overload per request payload; Execute dispatches through
  // kRequestOps.
  Response Do(const SolveRequest& request);
  Response Do(const TopKRequest& request);
  Response Do(const ProbeRequest& request);
  Response Do(const WhatIfRequest& request);
  Response Do(const UpdateRequest& request);
  Response Do(const StatsRequest& request);
  Response Do(const SkylineRequest& request);
  Response Do(const DiversifiedRequest& request);
  Response Do(const ObserveRequest& request);
  Response Do(const AdvanceRequest& request);
  Response Do(const ApproxTopKRequest& request);
  static Response MakeError(ErrorCode code, std::string message);

  /// A SolveResponse at `snap`'s epoch: the head of `ranking` as the best
  /// candidate (kNoCandidate for an empty ranking) and its first
  /// min(k, |ranking|) entries with their `influence`, the first
  /// `exact_prefix` of them marked exact.
  static Response MakeSolveResponse(const ServerSnapshot& snap,
                                    std::span<const uint32_t> ranking,
                                    FunctionRef<int64_t(uint32_t)> influence,
                                    size_t exact_prefix, size_t k,
                                    double solve_seconds);
  /// The same for a result computed against `snap`.
  static Response MakeSolveResponse(const ServerSnapshot& snap,
                                    const SolverResult& result, size_t k);

  void RebuildLoop();

  ServiceOptions options_;
  SnapshotHolder holder_;
  Stopwatch uptime_;

  // Pending updates, guarded by update_mu_. The rebuild thread swallows
  // the whole queue per iteration (coalescing bursts into one build).
  std::mutex update_mu_;
  std::condition_variable update_cv_;     // signals: work or shutdown
  std::condition_variable drained_cv_;    // signals: queue empty + idle
  std::vector<UpdateRequest> pending_updates_;
  // Every object id of the epoch-1 instance and of each accepted update:
  // a new update's ids must be absent from it.
  std::unordered_set<uint32_t> object_ids_;
  bool rebuild_in_progress_ = false;
  bool stopping_ = false;
  std::thread rebuild_thread_;

  // Streaming ingestion state, guarded by stream_mu_. Constructed once
  // over the epoch-1 candidate set when stream_window_seconds > 0; null
  // when streaming is disabled. All client input is validated BEFORE any
  // engine call — the engine's monotonic-time check must stay
  // unreachable from the wire (a hostile frame must never abort the
  // server).
  std::mutex stream_mu_;
  std::unique_ptr<StreamingPrimeLS> stream_;

  // What-if scratch state, guarded by whatif_mu_: a PreparedInstance
  // cloned from the current snapshot's instance and Reprepared per
  // request. Rebuilt from scratch only when the snapshot epoch moved.
  std::mutex whatif_mu_;
  std::unique_ptr<PreparedInstance> whatif_prepared_;
  uint64_t whatif_epoch_ = 0;

  // Counters (relaxed; they are reporting, not synchronisation). requests_
  // is indexed like kRequestOps; error_responses_ counts every kError
  // response Execute returns.
  std::array<std::atomic<uint64_t>, kNumRequestOps> requests_{};
  std::atomic<uint64_t> stream_observations_{0};
  std::atomic<uint64_t> error_responses_{0};
  std::atomic<uint64_t> swaps_{0};
};

}  // namespace serve
}  // namespace pinocchio

#endif  // PINOCCHIO_SERVE_SERVICE_H_
