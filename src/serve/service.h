// The influence query service: protocol requests in, responses out,
// independent of any transport.
//
// An InfluenceService owns a SnapshotHolder plus one background rebuild
// thread. Execute() is safe to call concurrently from any number of
// request threads:
//
//   * kSolve / kTopK / kProbe acquire the current snapshot (lock-free)
//     and run entirely against that immutable state — a response is
//     internally consistent with exactly one epoch, and solve responses
//     are bit-identical to a direct Solve(const PreparedInstance&) on
//     the same snapshot.
//   * kWhatIf re-parameterises a private scratch PreparedInstance via
//     Reprepare (cheap: positions and MBRs are reused) under a mutex, so
//     tau/rho/lambda exploration never touches the published snapshot.
//   * kUpdate validates and enqueues appended objects/candidates and
//     returns immediately; the rebuild thread coalesces pending updates,
//     builds the next snapshot off to the side and publishes it with an
//     atomic swap. Readers never block on a rebuild.
//
// The service is also usable without any server in front of it — the
// tests and the differential harness call Execute() directly.

#ifndef PINOCCHIO_SERVE_SERVICE_H_
#define PINOCCHIO_SERVE_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "core/moving_object.h"
#include "core/solver.h"
#include "core/streaming.h"
#include "serve/protocol.h"
#include "serve/snapshot.h"
#include "util/stopwatch.h"

namespace pinocchio {
namespace serve {

struct ServiceOptions {
  /// top_k the snapshots are prepared with: VO solves guarantee exact
  /// influence for this many leading candidates, so kTopK requests up to
  /// this k ride the fast solver. Larger k falls back to the exact PIN
  /// solver (full ranking).
  size_t prepared_top_k = 16;
  /// Distance unit (metres) of the power-law PF rebuilt by what-if
  /// requests; must match the PF the service was constructed with.
  double pf_unit_meters = 100.0;
  /// Thread budget of PIN, PIN-VO, skyline, diversified and approx
  /// requests (0 selects the hardware concurrency; 1 runs inline on the
  /// request thread). Results are bit-identical at any setting. A kSolve
  /// naming kNaive runs the sequential NA oracle whatever the budget, and
  /// what-if solves run at budget 1 (they hold a mutex anyway).
  size_t solve_threads = 1;
  /// Width of the streaming ingestion window in seconds; 0 disables the
  /// kObserve/kAdvance request family. When enabled, the service runs a
  /// StreamingPrimeLS over the construction-time candidate set, fed by
  /// observe frames — independent of the snapshot path (see
  /// docs/ARCHITECTURE.md, "Streaming ingestion").
  double stream_window_seconds = 0.0;
  /// When true, kTopK requests ride the approximate tier at the default
  /// (epsilon, delta) below and the returned candidates are then refined
  /// to exact influences — the candidate SELECTION is approximate, every
  /// reported influence is exact. kApproxTopK requests always use their
  /// own parameters regardless of this flag.
  bool approx_default = false;
  double approx_epsilon = 0.05;
  double approx_delta = 0.01;
  uint64_t approx_seed = 0;
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

  /// The current snapshot (lock-free). Exposed so callers can run direct
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
  Response DoSolve(const SolveRequest& request);
  Response DoTopK(const TopKRequest& request);
  Response DoProbe(const ProbeRequest& request);
  Response DoWhatIf(const WhatIfRequest& request);
  Response DoUpdate(const UpdateRequest& request);
  Response DoStats();
  Response DoSkyline(const SkylineRequest& request);
  Response DoDiversified(const DiversifiedRequest& request);
  Response DoObserve(const ObserveRequest& request);
  Response DoAdvance(const AdvanceRequest& request);
  Response DoApproxTopK(const ApproxTopKRequest& request);
  /// The approx_default fast-path behind DoTopK: approximate selection,
  /// exact per-candidate refinement.
  Response DoTopKViaApprox(size_t k);
  static Response MakeError(ErrorCode code, std::string message);

  /// Fills a SolveResponse from a result computed against `snap`.
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
  // cloned from the current snapshot's instance and Repepared per
  // request. Rebuilt from scratch only when the snapshot epoch moved.
  std::mutex whatif_mu_;
  std::unique_ptr<PreparedInstance> whatif_prepared_;
  uint64_t whatif_epoch_ = 0;

  // Request counters (relaxed; they are reporting, not synchronisation).
  std::atomic<uint64_t> solve_requests_{0};
  std::atomic<uint64_t> topk_requests_{0};
  std::atomic<uint64_t> probe_requests_{0};
  std::atomic<uint64_t> whatif_requests_{0};
  std::atomic<uint64_t> update_requests_{0};
  std::atomic<uint64_t> stats_requests_{0};
  std::atomic<uint64_t> skyline_requests_{0};
  std::atomic<uint64_t> diverse_requests_{0};
  std::atomic<uint64_t> observe_requests_{0};
  std::atomic<uint64_t> advance_requests_{0};
  std::atomic<uint64_t> approx_requests_{0};
  std::atomic<uint64_t> stream_observations_{0};
  std::atomic<uint64_t> error_responses_{0};
  std::atomic<uint64_t> swaps_{0};
};

}  // namespace serve
}  // namespace pinocchio

#endif  // PINOCCHIO_SERVE_SERVICE_H_
