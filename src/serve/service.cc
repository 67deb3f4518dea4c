#include "serve/service.h"

#include <algorithm>
#include <utility>

#include "core/approx_solver.h"
#include "core/influence_query.h"
#include "core/morsel_scheduler.h"
#include "core/naive_solver.h"
#include "core/pinocchio_solver.h"
#include "core/pinocchio_vo_solver.h"
#include "core/query_engine.h"
#include "geo/point.h"
#include "prob/power_law.h"
#include "util/logging.h"

namespace pinocchio {
namespace serve {
namespace {

/// Largest ranking a response will carry; requests asking for more are
/// clamped (the frame cap would reject gigantic rankings anyway).
constexpr size_t kMaxResponseTopK = 4096;

// PIN and PIN-VO run at the solve_threads budget (a budget of one runs
// inline on the request thread). NA is the sequential differential oracle
// and ignores the budget.
std::unique_ptr<Solver> MakeSolver(WireAlgorithm algorithm,
                                   size_t solve_threads) {
  switch (algorithm) {
    case WireAlgorithm::kPinVO:
      return std::make_unique<PinocchioVOSolver>(solve_threads);
    case WireAlgorithm::kPin:
      return std::make_unique<PinocchioSolver>(solve_threads);
    case WireAlgorithm::kNaive:
      return std::make_unique<NaiveSolver>();
  }
  return nullptr;
}

bool ValidUpdate(const UpdateRequest& update, std::string* reason) {
  if (update.objects.empty() && update.candidates.empty()) {
    *reason = "empty update";
    return false;
  }
  for (const UpdateObject& o : update.objects) {
    if (o.positions.empty()) {
      *reason = "object with zero positions";
      return false;
    }
  }
  return true;
}

}  // namespace

InfluenceService::InfluenceService(ProblemInstance instance,
                                   SolverConfig config,
                                   const ServiceOptions& options)
    : options_(options) {
  PINO_CHECK(config.pf != nullptr) << "service requires a configured PF";
  config.top_k = std::max<size_t>(1, options_.prepared_top_k);
  if (options_.stream_window_seconds > 0.0) {
    StreamingPrimeLS::Options stream_options;
    stream_options.config = config;
    stream_options.window_seconds = options_.stream_window_seconds;
    stream_ = std::make_unique<StreamingPrimeLS>(instance.candidates,
                                                 std::move(stream_options));
  }
  holder_.Publish(std::make_shared<const ServerSnapshot>(
      /*epoch=*/1, std::move(instance), config));
  rebuild_thread_ = std::thread(&InfluenceService::RebuildLoop, this);
}

InfluenceService::~InfluenceService() {
  {
    std::lock_guard<std::mutex> lock(update_mu_);
    stopping_ = true;
  }
  update_cv_.notify_all();
  if (rebuild_thread_.joinable()) rebuild_thread_.join();
}

Response InfluenceService::Execute(const Request& request) {
  switch (request.type) {
    case RequestType::kSolve:
      solve_requests_.fetch_add(1, std::memory_order_relaxed);
      return DoSolve(request.solve);
    case RequestType::kTopK:
      topk_requests_.fetch_add(1, std::memory_order_relaxed);
      return DoTopK(request.top_k);
    case RequestType::kProbe:
      probe_requests_.fetch_add(1, std::memory_order_relaxed);
      return DoProbe(request.probe);
    case RequestType::kWhatIf:
      whatif_requests_.fetch_add(1, std::memory_order_relaxed);
      return DoWhatIf(request.what_if);
    case RequestType::kUpdate:
      update_requests_.fetch_add(1, std::memory_order_relaxed);
      return DoUpdate(request.update);
    case RequestType::kStats:
      stats_requests_.fetch_add(1, std::memory_order_relaxed);
      return DoStats();
    case RequestType::kSkyline:
      skyline_requests_.fetch_add(1, std::memory_order_relaxed);
      return DoSkyline(request.skyline);
    case RequestType::kDiversified:
      diverse_requests_.fetch_add(1, std::memory_order_relaxed);
      return DoDiversified(request.diversified);
    case RequestType::kObserve:
      observe_requests_.fetch_add(1, std::memory_order_relaxed);
      return DoObserve(request.observe);
    case RequestType::kAdvance:
      advance_requests_.fetch_add(1, std::memory_order_relaxed);
      return DoAdvance(request.advance);
    case RequestType::kApproxTopK:
      approx_requests_.fetch_add(1, std::memory_order_relaxed);
      return DoApproxTopK(request.approx);
  }
  return MakeError(ErrorCode::kUnknownType, "unknown request type");
}

Response InfluenceService::MakeError(ErrorCode code, std::string message) {
  Response response;
  response.type = ResponseType::kError;
  response.error.code = code;
  response.error.message = std::move(message);
  return response;
}

Response InfluenceService::MakeSolveResponse(const ServerSnapshot& snap,
                                             const SolverResult& result,
                                             size_t k) {
  Response response;
  response.type = ResponseType::kSolve;
  SolveResponse& s = response.solve;
  s.epoch = snap.epoch;
  s.num_objects = snap.prepared.num_objects();
  s.num_candidates = snap.prepared.num_candidates();
  s.best_candidate = result.best_candidate;
  s.best_influence = result.best_influence;
  s.solve_seconds = result.stats.solve_seconds;
  const size_t count = std::min(k, result.ranking.size());
  // VO solves guarantee exact influence only for the prepared top-k
  // prefix; entries past it may carry lower bounds. Exact solvers (PIN,
  // NA) mark everything exact via influence_exact.
  const size_t exact_prefix =
      result.influence_exact
          ? result.ranking.size()
          : std::min(snap.prepared.config().top_k, result.ranking.size());
  s.topk.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const uint32_t candidate = result.ranking[i];
    s.topk.push_back({candidate, result.influence[candidate],
                      /*exact=*/i < exact_prefix});
  }
  return response;
}

Response InfluenceService::DoSolve(const SolveRequest& request) {
  const std::unique_ptr<Solver> solver =
      MakeSolver(request.algorithm, options_.solve_threads);
  if (solver == nullptr) {
    error_responses_.fetch_add(1, std::memory_order_relaxed);
    return MakeError(ErrorCode::kBadRequest, "unknown algorithm");
  }
  const SnapshotPtr snap = holder_.Acquire();
  const size_t k =
      std::min<size_t>(std::max<uint32_t>(1, request.top_k), kMaxResponseTopK);
  const SolverResult result = solver->Solve(snap->prepared);
  return MakeSolveResponse(*snap, result, k);
}

Response InfluenceService::DoTopK(const TopKRequest& request) {
  const size_t k =
      std::min<size_t>(std::max<uint32_t>(1, request.k), kMaxResponseTopK);
  if (options_.approx_default) return DoTopKViaApprox(k);
  const SnapshotPtr snap = holder_.Acquire();
  // The snapshot is prepared with top_k = prepared_top_k, so VO results
  // are exact for that many leading candidates; beyond it the exact PIN
  // solver ranks every candidate.
  SolverResult result;
  if (k <= snap->prepared.config().top_k) {
    result = PinocchioVOSolver(options_.solve_threads).Solve(snap->prepared);
  } else {
    result = PinocchioSolver(options_.solve_threads).Solve(snap->prepared);
  }
  return MakeSolveResponse(*snap, result, k);
}

Response InfluenceService::DoApproxTopK(const ApproxTopKRequest& request) {
  // The decoder rejects out-of-range parameters on the wire, but Execute()
  // is also a direct API (tests, harness) — validate here too.
  if (!(request.epsilon > 0.0) || !(request.epsilon <= 1.0)) {
    error_responses_.fetch_add(1, std::memory_order_relaxed);
    return MakeError(ErrorCode::kBadRequest, "epsilon must be in (0, 1]");
  }
  if (!(request.delta > 0.0) || !(request.delta < 1.0)) {
    error_responses_.fetch_add(1, std::memory_order_relaxed);
    return MakeError(ErrorCode::kBadRequest, "delta must be in (0, 1)");
  }
  const SnapshotPtr snap = holder_.Acquire();
  const size_t k =
      std::min<size_t>(std::max<uint32_t>(1, request.k), kMaxResponseTopK);
  const SketchParams params{request.epsilon, request.delta, request.seed};
  const ApproxTopKResult result =
      SolveApproxTopK(snap->prepared, k, params, options_.solve_threads);

  Response response;
  response.type = ResponseType::kApprox;
  ApproxResponse& s = response.approx;
  s.epoch = snap->epoch;
  s.num_objects = snap->prepared.num_objects();
  s.num_candidates = snap->prepared.num_candidates();
  s.solve_seconds = result.stats.solve_seconds;
  s.entries.reserve(result.entries.size());
  for (const ApproxEntry& e : result.entries) {
    s.entries.push_back({e.candidate, e.estimate, e.lo, e.hi, e.exact});
  }
  return response;
}

Response InfluenceService::DoTopKViaApprox(size_t k) {
  const SnapshotPtr snap = holder_.Acquire();
  Stopwatch watch;
  const SketchParams params{options_.approx_epsilon, options_.approx_delta,
                            options_.approx_seed};
  const ApproxTopKResult approx =
      SolveApproxTopK(snap->prepared, k, params, options_.solve_threads);

  // Exact refinement: the approximate tier SELECTED the candidates; each
  // one's influence is recomputed exactly, so every reported value (and
  // the per-entry exact flag) is unconditional. Only the membership of
  // the k-set carries the sketch's probabilistic guarantee.
  struct Refined {
    uint32_t candidate;
    int64_t influence;
  };
  std::vector<Refined> refined;
  refined.reserve(approx.entries.size());
  for (const ApproxEntry& e : approx.entries) {
    const int64_t influence =
        e.exact ? e.estimate
                : InfluenceOfCandidate(snap->prepared,
                                       snap->prepared.candidate(e.candidate));
    refined.push_back({e.candidate, influence});
  }
  std::sort(refined.begin(), refined.end(),
            [](const Refined& a, const Refined& b) {
              if (a.influence != b.influence) return a.influence > b.influence;
              return a.candidate < b.candidate;
            });

  Response response;
  response.type = ResponseType::kSolve;
  SolveResponse& s = response.solve;
  s.epoch = snap->epoch;
  s.num_objects = snap->prepared.num_objects();
  s.num_candidates = snap->prepared.num_candidates();
  if (!refined.empty()) {
    s.best_candidate = refined.front().candidate;
    s.best_influence = refined.front().influence;
  }
  s.solve_seconds = watch.ElapsedSeconds();
  s.topk.reserve(refined.size());
  for (const Refined& r : refined) {
    s.topk.push_back({r.candidate, r.influence, /*exact=*/true});
  }
  return response;
}

Response InfluenceService::DoProbe(const ProbeRequest& request) {
  const SnapshotPtr snap = holder_.Acquire();
  Stopwatch watch;
  const int64_t influence =
      InfluenceOfCandidate(snap->prepared, request.location);
  Response response;
  response.type = ResponseType::kProbe;
  response.probe.epoch = snap->epoch;
  response.probe.num_objects = snap->prepared.num_objects();
  response.probe.influence = influence;
  response.probe.solve_seconds = watch.ElapsedSeconds();
  return response;
}

Response InfluenceService::DoWhatIf(const WhatIfRequest& request) {
  if (!(request.tau > 0.0 && request.tau < 1.0)) {
    error_responses_.fetch_add(1, std::memory_order_relaxed);
    return MakeError(ErrorCode::kBadRequest, "tau must be in (0, 1)");
  }
  if (request.rho <= 0.0 || request.rho > 1.0 || request.lambda <= 0.0) {
    error_responses_.fetch_add(1, std::memory_order_relaxed);
    return MakeError(ErrorCode::kBadRequest,
                     "rho must be in (0, 1] and lambda positive");
  }
  const SnapshotPtr snap = holder_.Acquire();
  const size_t k = std::min<size_t>(std::max<uint32_t>(1, request.top_k),
                                    kMaxResponseTopK);

  SolverConfig config = snap->prepared.config();
  config.tau = request.tau;
  config.pf = std::make_shared<PowerLawPF>(request.rho, request.lambda,
                                           /*d0=*/1.0, options_.pf_unit_meters);

  std::lock_guard<std::mutex> lock(whatif_mu_);
  if (whatif_prepared_ == nullptr || whatif_epoch_ != snap->epoch) {
    // The snapshot moved under us: clone its state once, then keep
    // re-tuning the clone across subsequent what-ifs at this epoch.
    whatif_prepared_ =
        std::make_unique<PreparedInstance>(snap->instance, config);
    whatif_epoch_ = snap->epoch;
  } else {
    // Cheap path: Reprepare re-tunes the existing A_2D in place (the
    // position arena and MBRs are reused) and keeps the R-tree.
    whatif_prepared_->Reprepare(config);
  }
  const SolverResult result = PinocchioVOSolver().Solve(*whatif_prepared_);
  // What-if answers are stamped with the epoch of the snapshot whose
  // data they were derived from.
  Response response = MakeSolveResponse(*snap, result, k);
  return response;
}

Response InfluenceService::DoUpdate(const UpdateRequest& request) {
  std::string reason;
  if (!ValidUpdate(request, &reason)) {
    error_responses_.fetch_add(1, std::memory_order_relaxed);
    return MakeError(ErrorCode::kBadRequest, reason);
  }
  const SnapshotPtr snap = holder_.Acquire();
  Response response;
  response.type = ResponseType::kUpdate;
  response.update.epoch = snap->epoch;
  response.update.accepted = true;
  {
    std::lock_guard<std::mutex> lock(update_mu_);
    if (stopping_) {
      error_responses_.fetch_add(1, std::memory_order_relaxed);
      return MakeError(ErrorCode::kShuttingDown, "service stopping");
    }
    pending_updates_.push_back(request);
    response.update.pending_updates = pending_updates_.size();
  }
  update_cv_.notify_one();
  return response;
}

Response InfluenceService::DoStats() {
  const SnapshotPtr snap = holder_.Acquire();
  Response response;
  response.type = ResponseType::kStats;
  StatsResponse& s = response.stats;
  s.epoch = snap->epoch;
  s.num_objects = snap->prepared.num_objects();
  s.num_candidates = snap->prepared.num_candidates();
  s.snapshot_swaps = swaps_.load(std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(update_mu_);
    s.pending_updates =
        pending_updates_.size() + (rebuild_in_progress_ ? 1 : 0);
  }
  s.solve_requests = solve_requests_.load(std::memory_order_relaxed);
  s.topk_requests = topk_requests_.load(std::memory_order_relaxed);
  s.probe_requests = probe_requests_.load(std::memory_order_relaxed);
  s.whatif_requests = whatif_requests_.load(std::memory_order_relaxed);
  s.update_requests = update_requests_.load(std::memory_order_relaxed);
  s.stats_requests = stats_requests_.load(std::memory_order_relaxed);
  s.skyline_requests = skyline_requests_.load(std::memory_order_relaxed);
  s.diverse_requests = diverse_requests_.load(std::memory_order_relaxed);
  s.error_responses = error_responses_.load(std::memory_order_relaxed);
  s.uptime_seconds = uptime_.ElapsedSeconds();
  s.solve_threads = MorselScheduler(options_.solve_threads).num_threads();
  s.solve_busy_seconds = MorselEngineBusySeconds();
  s.observe_requests = observe_requests_.load(std::memory_order_relaxed);
  s.advance_requests = advance_requests_.load(std::memory_order_relaxed);
  s.stream_observations =
      stream_observations_.load(std::memory_order_relaxed);
  s.stream_window_seconds = options_.stream_window_seconds;
  s.approx_requests = approx_requests_.load(std::memory_order_relaxed);
  if (stream_ != nullptr) {
    std::lock_guard<std::mutex> lock(stream_mu_);
    s.stream_live_objects = stream_->NumLiveObjects();
    s.stream_live_positions = stream_->NumLivePositions();
  }
  return response;
}

Response InfluenceService::DoSkyline(const SkylineRequest& request) {
  const SnapshotPtr snap = holder_.Acquire();
  const size_t m = snap->prepared.num_candidates();
  std::vector<double> cost(m);
  for (size_t j = 0; j < m; ++j) {
    cost[j] = Distance(snap->prepared.candidate(static_cast<uint32_t>(j)),
                       request.cost_origin);
  }
  const query::SkylineResult result =
      query::SolveSkyline(snap->prepared, cost, options_.solve_threads);

  Response response;
  response.type = ResponseType::kSkyline;
  SkylineResponse& s = response.skyline;
  s.epoch = snap->epoch;
  s.num_objects = snap->prepared.num_objects();
  s.num_candidates = m;
  s.bound_skipped = static_cast<uint64_t>(result.bound_skipped);
  s.solve_seconds = result.stats.solve_seconds;
  const size_t count = std::min(result.members.size(), kMaxResponseTopK);
  s.skyline.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const query::SkylineMember& member = result.members[i];
    s.skyline.push_back({member.candidate, member.influence, member.cost});
  }
  return response;
}

Response InfluenceService::DoDiversified(const DiversifiedRequest& request) {
  if (request.min_separation < 0.0) {
    error_responses_.fetch_add(1, std::memory_order_relaxed);
    return MakeError(ErrorCode::kBadRequest, "negative min separation");
  }
  const SnapshotPtr snap = holder_.Acquire();
  const size_t k =
      std::min<size_t>(std::max<uint32_t>(1, request.k), kMaxResponseTopK);

  Response response;
  response.type = ResponseType::kDiversified;
  DiverseResponse& s = response.diverse;
  s.epoch = snap->epoch;
  s.num_objects = snap->prepared.num_objects();
  s.num_candidates = snap->prepared.num_candidates();
  if (snap->prepared.num_candidates() == 0) return response;

  const query::DiversifiedResult result = query::SelectDiversified(
      snap->prepared, k, request.min_separation, options_.solve_threads);
  s.gain_evaluations = static_cast<uint64_t>(result.gain_evaluations);
  s.solve_seconds = result.solve_seconds;
  s.selected.reserve(result.selected.size());
  for (size_t i = 0; i < result.selected.size(); ++i) {
    s.selected.push_back({result.selected[i], result.coverage[i]});
  }
  return response;
}

namespace {

// Fills a kStream response from the engine; caller holds the stream lock.
Response MakeStreamResponse(const StreamingPrimeLS& stream, uint64_t applied) {
  Response response;
  response.type = ResponseType::kStream;
  StreamResponse& s = response.stream;
  s.now = stream.now();
  s.live_objects = stream.NumLiveObjects();
  s.live_positions = stream.NumLivePositions();
  s.applied = applied;
  const auto best = stream.Best();
  s.has_best = best.has_value();
  if (best.has_value()) {
    s.best_candidate = static_cast<uint32_t>(best->first);
    s.best_influence = best->second;
  }
  return response;
}

}  // namespace

Response InfluenceService::DoObserve(const ObserveRequest& request) {
  if (stream_ == nullptr) {
    error_responses_.fetch_add(1, std::memory_order_relaxed);
    return MakeError(ErrorCode::kBadRequest,
                     "streaming disabled (server started without a window)");
  }
  std::lock_guard<std::mutex> lock(stream_mu_);
  // Validate the whole batch before touching the engine: observations
  // must be non-decreasing in time, starting no earlier than the stream
  // clock. A rejected batch applies nothing (all-or-nothing), and the
  // engine's own monotonicity check stays unreachable from the wire.
  double last = stream_->now();
  for (const Observation& o : request.observations) {
    if (!(o.time >= last)) {
      error_responses_.fetch_add(1, std::memory_order_relaxed);
      return MakeError(ErrorCode::kBadRequest,
                       "observation times must be non-decreasing and >= "
                       "the stream clock");
    }
    last = o.time;
  }
  for (const Observation& o : request.observations) {
    stream_->Observe(o.object_id, o.time, o.position);
  }
  const auto applied =
      static_cast<uint64_t>(request.observations.size());
  stream_observations_.fetch_add(applied, std::memory_order_relaxed);
  return MakeStreamResponse(*stream_, applied);
}

Response InfluenceService::DoAdvance(const AdvanceRequest& request) {
  if (stream_ == nullptr) {
    error_responses_.fetch_add(1, std::memory_order_relaxed);
    return MakeError(ErrorCode::kBadRequest,
                     "streaming disabled (server started without a window)");
  }
  std::lock_guard<std::mutex> lock(stream_mu_);
  if (!(request.time >= stream_->now())) {
    error_responses_.fetch_add(1, std::memory_order_relaxed);
    return MakeError(ErrorCode::kBadRequest,
                     "advance time must be >= the stream clock");
  }
  stream_->AdvanceTo(request.time);
  return MakeStreamResponse(*stream_, /*applied=*/0);
}

void InfluenceService::DrainUpdates() {
  std::unique_lock<std::mutex> lock(update_mu_);
  drained_cv_.wait(lock, [this] {
    return pending_updates_.empty() && !rebuild_in_progress_;
  });
}

void InfluenceService::RebuildLoop() {
  for (;;) {
    std::vector<UpdateRequest> batch;
    {
      std::unique_lock<std::mutex> lock(update_mu_);
      update_cv_.wait(lock,
                      [this] { return stopping_ || !pending_updates_.empty(); });
      if (pending_updates_.empty()) {
        // stopping_ with an empty queue: drained, exit.
        drained_cv_.notify_all();
        return;
      }
      batch.swap(pending_updates_);
      rebuild_in_progress_ = true;
    }

    // Build the next snapshot entirely off to the side: readers keep
    // serving the current epoch until the single Publish() below.
    const SnapshotPtr current = holder_.Acquire();
    ProblemInstance next = current->instance;
    for (const UpdateRequest& update : batch) {
      for (const UpdateObject& o : update.objects) {
        next.objects.push_back({o.object_id, o.positions});
      }
      next.candidates.insert(next.candidates.end(),
                             update.candidates.begin(),
                             update.candidates.end());
    }
    auto snapshot = std::make_shared<const ServerSnapshot>(
        current->epoch + 1, std::move(next), current->prepared.config());
    holder_.Publish(snapshot);
    swaps_.fetch_add(1, std::memory_order_relaxed);

    {
      std::lock_guard<std::mutex> lock(update_mu_);
      rebuild_in_progress_ = false;
    }
    drained_cv_.notify_all();
  }
}

}  // namespace serve
}  // namespace pinocchio
