// The serving layer's wire protocol: a standalone, socket-free codec.
//
// Frames are length-prefixed binary, little-endian throughout:
//
//   +-----------+-----------+---------+-------------------+
//   | u32 len   | u8 version| u8 type | payload (len - 2) |
//   +-----------+-----------+---------+-------------------+
//
// `len` counts everything after itself (version byte, type byte and
// payload) and is capped at kMaxFrameBody; oversized, truncated or
// garbage frames are rejected with a decode error, never undefined
// behaviour. All integers are fixed-width little-endian; doubles are
// IEEE-754 bit patterns (memcpy'd), so encode/decode round-trips are
// bit-identical — the differential harness and the protocol tests rely
// on that.
//
// Every payload struct below is described once, by its `Fields(v, m)`
// list: the fields in wire order, each handed to a visitor as
// `v("name", m.field)`. That list alone drives encode, decode, the wire
// checks, the fuzz driver's random messages and the JSON/text renderer
// (serve/render.h). A field's C++ type is its wire kind:
//
//   bool, enum          1 byte, must be <= WireMax (1 for a bool)
//   uint32/uint64/int64 4/8/8 bytes
//   double              8 bytes; must be finite in a request
//   std::string         u32 length + bytes, at most kMaxErrorMessage
//   std::vector<T>      u32 count + elements; a count the remaining bytes
//                       cannot hold (count * the fewest bytes a T takes)
//                       is rejected before allocating
//   struct              its own field list, then its WireCheck
//
// kRequestOps / kResponseOps map each type byte to its name and to the
// Request/Response member carrying its payload.
//
// This layer deliberately knows nothing about sockets: `EncodeRequest`/
// `DecodeRequest` (and the response counterparts) translate between
// structs and byte vectors, and `FrameAssembler` turns an arbitrary byte
// stream into whole frames. src/serve/server.cc and client.cc feed it
// from file descriptors; the tests and the fuzz driver feed it from
// buffers.

#ifndef PINOCCHIO_SERVE_PROTOCOL_H_
#define PINOCCHIO_SERVE_PROTOCOL_H_

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "geo/point.h"

namespace pinocchio {
namespace serve {

/// Protocol version carried in every frame; bumped on breaking changes.
/// v2: StatsResponse gained solve_threads / solve_busy_seconds.
/// v3: solve rankings carry a per-entry `exact` flag; new skyline and
///     diversified query families; StatsResponse gained
///     skyline_requests / diverse_requests.
/// v4: streaming ingestion — kObserve (batched timestamped positions)
///     and kAdvance requests answered by kStream; StatsResponse gained
///     the stream_* / observe / advance counters.
/// v5: approximate tier — kApproxTopK (k, epsilon, delta, seed) answered
///     by kApprox (entries flagged approximate with certified [lo, hi]
///     influence brackets); StatsResponse gained approx_requests.
inline constexpr uint8_t kProtocolVersion = 5;

/// Upper bound on the frame body (version + type + payload) in bytes.
/// Large enough for a multi-thousand-entry ranking or a bulk update,
/// small enough that a hostile length prefix cannot balloon memory.
inline constexpr uint32_t kMaxFrameBody = 4u << 20;  // 4 MiB

/// Longest string field (the error message) a frame may carry; the
/// encoder truncates to it and the decoder rejects anything longer.
inline constexpr size_t kMaxErrorMessage = 4096;

/// Largest value of a one-byte field; each wire enum declares its own.
constexpr bool WireMax(bool) { return true; }

/// `M` is `T` or `const T`: one field list serves readers and writers.
template <typename M, typename T>
concept WireView = std::same_as<std::remove_const_t<M>, T>;

template <typename V, WireView<Point> M>
constexpr void Fields(V&& v, M& m) {
  v("x", m.x);
  v("y", m.y);
}

// --------------------------------------------------------------- requests

enum class RequestType : uint8_t {
  kSolve = 1,   // full solve under the snapshot's prepared config
  kTopK = 2,    // top-k ranking with the default algorithm
  kProbe = 3,   // single-candidate influence probe at an arbitrary point
  kWhatIf = 4,  // solve under altered (tau, rho, lambda) via Reprepare
  kUpdate = 5,  // append objects/candidates; triggers rebuild + swap
  kStats = 6,   // server/service statistics
  kSkyline = 7,      // influence/cost skyline over all candidates
  kDiversified = 8,  // greedy diversified top-k with min separation
  kObserve = 9,  // batched timestamped observations into the stream window
  kAdvance = 10,  // advance the stream clock, expiring old observations
  kApproxTopK = 11,  // top-k under an accuracy contract, answered exactly
};

/// Wire ids of the solvers a SolveRequest may name.
enum class WireAlgorithm : uint8_t {
  kPinVO = 0,
  kPin = 1,
  kNaive = 2,
};
constexpr WireAlgorithm WireMax(WireAlgorithm) { return WireAlgorithm::kNaive; }

struct SolveRequest {
  WireAlgorithm algorithm = WireAlgorithm::kPinVO;
  /// Number of (candidate, influence) pairs wanted in the response.
  uint32_t top_k = 1;
  bool operator==(const SolveRequest&) const = default;
};
template <typename V, WireView<SolveRequest> M>
constexpr void Fields(V&& v, M& m) {
  v("algorithm", m.algorithm);
  v("top_k", m.top_k);
}

struct TopKRequest {
  uint32_t k = 1;
  bool operator==(const TopKRequest&) const = default;
};
template <typename V, WireView<TopKRequest> M>
constexpr void Fields(V&& v, M& m) { v("k", m.k); }

struct ProbeRequest {
  Point location{0.0, 0.0};
  bool operator==(const ProbeRequest&) const = default;
};
template <typename V, WireView<ProbeRequest> M>
constexpr void Fields(V&& v, M& m) { v("location", m.location); }

struct WhatIfRequest {
  double tau = 0.7;
  double rho = 0.9;
  double lambda = 1.0;
  uint32_t top_k = 1;
  bool operator==(const WhatIfRequest&) const = default;
};
template <typename V, WireView<WhatIfRequest> M>
constexpr void Fields(V&& v, M& m) {
  v("tau", m.tau);
  v("rho", m.rho);
  v("lambda", m.lambda);
  v("top_k", m.top_k);
}

/// One appended object: an id plus its sampled positions.
struct UpdateObject {
  uint32_t object_id = 0;
  std::vector<Point> positions;
  bool operator==(const UpdateObject&) const = default;
};
template <typename V, WireView<UpdateObject> M>
constexpr void Fields(V&& v, M& m) {
  v("object_id", m.object_id);
  v("positions", m.positions);
}

struct UpdateRequest {
  std::vector<UpdateObject> objects;
  std::vector<Point> candidates;
  bool operator==(const UpdateRequest&) const = default;
};
template <typename V, WireView<UpdateRequest> M>
constexpr void Fields(V&& v, M& m) {
  v("objects", m.objects);
  v("candidates", m.candidates);
}

struct StatsRequest {
  bool operator==(const StatsRequest&) const = default;
};
template <typename V, WireView<StatsRequest> M>
constexpr void Fields(V&&, M&) {}

/// Influence/cost skyline: cost(c) is the distance from candidate c to
/// `cost_origin` (e.g. a depot or a landmark the deployer must reach).
struct SkylineRequest {
  Point cost_origin{0.0, 0.0};
  bool operator==(const SkylineRequest&) const = default;
};
template <typename V, WireView<SkylineRequest> M>
constexpr void Fields(V&& v, M& m) { v("cost_origin", m.cost_origin); }

/// Greedy diversified top-k: maximise marginal influence coverage subject
/// to every pair of selected candidates being >= min_separation apart.
/// min_separation 0 reduces to plain multi-facility selection.
struct DiversifiedRequest {
  uint32_t k = 1;
  double min_separation = 0.0;
  bool operator==(const DiversifiedRequest&) const = default;
};
template <typename V, WireView<DiversifiedRequest> M>
constexpr void Fields(V&& v, M& m) {
  v("k", m.k);
  v("min_separation", m.min_separation);
}

/// One timestamped position observation for the streaming engine.
struct Observation {
  uint32_t object_id = 0;
  double time = 0.0;
  Point position{0.0, 0.0};
  bool operator==(const Observation&) const = default;
};
template <typename V, WireView<Observation> M>
constexpr void Fields(V&& v, M& m) {
  v("object_id", m.object_id);
  v("time", m.time);
  v("position", m.position);
}

/// A batch of observations applied in order. Batching is the staleness
/// lever: the stream state is exact as of the last applied observation,
/// so a client that batches N observations per frame trades N round
/// trips for a best answer that lags by at most one batch.
struct ObserveRequest {
  std::vector<Observation> observations;
  bool operator==(const ObserveRequest&) const = default;
};
template <typename V, WireView<ObserveRequest> M>
constexpr void Fields(V&& v, M& m) { v("observations", m.observations); }

/// Advances the stream clock without an observation (expiry only).
struct AdvanceRequest {
  double time = 0.0;
  bool operator==(const AdvanceRequest&) const = default;
};
template <typename V, WireView<AdvanceRequest> M>
constexpr void Fields(V&& v, M& m) { v("time", m.time); }

/// Top-k under an accuracy contract: additive error epsilon on a
/// verification set's influenced fraction, per-candidate failure
/// probability delta, sampling seed. Epsilon in (0, 1], delta in (0, 1).
/// The service answers exactly from the snapshot's exact pass, which
/// meets every contract, so the seed picks nothing and equal requests
/// against the same epoch return bit-identical answers.
struct ApproxTopKRequest {
  uint32_t k = 1;
  double epsilon = 0.05;
  double delta = 0.01;
  uint64_t seed = 0;
  bool operator==(const ApproxTopKRequest&) const = default;
};
template <typename V, WireView<ApproxTopKRequest> M>
constexpr void Fields(V&& v, M& m) {
  v("k", m.k);
  v("epsilon", m.epsilon);
  v("delta", m.delta);
  v("seed", m.seed);
}

/// A decoded request: `type` selects which member is meaningful.
struct Request {
  RequestType type = RequestType::kStats;
  SolveRequest solve;
  TopKRequest top_k;
  ProbeRequest probe;
  WhatIfRequest what_if;
  UpdateRequest update;
  SkylineRequest skyline;
  DiversifiedRequest diversified;
  ObserveRequest observe;
  AdvanceRequest advance;
  ApproxTopKRequest approx;
  /// Empty; present so that every request type names its payload member.
  StatsRequest stats;
  bool operator==(const Request&) const = default;
};

// -------------------------------------------------------------- responses

enum class ResponseType : uint8_t {
  kError = 0,
  kSolve = 1,  // also answers kTopK and kWhatIf
  kProbe = 3,
  kUpdate = 5,
  kStats = 6,
  kSkyline = 7,
  kDiversified = 8,
  kStream = 9,  // answers kObserve and kAdvance
  kApprox = 10,  // answers kApproxTopK
};

enum class ErrorCode : uint8_t {
  kNone = 0,
  kBadFrame = 1,
  kUnsupportedVersion = 2,
  kUnknownType = 3,
  kBadRequest = 4,
  kShuttingDown = 5,
  kInternal = 6,
};
constexpr ErrorCode WireMax(ErrorCode) { return ErrorCode::kInternal; }

struct ErrorResponse {
  ErrorCode code = ErrorCode::kInternal;
  std::string message;
  bool operator==(const ErrorResponse&) const = default;
};
template <typename V, WireView<ErrorResponse> M>
constexpr void Fields(V&& v, M& m) {
  v("code", m.code);
  v("message", m.message);
}

struct RankedCandidate {
  uint32_t candidate = 0;
  int64_t influence = 0;
  /// True when `influence` is the exact influence of this candidate;
  /// false when it is only the VO solver's lower bound (candidates past
  /// the top-k prefix whose validation was cut off early).
  bool exact = true;
  bool operator==(const RankedCandidate&) const = default;
};
template <typename V, WireView<RankedCandidate> M>
constexpr void Fields(V&& v, M& m) {
  v("candidate", m.candidate);
  v("influence", m.influence);
  v("exact", m.exact);
}

/// Answer to kSolve / kTopK / kWhatIf. Every field is computed against
/// exactly one snapshot epoch; `epoch`, `num_objects` and
/// `num_candidates` let clients assert that consistency.
struct SolveResponse {
  uint64_t epoch = 0;
  uint64_t num_objects = 0;
  uint64_t num_candidates = 0;
  uint32_t best_candidate = 0;
  int64_t best_influence = 0;
  double solve_seconds = 0.0;
  std::vector<RankedCandidate> topk;
  bool operator==(const SolveResponse&) const = default;
};
template <typename V, WireView<SolveResponse> M>
constexpr void Fields(V&& v, M& m) {
  v("epoch", m.epoch);
  v("num_objects", m.num_objects);
  v("num_candidates", m.num_candidates);
  v("best_candidate", m.best_candidate);
  v("best_influence", m.best_influence);
  v("solve_seconds", m.solve_seconds);
  v("topk", m.topk);
}

struct ProbeResponse {
  uint64_t epoch = 0;
  uint64_t num_objects = 0;
  int64_t influence = 0;
  double solve_seconds = 0.0;
  bool operator==(const ProbeResponse&) const = default;
};
template <typename V, WireView<ProbeResponse> M>
constexpr void Fields(V&& v, M& m) {
  v("epoch", m.epoch);
  v("num_objects", m.num_objects);
  v("influence", m.influence);
  v("solve_seconds", m.solve_seconds);
}

/// One skyline member: not dominated on (influence desc, cost asc) by any
/// other candidate.
struct SkylineEntry {
  uint32_t candidate = 0;
  int64_t influence = 0;
  double cost = 0.0;
  bool operator==(const SkylineEntry&) const = default;
};
template <typename V, WireView<SkylineEntry> M>
constexpr void Fields(V&& v, M& m) {
  v("candidate", m.candidate);
  v("influence", m.influence);
  v("cost", m.cost);
}

/// Answer to kSkyline; members are sorted by (cost asc, candidate asc).
struct SkylineResponse {
  uint64_t epoch = 0;
  uint64_t num_objects = 0;
  uint64_t num_candidates = 0;
  /// Candidates eliminated by bound domination without exact validation.
  uint64_t bound_skipped = 0;
  double solve_seconds = 0.0;
  std::vector<SkylineEntry> skyline;
  bool operator==(const SkylineResponse&) const = default;
};
template <typename V, WireView<SkylineResponse> M>
constexpr void Fields(V&& v, M& m) {
  v("epoch", m.epoch);
  v("num_objects", m.num_objects);
  v("num_candidates", m.num_candidates);
  v("bound_skipped", m.bound_skipped);
  v("solve_seconds", m.solve_seconds);
  v("skyline", m.skyline);
}

/// One greedy pick: `coverage` is the union influence after this pick.
struct DiverseEntry {
  uint32_t candidate = 0;
  int64_t coverage = 0;
  bool operator==(const DiverseEntry&) const = default;
};
template <typename V, WireView<DiverseEntry> M>
constexpr void Fields(V&& v, M& m) {
  v("candidate", m.candidate);
  v("coverage", m.coverage);
}

/// Answer to kDiversified; entries are in selection order.
struct DiverseResponse {
  uint64_t epoch = 0;
  uint64_t num_objects = 0;
  uint64_t num_candidates = 0;
  uint64_t gain_evaluations = 0;
  double solve_seconds = 0.0;
  std::vector<DiverseEntry> selected;
  bool operator==(const DiverseResponse&) const = default;
};
template <typename V, WireView<DiverseResponse> M>
constexpr void Fields(V&& v, M& m) {
  v("epoch", m.epoch);
  v("num_objects", m.num_objects);
  v("num_candidates", m.num_candidates);
  v("gain_evaluations", m.gain_evaluations);
  v("solve_seconds", m.solve_seconds);
  v("selected", m.selected);
}

/// Answer to kObserve / kAdvance: the stream state exactly as of the last
/// applied observation (or the advanced clock).
struct StreamResponse {
  /// Stream clock after the request; the window is [now - W, now].
  double now = 0.0;
  uint64_t live_objects = 0;
  uint64_t live_positions = 0;
  /// Observations applied by this request (all-or-nothing: a rejected
  /// batch applies none and returns kError instead).
  uint64_t applied = 0;
  bool has_best = false;
  uint32_t best_candidate = 0;
  int64_t best_influence = 0;
  bool operator==(const StreamResponse&) const = default;
};
template <typename V, WireView<StreamResponse> M>
constexpr void Fields(V&& v, M& m) {
  v("now", m.now);
  v("live_objects", m.live_objects);
  v("live_positions", m.live_positions);
  v("applied", m.applied);
  v("has_best", m.has_best);
  v("best_candidate", m.best_candidate);
  v("best_influence", m.best_influence);
}

/// One approx ranking entry: `estimate` within the influence bracket
/// [lo, hi], and `exact` set when the bracket is degenerate at the exact
/// influence. The service's entries are all exact.
struct ApproxRankedCandidate {
  uint32_t candidate = 0;
  int64_t estimate = 0;
  int64_t lo = 0;
  int64_t hi = 0;
  bool exact = false;
  bool operator==(const ApproxRankedCandidate&) const = default;
};
template <typename V, WireView<ApproxRankedCandidate> M>
constexpr void Fields(V&& v, M& m) {
  v("candidate", m.candidate);
  v("estimate", m.estimate);
  v("lo", m.lo);
  v("hi", m.hi);
  v("exact", m.exact);
}

/// Answer to kApproxTopK; entries are estimate-descending.
struct ApproxResponse {
  uint64_t epoch = 0;
  uint64_t num_objects = 0;
  uint64_t num_candidates = 0;
  double solve_seconds = 0.0;
  std::vector<ApproxRankedCandidate> entries;
  bool operator==(const ApproxResponse&) const = default;
};
template <typename V, WireView<ApproxResponse> M>
constexpr void Fields(V&& v, M& m) {
  v("epoch", m.epoch);
  v("num_objects", m.num_objects);
  v("num_candidates", m.num_candidates);
  v("solve_seconds", m.solve_seconds);
  v("entries", m.entries);
}

struct UpdateResponse {
  /// Epoch current when the update was accepted; the rebuilt snapshot
  /// will carry a strictly larger epoch.
  uint64_t epoch = 0;
  /// Updates queued behind this one (including it) at accept time.
  uint64_t pending_updates = 0;
  bool accepted = false;
  bool operator==(const UpdateResponse&) const = default;
};
template <typename V, WireView<UpdateResponse> M>
constexpr void Fields(V&& v, M& m) {
  v("epoch", m.epoch);
  v("pending_updates", m.pending_updates);
  v("accepted", m.accepted);
}

struct StatsResponse {
  uint64_t epoch = 0;
  uint64_t num_objects = 0;
  uint64_t num_candidates = 0;
  uint64_t snapshot_swaps = 0;
  uint64_t pending_updates = 0;
  uint64_t solve_requests = 0;
  uint64_t topk_requests = 0;
  uint64_t probe_requests = 0;
  uint64_t whatif_requests = 0;
  uint64_t update_requests = 0;
  uint64_t stats_requests = 0;
  uint64_t skyline_requests = 0;
  uint64_t diverse_requests = 0;
  uint64_t error_responses = 0;
  double uptime_seconds = 0.0;
  /// Solve-thread budget the service runs the morsel engine with.
  uint64_t solve_threads = 0;
  /// Process-wide morsel-engine worker busy time; utilisation is
  /// solve_busy_seconds / (uptime_seconds * solve_threads).
  double solve_busy_seconds = 0.0;
  // ---- streaming (v4): all zero when the server runs without a window.
  uint64_t observe_requests = 0;
  uint64_t advance_requests = 0;
  /// Observations applied into the stream window since startup.
  uint64_t stream_observations = 0;
  uint64_t stream_live_objects = 0;
  uint64_t stream_live_positions = 0;
  /// Configured window width; 0 means streaming is disabled.
  double stream_window_seconds = 0.0;
  // ---- approximate tier (v5).
  uint64_t approx_requests = 0;
  bool operator==(const StatsResponse&) const = default;
};
template <typename V, WireView<StatsResponse> M>
constexpr void Fields(V&& v, M& m) {
  v("epoch", m.epoch);
  v("num_objects", m.num_objects);
  v("num_candidates", m.num_candidates);
  v("snapshot_swaps", m.snapshot_swaps);
  v("pending_updates", m.pending_updates);
  v("solve_requests", m.solve_requests);
  v("topk_requests", m.topk_requests);
  v("probe_requests", m.probe_requests);
  v("whatif_requests", m.whatif_requests);
  v("update_requests", m.update_requests);
  v("stats_requests", m.stats_requests);
  v("skyline_requests", m.skyline_requests);
  v("diverse_requests", m.diverse_requests);
  v("error_responses", m.error_responses);
  v("uptime_seconds", m.uptime_seconds);
  v("solve_threads", m.solve_threads);
  v("solve_busy_seconds", m.solve_busy_seconds);
  v("observe_requests", m.observe_requests);
  v("advance_requests", m.advance_requests);
  v("stream_observations", m.stream_observations);
  v("stream_live_objects", m.stream_live_objects);
  v("stream_live_positions", m.stream_live_positions);
  v("stream_window_seconds", m.stream_window_seconds);
  v("approx_requests", m.approx_requests);
}

struct Response {
  ResponseType type = ResponseType::kError;
  ErrorResponse error;
  SolveResponse solve;
  ProbeResponse probe;
  UpdateResponse update;
  StatsResponse stats;
  SkylineResponse skyline;
  DiverseResponse diverse;
  StreamResponse stream;
  ApproxResponse approx;
  bool operator==(const Response&) const = default;
};

// ------------------------------------------------------------ wire checks

/// The checks a message needs beyond its field kinds: returns why `m`
/// cannot go on the wire, or nullptr when it can. The decoder runs the
/// check of every struct it decodes, nested elements included.
template <typename M>
const char* WireCheck(const M&) {
  return nullptr;
}
/// epsilon in (0, 1], delta in (0, 1).
const char* WireCheck(const ApproxTopKRequest& m);
/// lo <= estimate <= hi.
const char* WireCheck(const ApproxRankedCandidate& m);

/// True for std::vector<T>, the field kind sent as a count + elements.
template <typename T>
inline constexpr bool kIsVector = false;
template <typename T>
inline constexpr bool kIsVector<std::vector<T>> = true;

// -------------------------------------------------------------- op tables

/// One request type: its wire id, its name, the Request member carrying
/// its payload and the StatsResponse counter of requests served.
template <typename Payload>
struct RequestOp {
  RequestType type;
  const char* name;
  Payload Request::*member;
  uint64_t StatsResponse::*counter;
};

/// One response type: its wire id, its name and the Response member
/// carrying its payload.
template <typename Payload>
struct ResponseOp {
  ResponseType type;
  const char* name;
  Payload Response::*member;
};

inline constexpr std::tuple kRequestOps{
    RequestOp{RequestType::kSolve, "solve", &Request::solve,
              &StatsResponse::solve_requests},
    RequestOp{RequestType::kTopK, "topk", &Request::top_k,
              &StatsResponse::topk_requests},
    RequestOp{RequestType::kProbe, "probe", &Request::probe,
              &StatsResponse::probe_requests},
    RequestOp{RequestType::kWhatIf, "whatif", &Request::what_if,
              &StatsResponse::whatif_requests},
    RequestOp{RequestType::kUpdate, "update", &Request::update,
              &StatsResponse::update_requests},
    RequestOp{RequestType::kStats, "stats", &Request::stats,
              &StatsResponse::stats_requests},
    RequestOp{RequestType::kSkyline, "skyline", &Request::skyline,
              &StatsResponse::skyline_requests},
    RequestOp{RequestType::kDiversified, "diverse", &Request::diversified,
              &StatsResponse::diverse_requests},
    RequestOp{RequestType::kObserve, "observe", &Request::observe,
              &StatsResponse::observe_requests},
    RequestOp{RequestType::kAdvance, "advance", &Request::advance,
              &StatsResponse::advance_requests},
    RequestOp{RequestType::kApproxTopK, "approx-topk", &Request::approx,
              &StatsResponse::approx_requests},
};

inline constexpr std::tuple kResponseOps{
    ResponseOp{ResponseType::kError, "error", &Response::error},
    ResponseOp{ResponseType::kSolve, "solve", &Response::solve},
    ResponseOp{ResponseType::kProbe, "probe", &Response::probe},
    ResponseOp{ResponseType::kUpdate, "update", &Response::update},
    ResponseOp{ResponseType::kStats, "stats", &Response::stats},
    ResponseOp{ResponseType::kSkyline, "skyline", &Response::skyline},
    ResponseOp{ResponseType::kDiversified, "diverse", &Response::diverse},
    ResponseOp{ResponseType::kStream, "stream", &Response::stream},
    ResponseOp{ResponseType::kApprox, "approx", &Response::approx},
};

inline constexpr size_t kNumRequestOps =
    std::tuple_size_v<decltype(kRequestOps)>;

/// Calls `f(op, index)` on every row of an op table, in table order.
template <typename Table, typename F>
void ForEachOp(const Table& table, F&& f) {
  std::apply([&f](const auto&... op) {
    size_t index = 0;
    (f(op, index++), ...);
  }, table);
}

/// Calls `f(op, index)` on the row whose type is `type`; returns false
/// when no row matches (a type byte the protocol does not define).
template <typename Table, typename Type, typename F>
bool VisitOp(const Table& table, Type type, F&& f) {
  bool found = false;
  ForEachOp(table, [&](const auto& op, size_t index) {
    if (op.type != type) return;
    f(op, index);
    found = true;
  });
  return found;
}

// ------------------------------------------------------------------ codec

/// Serialises a request/response into one whole frame (length prefix
/// included), ready to write to a stream.
std::vector<uint8_t> EncodeRequest(const Request& request);
std::vector<uint8_t> EncodeResponse(const Response& response);

/// Decodes one frame *body* (the bytes after the length prefix: version,
/// type, payload). Returns nullopt — with a human-readable reason in
/// `*error` when non-null — on any malformed input: wrong version,
/// unknown type, truncated or over-long payload, or a field that fails
/// its kind's check or its message's WireCheck. Never reads out of
/// bounds and never throws.
std::optional<Request> DecodeRequest(std::span<const uint8_t> body,
                                     std::string* error = nullptr);
std::optional<Response> DecodeResponse(std::span<const uint8_t> body,
                                       std::string* error = nullptr);

/// Incremental frame splitter for a byte stream. Feed arbitrary chunks
/// with Append(); NextFrame() yields complete frame bodies in order.
/// A length prefix above kMaxFrameBody poisons the stream (the
/// connection must be dropped — resynchronisation is impossible).
class FrameAssembler {
 public:
  /// Appends raw bytes received from the peer.
  void Append(std::span<const uint8_t> data);

  /// Pops the next complete frame body, or nullopt when more bytes are
  /// needed (or the stream is poisoned).
  std::optional<std::vector<uint8_t>> NextFrame();

  /// True once an oversized length prefix has been seen.
  bool poisoned() const { return poisoned_; }

  /// Bytes buffered but not yet returned as frames.
  size_t buffered_bytes() const { return buffer_.size() - read_; }

 private:
  // Unread bytes are buffer_[read_, size); NextFrame compacts once the
  // consumed prefix passes half the buffer.
  std::vector<uint8_t> buffer_;
  size_t read_ = 0;
  bool poisoned_ = false;
};

/// Human-readable names for logs and the client CLI ("?" when unknown).
const char* RequestTypeName(RequestType type);
const char* ResponseTypeName(ResponseType type);
const char* ErrorCodeName(ErrorCode code);
const char* WireAlgorithmName(WireAlgorithm algorithm);

}  // namespace serve
}  // namespace pinocchio

#endif  // PINOCCHIO_SERVE_PROTOCOL_H_
