// Streaming PRIME-LS over a sliding time window — the continuous scenario
// the related-work section contrasts with (continuous RNN / continuous
// maximal RNN, Section 2.2) and the dynamic setting of Section 7, built on
// top of IncrementalPrimeLS.
//
// Timestamped position observations arrive in non-decreasing time order;
// only observations within the trailing `window_seconds` count towards an
// object's position set. The window is the CLOSED interval
// [now - window_seconds, now]: an observation timestamped exactly
// now - window_seconds is still live and expires only once `now` advances
// strictly past timestamp + window_seconds. The engine maintains exact
// influence counters for every candidate at all times: after any
// Observe()/AdvanceTo() call, the counters equal what a batch solver would
// compute on the window contents (positions with time >= now - window).
//
// Each observation flows into the inner index as a position-level delta (IncrementalPrimeLS::AppendPosition /
// ExpireOldestPosition), so per-observation work scales with the object's
// watch set, not its in-window position count. The inner index keeps the
// in-window positions; this class keeps only the expiry order.

#ifndef PINOCCHIO_CORE_STREAMING_H_
#define PINOCCHIO_CORE_STREAMING_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <limits>
#include <optional>
#include <vector>

#include "core/incremental.h"

namespace pinocchio {

/// Sliding-window PRIME-LS engine.
class StreamingPrimeLS {
 public:
  struct Options {
    SolverConfig config;
    /// Width of the trailing time window in seconds. The window is closed
    /// on both ends: observations with time >= now - window_seconds count.
    double window_seconds = 3600.0;
  };

  StreamingPrimeLS(std::vector<Point> candidates, Options options);

  /// Feeds one observation. `time` must be >= the largest time seen so
  /// far (enforced); expired observations leave the window immediately.
  void Observe(uint32_t object_id, double time, const Point& position);

  /// Advances the clock without an observation, expiring old positions.
  void AdvanceTo(double time);

  /// Invoked with (new best, current time) whenever the optimum — the
  /// winning candidate or its influence — changes as a result of an
  /// Observe()/AdvanceTo() call. The optimum is read from the inner
  /// index's maintained order (O(1)), so the callback is cheap enough for
  /// per-observation tracking.
  using BestChangedCallback = std::function<void(
      const std::optional<std::pair<size_t, int64_t>>& best, double now)>;
  void SetBestChangedCallback(BestChangedCallback callback);

  /// Exact inf(c) for the current window.
  int64_t InfluenceOf(size_t candidate_index) const;

  /// Current optimum (nullopt when no candidate or no live object).
  std::optional<std::pair<size_t, int64_t>> Best() const;

  /// Exact top-k candidates for the current window.
  std::vector<std::pair<size_t, int64_t>> TopK(size_t k) const;

  /// Objects with at least one in-window observation.
  size_t NumLiveObjects() const { return inner_.NumLiveObjects(); }

  /// In-window observations across all objects.
  size_t NumLivePositions() const { return live_positions_; }

  double now() const { return now_; }

 private:
  /// Rejects time travel: `time` must be >= now_. The first call passes
  /// trivially because now_ starts at -infinity.
  void RequireMonotonicTime(double time) const;

  void ExpireUntil(double time);
  void NotifyIfBestChanged();

  Options options_;
  IncrementalPrimeLS inner_;
  // Expiry queue: observation times are globally non-decreasing, so a FIFO
  // of (time, object) pairs drains in order.
  std::deque<std::pair<double, uint32_t>> expiry_;
  double now_ = -std::numeric_limits<double>::infinity();
  size_t live_positions_ = 0;
  BestChangedCallback best_changed_;
  std::optional<std::pair<size_t, int64_t>> last_reported_best_;
};

}  // namespace pinocchio

#endif  // PINOCCHIO_CORE_STREAMING_H_
