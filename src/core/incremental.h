// Incremental PRIME-LS — the dynamic scenario the paper names as future
// work (Section 7): candidate locations, objects and their positions keep
// changing. This maintains exact influence counts under object insertion
// and removal, candidate insertion and retirement, and — for streaming —
// position-level deltas (append newest / expire oldest), reusing the
// IA/NIB pruning rules per update instead of re-solving from scratch.
//
// Delta maintenance (AppendPosition / ExpireOldestPosition) keeps, per
// object:
//   * the exact MBR under FIFO position churn via monotonic min/max
//     deques (O(1) amortized per delta),
//   * a *watch set* of candidates that could possibly be influenced — a
//     superset of the non-NIB candidates at a padded certificate
//     (mbr, radius) so the R-tree is re-queried only when the object
//     outgrows the pad, and
//   * per watched candidate a certified bracket [sum_lo, sum_hi] on the
//     true log-survival sum of the scalar per-position terms, updated by
//     outward-rounded interval arithmetic as positions arrive and expire.
//     The bracket decides influence through the same adjusted thresholds
//     the SIMD filter uses (influence_kernel_simd.h); brackets that
//     straddle the boundary band are refined by the exact scalar kernel,
//     so every count is bit-identical to a from-scratch batch solve.

#ifndef PINOCCHIO_CORE_INCREMENTAL_H_
#define PINOCCHIO_CORE_INCREMENTAL_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/moving_object.h"
#include "core/solver.h"
#include "index/rtree.h"
#include "prob/influence_kernel.h"
#include "prob/probability_function.h"

namespace pinocchio {

/// Maintains exact inf(c) for a dynamic set of objects and candidates.
///
/// Each live object caches which candidates it currently influences, so
/// removal is a pure counter update. Object insertion runs the IA/NIB
/// pruning rules against the candidate R-tree and validates only the
/// remnant set — the same work PINOCCHIO spends per object, but on demand.
/// Position-level deltas touch only the object's watch set (candidates
/// whose classification can flip), not the full candidate set.
///
/// Best()/TopK() read a maintained ordered structure (influence desc,
/// index asc) that every counter change keeps in step — O(log m) per
/// touched candidate, O(k) per query.
class IncrementalPrimeLS {
 public:
  /// `config.pf` and `config.tau` fix the influence semantics for the
  /// lifetime of the structure (changing tau invalidates every cached
  /// radius, which is exactly a rebuild).
  IncrementalPrimeLS(std::vector<Point> candidates, SolverConfig config);

  /// Inserts `object` (its id must be unused among live objects) and
  /// updates all influence counters. Returns the number of candidates the
  /// object influences.
  size_t AddObject(const MovingObject& object);

  /// Removes a live object by id; returns false if unknown.
  bool RemoveObject(uint32_t object_id);

  /// Replaces a live object's positions (the paper's dynamic scenario also
  /// lets positions change); equivalent to remove + re-add but keeps the
  /// id. Returns false if the object is unknown.
  bool UpdateObject(uint32_t object_id, std::vector<Point> positions);

  /// Appends one position to `object_id`'s window (creating the object if
  /// it is not live), updating influence counters by delta maintenance:
  /// only watched candidates are touched, never the full candidate set and
  /// never the object's full position history. Returns the object's
  /// in-window position count after the append.
  size_t AppendPosition(uint32_t object_id, const Point& position);

  /// Expires `object_id`'s oldest in-window position (FIFO). An object
  /// whose last position expires leaves the structure entirely. Returns
  /// false if the object is unknown.
  bool ExpireOldestPosition(uint32_t object_id);

  /// Adds a candidate location; returns its index. Its influence over all
  /// live objects is computed immediately.
  size_t AddCandidate(const Point& location);

  /// Retires a candidate (its slot stays allocated but it no longer
  /// participates in queries); returns false if already retired or out of
  /// range.
  bool RetireCandidate(size_t candidate_index);

  /// Exact inf(c) of a live candidate (0 for retired slots).
  int64_t InfluenceOf(size_t candidate_index) const;

  /// Current optimum: (candidate index, influence). Nullopt when no live
  /// candidate exists. O(1): reads the maintained order.
  std::optional<std::pair<size_t, int64_t>> Best() const;

  /// Exact top-k live candidates by influence (ties by index). O(k).
  std::vector<std::pair<size_t, int64_t>> TopK(size_t k) const;

  size_t NumLiveObjects() const { return objects_.size(); }
  size_t NumLiveCandidates() const { return live_candidates_; }

  /// In-window positions of a live object (0 if unknown); the denominator
  /// of its minMaxRadius certificate.
  size_t NumPositionsOf(uint32_t object_id) const;

 private:
  /// One candidate the delta path tracks for an object: a certified
  /// bracket on the true sum of the scalar log-survival terms over the
  /// object's live finite-term positions, plus the count of positions
  /// whose per-position probability saturates (>= 1, each alone decides
  /// influence and would poison the log sum).
  struct WatchEntry {
    uint32_t candidate = 0;
    uint32_t certain = 0;
    Point location;  ///< candidates_[candidate], inlined for the hot loop
    double sum_lo = 0.0;
    double sum_hi = 0.0;
    bool influenced = false;
  };

  /// Delta-maintenance state, built lazily on the first position-level op.
  struct DeltaState {
    /// positions[head..] is the live window in arrival order; the prefix
    /// [0, head) is expired garbage compacted away periodically.
    size_t head = 0;
    /// Sequence number of positions[head]; keys the monotonic deques.
    uint64_t base_seq = 0;
    uint64_t next_seq = 0;
    /// Monotonic (seq, coordinate) deques: fronts are the exact MBR.
    std::deque<std::pair<uint64_t, double>> min_x, max_x, min_y, max_y;
    std::vector<WatchEntry> watch;
    /// The watch set is valid while the object stays inside this padded
    /// certificate: minMaxRadius at most `pad_radius` and MBR growth over
    /// `pad_mbr` of at most `pad_slack` per side (see RebuildWatch).
    Mbr pad_mbr;
    double pad_radius = 0.0;
    double pad_slack = 0.0;
  };

  struct LiveObject {
    std::vector<Point> positions;
    double min_max_radius = 0.0;
    Mbr mbr;
    /// Candidate indices this object currently influences. Authoritative
    /// for batch-maintained objects; superseded by the watch entries'
    /// `influenced` flags once `delta` exists.
    std::vector<uint32_t> influenced;
    std::unique_ptr<DeltaState> delta;
  };

  /// Ordered (influence desc, candidate index asc) — Best() is begin(),
  /// TopK(k) the first k. Matches the tie order of a stable sort by
  /// descending influence over ascending indices.
  struct OrderCompare {
    bool operator()(const std::pair<int64_t, uint32_t>& a,
                    const std::pair<int64_t, uint32_t>& b) const {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    }
  };

  /// Computes the live candidates influenced by (positions, mbr, radius)
  /// through the shared prune-and-validate pass (IA certificates, NIB
  /// exclusion, batch validation of the remnant).
  std::vector<uint32_t> InfluencedCandidates(std::span<const Point> positions,
                                             const Mbr& mbr,
                                             double radius) const;

  double RadiusFor(size_t n);

  /// Adjusts influence_[j] by `delta`, keeping the order structure in step.
  void BumpInfluence(uint32_t j, int64_t delta);

  /// Subtracts the object's contribution from every influence counter
  /// (watch flags when delta state exists, the cached list otherwise).
  void RemoveContributions(const LiveObject& live);

  std::span<const Point> WindowSpan(const LiveObject& live) const;

  /// Lazily constructs the threshold table the delta path uses.
  void EnsureDeltaTable();
  /// Lazily converts a batch-maintained object to delta maintenance.
  void EnsureDelta(LiveObject& live);
  /// Recomputes the watch set against the R-tree at a freshly padded
  /// certificate. Entrants get a full-fold bracket and a decision;
  /// leavers must be (and are checked to be) uninfluenced.
  void RebuildWatch(LiveObject& live);
  /// Recomputes `entry`'s bracket by an outward-rounded fold over `span`.
  void RefoldEntry(WatchEntry& entry, std::span<const Point> span) const;
  /// Decides `entry` from its bracket, refining through the exact scalar
  /// kernel when the bracket straddles the boundary band; updates the
  /// influence counter on a flip.
  void DecideEntry(WatchEntry& entry, const LiveObject& live);

  SolverConfig config_;
  std::vector<Point> candidates_;
  std::vector<bool> active_;
  size_t live_candidates_ = 0;
  std::vector<int64_t> influence_;
  std::set<std::pair<int64_t, uint32_t>, OrderCompare> order_;
  RTree rtree_;
  std::unordered_map<uint32_t, LiveObject> objects_;
  std::unordered_map<size_t, double> radius_by_n_;
  /// The (pf, tau) kernel of every validation — object insertion's
  /// prune-and-validate pass and the delta path's boundary refinements —
  /// built once with the structure.
  InfluenceKernel kernel_;
  /// Delta-path threshold table, built on first use: the certified
  /// influence/reject thresholds the watch brackets are compared against.
  /// The table is the SIMD filter's — the same machinery, used here purely
  /// for its scalar thresholds, so the bracket decisions and the vector
  /// filter share one proof.
  std::shared_ptr<const SimdInfluenceFilter> delta_table_;
  bool self_check_ = false;
};

}  // namespace pinocchio

#endif  // PINOCCHIO_CORE_INCREMENTAL_H_
