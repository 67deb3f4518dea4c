// Incremental PRIME-LS over sliding position windows — the dynamic
// scenario the paper leaves to future work (Section 7), as the streaming
// engine (streaming.h) drives it. Objects are born by their first
// position, grow by appending their newest position and shrink by
// expiring their oldest; an object whose last position expires leaves.
// The candidate set is fixed and indexed once by a bulk-loaded R-tree.
//
// Each position-level delta keeps, per object:
//   * the exact MBR under FIFO position churn via monotonic min/max
//     deques (O(1) amortized per delta),
//   * a *watch set* of candidates that could possibly be influenced — a
//     superset of the non-NIB candidates at a padded certificate
//     (mbr, radius) so the R-tree is re-queried only when the object
//     outgrows the pad (and once at birth, over an empty watch set), and
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
#include <optional>
#include <set>
#include <span>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/solver.h"
#include "geo/mbr.h"
#include "index/rtree.h"
#include "prob/influence_kernel.h"
#include "prob/probability_function.h"

namespace pinocchio {

/// Maintains exact inf(c) of a fixed candidate set over objects whose
/// position windows slide. Best()/TopK() read a maintained ordered
/// structure (influence desc, index asc) that every counter change keeps
/// in step — O(log m) per touched candidate, O(k) per query.
class IncrementalPrimeLS {
 public:
  /// `config.pf` and `config.tau` fix the influence semantics for the
  /// lifetime of the structure (changing tau invalidates every cached
  /// radius, which is exactly a rebuild).
  IncrementalPrimeLS(std::vector<Point> candidates, SolverConfig config);

  /// Appends one position to `object_id`'s window (creating the object if
  /// it is not live), updating influence counters through the object's
  /// watch set only. Returns the object's in-window position count after
  /// the append.
  size_t AppendPosition(uint32_t object_id, const Point& position);

  /// Expires `object_id`'s oldest in-window position (FIFO). An object
  /// whose last position expires leaves the structure entirely. Returns
  /// false if the object is unknown.
  bool ExpireOldestPosition(uint32_t object_id);

  /// Exact inf(c) of a candidate.
  int64_t InfluenceOf(size_t candidate_index) const;

  /// Current optimum: (candidate index, influence). Nullopt when there is
  /// no candidate. O(1): reads the maintained order.
  std::optional<std::pair<size_t, int64_t>> Best() const;

  /// Exact top-k candidates by influence (ties by index). O(k).
  std::vector<std::pair<size_t, int64_t>> TopK(size_t k) const;

  size_t NumLiveObjects() const { return objects_.size(); }

  /// In-window positions of a live object (0 if unknown); the denominator
  /// of its minMaxRadius certificate.
  size_t NumPositionsOf(uint32_t object_id) const;

 private:
  /// One candidate tracked for an object: a certified bracket on the true
  /// sum of the scalar log-survival terms over the object's live
  /// finite-term positions, plus the count of positions whose
  /// per-position probability saturates (>= 1, each alone decides
  /// influence and would poison the log sum).
  struct WatchEntry {
    uint32_t candidate = 0;
    uint32_t certain = 0;
    Point location;  ///< the candidate's point, inlined for the hot loop
    double sum_lo = 0.0;
    double sum_hi = 0.0;
    bool influenced = false;
  };

  /// Delta-maintenance state of one live object.
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
    DeltaState delta;
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

  double RadiusFor(size_t n);

  /// Adjusts influence_[j] by `delta`, keeping the order structure in step.
  void BumpInfluence(uint32_t j, int64_t delta);

  std::span<const Point> WindowSpan(const LiveObject& live) const;

  /// Finishes one position delta on `live`, whose window and deques
  /// already include it (add) or exclude it (expire): refreshes the MBR
  /// and radius, folds `position`'s term into every watch entry and
  /// re-decides it, and rebuilds the watch set at birth or on pad escape.
  /// Returns the in-window position count.
  size_t ApplyDelta(LiveObject& live, const Point& position, bool add,
                    bool born, uint32_t object_id);
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
  std::vector<int64_t> influence_;
  std::set<std::pair<int64_t, uint32_t>, OrderCompare> order_;
  RTree rtree_;
  std::unordered_map<uint32_t, LiveObject> objects_;
  std::unordered_map<size_t, double> radius_by_n_;
  /// The (pf, tau) kernel that refines boundary-band brackets.
  InfluenceKernel kernel_;
  /// The certified influence/reject thresholds the watch brackets are
  /// compared against. The table is the SIMD filter's — the same
  /// machinery, used here purely for its scalar thresholds, so the bracket
  /// decisions and the vector filter share one proof.
  SimdInfluenceFilter delta_table_;
  bool self_check_ = false;
};

}  // namespace pinocchio

#endif  // PINOCCHIO_CORE_INCREMENTAL_H_
