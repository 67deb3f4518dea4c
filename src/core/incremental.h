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
//     outgrows the pad (and once at birth, over an empty watch set). On
//     the served ingest instance the watch sets hold 91% of the
//     candidates, so there the pad does not bound per-observation work;
//     the per-entry cost of a delta does. And
//   * per watched candidate a *table bracket*: exact integer sums of the
//     SIMD filter's bound table on the fixed-point grid
//     (influence_kernel_simd.h, FilterTable::fixed). A delta costs one
//     table lookup per watched candidate and no pow, log1p, nextafter or
//     division; append and expire add and subtract the same integers, so
//     the bracket cancels exactly and never widens. Slots with a -inf
//     bound are counted, not summed: a -inf upper bound is a saturated
//     position, which decides the pair, and a -inf lower bound keeps the
//     table from rejecting it. The bracket is compared against the
//     filter's adjusted thresholds, computed once per delta, so the
//     stream and the vector filter share one proof.
//
// Where the table bracket straddles a threshold, the entry opens a *band
// bracket*: a certified floating-point interval on the sum of the exact
// scalar log-survival terms, folded over the window and then kept by
// outward-rounded (nextafter) updates. Those do not cancel exactly: each
// widens the bracket by an ulp per side. A band bracket that straddles
// too falls back to the exact scalar kernel, which refolds it. The band
// bracket is dropped once the table bracket clears its threshold by at
// least the table bracket's own width (hi - lo), so an entry hovering at
// the boundary does not refold the window on every delta. Every count is
// bit-identical to a from-scratch batch solve.

#ifndef PINOCCHIO_CORE_INCREMENTAL_H_
#define PINOCCHIO_CORE_INCREMENTAL_H_

#include <cstdint>
#include <deque>
#include <memory>
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

  /// Band-bracket work of the delta maintenance since construction.
  struct DeltaCounters {
    /// Band-bracket updates by a delta: one per open band bracket.
    uint64_t exact_folds = 0;
    /// Band brackets opened, each an exact fold of the window, and
    /// dropped.
    uint64_t band_opens = 0;
    uint64_t band_drops = 0;
  };
  const DeltaCounters& delta_counters() const { return counters_; }

 private:
  /// One candidate tracked for an object: the table bracket, i.e. the
  /// fixed-point sums of the bound table's slots over the object's live
  /// positions (FixedBounds: `lo`/`hi` wrap modulo 2^64 and read as
  /// int64, `inf` counts -inf lower bounds plus kSaturated per -inf upper
  /// bound), and whether a band bracket is open in DeltaState::band.
  struct WatchEntry {
    uint64_t lo = 0;
    uint64_t hi = 0;
    uint64_t inf = 0;
    uint32_t candidate = 0;
    bool influenced = false;
    bool banded = false;
  };

  /// A certified bracket [sum_lo, sum_hi] on the true sum of the scalar
  /// log-survival terms over the object's live finite-term positions,
  /// plus the count of positions whose per-position probability
  /// saturates (>= 1, each alone decides influence and would poison the
  /// log sum).
  struct BandBracket {
    double sum_lo = 0.0;
    double sum_hi = 0.0;
    uint32_t certain = 0;
  };

  /// Both forms of the thresholds of one delta's window.
  struct DeltaThresholds {
    simd_internal::SpanThresholds span;    ///< for band brackets
    simd_internal::FixedThresholds fixed;  ///< for table brackets
    /// False past kMaxFixedTerms positions, where table sums may wrap:
    /// every entry then decides through its band bracket.
    bool fixed_exact = true;
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
    /// The band brackets of the banded watch entries, in watch order.
    std::vector<BandBracket> band;
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
  /// Records `entry`'s decision, bumping its candidate's counter on a flip.
  /// Under self-check the decision is first re-verified against the
  /// kernel's Decide over `span` (`bracket` is the band bracket it came
  /// from, if any, for the report).
  void SetInfluenced(WatchEntry& entry, bool influenced,
                     const BandBracket* bracket, std::span<const Point> span);

  std::span<const Point> WindowSpan(const LiveObject& live) const;

  DeltaThresholds ThresholdsFor(size_t n) const;

  /// Finishes one position delta on `live`, whose window and deques
  /// already include it (add) or exclude it (expire): refreshes the MBR
  /// and radius, folds `position`'s term into every watch entry and
  /// re-decides it, and rebuilds the watch set at birth or on pad escape.
  /// Returns the in-window position count.
  size_t ApplyDelta(LiveObject& live, const Point& position, bool add,
                    bool born, uint32_t object_id);
  /// Recomputes the watch set against the R-tree at a freshly padded
  /// certificate. Entrants get a table bracket over the window and a
  /// decision; leavers must be (and are checked to be) uninfluenced.
  void RebuildWatch(LiveObject& live, const DeltaThresholds& thresholds);
  /// Sets `entry`'s table bracket to the fold of `span`.
  void FoldTable(WatchEntry& entry, std::span<const Point> span);
  /// A band bracket folded from scratch over `span`.
  BandBracket FoldBand(const Point& candidate, std::span<const Point> span);
  /// Decides `entry` from its table bracket, or else from its band bracket
  /// band[*next], opening it when the table straddles. band[*next] is the
  /// entry's band bracket if it has one, already updated for the delta;
  /// *next moves past it if the entry keeps one. Updates the influence
  /// counter on a flip. Every decision of a delta or a rebuild goes
  /// through here. The common case, an entry with no band bracket that
  /// the table decides, is kept small enough to inline into the delta
  /// loop; the rest is SettleBand.
  void Settle(WatchEntry& entry, std::vector<BandBracket>& band,
              size_t* next, std::span<const Point> span,
              const DeltaThresholds& thresholds);
  [[gnu::noinline]] void SettleBand(WatchEntry& entry,
                                    std::vector<BandBracket>& band,
                                    size_t* next, std::span<const Point> span,
                                    const DeltaThresholds& thresholds);
  /// Decides from a band bracket, through the exact kernel (and a refold,
  /// unless `fresh`) when it straddles too.
  bool DecideBand(BandBracket& bracket, bool fresh, const Point& candidate,
                  std::span<const Point> span,
                  const simd_internal::SpanThresholds& thresholds);
  /// Self-check of one decision against the kernel's Decide; out of line
  /// so the per-entry path stays small.
  [[gnu::cold, gnu::noinline]] void VerifyDecision(
      const WatchEntry& entry, const BandBracket* bracket,
      std::span<const Point> span, bool influenced) const;

  SolverConfig config_;
  std::vector<Point> candidates_;
  std::vector<int64_t> influence_;
  std::set<std::pair<int64_t, uint32_t>, OrderCompare> order_;
  RTree rtree_;
  std::unordered_map<uint32_t, LiveObject> objects_;
  std::unordered_map<size_t, double> radius_by_n_;
  /// The (pf, tau) kernel that decides straddling band brackets.
  InfluenceKernel kernel_;
  /// The SIMD filter's bound table and thresholds: the table brackets sum
  /// its fixed-point slots, so the stream's decisions and the vector
  /// filter's share one proof. It is kernel_'s own filter, or on the scalar
  /// tier, where the kernel builds none, a portable one; the table is the
  /// same on every tier. Filter() is never called on it here.
  std::shared_ptr<const SimdInfluenceFilter> delta_table_;
  DeltaCounters counters_;
  bool self_check_ = false;
};

}  // namespace pinocchio

#endif  // PINOCCHIO_CORE_INCREMENTAL_H_
