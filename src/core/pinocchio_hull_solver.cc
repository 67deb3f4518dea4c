#include "core/pinocchio_hull_solver.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/prepared_instance.h"
#include "geo/convex_hull.h"
#include "prob/influence_kernel.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace pinocchio {
namespace {

// Hull distances are not linked to the validators' per-position distances by
// an exact monotone rounding chain (unlike the MBR min/maxDist predicates),
// so pruning and certifying comparisons keep a few ulps of slack on the safe
// side; rim-adjacent pairs fall through to exact validation.
double UlpsAway(double v, double direction, int steps = 8) {
  for (int i = 0; i < steps; ++i) v = std::nextafter(v, direction);
  return v;
}

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

SolverResult PinocchioHullSolver::Solve(const PreparedInstance& prepared) const {
  Stopwatch watch;
  SolverResult result;
  const size_t m = prepared.num_candidates();
  result.influence.assign(m, 0);
  result.influence_exact = true;
  if (m == 0) {
    internal::FinishSolveTiming(&result.stats, watch.ElapsedSeconds());
    return result;
  }

  const InfluenceKernel kernel(prepared.pf(), prepared.tau());
  const ObjectStore& store = prepared.store();
  const RTree& rtree = prepared.candidate_rtree();

  // minMaxRadius comes memoised from the prepared A_2D; the hulls are this
  // variant's own tighter geometry, built per object during the solve.
  for (const ObjectRecord& rec : store.records()) {
    const double radius = rec.min_max_radius;
    if (radius < 0.0) {
      // Uninfluenceable object: every pair is excluded outright.
      result.stats.pairs_pruned_by_nib += static_cast<int64_t>(m);
      continue;
    }
    const std::span<const Point> positions = store.positions(rec);
    const ConvexPolygon hull(positions);
    const double prune_radius = UlpsAway(radius, kInf);
    const double certify_radius = UlpsAway(radius, -kInf);

    // The NIB region of the hull is contained in the hull bounds inflated
    // by the radius; use that box to probe the R-tree, then decide each
    // hit with exact hull distances. Box misses are pruned without further
    // checks, so widen the box outward past the rounding error.
    const Mbr inflated = hull.Bounds().Inflated(radius);
    const Mbr probe(UlpsAway(inflated.min_x(), -kInf),
                    UlpsAway(inflated.min_y(), -kInf),
                    UlpsAway(inflated.max_x(), kInf),
                    UlpsAway(inflated.max_y(), kInf));
    int64_t inside_nib = 0;
    rtree.QueryRect(probe, [&](const RTreeEntry& e) {
      if (hull.MinDist(e.point) > prune_radius) return;  // outside hull-NIB
      ++inside_nib;
      // Hull-IA: the farthest hull vertex within the radius certifies
      // influence (Theorem 1 with the tighter bound).
      double max_sq = 0.0;
      for (const Point& v : hull.vertices()) {
        max_sq = std::max(max_sq, SquaredDistance(e.point, v));
      }
      if (std::sqrt(max_sq) <= certify_radius) {
        ++result.influence[e.id];
        ++result.stats.pairs_pruned_by_ia;
        return;
      }
      ++result.stats.pairs_validated;
      uint8_t influenced = 0;
      const InfluenceBatchCounters counters =
          kernel.DecideMany({&e.point, 1}, positions, {&influenced, 1});
      result.stats.positions_scanned += counters.positions_seen;
      result.stats.early_stops += counters.early_stops;
      result.influence[e.id] += influenced;
    });
    result.stats.pairs_pruned_by_nib += static_cast<int64_t>(m) - inside_nib;
  }

  internal::FinalizeResultFromInfluence(&result);
  internal::FinishSolveTiming(&result.stats, watch.ElapsedSeconds());
  return result;
}

}  // namespace pinocchio
