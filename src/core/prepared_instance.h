// The engine layer separating index construction from query answering.
//
// The paper's Algorithm 1 (the A_2D object store with memoised minMaxRadius)
// and the bulk-loaded candidate R-tree are preprocessing: they depend only on
// (objects, candidates, pf, tau, rtree_fanout), not on which solver runs or
// how often. A PreparedInstance materialises both once and hands read-only
// views to every Solve(const PreparedInstance&) call, so a serving process
// answers many queries over the same object fleet without paying the build
// per query — and benchmark timers can finally separate `prepare_seconds`
// from `solve_seconds`.
//
// Lifecycle:
//   PreparedInstance prepared(instance, config);   // build once
//   auto r1 = PinocchioVOSolver().Solve(prepared); // query many
//   auto r2 = PinocchioSolver().Solve(prepared);
//   prepared.Reprepare(new_config);                // tau/pf changed: cheap
//   auto r3 = PinocchioVOSolver().Solve(prepared); // re-tune, not re-copy
//
// A PreparedInstance is self-contained: the object store copies position
// arrays (as Algorithm 1 does) and the entry list copies candidate points,
// so the source ProblemInstance may be destroyed after construction.
//
// Thread-safety: after construction completes, a const PreparedInstance is
// safe to query from any number of threads concurrently — every const
// accessor (store(), candidate_rtree(), candidate_entries(), config(), the
// counts) and every Solve(const PreparedInstance&) path reads immutable
// state; there is no lazy initialisation, memoisation or other `mutable`
// state behind the const interface (audited: core/object_store.h,
// index/rtree.h, index/grid_index.h). Reprepare() is a *mutation* and must
// be externally synchronised: no concurrent reader may touch the instance
// while it runs. The serving layer (src/serve/) never reprepares a shared
// instance — it builds a replacement off to the side and swaps an atomic
// snapshot pointer instead.

#ifndef PINOCCHIO_CORE_PREPARED_INSTANCE_H_
#define PINOCCHIO_CORE_PREPARED_INSTANCE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "core/moving_object.h"
#include "core/object_store.h"
#include "core/solver.h"
#include "index/rtree.h"

namespace pinocchio {

/// Build-side statistics of a PreparedInstance — the one-time costs that
/// used to be silently folded into every solver's elapsed time.
struct PreparedBuildStats {
  /// Wall-clock seconds of the most recent (re)build, split by component.
  double build_seconds = 0.0;
  double store_seconds = 0.0;
  double rtree_seconds = 0.0;
  /// Records whose minMaxRadius came from the Algorithm-1 memo instead of
  /// a fresh fixed-point computation, and the number of distinct n values.
  int64_t radius_memo_hits = 0;
  size_t radius_memo_entries = 0;
  /// Shape of the candidate R-tree.
  size_t rtree_height = 0;
  size_t rtree_nodes = 0;
  /// How many times each component was (re)built over the lifetime.
  size_t store_builds = 0;
  size_t rtree_builds = 0;
};

/// Shared, read-only solver state for one (instance, pf, tau, rtree_fanout)
/// key: the initialised A_2D and the bulk-loaded candidate R-tree.
///
/// Thread-safety: after construction (or Reprepare) the accessors are const
/// and safe to share across threads; Reprepare must not race with readers.
class PreparedInstance {
 public:
  /// Builds A_2D (Algorithm 1) over `instance.objects` and bulk-loads the
  /// candidate R-tree over `instance.candidates`. `config.pf` must be set;
  /// objects with zero positions are rejected (as in ObjectStore).
  PreparedInstance(const ProblemInstance& instance, const SolverConfig& config);

  /// Candidate-less preparation for point queries (InfluenceOfCandidate,
  /// ExplainInfluence): only the object store is built.
  PreparedInstance(const std::vector<MovingObject>& objects,
                   const SolverConfig& config);

  PreparedInstance(PreparedInstance&&) noexcept = default;
  PreparedInstance& operator=(PreparedInstance&&) noexcept = default;
  PreparedInstance(const PreparedInstance&) = delete;
  PreparedInstance& operator=(const PreparedInstance&) = delete;

  /// The configuration the indexes are currently prepared for.
  const SolverConfig& config() const { return config_; }
  const ProbabilityFunction& pf() const { return *config_.pf; }
  double tau() const { return config_.tau; }

  /// The initialised A_2D (Algorithm 1 output).
  const ObjectStore& store() const { return store_; }
  size_t num_objects() const { return store_.size(); }

  /// The bulk-loaded candidate R-tree; entry ids are candidate indices.
  const RTree& candidate_rtree() const { return rtree_; }
  /// The (point, index) entries backing the tree, in candidate order —
  /// entry j is candidate j.
  std::span<const RTreeEntry> candidate_entries() const { return entries_; }
  size_t num_candidates() const { return entries_.size(); }
  const Point& candidate(size_t j) const { return entries_[j].point; }

  /// Re-parameterises the prepared state for `new_config`, rebuilding only
  /// what the change invalidates: a pf/tau change re-tunes the object store
  /// in place (positions and MBRs are reused); a fanout change re-packs the
  /// R-tree from the retained entry list; a top_k change is free.
  void Reprepare(const SolverConfig& new_config);

  const PreparedBuildStats& build_stats() const { return build_stats_; }

 private:
  static ObjectStore BuildStore(const std::vector<MovingObject>& objects,
                                const SolverConfig& config,
                                PreparedBuildStats* stats);

  void BuildRTree();
  void RefreshStoreStats();

  SolverConfig config_;
  PreparedBuildStats build_stats_;
  ObjectStore store_;
  std::vector<RTreeEntry> entries_;
  RTree rtree_;
};

}  // namespace pinocchio

#endif  // PINOCCHIO_CORE_PREPARED_INSTANCE_H_
