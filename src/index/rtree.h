// In-memory R-tree over planar points (Guttman [26]), bulk-loaded once.
//
// The paper indexes candidate locations with an R-tree whose nodes hold at
// most 8 elements (Section 6.1); that is the default fanout here. A tree is
// built once by Sort-Tile-Recursive bulk loading and never changed; it
// supports:
//   * rectangle and circle range queries (visitor-based, allocation-free),
//   * best-first k-nearest-neighbour search, and
//   * structural invariant checking used by the tests.
//
// Entries are (point, id) pairs; payloads such as influence counters live in
// caller-side arrays indexed by id, which keeps the index reusable across
// solvers.
//
// Thread-safety: a built tree is immutable, and every query method
// (range/circle search, k-NN, CheckInvariants) is const and touches no
// lazily-built state, so it may be searched from any number of threads
// concurrently.

#ifndef PINOCCHIO_INDEX_RTREE_H_
#define PINOCCHIO_INDEX_RTREE_H_

#include <cstdint>
#include <memory>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "geo/mbr.h"
#include "geo/point.h"
#include "util/logging.h"

namespace pinocchio {

/// A point entry stored in the R-tree.
struct RTreeEntry {
  Point point;
  uint32_t id = 0;
};

/// Point R-tree with configurable fanout.
class RTree {
 public:
  /// Creates an empty tree. `max_entries` is the node capacity M (>= 4).
  explicit RTree(size_t max_entries = 8);

  RTree(RTree&&) noexcept = default;
  RTree& operator=(RTree&&) noexcept = default;
  RTree(const RTree&) = delete;
  RTree& operator=(const RTree&) = delete;

  /// Builds a tree from `entries` by Sort-Tile-Recursive packing; much
  /// faster and better-clustered than repeated insertion.
  static RTree BulkLoad(std::span<const RTreeEntry> entries,
                        size_t max_entries = 8);

  /// Number of stored entries.
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  /// Height of the tree (0 for an empty tree, 1 for a single leaf).
  size_t Height() const;

  /// Total number of nodes, leaves included (0 for an empty tree).
  size_t NodeCount() const;

  /// MBR of all stored points (empty Mbr when the tree is empty).
  Mbr Bounds() const;

  /// Calls `visit(entry)` for every entry whose point lies inside `rect`
  /// (boundary inclusive).
  template <typename Visitor>
  void QueryRect(const Mbr& rect, Visitor&& visit) const {
    if (!root_ || rect.IsEmpty()) return;
    QueryRectNode(*root_, rect, visit);
  }

  /// Collects ids of all entries inside `rect`.
  std::vector<uint32_t> QueryRectIds(const Mbr& rect) const;

  /// Calls `visit(entry)` for every entry within `radius` of `center`
  /// (boundary inclusive).
  template <typename Visitor>
  void QueryCircle(const Point& center, double radius, Visitor&& visit) const {
    if (!root_ || radius < 0.0) return;
    QueryCircleNode(*root_, center, radius * radius, visit);
  }

  /// Collects ids of all entries within `radius` of `center`.
  std::vector<uint32_t> QueryCircleIds(const Point& center,
                                       double radius) const;

  /// Returns the k nearest entries to `query` as (id, distance) pairs in
  /// ascending distance order (fewer if the tree holds fewer entries).
  std::vector<std::pair<uint32_t, double>> NearestNeighbors(const Point& query,
                                                            size_t k) const;

  /// Aborts (via PINO_CHECK) if any structural invariant is violated:
  /// node occupancy bounds, tight parent MBRs, uniform leaf depth.
  /// Returns the number of nodes for convenience.
  size_t CheckInvariants() const;

 private:
  struct Node {
    bool is_leaf = true;
    Mbr mbr;
    std::vector<RTreeEntry> entries;                // leaf payload
    std::vector<std::unique_ptr<Node>> children;    // internal payload

    size_t Count() const {
      return is_leaf ? entries.size() : children.size();
    }
  };

  explicit RTree(size_t max_entries, std::unique_ptr<Node> root, size_t size);

  template <typename Visitor>
  void QueryRectNode(const Node& node, const Mbr& rect, Visitor& visit) const {
    if (node.is_leaf) {
      for (const RTreeEntry& e : node.entries) {
        if (rect.Contains(e.point)) visit(e);
      }
      return;
    }
    for (const auto& child : node.children) {
      if (rect.Intersects(child->mbr)) QueryRectNode(*child, rect, visit);
    }
  }

  template <typename Visitor>
  void QueryCircleNode(const Node& node, const Point& center,
                       double radius_sq, Visitor& visit) const {
    if (node.is_leaf) {
      for (const RTreeEntry& e : node.entries) {
        if (SquaredDistance(center, e.point) <= radius_sq) visit(e);
      }
      return;
    }
    for (const auto& child : node.children) {
      if (child->mbr.MinDistSquared(center) <= radius_sq) {
        QueryCircleNode(*child, center, radius_sq, visit);
      }
    }
  }

  size_t CheckNode(const Node& node, bool is_root, size_t depth,
                   size_t* leaf_depth) const;

  size_t max_entries_;
  std::unique_ptr<Node> root_;
  size_t size_ = 0;
};

/// Builds the (point, index) entry list every solver feeds the candidate
/// R-tree: entry j carries `candidates[j]` with id j.
std::vector<RTreeEntry> MakeCandidateEntries(std::span<const Point> candidates);

/// Bulk-loads the candidate R-tree used across the engine: entry ids are
/// candidate indices, so query hits index directly into per-candidate
/// arrays (influence counters, scores, ...).
RTree BuildCandidateRTree(std::span<const Point> candidates,
                          size_t max_entries = 8);

}  // namespace pinocchio

#endif  // PINOCCHIO_INDEX_RTREE_H_
