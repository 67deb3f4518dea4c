#include "index/rtree.h"

#include <algorithm>
#include <cmath>

namespace pinocchio {

RTree::RTree(size_t max_entries) : max_entries_(max_entries), root_(nullptr) {
  PINO_CHECK_GE(max_entries, 4u);
}

RTree::RTree(size_t max_entries, std::unique_ptr<Node> root, size_t size)
    : RTree(max_entries) {
  root_ = std::move(root);
  size_ = size;
}

size_t RTree::Height() const {
  size_t h = 0;
  const Node* node = root_.get();
  while (node != nullptr) {
    ++h;
    node = node->is_leaf ? nullptr : node->children.front().get();
  }
  return h;
}

Mbr RTree::Bounds() const { return root_ ? root_->mbr : Mbr(); }

// -------------------------------------------------------------- bulk load

RTree RTree::BulkLoad(std::span<const RTreeEntry> entries,
                      size_t max_entries) {
  PINO_CHECK_GE(max_entries, 4u);
  if (entries.empty()) return RTree(max_entries);

  // Build the leaf level with Sort-Tile-Recursive: sort by x, cut into
  // vertical slices of ~sqrt(n/M) runs, sort each slice by y, pack runs of M.
  std::vector<RTreeEntry> sorted(entries.begin(), entries.end());
  std::sort(sorted.begin(), sorted.end(),
            [](const RTreeEntry& a, const RTreeEntry& b) {
              return a.point.x < b.point.x;
            });
  const size_t n = sorted.size();
  const size_t leaf_count = (n + max_entries - 1) / max_entries;
  const size_t slice_count = static_cast<size_t>(
      std::ceil(std::sqrt(static_cast<double>(leaf_count))));
  const size_t slice_size =
      ((leaf_count + slice_count - 1) / slice_count) * max_entries;

  std::vector<std::unique_ptr<Node>> level;
  for (size_t begin = 0; begin < n; begin += slice_size) {
    const size_t end = std::min(n, begin + slice_size);
    std::sort(sorted.begin() + static_cast<ptrdiff_t>(begin),
              sorted.begin() + static_cast<ptrdiff_t>(end),
              [](const RTreeEntry& a, const RTreeEntry& b) {
                return a.point.y < b.point.y;
              });
    for (size_t i = begin; i < end; i += max_entries) {
      auto leaf = std::make_unique<Node>();
      leaf->is_leaf = true;
      const size_t stop = std::min(end, i + max_entries);
      leaf->entries.assign(sorted.begin() + static_cast<ptrdiff_t>(i),
                           sorted.begin() + static_cast<ptrdiff_t>(stop));
      for (const RTreeEntry& e : leaf->entries) leaf->mbr.Expand(e.point);
      level.push_back(std::move(leaf));
    }
  }

  // Pack upper levels the same way on node centres until one root remains.
  while (level.size() > 1) {
    std::sort(level.begin(), level.end(),
              [](const std::unique_ptr<Node>& a,
                 const std::unique_ptr<Node>& b) {
                return a->mbr.Center().x < b->mbr.Center().x;
              });
    const size_t m = level.size();
    const size_t parent_count = (m + max_entries - 1) / max_entries;
    const size_t pslices = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(parent_count))));
    const size_t pslice_size =
        ((parent_count + pslices - 1) / pslices) * max_entries;
    std::vector<std::unique_ptr<Node>> parents;
    for (size_t begin = 0; begin < m; begin += pslice_size) {
      const size_t end = std::min(m, begin + pslice_size);
      std::sort(level.begin() + static_cast<ptrdiff_t>(begin),
                level.begin() + static_cast<ptrdiff_t>(end),
                [](const std::unique_ptr<Node>& a,
                   const std::unique_ptr<Node>& b) {
                  return a->mbr.Center().y < b->mbr.Center().y;
                });
      for (size_t i = begin; i < end; i += max_entries) {
        auto parent = std::make_unique<Node>();
        parent->is_leaf = false;
        const size_t stop = std::min(end, i + max_entries);
        for (size_t j = i; j < stop; ++j) {
          parent->mbr.Expand(level[j]->mbr);
          parent->children.push_back(std::move(level[j]));
        }
        parents.push_back(std::move(parent));
      }
    }
    level = std::move(parents);
  }

  return RTree(max_entries, std::move(level.front()), n);
}

// ---------------------------------------------------------------- queries

std::vector<uint32_t> RTree::QueryRectIds(const Mbr& rect) const {
  std::vector<uint32_t> ids;
  QueryRect(rect, [&](const RTreeEntry& e) { ids.push_back(e.id); });
  return ids;
}

std::vector<uint32_t> RTree::QueryCircleIds(const Point& center,
                                            double radius) const {
  std::vector<uint32_t> ids;
  QueryCircle(center, radius, [&](const RTreeEntry& e) { ids.push_back(e.id); });
  return ids;
}

std::vector<std::pair<uint32_t, double>> RTree::NearestNeighbors(
    const Point& query, size_t k) const {
  std::vector<std::pair<uint32_t, double>> result;
  if (!root_ || k == 0) return result;

  // Best-first search over a min-heap of (distance^2, node-or-entry).
  struct HeapItem {
    double dist_sq;
    const Node* node;       // nullptr when this is an entry
    RTreeEntry entry;
    bool operator>(const HeapItem& other) const {
      return dist_sq > other.dist_sq;
    }
  };
  std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<>> heap;
  heap.push({root_->mbr.MinDistSquared(query), root_.get(), {}});

  while (!heap.empty() && result.size() < k) {
    HeapItem item = heap.top();
    heap.pop();
    if (item.node == nullptr) {
      result.emplace_back(item.entry.id, std::sqrt(item.dist_sq));
      continue;
    }
    const Node& node = *item.node;
    if (node.is_leaf) {
      for (const RTreeEntry& e : node.entries) {
        heap.push({SquaredDistance(query, e.point), nullptr, e});
      }
    } else {
      for (const auto& child : node.children) {
        heap.push({child->mbr.MinDistSquared(query), child.get(), {}});
      }
    }
  }
  return result;
}

// -------------------------------------------------------------- invariants

size_t RTree::CheckNode(const Node& node, bool is_root, size_t depth,
                        size_t* leaf_depth) const {
  PINO_CHECK_LE(node.Count(), max_entries_);
  if (!is_root) {
    // Sort-Tile-Recursive packing leaves at most one under-filled node per
    // level, so any non-empty node is valid.
    PINO_CHECK_GE(node.Count(), 1u);
  }
  Mbr expected;
  size_t nodes = 1;
  if (node.is_leaf) {
    for (const RTreeEntry& e : node.entries) expected.Expand(e.point);
    if (*leaf_depth == 0) {
      *leaf_depth = depth;
    } else {
      PINO_CHECK_EQ(*leaf_depth, depth);
    }
  } else {
    PINO_CHECK(!node.children.empty());
    for (const auto& child : node.children) {
      expected.Expand(child->mbr);
      nodes += CheckNode(*child, false, depth + 1, leaf_depth);
    }
  }
  PINO_CHECK(expected == node.mbr);
  return nodes;
}

size_t RTree::CheckInvariants() const {
  if (!root_) return 0;
  size_t leaf_depth = 0;
  return CheckNode(*root_, true, 1, &leaf_depth);
}

size_t RTree::NodeCount() const {
  struct Counter {
    static size_t Count(const Node& node) {
      size_t total = 1;
      if (!node.is_leaf) {
        for (const auto& child : node.children) total += Count(*child);
      }
      return total;
    }
  };
  return root_ ? Counter::Count(*root_) : 0;
}

std::vector<RTreeEntry> MakeCandidateEntries(
    std::span<const Point> candidates) {
  std::vector<RTreeEntry> entries;
  entries.reserve(candidates.size());
  for (size_t j = 0; j < candidates.size(); ++j) {
    entries.push_back({candidates[j], static_cast<uint32_t>(j)});
  }
  return entries;
}

RTree BuildCandidateRTree(std::span<const Point> candidates,
                          size_t max_entries) {
  return RTree::BulkLoad(MakeCandidateEntries(candidates), max_entries);
}

}  // namespace pinocchio
