#include "index/rtree.h"

#include <algorithm>
#include <set>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace pinocchio {
namespace {

std::vector<RTreeEntry> RandomEntries(size_t n, Rng& rng,
                                      double extent = 1000.0) {
  std::vector<RTreeEntry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    entries.push_back({{rng.Uniform(0, extent), rng.Uniform(0, extent)},
                       static_cast<uint32_t>(i)});
  }
  return entries;
}

std::set<uint32_t> BruteForceRect(const std::vector<RTreeEntry>& entries,
                                  const Mbr& rect) {
  std::set<uint32_t> ids;
  for (const RTreeEntry& e : entries) {
    if (rect.Contains(e.point)) ids.insert(e.id);
  }
  return ids;
}

std::set<uint32_t> BruteForceCircle(const std::vector<RTreeEntry>& entries,
                                    const Point& center, double radius) {
  std::set<uint32_t> ids;
  for (const RTreeEntry& e : entries) {
    if (Distance(center, e.point) <= radius) ids.insert(e.id);
  }
  return ids;
}

TEST(RTreeTest, EmptyTree) {
  RTree tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.Height(), 0u);
  EXPECT_TRUE(tree.Bounds().IsEmpty());
  EXPECT_TRUE(tree.QueryRectIds(Mbr(0, 0, 10, 10)).empty());
  EXPECT_TRUE(tree.NearestNeighbors({0, 0}, 3).empty());
  EXPECT_EQ(tree.CheckInvariants(), 0u);
}

TEST(RTreeTest, SingleEntry) {
  const RTree tree = RTree::BulkLoad(std::vector<RTreeEntry>{{{5, 5}, 42}});
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.Height(), 1u);
  EXPECT_EQ(tree.QueryRectIds(Mbr(0, 0, 10, 10)),
            std::vector<uint32_t>{42});
  EXPECT_TRUE(tree.QueryRectIds(Mbr(6, 6, 10, 10)).empty());
  tree.CheckInvariants();
}

TEST(RTreeTest, BulkLoadKeepsInvariants) {
  Rng rng(2);
  const auto entries = RandomEntries(1000, rng);
  const RTree tree = RTree::BulkLoad(entries, 8);
  EXPECT_EQ(tree.size(), 1000u);
  EXPECT_GT(tree.Height(), 1u);
  tree.CheckInvariants();
}

TEST(RTreeTest, BulkLoadSmallSizes) {
  Rng rng(3);
  for (size_t n : {0u, 1u, 2u, 7u, 8u, 9u, 63u, 64u, 65u}) {
    const auto entries = RandomEntries(n, rng);
    const RTree tree = RTree::BulkLoad(entries, 8);
    EXPECT_EQ(tree.size(), n);
    tree.CheckInvariants();
    // Everything must be retrievable.
    const auto all = tree.QueryRectIds(Mbr(-1, -1, 1001, 1001));
    EXPECT_EQ(all.size(), n);
  }
}

TEST(RTreeTest, RectQueryMatchesBruteForceInserted) {
  Rng rng(4);
  const auto entries = RandomEntries(400, rng);
  const RTree tree = RTree::BulkLoad(entries, 8);
  for (int q = 0; q < 100; ++q) {
    const double x = rng.Uniform(0, 1000), y = rng.Uniform(0, 1000);
    const Mbr rect(x, y, x + rng.Uniform(0, 400), y + rng.Uniform(0, 400));
    auto ids = tree.QueryRectIds(rect);
    const std::set<uint32_t> got(ids.begin(), ids.end());
    EXPECT_EQ(got.size(), ids.size()) << "duplicate results";
    EXPECT_EQ(got, BruteForceRect(entries, rect));
  }
}

TEST(RTreeTest, CircleQueryMatchesBruteForceBulk) {
  Rng rng(5);
  const auto entries = RandomEntries(600, rng);
  const RTree tree = RTree::BulkLoad(entries, 8);
  for (int q = 0; q < 100; ++q) {
    const Point center{rng.Uniform(0, 1000), rng.Uniform(0, 1000)};
    const double radius = rng.Uniform(0, 300);
    auto ids = tree.QueryCircleIds(center, radius);
    const std::set<uint32_t> got(ids.begin(), ids.end());
    EXPECT_EQ(got, BruteForceCircle(entries, center, radius));
  }
}

TEST(RTreeTest, NearestNeighborsMatchBruteForce) {
  Rng rng(6);
  const auto entries = RandomEntries(300, rng);
  const RTree tree = RTree::BulkLoad(entries, 8);
  for (int q = 0; q < 50; ++q) {
    const Point query{rng.Uniform(-100, 1100), rng.Uniform(-100, 1100)};
    const size_t k = static_cast<size_t>(rng.UniformInt(1, 10));
    const auto result = tree.NearestNeighbors(query, k);
    ASSERT_EQ(result.size(), std::min(k, entries.size()));

    std::vector<std::pair<double, uint32_t>> brute;
    for (const auto& e : entries) {
      brute.emplace_back(Distance(query, e.point), e.id);
    }
    std::sort(brute.begin(), brute.end());
    for (size_t i = 0; i < result.size(); ++i) {
      EXPECT_NEAR(result[i].second, brute[i].first, 1e-9);
      // Distances sorted ascending.
      if (i > 0) {
        EXPECT_GE(result[i].second, result[i - 1].second);
      }
    }
  }
}

TEST(RTreeTest, NearestNeighborKZero) {
  Rng rng(7);
  const auto entries = RandomEntries(10, rng);
  const RTree tree = RTree::BulkLoad(entries);
  EXPECT_TRUE(tree.NearestNeighbors({0, 0}, 0).empty());
}

TEST(RTreeTest, NearestNeighborKExceedsSize) {
  Rng rng(8);
  const auto entries = RandomEntries(5, rng);
  const RTree tree = RTree::BulkLoad(entries);
  EXPECT_EQ(tree.NearestNeighbors({0, 0}, 50).size(), 5u);
}

TEST(RTreeTest, DuplicatePointsAllRetrievable) {
  std::vector<RTreeEntry> entries;
  for (uint32_t i = 0; i < 40; ++i) entries.push_back({{1, 1}, i});
  const RTree tree = RTree::BulkLoad(entries, 8);
  tree.CheckInvariants();
  const auto ids = tree.QueryRectIds(Mbr(0, 0, 2, 2));
  EXPECT_EQ(ids.size(), 40u);
}

TEST(RTreeTest, BoundsCoverAllPoints) {
  Rng rng(9);
  const auto entries = RandomEntries(200, rng);
  const RTree tree = RTree::BulkLoad(entries);
  const Mbr bounds = tree.Bounds();
  for (const auto& e : entries) EXPECT_TRUE(bounds.Contains(e.point));
}

TEST(RTreeTest, MoveSemantics) {
  Rng rng(10);
  const auto entries = RandomEntries(100, rng);
  RTree tree = RTree::BulkLoad(entries);
  RTree moved = std::move(tree);
  EXPECT_EQ(moved.size(), 100u);
  moved.CheckInvariants();
}

// Sweep over (size, fanout) pairs: trees bulk-loaded from the entries in
// two input orders (as given and reversed) agree with brute force on
// random rect queries.
class RTreeParamTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(RTreeParamTest, BothConstructionsMatchBruteForce) {
  const auto [n, fanout] = GetParam();
  Rng rng(1000 + n * 31 + fanout);
  const auto entries = RandomEntries(n, rng);

  const std::vector<RTreeEntry> reversed(entries.rbegin(), entries.rend());
  const RTree bulk = RTree::BulkLoad(entries, fanout);
  const RTree reloaded = RTree::BulkLoad(reversed, fanout);
  bulk.CheckInvariants();
  reloaded.CheckInvariants();

  for (int q = 0; q < 25; ++q) {
    const double x = rng.Uniform(0, 1000), y = rng.Uniform(0, 1000);
    const Mbr rect(x, y, x + rng.Uniform(0, 500), y + rng.Uniform(0, 500));
    const auto expected = BruteForceRect(entries, rect);
    auto a = bulk.QueryRectIds(rect);
    auto b = reloaded.QueryRectIds(rect);
    EXPECT_EQ(std::set<uint32_t>(a.begin(), a.end()), expected);
    EXPECT_EQ(std::set<uint32_t>(b.begin(), b.end()), expected);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndFanouts, RTreeParamTest,
    ::testing::Combine(::testing::Values<size_t>(1, 9, 50, 333, 1024),
                       ::testing::Values<size_t>(4, 8, 16, 50)));

// Clustered (skewed) data exercises the Sort-Tile-Recursive tiling
// differently from uniform data.
TEST(RTreeTest, SkewedClusteredData) {
  Rng rng(11);
  std::vector<RTreeEntry> entries;
  for (uint32_t i = 0; i < 500; ++i) {
    const double cx = (i % 5) * 200.0;
    const double cy = (i % 3) * 300.0;
    entries.push_back({{cx + rng.Gaussian(0, 5), cy + rng.Gaussian(0, 5)}, i});
  }
  const RTree tree = RTree::BulkLoad(entries, 8);
  tree.CheckInvariants();
  for (int q = 0; q < 40; ++q) {
    const Point center{rng.Uniform(-50, 900), rng.Uniform(-50, 700)};
    const double radius = rng.Uniform(1, 250);
    auto ids = tree.QueryCircleIds(center, radius);
    EXPECT_EQ(std::set<uint32_t>(ids.begin(), ids.end()),
              BruteForceCircle(entries, center, radius));
  }
}

}  // namespace
}  // namespace pinocchio
