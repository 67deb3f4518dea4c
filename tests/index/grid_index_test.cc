#include "index/grid_index.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "util/random.h"

namespace pinocchio {
namespace {

std::vector<RTreeEntry> RandomEntries(size_t n, Rng& rng,
                                      double extent = 500.0) {
  std::vector<RTreeEntry> entries;
  for (size_t i = 0; i < n; ++i) {
    entries.push_back({{rng.Uniform(0, extent), rng.Uniform(0, extent)},
                       static_cast<uint32_t>(i)});
  }
  return entries;
}

TEST(GridIndexTest, EmptyIndex) {
  const std::vector<RTreeEntry> none;
  const GridIndex grid(none);
  EXPECT_EQ(grid.size(), 0u);
  EXPECT_TRUE(grid.QueryRectIds(Mbr(0, 0, 10, 10)).empty());
  EXPECT_TRUE(grid.QueryCircleIds({0, 0}, 5).empty());
}

TEST(GridIndexTest, SingleEntry) {
  const std::vector<RTreeEntry> one = {{{3, 4}, 7}};
  const GridIndex grid(one);
  EXPECT_EQ(grid.size(), 1u);
  EXPECT_EQ(grid.QueryCircleIds({3, 4}, 0.1), std::vector<uint32_t>{7});
  EXPECT_TRUE(grid.QueryCircleIds({10, 10}, 1).empty());
}

TEST(GridIndexTest, RectQueryMatchesBruteForce) {
  Rng rng(21);
  const auto entries = RandomEntries(800, rng);
  const GridIndex grid(entries, 256);
  for (int q = 0; q < 100; ++q) {
    const double x = rng.Uniform(-50, 500), y = rng.Uniform(-50, 500);
    const Mbr rect(x, y, x + rng.Uniform(0, 200), y + rng.Uniform(0, 200));
    std::set<uint32_t> expected;
    for (const auto& e : entries) {
      if (rect.Contains(e.point)) expected.insert(e.id);
    }
    auto ids = grid.QueryRectIds(rect);
    EXPECT_EQ(std::set<uint32_t>(ids.begin(), ids.end()), expected);
    EXPECT_EQ(ids.size(), expected.size()) << "duplicates returned";
  }
}

TEST(GridIndexTest, CircleQueryMatchesBruteForce) {
  Rng rng(22);
  const auto entries = RandomEntries(800, rng);
  const GridIndex grid(entries, 512);
  for (int q = 0; q < 100; ++q) {
    const Point center{rng.Uniform(-20, 520), rng.Uniform(-20, 520)};
    const double radius = rng.Uniform(0, 150);
    std::set<uint32_t> expected;
    for (const auto& e : entries) {
      if (Distance(center, e.point) <= radius) expected.insert(e.id);
    }
    auto ids = grid.QueryCircleIds(center, radius);
    EXPECT_EQ(std::set<uint32_t>(ids.begin(), ids.end()), expected);
  }
}

TEST(GridIndexTest, DegenerateAllSamePoint) {
  std::vector<RTreeEntry> entries;
  for (uint32_t i = 0; i < 50; ++i) entries.push_back({{7, 7}, i});
  const GridIndex grid(entries, 64);
  EXPECT_EQ(grid.QueryCircleIds({7, 7}, 0.0).size(), 50u);
  EXPECT_TRUE(grid.QueryCircleIds({8, 8}, 0.5).empty());
}

TEST(GridIndexTest, CollinearPoints) {
  // Zero-height bounds exercise the cell sizing guards.
  std::vector<RTreeEntry> entries;
  for (uint32_t i = 0; i < 100; ++i) {
    entries.push_back({{static_cast<double>(i), 3.0}, i});
  }
  const GridIndex grid(entries, 64);
  const auto ids = grid.QueryRectIds(Mbr(10, 0, 20, 10));
  EXPECT_EQ(ids.size(), 11u);  // x = 10..20 inclusive
}

TEST(GridIndexTest, TargetCellsRespectedRoughly) {
  Rng rng(23);
  const auto entries = RandomEntries(100, rng);
  const GridIndex grid(entries, 100);
  const size_t cells = grid.rows() * grid.cols();
  EXPECT_GE(cells, 25u);
  EXPECT_LE(cells, 400u);
}

// The cell count is a speed knob only: from a single cell to far more
// cells than entries, rect and circle queries return the same ids.
class GridResolutionTest : public ::testing::TestWithParam<size_t> {};

TEST_P(GridResolutionTest, ResolutionDoesNotChangeResults) {
  Rng rng(803);
  const auto entries = RandomEntries(600, rng);
  const GridIndex grid(entries, GetParam());
  for (int q = 0; q < 60; ++q) {
    const double x = rng.Uniform(-50, 500), y = rng.Uniform(-50, 500);
    const Mbr rect(x, y, x + rng.Uniform(0, 200), y + rng.Uniform(0, 200));
    const Point center{rng.Uniform(-20, 520), rng.Uniform(-20, 520)};
    const double radius = rng.Uniform(0, 150);
    std::vector<uint32_t> want_rect;
    std::vector<uint32_t> want_circle;
    for (const auto& e : entries) {
      if (rect.Contains(e.point)) want_rect.push_back(e.id);
      if (Distance(center, e.point) <= radius) want_circle.push_back(e.id);
    }
    std::vector<uint32_t> rect_ids = grid.QueryRectIds(rect);
    std::vector<uint32_t> circle_ids = grid.QueryCircleIds(center, radius);
    std::sort(rect_ids.begin(), rect_ids.end());
    std::sort(circle_ids.begin(), circle_ids.end());
    EXPECT_EQ(rect_ids, want_rect) << "query " << q;
    EXPECT_EQ(circle_ids, want_circle) << "query " << q;
  }
}

INSTANTIATE_TEST_SUITE_P(Resolutions, GridResolutionTest,
                         ::testing::Values<size_t>(1, 16, 256, 65536));

}  // namespace
}  // namespace pinocchio
