// Index ablation: how the candidate-side lookup structure affects the
// pruning phase, and why the paper's flat A_2D object store is justified.
//
// Part 1 times the per-object NIB-bounding-box range queries over the
// candidate set with (a) the bulk-loaded R-tree PINOCCHIO uses, (b) a
// uniform grid, and (c) a linear scan.
//
// Part 2 supports Section 4.3's argument against indexing the objects: it
// reports how much the objects' activity MBRs overlap (average coverage of
// each extent dimension, and the average number of object MBRs containing
// a random candidate) — with overlap this heavy an object R-tree would
// visit nearly every leaf for every candidate anyway.

#include <iostream>

#include "bench_common.h"
#include "core/object_store.h"
#include "index/grid_index.h"
#include "index/rtree.h"
#include "util/stopwatch.h"

namespace pinocchio {
namespace bench {
namespace {

void RunDataset(const std::string& name, const CheckinDataset& dataset,
                const BenchContext& ctx) {
  const size_t m = ScaledCandidates(ctx, kDefaultCandidates);
  const ProblemInstance instance = MakeInstance(dataset, m, ctx.seed);
  const SolverConfig config = DefaultConfig();
  const ObjectStore store(instance.objects, *config.pf, config.tau);

  const std::vector<RTreeEntry> entries =
      MakeCandidateEntries(instance.candidates);

  // ---- Part 1: candidate lookup structures.
  TablePrinter table("Index ablation (" + name +
                         "): per-object candidate range queries",
                     {"structure", "build", "all NIB queries", "hits"});

  {
    Stopwatch build;
    const RTree rtree = RTree::BulkLoad(entries, config.rtree_fanout);
    const double build_s = build.ElapsedSeconds();
    Stopwatch query;
    int64_t hits = 0;
    for (const ObjectRecord& rec : store.records()) {
      rtree.QueryRect(rec.nib.BoundingBox(),
                      [&](const RTreeEntry&) { ++hits; });
    }
    table.AddRow({"R-tree (fanout 8)", FormatSeconds(build_s),
                  FormatSeconds(query.ElapsedSeconds()),
                  std::to_string(hits)});
  }
  {
    Stopwatch build;
    const GridIndex grid(entries, 4096);
    const double build_s = build.ElapsedSeconds();
    Stopwatch query;
    int64_t hits = 0;
    for (const ObjectRecord& rec : store.records()) {
      grid.QueryRect(rec.nib.BoundingBox(),
                     [&](const RTreeEntry&) { ++hits; });
    }
    table.AddRow({"uniform grid", FormatSeconds(build_s),
                  FormatSeconds(query.ElapsedSeconds()),
                  std::to_string(hits)});
  }
  {
    Stopwatch query;
    int64_t hits = 0;
    for (const ObjectRecord& rec : store.records()) {
      const Mbr& box = rec.nib.BoundingBox();
      for (const RTreeEntry& e : entries) {
        if (box.Contains(e.point)) ++hits;
      }
    }
    table.AddRow({"linear scan", "0 us", FormatSeconds(query.ElapsedSeconds()),
                  std::to_string(hits)});
  }
  table.Print(std::cout);

  // ---- Part 2: object MBR overlap statistics (Section 4.3).
  Mbr extent;
  for (const ObjectRecord& rec : store.records()) extent.Expand(rec.mbr);
  double cover_x = 0.0, cover_y = 0.0;
  for (const ObjectRecord& rec : store.records()) {
    cover_x += rec.mbr.width() / std::max(1.0, extent.width());
    cover_y += rec.mbr.height() / std::max(1.0, extent.height());
  }
  cover_x /= static_cast<double>(store.size());
  cover_y /= static_cast<double>(store.size());

  double avg_containing = 0.0;
  for (const Point& c : instance.candidates) {
    size_t containing = 0;
    for (const ObjectRecord& rec : store.records()) {
      if (rec.mbr.Contains(c)) ++containing;
    }
    avg_containing += static_cast<double>(containing);
  }
  avg_containing /= static_cast<double>(instance.candidates.size());

  std::cout << "  object-MBR overlap: avg coverage of extent "
            << FormatDouble(100.0 * cover_x, 1) << "% (x) / "
            << FormatDouble(100.0 * cover_y, 1) << "% (y); a candidate lies "
            << "inside " << FormatDouble(avg_containing, 1) << " of "
            << store.size() << " object MBRs on average\n";
}

void Main() {
  const BenchContext ctx = BenchContext::FromEnv();
  ctx.Announce("ablation_index");
  RunDataset("Foursquare", MakeFoursquare(ctx), ctx);
  RunDataset("Gowalla", MakeGowalla(ctx), ctx);
}

}  // namespace
}  // namespace bench
}  // namespace pinocchio

int main() {
  pinocchio::bench::Main();
  return 0;
}
