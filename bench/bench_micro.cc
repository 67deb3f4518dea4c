// Google-benchmark microbenchmarks for the building blocks: R-tree
// bulk loading and queries, cumulative influence evaluation (scalar and
// batch-arena kernel), minMaxRadius computation, and the pruning-region
// containment tests.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>

#include "core/object_store.h"
#include "geo/regions.h"
#include "index/grid_index.h"
#include "index/rtree.h"
#include "prob/influence.h"
#include "prob/influence_kernel.h"
#include "prob/power_law.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace pinocchio {
namespace {

std::vector<RTreeEntry> MakeEntries(size_t n) {
  Rng rng(42);
  std::vector<RTreeEntry> entries;
  entries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    entries.push_back({{rng.Uniform(0, 39220), rng.Uniform(0, 27030)},
                       static_cast<uint32_t>(i)});
  }
  return entries;
}

void BM_RTreeBulkLoad(benchmark::State& state) {
  const auto entries = MakeEntries(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    RTree tree = RTree::BulkLoad(entries, 8);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RTreeBulkLoad)->Arg(200)->Arg(1000)->Arg(10000);

void BM_RTreeRectQuery(benchmark::State& state) {
  const auto entries = MakeEntries(static_cast<size_t>(state.range(0)));
  const RTree tree = RTree::BulkLoad(entries, 8);
  Rng rng(7);
  for (auto _ : state) {
    const double x = rng.Uniform(0, 30000), y = rng.Uniform(0, 20000);
    const Mbr rect(x, y, x + 5000, y + 5000);
    int64_t hits = 0;
    tree.QueryRect(rect, [&](const RTreeEntry&) { ++hits; });
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_RTreeRectQuery)->Arg(1000)->Arg(10000);

void BM_GridRectQuery(benchmark::State& state) {
  const auto entries = MakeEntries(static_cast<size_t>(state.range(0)));
  const GridIndex grid(entries, 4096);
  Rng rng(7);
  for (auto _ : state) {
    const double x = rng.Uniform(0, 30000), y = rng.Uniform(0, 20000);
    const Mbr rect(x, y, x + 5000, y + 5000);
    int64_t hits = 0;
    grid.QueryRect(rect, [&](const RTreeEntry&) { ++hits; });
    benchmark::DoNotOptimize(hits);
  }
}
BENCHMARK(BM_GridRectQuery)->Arg(1000)->Arg(10000);

void BM_RTreeKnn(benchmark::State& state) {
  const auto entries = MakeEntries(10000);
  const RTree tree = RTree::BulkLoad(entries, 8);
  Rng rng(9);
  for (auto _ : state) {
    const Point q{rng.Uniform(0, 39220), rng.Uniform(0, 27030)};
    benchmark::DoNotOptimize(
        tree.NearestNeighbors(q, static_cast<size_t>(state.range(0))));
  }
}
BENCHMARK(BM_RTreeKnn)->Arg(1)->Arg(8)->Arg(64);

void BM_CumulativeInfluence(benchmark::State& state) {
  const PowerLawPF pf(0.9, 1.0);
  Rng rng(11);
  std::vector<Point> positions;
  for (int64_t i = 0; i < state.range(0); ++i) {
    positions.push_back({rng.Uniform(0, 39220), rng.Uniform(0, 27030)});
  }
  const Point c{20000, 13000};
  for (auto _ : state) {
    benchmark::DoNotOptimize(CumulativeInfluenceProbability(pf, c, positions));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_CumulativeInfluence)->Arg(10)->Arg(72)->Arg(780);

void BM_MinMaxRadius(benchmark::State& state) {
  const PowerLawPF pf(0.9, 1.0);
  size_t n = 1;
  for (auto _ : state) {
    benchmark::DoNotOptimize(pf.MinMaxRadius(0.7, 1 + (n++ % 780)));
  }
}
BENCHMARK(BM_MinMaxRadius);

void BM_RegionContainment(benchmark::State& state) {
  const Mbr mbr(0, 0, 22510, 14990);
  const InfluenceArcsRegion ia(mbr, 16000);
  const NonInfluenceBoundary nib(mbr, 16000);
  Rng rng(15);
  for (auto _ : state) {
    const Point p{rng.Uniform(-20000, 42000), rng.Uniform(-20000, 35000)};
    benchmark::DoNotOptimize(ia.Contains(p));
    benchmark::DoNotOptimize(nib.Contains(p));
  }
}
BENCHMARK(BM_RegionContainment);

void BM_ObjectStoreBuild(benchmark::State& state) {
  Rng rng(17);
  std::vector<MovingObject> objects;
  for (uint32_t k = 0; k < 1000; ++k) {
    MovingObject o;
    o.id = k;
    const auto n = static_cast<size_t>(rng.UniformInt(2, 80));
    for (size_t i = 0; i < n; ++i) {
      o.positions.push_back({rng.Uniform(0, 39220), rng.Uniform(0, 27030)});
    }
    objects.push_back(std::move(o));
  }
  const PowerLawPF pf(0.9, 1.0);
  for (auto _ : state) {
    ObjectStore store(objects, pf, 0.7);
    benchmark::DoNotOptimize(store.size());
  }
  state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_ObjectStoreBuild);

// ---------------------------------------------------------------------------
// Validation-kernel ablation, three rungs:
//   BM_ValidationScalar      — per-pair scalar reference (one owned
//                              std::vector<Point> per object, full-scan
//                              Influences, no early exit)
//   BM_ValidationKernelBatch — batch-arena kernel forced to the scalar
//                              tier (DecideMany over contiguous spans with
//                              the Lemma-4 early exit, no SIMD filter)
//   BM_ValidationSimd        — the same kernel on the auto-resolved SIMD
//                              tier (filter-and-refine, see
//                              prob/influence_kernel_simd.h)
//   BM_ValidationOneCandidate — the same pairs on the same tier, one
//                              candidate per DecideMany call: the unit of
//                              the bound-ordered walk and the probe

/// Builds a kernel pinned to the scalar tier regardless of the CPU, so the
/// KernelBatch rung keeps measuring the PR-3 scalar batch path.
InfluenceKernel MakeForcedScalarKernel(const ProbabilityFunction& pf,
                                       double tau) {
  const char* saved = std::getenv("PINOCCHIO_SIMD_TIER");
  const std::string restore = saved != nullptr ? saved : "";
  setenv("PINOCCHIO_SIMD_TIER", "scalar", /*overwrite=*/1);
  InfluenceKernel kernel(pf, tau);
  if (saved != nullptr) {
    setenv("PINOCCHIO_SIMD_TIER", restore.c_str(), 1);
  } else {
    unsetenv("PINOCCHIO_SIMD_TIER");
  }
  return kernel;
}

/// One validation workload: `num_objects` objects of `n` positions each,
/// candidates mixed near/far so both decision branches are exercised.
struct ValidationWorkload {
  std::vector<MovingObject> objects;
  std::vector<std::vector<Point>> owned_positions;  // scalar-path layout
  std::vector<Point> candidates;
  ObjectStore store;

  ValidationWorkload(size_t num_objects, size_t n, size_t num_candidates,
                     const ProbabilityFunction& pf, double tau)
      : store(MakeObjects(num_objects, n), pf, tau) {
    Rng rng(29);
    objects = MakeObjects(num_objects, n);
    for (const MovingObject& o : objects) owned_positions.push_back(o.positions);
    for (size_t j = 0; j < num_candidates; ++j) {
      candidates.push_back({rng.Uniform(0, 12000), rng.Uniform(0, 12000)});
    }
  }

  static std::vector<MovingObject> MakeObjects(size_t num_objects, size_t n) {
    Rng rng(27);
    std::vector<MovingObject> objects;
    for (size_t k = 0; k < num_objects; ++k) {
      MovingObject o;
      o.id = static_cast<uint32_t>(k);
      const Point anchor{rng.Uniform(0, 12000), rng.Uniform(0, 12000)};
      for (size_t i = 0; i < n; ++i) {
        o.positions.push_back({anchor.x + rng.Gaussian(0, 800),
                               anchor.y + rng.Gaussian(0, 800)});
      }
      objects.push_back(std::move(o));
    }
    return objects;
  }

  int64_t RunScalar(const ProbabilityFunction& pf, double tau) const {
    int64_t influenced = 0;
    for (const std::vector<Point>& positions : owned_positions) {
      for (const Point& c : candidates) {
        if (Influences(pf, c, positions, tau)) ++influenced;
      }
    }
    return influenced;
  }

  int64_t RunKernelBatch(const InfluenceKernel& kernel,
                         std::vector<uint8_t>* influenced_scratch) const {
    int64_t influenced = 0;
    for (size_t k = 0; k < store.size(); ++k) {
      influenced_scratch->assign(candidates.size(), 0);
      kernel.DecideMany(candidates, store.positions(k), *influenced_scratch);
      for (uint8_t b : *influenced_scratch) influenced += b;
    }
    return influenced;
  }

  int64_t RunOneCandidate(const InfluenceKernel& kernel) const {
    int64_t influenced = 0;
    for (size_t k = 0; k < store.size(); ++k) {
      for (const Point& c : candidates) {
        uint8_t decided = 0;
        kernel.DecideMany({&c, 1}, store.positions(k), {&decided, 1});
        influenced += decided;
      }
    }
    return influenced;
  }
};

void BM_ValidationScalar(benchmark::State& state) {
  const PowerLawPF pf(0.9, 1.0);
  const double tau = 0.7;
  const auto n = static_cast<size_t>(state.range(0));
  const ValidationWorkload workload(50, n, 200, pf, tau);
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload.RunScalar(pf, tau));
  }
  state.SetItemsProcessed(state.iterations() * 50 * 200);
}
BENCHMARK(BM_ValidationScalar)->Arg(10)->Arg(72)->Arg(780);

void BM_ValidationKernelBatch(benchmark::State& state) {
  const PowerLawPF pf(0.9, 1.0);
  const double tau = 0.7;
  const auto n = static_cast<size_t>(state.range(0));
  const ValidationWorkload workload(50, n, 200, pf, tau);
  const InfluenceKernel kernel = MakeForcedScalarKernel(pf, tau);
  std::vector<uint8_t> scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload.RunKernelBatch(kernel, &scratch));
  }
  state.SetItemsProcessed(state.iterations() * 50 * 200);
}
BENCHMARK(BM_ValidationKernelBatch)->Arg(10)->Arg(72)->Arg(780);

void BM_ValidationSimd(benchmark::State& state) {
  const PowerLawPF pf(0.9, 1.0);
  const double tau = 0.7;
  const auto n = static_cast<size_t>(state.range(0));
  const ValidationWorkload workload(50, n, 200, pf, tau);
  const InfluenceKernel kernel(pf, tau);  // auto-resolved tier
  std::vector<uint8_t> scratch;
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload.RunKernelBatch(kernel, &scratch));
  }
  state.SetLabel(SimdTierName(kernel.simd_tier()));
  state.SetItemsProcessed(state.iterations() * 50 * 200);
}
BENCHMARK(BM_ValidationSimd)->Arg(10)->Arg(72)->Arg(780);

void BM_ValidationOneCandidate(benchmark::State& state) {
  const PowerLawPF pf(0.9, 1.0);
  const double tau = 0.7;
  const auto n = static_cast<size_t>(state.range(0));
  const ValidationWorkload workload(50, n, 200, pf, tau);
  const InfluenceKernel kernel(pf, tau);  // auto-resolved tier
  for (auto _ : state) {
    benchmark::DoNotOptimize(workload.RunOneCandidate(kernel));
  }
  state.SetLabel(SimdTierName(kernel.simd_tier()));
  state.SetItemsProcessed(state.iterations() * 50 * 200);
}
BENCHMARK(BM_ValidationOneCandidate)->Arg(10)->Arg(72)->Arg(780);

/// Head-to-head comparison printed after the google-benchmark run; appends
/// JSON lines to $PINOCCHIO_BENCH_JSON when set. Each rung gets a line
/// keyed by a google-benchmark-style "name" ("BM_ValidationSimd/780") —
/// the stable identifiers scripts/bench_ab.py gates — plus
/// one combined "micro_validation_kernel" line per case continuing the
/// trajectory format introduced in PR 3. Exits nonzero if any rung's
/// influence decisions disagree: the SIMD filter must stay bit-identical.
void RunValidationKernelComparison() {
  const PowerLawPF pf(0.9, 1.0);
  const double tau = 0.7;
  std::cout << "\n[validation-kernel] full-scan scalar vs batch kernel "
               "(forced scalar tier) vs SIMD filter-and-refine, batched and "
               "one candidate per call (50 objects x 200 candidates)\n";

  const char* json_path = std::getenv("PINOCCHIO_BENCH_JSON");
  std::ofstream json;
  if (json_path != nullptr && *json_path != '\0') {
    json.open(json_path, std::ios::app);
    if (!json) {
      std::cerr << "[bench] cannot open PINOCCHIO_BENCH_JSON=" << json_path
                << "\n";
    }
  }

  for (size_t n : {size_t{10}, size_t{72}, size_t{780}}) {
    const ValidationWorkload workload(50, n, 200, pf, tau);
    const InfluenceKernel scalar_kernel = MakeForcedScalarKernel(pf, tau);
    const InfluenceKernel simd_kernel(pf, tau);
    std::vector<uint8_t> scratch;

    // One warm-up each, then timed repetitions sized so even the fast path
    // accumulates milliseconds.
    const int reps = n >= 500 ? 3 : 20;
    const int64_t scalar_influenced = workload.RunScalar(pf, tau);
    Stopwatch scalar_watch;
    for (int i = 0; i < reps; ++i) {
      benchmark::DoNotOptimize(workload.RunScalar(pf, tau));
    }
    const double scalar_seconds = scalar_watch.ElapsedSeconds() / reps;

    const int64_t batch_influenced =
        workload.RunKernelBatch(scalar_kernel, &scratch);
    Stopwatch batch_watch;
    for (int i = 0; i < reps; ++i) {
      benchmark::DoNotOptimize(workload.RunKernelBatch(scalar_kernel, &scratch));
    }
    const double batch_seconds = batch_watch.ElapsedSeconds() / reps;

    const int64_t simd_influenced =
        workload.RunKernelBatch(simd_kernel, &scratch);
    Stopwatch simd_watch;
    for (int i = 0; i < reps; ++i) {
      benchmark::DoNotOptimize(workload.RunKernelBatch(simd_kernel, &scratch));
    }
    const double simd_seconds = simd_watch.ElapsedSeconds() / reps;

    const int64_t one_influenced = workload.RunOneCandidate(simd_kernel);
    Stopwatch one_watch;
    for (int i = 0; i < reps; ++i) {
      benchmark::DoNotOptimize(workload.RunOneCandidate(simd_kernel));
    }
    const double one_seconds = one_watch.ElapsedSeconds() / reps;

    if (scalar_influenced != batch_influenced ||
        scalar_influenced != simd_influenced ||
        scalar_influenced != one_influenced) {
      std::cerr << "[validation-kernel] DECISION MISMATCH at n=" << n
                << ": scalar " << scalar_influenced << " vs batch "
                << batch_influenced << " vs simd("
                << SimdTierName(simd_kernel.simd_tier()) << ") "
                << simd_influenced << " vs one-candidate "
                << one_influenced << "\n";
      std::exit(1);
    }
    const double batch_speedup =
        batch_seconds > 0.0 ? scalar_seconds / batch_seconds : 0.0;
    const double simd_speedup =
        simd_seconds > 0.0 ? scalar_seconds / simd_seconds : 0.0;
    const double one_speedup =
        one_seconds > 0.0 ? scalar_seconds / one_seconds : 0.0;
    std::cout << "  n=" << n << ": scalar " << scalar_seconds * 1e3
              << " ms, kernel " << batch_seconds * 1e3 << " ms ("
              << batch_speedup << "x), simd["
              << SimdTierName(simd_kernel.simd_tier()) << "] "
              << simd_seconds * 1e3 << " ms (" << simd_speedup
              << "x), one-candidate " << one_seconds * 1e3 << " ms ("
              << one_speedup << "x; influenced pairs: " << simd_influenced
              << ")\n";
    if (json.is_open()) {
      const char* tier = SimdTierName(simd_kernel.simd_tier());
      json << "{\"name\": \"BM_ValidationScalar/" << n
           << "\", \"seconds\": " << scalar_seconds << "}\n";
      json << "{\"name\": \"BM_ValidationKernelBatch/" << n
           << "\", \"seconds\": " << batch_seconds << "}\n";
      json << "{\"name\": \"BM_ValidationSimd/" << n
           << "\", \"seconds\": " << simd_seconds << ", \"tier\": \"" << tier
           << "\", \"speedup_vs_scalar\": " << simd_speedup << "}\n";
      json << "{\"name\": \"BM_ValidationOneCandidate/" << n
           << "\", \"seconds\": " << one_seconds << ", \"tier\": \"" << tier
           << "\", \"speedup_vs_scalar\": " << one_speedup << "}\n";
      json << "{\"bench\": \"micro_validation_kernel\", \"positions_per_object\": "
           << n << ", \"objects\": 50, \"candidates\": 200"
           << ", \"scalar_seconds\": " << scalar_seconds
           << ", \"kernel_seconds\": " << batch_seconds
           << ", \"simd_seconds\": " << simd_seconds
           << ", \"simd_tier\": \"" << tier << "\""
           << ", \"speedup\": " << batch_speedup
           << ", \"simd_speedup\": " << simd_speedup
           << ", \"influenced_pairs\": " << simd_influenced << "}\n";
    }
  }
}

}  // namespace
}  // namespace pinocchio

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  pinocchio::RunValidationKernelComparison();
  return 0;
}
