// Query-family microbenchmark: exact top-k (PIN-VO), influence/cost
// skyline, and diversified top-k on one shared PreparedInstance so only
// the query phase is timed. Costs are deterministic (distance to the
// candidate bounding-box centre) so runs are comparable across machines
// and against the checked-in baseline.
//
// Emits google-benchmark-style JSON lines to $PINOCCHIO_BENCH_JSON —
// "BM_QueryFamily/TOPK", "BM_QueryFamily/SKYLINE" and
// "BM_QueryFamily/DIVERSE" — which scripts/check_bench_regression.py
// gates in CI against bench/baselines/query-baseline.jsonl. The timed
// runs use a thread budget of 1; exits nonzero if a run at the hardware
// budget diverges from it: the engine's contract is bit-identity at every
// thread budget.

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/query_engine.h"
#include "geo/point.h"
#include "util/stopwatch.h"

namespace pinocchio {
namespace bench {
namespace {

constexpr int kReps = 3;
constexpr size_t kDiverseK = 8;

/// Best-of-kReps wall-clock for `run` (called once extra as warm-up).
template <typename Fn>
double TimeBest(Fn&& run) {
  run();  // warm-up
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < kReps; ++i) {
    Stopwatch watch;
    run();
    best = std::min(best, watch.ElapsedSeconds());
  }
  return best;
}

void Main() {
  const BenchContext ctx = BenchContext::FromEnv();
  ctx.Announce("query_families");
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());

  const CheckinDataset dataset = MakeGowalla(ctx);
  const size_t m = ScaledCandidates(ctx, kDefaultCandidates);
  const ProblemInstance instance = MakeInstance(dataset, m, ctx.seed);
  const PreparedInstance prepared(instance, DefaultConfig());

  // Deterministic cost surface: distance to the candidate bounding-box
  // centre. The box diagonal also calibrates the separation radius.
  Point lo = instance.candidates.front();
  Point hi = lo;
  for (const Point& c : instance.candidates) {
    lo.x = std::min(lo.x, c.x);
    lo.y = std::min(lo.y, c.y);
    hi.x = std::max(hi.x, c.x);
    hi.y = std::max(hi.y, c.y);
  }
  const Point center{(lo.x + hi.x) / 2.0, (lo.y + hi.y) / 2.0};
  const double diagonal = Distance(lo, hi);
  const double min_separation = diagonal / 20.0;
  std::vector<double> cost(instance.candidates.size());
  for (size_t j = 0; j < cost.size(); ++j) {
    cost[j] = Distance(instance.candidates[j], center);
  }

  PinocchioVOSolver vo;
  SolverResult topk = vo.Solve(prepared);
  query::SkylineResult skyline = query::SolveSkyline(prepared, cost);
  query::DiversifiedResult diverse =
      query::SelectDiversified(prepared, kDiverseK, min_separation);

  const double topk_seconds = TimeBest([&] { topk = vo.Solve(prepared); });
  const double skyline_seconds =
      TimeBest([&] { skyline = query::SolveSkyline(prepared, cost); });
  const double diverse_seconds = TimeBest([&] {
    diverse = query::SelectDiversified(prepared, kDiverseK, min_separation);
  });

  // Self-check: the hardware budget must reproduce the budget-1 results
  // bit for bit (members, selection, and every counter the server
  // surfaces). A divergence here is a correctness bug, not a perf issue.
  const query::SkylineResult skyline_par =
      query::SolveSkyline(prepared, cost, hardware);
  const query::DiversifiedResult diverse_par =
      query::SelectDiversified(prepared, kDiverseK, min_separation, hardware);
  bool agree = skyline_par.bound_skipped == skyline.bound_skipped &&
               skyline_par.members.size() == skyline.members.size() &&
               diverse_par.selected == diverse.selected &&
               diverse_par.coverage == diverse.coverage &&
               diverse_par.gain_evaluations == diverse.gain_evaluations;
  for (size_t i = 0; agree && i < skyline.members.size(); ++i) {
    agree = skyline_par.members[i].candidate == skyline.members[i].candidate &&
            skyline_par.members[i].influence == skyline.members[i].influence &&
            skyline_par.members[i].cost == skyline.members[i].cost;
  }

  TablePrinter table("Query families (Gowalla, best of 3)",
                     {"family", "seconds", "result", "agree"});
  table.AddRow({"top-k (PIN-VO)", FormatSeconds(topk_seconds),
                "best=" + std::to_string(topk.best_candidate), "-"});
  table.AddRow({"skyline", FormatSeconds(skyline_seconds),
                std::to_string(skyline.members.size()) + " members",
                agree ? "yes" : "NO"});
  table.AddRow({"diversified k=" + std::to_string(kDiverseK),
                FormatSeconds(diverse_seconds),
                std::to_string(diverse.selected.size()) + " selected",
                agree ? "yes" : "NO"});
  table.Print(std::cout);

  const char* json_path = std::getenv("PINOCCHIO_BENCH_JSON");
  if (json_path != nullptr && *json_path != '\0') {
    std::ofstream json(json_path, std::ios::app);
    if (!json) {
      std::cerr << "[bench] cannot open PINOCCHIO_BENCH_JSON=" << json_path
                << "\n";
    } else {
      json << "{\"name\": \"BM_QueryFamily/TOPK\", \"seconds\": "
           << topk_seconds << "}\n";
      json << "{\"name\": \"BM_QueryFamily/SKYLINE\", \"seconds\": "
           << skyline_seconds
           << ", \"members\": " << skyline.members.size()
           << ", \"bound_skipped\": " << skyline.bound_skipped << "}\n";
      json << "{\"name\": \"BM_QueryFamily/DIVERSE\", \"seconds\": "
           << diverse_seconds
           << ", \"selected\": " << diverse.selected.size()
           << ", \"gain_evaluations\": " << diverse.gain_evaluations << "}\n";
    }
  }

  if (!agree) {
    std::cerr << "[query_families] RESULT MISMATCH: the hardware budget "
                 "diverged from the budget-1 result\n";
    std::exit(1);
  }
}

}  // namespace
}  // namespace bench
}  // namespace pinocchio

int main() {
  pinocchio::bench::Main();
  return 0;
}
