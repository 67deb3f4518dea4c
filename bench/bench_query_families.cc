// Query-family microbenchmark: exact top-k (PIN-VO), influence/cost
// skyline, and diversified top-k on one shared PreparedInstance so only
// the query phase is timed. Costs are deterministic (distance to the
// candidate bounding-box centre) so every run does the same work. A last
// rung times a seeded batch of skylines read off one exact pass, the way
// a server answers skyline requests.
//
// Emits google-benchmark-style JSON lines to $PINOCCHIO_BENCH_JSON —
// "BM_QueryFamily/TOPK", "BM_QueryFamily/SKYLINE",
// "BM_QueryFamily/DIVERSE" and "BM_QueryFamily/SKYLINE_PASS" — which
// scripts/bench_ab.py gates against the parent's runs on the same machine.
// The timed runs use a thread budget of 1; exits nonzero if a run at the
// hardware budget diverges from it (the engine's contract is bit-identity
// at every thread budget), or if a sampled pass skyline differs from the
// engine walk on the same costs.

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <span>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/query_engine.h"
#include "geo/point.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace pinocchio {
namespace bench {
namespace {

constexpr int kReps = 3;
constexpr size_t kDiverseK = 8;
/// Skylines per SKYLINE_PASS batch, one seeded origin each; every
/// kPassCheckEvery-th is also solved by the engine walk and compared.
constexpr size_t kPassSkylines = 2000;
constexpr size_t kPassCheckEvery = 100;

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

/// Same bound_skipped and members (candidate, influence, cost bits).
bool SameSkyline(const query::SkylineResult& a,
                 const query::SkylineResult& b) {
  bool same = a.bound_skipped == b.bound_skipped &&
              a.members.size() == b.members.size();
  for (size_t i = 0; same && i < a.members.size(); ++i) {
    same = a.members[i].candidate == b.members[i].candidate &&
           a.members[i].influence == b.members[i].influence &&
           std::bit_cast<uint64_t>(a.members[i].cost) ==
               std::bit_cast<uint64_t>(b.members[i].cost);
  }
  return same;
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
  const bool agree = SameSkyline(skyline_par, skyline) &&
                     diverse_par.selected == diverse.selected &&
                     diverse_par.coverage == diverse.coverage &&
                     diverse_par.gain_evaluations == diverse.gain_evaluations;

  // Skylines read off one exact pass, from kPassSkylines seeded origins
  // inside the candidates' bounding box; the costs are computed up front
  // so only the skylines are timed.
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());
  const query::InfluenceSets pass = query::BuildInfluenceSets(prepared, kernel);
  const size_t m_pass = pass.num_candidates();
  std::vector<double> pass_costs(kPassSkylines * m_pass);
  Rng rng(ctx.seed);
  for (size_t s = 0; s < kPassSkylines; ++s) {
    const Point origin{rng.Uniform(lo.x, hi.x), rng.Uniform(lo.y, hi.y)};
    for (size_t j = 0; j < m_pass; ++j) {
      pass_costs[s * m_pass + j] = Distance(instance.candidates[j], origin);
    }
  }
  const auto costs_of = [&](size_t s) {
    return std::span<const double>(pass_costs).subspan(s * m_pass, m_pass);
  };
  size_t pass_members = 0;
  const double pass_seconds = TimeBest([&] {
    pass_members = 0;
    for (size_t s = 0; s < kPassSkylines; ++s) {
      pass_members += query::SolveSkyline(pass, costs_of(s)).members.size();
    }
  });
  bool pass_agree = true;
  for (size_t s = 0; pass_agree && s < kPassSkylines; s += kPassCheckEvery) {
    pass_agree = SameSkyline(query::SolveSkyline(pass, costs_of(s)),
                             query::SolveSkyline(prepared, costs_of(s)));
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
  table.AddRow({"pass skylines x" + std::to_string(kPassSkylines),
                FormatSeconds(pass_seconds),
                std::to_string(pass_members) + " members",
                pass_agree ? "yes" : "NO"});
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
      json << "{\"name\": \"BM_QueryFamily/SKYLINE_PASS\", \"seconds\": "
           << pass_seconds << ", \"skylines\": " << kPassSkylines
           << ", \"members\": " << pass_members << "}\n";
    }
  }

  if (!agree) {
    std::cerr << "[query_families] RESULT MISMATCH: the hardware budget "
                 "diverged from the budget-1 result\n";
    std::exit(1);
  }
  if (!pass_agree) {
    std::cerr << "[query_families] RESULT MISMATCH: a skyline read off the "
                 "exact pass differs from the engine walk\n";
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
