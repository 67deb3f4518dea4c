// Multi-facility ablation (extension beyond the paper, motivated by its
// refs [11] GLS and [4] influence maximisation): union coverage of k
// greedily selected facilities (diversified selection at separation 0)
// versus k independent top-k picks, plus the CELF lazy-evaluation saving.
//
// Expected shape: strongly diminishing returns in k on check-in-shaped
// data (dense hotspots make single facilities broadly influential); the
// greedy union beats naive top-k whenever the top candidates' audiences
// overlap.

#include <iostream>

#include "bench_common.h"
#include "core/prepared_instance.h"
#include "core/query_engine.h"
#include "prob/influence.h"

namespace pinocchio {
namespace bench {
namespace {

int64_t UnionCoverage(const ProblemInstance& instance,
                      const std::vector<uint32_t>& facilities,
                      const SolverConfig& config) {
  int64_t covered = 0;
  for (const MovingObject& o : instance.objects) {
    for (uint32_t j : facilities) {
      if (Influences(*config.pf, instance.candidates[j], o.positions,
                     config.tau)) {
        ++covered;
        break;
      }
    }
  }
  return covered;
}

void RunDataset(const std::string& name, const CheckinDataset& dataset,
                const BenchContext& ctx) {
  const size_t m = ScaledCandidates(ctx, kDefaultCandidates);
  const ProblemInstance instance = MakeInstance(dataset, m, ctx.seed);
  const SolverConfig config = DefaultConfig();

  const size_t k_max = 10;
  const PreparedInstance prepared(instance, config);
  const query::DiversifiedResult greedy =
      query::SelectDiversified(prepared, k_max, /*min_separation=*/0.0);
  const SolverResult ranking = PinocchioVOSolver().Solve(instance, [&] {
    SolverConfig c = config;
    c.top_k = k_max;
    return c;
  }());

  TablePrinter table("Multi-facility selection (" + name + ")",
                     {"k", "greedy union", "top-k union", "greedy gain",
                      "coverage %"});
  for (size_t k = 1; k <= std::min(k_max, greedy.selected.size()); ++k) {
    const auto topk = ranking.TopK(k);
    const int64_t naive_union = UnionCoverage(instance, topk, config);
    const int64_t gain =
        greedy.coverage[k - 1] - (k >= 2 ? greedy.coverage[k - 2] : 0);
    table.AddRow(
        {std::to_string(k), std::to_string(greedy.coverage[k - 1]),
         std::to_string(naive_union), std::to_string(gain),
         FormatDouble(100.0 * static_cast<double>(greedy.coverage[k - 1]) /
                          static_cast<double>(instance.objects.size()),
                      1)});
  }
  table.Print(std::cout);
  const auto plain_evaluations =
      static_cast<int64_t>(m) * static_cast<int64_t>(k_max);
  std::cout << "  CELF gain evaluations: " << greedy.gain_evaluations
            << " vs " << plain_evaluations << " for plain greedy ("
            << FormatDouble(100.0 * static_cast<double>(
                                        greedy.gain_evaluations) /
                                static_cast<double>(plain_evaluations),
                            1)
            << "%)\n";
}

void Main() {
  const BenchContext ctx = BenchContext::FromEnv();
  ctx.Announce("ablation_multi_facility");
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
