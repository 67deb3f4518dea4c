// Morsel-engine scaling curve: PIN and PIN-VO across thread budgets
// {1, 2, 4, hardware}, on one shared PreparedInstance so only the query
// phase is timed. Speedups are relative to the budget-1 rung. (An
// engineering extension; the paper's prototype is single-threaded.)
//
// Emits google-benchmark-style JSON lines to $PINOCCHIO_BENCH_JSON —
// "BM_ParallelScaling/PIN/<threads>" and "BM_ParallelScaling/PINVO/<threads>"
// with speedup/efficiency fields. scripts/bench_ab.py gates the budget-1
// rungs against the parent's runs on the same machine and floors the
// median efficiency of PIN at 4 threads. Exits nonzero if any budget's
// result or work counter diverges from the budget-1 solve: the solvers'
// contract is bit-identity at every thread budget.

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/pinocchio_solver.h"
#include "core/pinocchio_vo_solver.h"
#include "util/stopwatch.h"

namespace pinocchio {
namespace bench {
namespace {

constexpr int kReps = 3;

/// Best-of-kReps query time for `solver` on the shared prepared state.
double TimeSolve(Solver& solver, const PreparedInstance& prepared,
                 SolverResult* result) {
  *result = solver.Solve(prepared);  // warm-up, and the result we compare
  double best = result->stats.solve_seconds;
  for (int i = 1; i < kReps; ++i) {
    Stopwatch watch;
    const SolverResult repeat = solver.Solve(prepared);
    best = std::min(best, watch.ElapsedSeconds());
    if (repeat.influence != result->influence) {
      std::cerr << "[ablation_parallel] NON-DETERMINISM: " << solver.Name()
                << " disagreed with itself across repetitions\n";
      std::exit(1);
    }
  }
  return best;
}

/// Same answer and the same work: every result field and every counter the
/// bit-identity contract covers.
bool SameResult(const SolverResult& a, const SolverResult& b) {
  return a.influence == b.influence &&
         a.influence_exact == b.influence_exact && a.ranking == b.ranking &&
         a.best_candidate == b.best_candidate &&
         a.best_influence == b.best_influence &&
         a.stats.pairs_pruned_by_ia == b.stats.pairs_pruned_by_ia &&
         a.stats.pairs_pruned_by_nib == b.stats.pairs_pruned_by_nib &&
         a.stats.pairs_validated == b.stats.pairs_validated &&
         a.stats.positions_scanned == b.stats.positions_scanned &&
         a.stats.early_stops == b.stats.early_stops &&
         a.stats.heap_pops == b.stats.heap_pops &&
         a.stats.strategy1_cutoffs == b.stats.strategy1_cutoffs;
}

void Main() {
  const BenchContext ctx = BenchContext::FromEnv();
  ctx.Announce("ablation_parallel");
  const unsigned hardware = std::max(1u, std::thread::hardware_concurrency());
  std::cout << "  hardware concurrency: " << hardware << "\n";

  const CheckinDataset dataset = MakeGowalla(ctx);
  const size_t m = ScaledCandidates(ctx, kDefaultCandidates);
  const ProblemInstance instance = MakeInstance(dataset, m, ctx.seed);
  const PreparedInstance prepared(instance, DefaultConfig());

  // Thread rungs: the canonical 1/2/4 curve plus whatever this machine
  // actually has, deduplicated and sorted so tables read monotonically.
  std::vector<size_t> rungs = {1, 2, 4, hardware};
  std::sort(rungs.begin(), rungs.end());
  rungs.erase(std::unique(rungs.begin(), rungs.end()), rungs.end());

  const char* json_path = std::getenv("PINOCCHIO_BENCH_JSON");
  std::ofstream json;
  if (json_path != nullptr && *json_path != '\0') {
    json.open(json_path, std::ios::app);
    if (!json) {
      std::cerr << "[bench] cannot open PINOCCHIO_BENCH_JSON=" << json_path
                << "\n";
    }
  }

  TablePrinter table("Morsel-engine scaling (Gowalla, best of 3)",
                     {"threads", "PIN", "speedup", "eff", "PIN-VO", "speedup",
                      "eff", "agree"});

  // rungs[0] == 1: the reference every other budget is timed and diffed
  // against.
  SolverResult pin_ref, vo_ref;
  double pin_ref_seconds = 0.0;
  double vo_ref_seconds = 0.0;
  bool all_agree = true;
  for (const size_t threads : rungs) {
    PinocchioSolver pin_solver(threads);
    PinocchioVOSolver vo_solver(threads);
    SolverResult pin, vo;
    const double pin_seconds = TimeSolve(pin_solver, prepared, &pin);
    const double vo_seconds = TimeSolve(vo_solver, prepared, &vo);
    if (threads == 1) {
      pin_ref = pin;
      vo_ref = vo;
      pin_ref_seconds = pin_seconds;
      vo_ref_seconds = vo_seconds;
    }

    const bool agree = SameResult(pin, pin_ref) && SameResult(vo, vo_ref);
    all_agree = all_agree && agree;
    const double pin_speedup =
        pin_seconds > 0.0 ? pin_ref_seconds / pin_seconds : 0.0;
    const double vo_speedup =
        vo_seconds > 0.0 ? vo_ref_seconds / vo_seconds : 0.0;
    const double pin_eff = pin_speedup / static_cast<double>(threads);
    const double vo_eff = vo_speedup / static_cast<double>(threads);

    table.AddRow({std::to_string(threads), FormatSeconds(pin_seconds),
                  FormatDouble(pin_speedup, 2) + "x", FormatDouble(pin_eff, 2),
                  FormatSeconds(vo_seconds),
                  FormatDouble(vo_speedup, 2) + "x", FormatDouble(vo_eff, 2),
                  agree ? "yes" : "NO"});

    if (json.is_open()) {
      json << "{\"name\": \"BM_ParallelScaling/PIN/" << threads
           << "\", \"seconds\": " << pin_seconds << ", \"threads\": " << threads
           << ", \"speedup\": " << pin_speedup
           << ", \"efficiency\": " << pin_eff
           << ", \"hardware_concurrency\": " << hardware << "}\n";
      json << "{\"name\": \"BM_ParallelScaling/PINVO/" << threads
           << "\", \"seconds\": " << vo_seconds << ", \"threads\": " << threads
           << ", \"speedup\": " << vo_speedup
           << ", \"efficiency\": " << vo_eff
           << ", \"hardware_concurrency\": " << hardware << "}\n";
    }
  }
  table.Print(std::cout);

  if (!all_agree) {
    std::cerr << "[ablation_parallel] RESULT MISMATCH: a thread budget "
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
