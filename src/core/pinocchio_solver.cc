#include "core/pinocchio_solver.h"

#include "core/morsel_scheduler.h"
#include "core/prepared_instance.h"
#include "core/prune_pipeline.h"
#include "prob/influence_kernel.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace pinocchio {

PinocchioSolver::PinocchioSolver(size_t num_threads)
    : num_threads_(MorselScheduler(num_threads).num_threads()) {}

std::string PinocchioSolver::Name() const {
  return internal::BudgetedName("PIN", num_threads_);
}

SolverResult PinocchioSolver::Solve(const PreparedInstance& prepared) const {
  Stopwatch watch;
  SolverResult result;
  const size_t m = prepared.num_candidates();
  result.influence.assign(m, 0);
  result.influence_exact = true;

  // Algorithm 2 over the shared pipeline: Lemma-2 IA credits and Lemma-3
  // NIB exclusions per object, then batch validation of the remnant set
  // C'' against the object's arena span (with the Lemma-4 early exit). One
  // kernel serves every worker: the SIMD tier is resolved once.
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());
  const ObjectStore& store = prepared.store();
  const MorselScheduler scheduler(num_threads_);
  std::vector<PruneWorkerShare> workers(scheduler.num_threads());
  for (PruneWorkerShare& w : workers) w.influence.assign(m, 0);
  scheduler.Run(PlanRecordMorsels(store, scheduler),
                [&](size_t w, size_t, const Morsel& morsel) {
                  PruneAndValidate(prepared.candidate_rtree(), store, kernel,
                                   morsel.first_record, morsel.last_record,
                                   workers[w].influence, &workers[w].stats);
                });

  for (const PruneWorkerShare& w : workers) {
    for (size_t j = 0; j < m; ++j) result.influence[j] += w.influence[j];
    result.stats.pairs_pruned_by_ia += w.stats.pairs_pruned_by_ia;
    result.stats.pairs_pruned_by_nib += w.stats.pairs_pruned_by_nib;
    result.stats.pairs_validated += w.stats.pairs_validated;
    result.stats.positions_scanned += w.stats.positions_scanned;
    result.stats.early_stops += w.stats.early_stops;
  }

  internal::FinalizeResultFromInfluence(&result);
  internal::FinishSolveTiming(&result.stats, watch.ElapsedSeconds());
  return result;
}

}  // namespace pinocchio
