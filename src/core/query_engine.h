// The bound-domination candidate-evaluation engine shared by every query
// family. PINOCCHIO-VO's Strategy-1 machinery (Section 5) is in essence a
// generic loop: maintain a [minInf, maxInf] bracket per candidate from the
// IA/NIB prune phase, walk the candidates in decreasing-upper-bound order
// and validate verification sets one record at a time, letting a policy
// decide when a candidate is admitted, aborted mid-validation or the walk
// stops altogether. The exact top-k cut-off of Algorithm 3 is one such
// policy; the influence/cost skyline and the approximate top-k tier
// (core/approx_solver.h) are the others.
//
// EvaluateBoundOrdered() owns the counter discipline (heap_pops,
// pairs_validated, positions_scanned, early_stops, strategy1_cutoffs) so
// every policy reports work identically. It decides each pair as a
// one-candidate InfluenceKernel::DecideMany batch, so on SIMD tiers
// positions_scanned and early_stops are chunk-granular (see
// influence_kernel.h); decisions and the other counters equal the scalar
// kernel's.
//
// The engine's other substrate is the exact pass (InfluenceSets): the
// CSR influence sets of Algorithm 2's prune-and-validate loop, which also
// carry every candidate's starting bracket. The greedy diversified
// selection runs over it, and a skyline replayed over it equals the
// engine walk's (a server builds it once per snapshot and answers both
// families, and exact top-k, from it).
//
// Thread budget: the builders take a MorselScheduler and the families a
// `num_threads` (default 1, 0 = hardware concurrency). The prune phases run
// on the morsel engine; a budget of 1 runs every morsel inline on the
// calling thread. Per-morsel outputs are concatenated in morsel order and
// counters are summed, so every result and counter is bit-identical at any
// budget. The evaluation walks that follow are sequential by design.

#ifndef PINOCCHIO_CORE_QUERY_ENGINE_H_
#define PINOCCHIO_CORE_QUERY_ENGINE_H_

#include <cstdint>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "core/morsel_scheduler.h"
#include "core/object_store.h"
#include "core/prepared_instance.h"
#include "core/prune_pipeline.h"
#include "core/solver.h"
#include "prob/influence_kernel.h"
#include "util/logging.h"

namespace pinocchio {
namespace query {

/// Running k-th-largest tracker for the generalised maxminInf cut-off.
/// With capacity 1 this is exactly the paper's global maxminInf.
class CutoffTracker {
 public:
  explicit CutoffTracker(size_t capacity) : capacity_(capacity) {
    PINO_CHECK_GT(capacity, 0u);
  }

  void Push(int64_t lower_bound) {
    if (heap_.size() < capacity_) {
      heap_.push(lower_bound);
    } else if (lower_bound > heap_.top()) {
      heap_.pop();
      heap_.push(lower_bound);
    }
  }

  /// True once `capacity` bounds have been recorded; before that no
  /// candidate may be discarded.
  bool Saturated() const { return heap_.size() >= capacity_; }

  /// The current cut-off (k-th largest recorded bound).
  int64_t Value() const { return heap_.empty() ? 0 : heap_.top(); }

 private:
  size_t capacity_;
  std::priority_queue<int64_t, std::vector<int64_t>, std::greater<>> heap_;
};

/// Strict total order of the validation queue: maxInf descending, minInf
/// descending, candidate index ascending. The index tie-break makes this
/// exactly the order a stable sort by (maxInf, minInf) produces over an
/// ascending-index input, and lets BoundDominationOrder merge per-shard
/// sorts into the same sequence at any thread budget.
inline bool OrderBefore(std::span<const int64_t> min_inf,
                        std::span<const int64_t> max_inf, uint32_t a,
                        uint32_t b) {
  if (max_inf[a] != max_inf[b]) return max_inf[a] > max_inf[b];
  if (min_inf[a] != min_inf[b]) return min_inf[a] > min_inf[b];
  return a < b;
}

/// Per-candidate influence brackets plus the verification sets backing
/// them, as produced by the prune phase:
///
///   minInf[j]  — IA certificates (records certainly influenced), raised
///                towards the exact influence as validation proceeds;
///   maxInf[j]  — minInf[j] + |VS(j)| (every other record was excluded by
///                its NIB), lowered as validation refutes records;
///   VS(j)      — record indices whose NIB contains candidate j but whose
///                IA does not, in one flat CSR layout (vs_data sliced by
///                vs_offsets) so the prune phase performs O(1) allocations
///                however large the candidate set grows.
///
/// When built without pruning (PINOCCHIO-VO*) every candidate starts with
/// bounds [0, r] and shares the identity verification set `all_records`.
struct CandidateBrackets {
  std::vector<int64_t> min_inf;
  std::vector<int64_t> max_inf;
  std::vector<uint32_t> vs_offsets;  // size m + 1; empty when !pruned
  std::vector<uint32_t> vs_data;
  std::vector<uint32_t> all_records;  // identity set when !pruned
  bool pruned = true;

  size_t num_candidates() const { return min_inf.size(); }

  std::span<const uint32_t> VerificationSet(uint32_t j) const {
    if (!pruned) return all_records;
    return std::span<const uint32_t>(vs_data).subspan(
        vs_offsets[j], vs_offsets[j + 1] - vs_offsets[j]);
  }
};

/// Transposes record-major candidate lists, taken in `ranges` order, into
/// a CSR layout over `num_candidates`: data[offsets[j], offsets[j + 1])
/// holds the records whose lists name candidate j. Size-then-fill is
/// stable, so each candidate's records keep the range order: one range per
/// record morsel, in morsel order, gives the same layout at any thread
/// budget.
void RecordListsToCsr(size_t num_candidates,
                      std::span<const RecordCandidateLists> ranges,
                      std::vector<uint32_t>* offsets,
                      std::vector<uint32_t>* data);

/// Runs the IA/NIB prune phase over record morsels and assembles the
/// brackets. IA/NIB counters go to `stats` (may be null). Remnants are
/// collected as per-morsel candidate lists and transposed in morsel order,
/// so the CSR is record-major and byte-identical at any budget.
/// `use_pruning == false` skips the phase entirely (the VO* ablation).
CandidateBrackets BuildCandidateBrackets(
    const PreparedInstance& prepared, const InfluenceKernel& kernel,
    bool use_pruning, SolverStats* stats,
    const MorselScheduler& scheduler = MorselScheduler(1));

/// Candidate indices sorted under OrderBefore — the engine's canonical
/// decreasing-upper-bound evaluation order. Each shard of the candidate
/// range is sorted on its own and a tournament tree merges the runs; with
/// one shard that is a single std::sort.
std::vector<uint32_t> BoundDominationOrder(
    const CandidateBrackets& brackets,
    const MorselScheduler& scheduler = MorselScheduler(1));

/// A policy's verdict on the next candidate in bound order.
enum class CandidateAdmission : uint8_t {
  kStop,      // no remaining candidate can matter: end the walk
  kSkip,      // this candidate is settled without validation; keep walking
  kEvaluate,  // validate this candidate's verification set
};

/// The bound-ordered evaluation loop (Algorithm 3 lines 13-27, with the
/// acceptance decisions delegated to `policy`). Walks `order`; for each
/// admitted candidate it validates the verification set record by record
/// through the shared influence kernel's batch path, one candidate per
/// call (Strategy 2 early stops included),
/// asking the policy before each record whether to abort (the generalised
/// Strategy-1 mid-validation cut-off, counted as strategy1_cutoffs).
///
/// Policy contract (duck-typed; see TopKCutoffPolicy for the canonical
/// shape):
///   CandidateAdmission Admit(uint32_t j)             — before heap_pops
///   bool AbortValidation(uint32_t j)                 — before each record
///   void OnDecision(uint32_t j, bool influenced)     — after each record
///   void Settle(uint32_t j, bool complete)           — after the set;
///       `complete` is false iff validation aborted early
/// Every policy's AbortValidation compares j's integer bracket with a
/// threshold that stays fixed while j is walked.
///
/// `verification_set` need not return the full prune-phase set: the
/// approximate tier (core/approx_solver.h) returns a deterministic sample
/// of it per candidate and scales the observed decisions into a certified
/// influence bracket — the loop is agnostic as long as the span stays
/// alive for the candidate's walk.
///
/// The loop is inherently sequential — what the policy learns from
/// candidate i gates the work spent on candidate i+1 — so it runs on the
/// calling thread whatever the thread budget of the prune and order phases.
template <typename Policy>
void EvaluateBoundOrdered(
    const PreparedInstance& prepared, const InfluenceKernel& kernel,
    std::span<const uint32_t> order,
    FunctionRef<std::span<const uint32_t>(uint32_t)> verification_set,
    SolverStats* stats, Policy& policy) {
  const ObjectStore& store = prepared.store();
  for (uint32_t j : order) {
    const CandidateAdmission admission = policy.Admit(j);
    if (admission == CandidateAdmission::kStop) break;
    if (admission == CandidateAdmission::kSkip) continue;
    ++stats->heap_pops;

    const std::span<const Point> c(&prepared.candidate(j), 1);
    bool complete = true;
    for (uint32_t rec_idx : verification_set(j)) {
      if (policy.AbortValidation(j)) {
        ++stats->strategy1_cutoffs;
        complete = false;
        break;
      }
      ++stats->pairs_validated;

      // Strategy 2: the kernel scans the record's arena span until Lemma 4
      // decides influence, through the filter-and-refine batch path.
      uint8_t influenced = 0;
      const InfluenceBatchCounters counters =
          kernel.DecideMany(c, store.positions(rec_idx), {&influenced, 1});
      stats->positions_scanned += counters.positions_seen;
      stats->early_stops += counters.early_stops;

      policy.OnDecision(j, influenced != 0);
    }
    policy.Settle(j, complete);
  }
}

/// Exact top-k acceptance: the paper's Strategy 1. A candidate is
/// dominated once the k-th best validated lower bound exceeds its upper
/// bound; domination of the head candidate ends the walk (bound order
/// guarantees no later candidate can do better). Operates on the caller's
/// bracket vectors in place, exactly like the pre-engine loop did.
class TopKCutoffPolicy {
 public:
  TopKCutoffPolicy(size_t capacity, std::vector<int64_t>* min_inf,
                   std::vector<int64_t>* max_inf)
      : cutoff_(capacity), min_inf_(min_inf), max_inf_(max_inf) {}

  CandidateAdmission Admit(uint32_t j) const {
    return Dominated(j) ? CandidateAdmission::kStop
                        : CandidateAdmission::kEvaluate;
  }

  bool AbortValidation(uint32_t j) const { return Dominated(j); }

  void OnDecision(uint32_t j, bool influenced) {
    if (influenced) {
      ++(*min_inf_)[j];
    } else {
      --(*max_inf_)[j];
    }
  }

  void Settle(uint32_t j, bool /*complete*/) { cutoff_.Push((*min_inf_)[j]); }

 private:
  bool Dominated(uint32_t j) const {
    return cutoff_.Saturated() && (*max_inf_)[j] < cutoff_.Value();
  }

  CutoffTracker cutoff_;
  std::vector<int64_t>* min_inf_;
  std::vector<int64_t>* max_inf_;
};

// ------------------------------------------------------------- exact pass

/// The exact pass of Algorithm 2 over the whole store: per-candidate
/// influenced-object sets in one flat CSR layout, records ascending within
/// each candidate's slice, plus every candidate's prune bracket as
/// BuildCandidateBrackets starts it (min_inf the IA credits, max_inf
/// min_inf plus the verification set's size). A candidate's exact
/// influence is the size of its set.
struct InfluenceSets {
  std::vector<uint32_t> offsets;  // size m + 1
  std::vector<uint32_t> objects;  // record indices
  std::vector<int64_t> min_inf;
  std::vector<int64_t> max_inf;

  size_t num_candidates() const {
    return offsets.empty() ? 0 : offsets.size() - 1;
  }

  std::span<const uint32_t> Objects(uint32_t j) const {
    return std::span<const uint32_t>(objects).subspan(
        offsets[j], offsets[j + 1] - offsets[j]);
  }

  int64_t Influence(uint32_t j) const { return offsets[j + 1] - offsets[j]; }
};

/// Builds the exact pass over record morsels in one prune-and-validate
/// loop: influenced pairs go to per-morsel lists transposed in morsel
/// order, the prune classes to per-worker counts summed once, so every
/// byte is the same at any budget.
InfluenceSets BuildInfluenceSets(
    const PreparedInstance& prepared, const InfluenceKernel& kernel,
    const MorselScheduler& scheduler = MorselScheduler(1));

// ---------------------------------------------------------------- skyline

/// One member of the influence/cost skyline, with its exact influence.
struct SkylineMember {
  uint32_t candidate = 0;
  int64_t influence = 0;
  double cost = 0.0;
};

/// Result of a skyline query. `members` is the maximal set of candidates
/// not dominated in (influence up, cost down): no other candidate has
/// cost <= and influence >= with at least one strict. Candidates tying on
/// both coordinates are all kept. Sorted by cost ascending (then candidate
/// index; equal-cost members necessarily tie on influence).
struct SkylineResult {
  std::vector<SkylineMember> members;
  /// Candidates settled as dominated straight from their brackets, without
  /// validating a single record (mid-validation aborts are counted in
  /// stats.strategy1_cutoffs instead).
  int64_t bound_skipped = 0;
  SolverStats stats;
};

/// Influence/cost skyline over (inf(c), cost(c)). `cost` must hold one
/// finite value per candidate. Candidates are walked in (cost ascending,
/// bound order) so every already-settled candidate is at most as expensive
/// as the current one — its exact influence dominates the current bracket
/// whenever it reaches the upper bound, letting the engine discard
/// dominated candidates before (or mid-) validation. `num_threads` is the
/// prune phase's budget.
SkylineResult SolveSkyline(const PreparedInstance& prepared,
                           std::span<const double> cost,
                           size_t num_threads = 1);

/// The same skyline replayed over an exact pass: the walk in the same
/// order on the pass's brackets, the same admission test (so the same
/// bound_skipped), and every admitted candidate settled with its exact
/// influence instead of being validated. A candidate the engine walk
/// aborts is at most as influential as the maxima that dominated it, so
/// settling it moves neither maximum and Finish() drops it: the members
/// equal SolveSkyline's. Validates nothing, so `stats` holds timing only.
SkylineResult SolveSkyline(const InfluenceSets& pass,
                           std::span<const double> cost);

// ------------------------------------------------------------ diversified

/// Result of diversified greedy selection.
struct DiversifiedResult {
  /// Chosen candidate indices, in selection order.
  std::vector<uint32_t> selected;
  /// Union coverage after each selection step; coverage.back() is the
  /// final objective value.
  std::vector<int64_t> coverage;
  /// Marginal-gain evaluations performed (CELF's saving shows here).
  int64_t gain_evaluations = 0;
  /// Candidates discarded for sitting closer than min_separation to an
  /// already-selected facility.
  int64_t separation_rejections = 0;
  double prepare_seconds = 0.0;
  double solve_seconds = 0.0;
  double elapsed_seconds = 0.0;
};

/// Diversified top-k: greedy marginal-coverage selection (CELF-lazy, so
/// typically near-linear in k) subject to a minimum pairwise separation —
/// a candidate closer than `min_separation` to any already-selected
/// facility is permanently discarded (coverage is monotone, so an
/// infeasible candidate can never become worth selecting later). Ties on
/// marginal gain select the smallest candidate index, matching the
/// brute-force greedy reference. `min_separation == 0` degenerates to the
/// classic multi-facility objective. May return fewer than k facilities
/// when the separation constraint (or the candidate count) leaves nothing
/// selectable. Builds the exact pass at `num_threads`, then runs the
/// greedy below over it.
DiversifiedResult SelectDiversified(const PreparedInstance& prepared, size_t k,
                                    double min_separation,
                                    size_t num_threads = 1);

/// The greedy over an exact pass already built for `prepared`.
DiversifiedResult SelectDiversified(const PreparedInstance& prepared,
                                    const InfluenceSets& pass, size_t k,
                                    double min_separation);

}  // namespace query
}  // namespace pinocchio

#endif  // PINOCCHIO_CORE_QUERY_ENGINE_H_
