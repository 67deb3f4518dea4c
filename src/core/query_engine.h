// The bound-domination candidate-evaluation engine shared by every query
// family. PINOCCHIO-VO's Strategy-1 machinery (Section 5) is in essence a
// generic loop: maintain a [minInf, maxInf] bracket per candidate from the
// IA/NIB prune phase, walk the candidates in decreasing-upper-bound order
// and validate each verification set, letting a policy decide when a
// candidate is admitted, how many refutations abort it mid-validation and
// when the walk stops altogether. The exact top-k cut-off of Algorithm 3
// is one such policy; the influence/cost skyline is the other.
//
// Verification sets list short objects first: ascending by (position
// count, record index). Objects with few positions are rarely influenced
// (the paper's Fig. 11), so they are the cheap refutations a Strategy-1
// abort needs, and the order is fixed once by the prune phase's transpose.
//
// EvaluateBoundOrdered() owns the counter discipline (heap_pops,
// pairs_validated, positions_scanned, early_stops, strategy1_cutoffs) so
// every policy reports work identically. It decides each admitted
// candidate's set in one InfluenceKernel::DecideSet call under the
// policy's integer refutation budget, so on SIMD tiers positions_scanned
// and early_stops are chunk-granular (see influence_kernel.h); decisions
// and the other counters equal the scalar kernel's.
//
// The engine's other substrate is the exact pass (InfluenceSets): the
// CSR influence sets of Algorithm 2's prune-and-validate loop, which also
// carry every candidate's starting bracket and a reader index (PIN's
// ranking and, per candidate, how much of it reaches the bracket's top).
// The greedy diversified selection runs over it, and a skyline read off
// its index equals the engine walk's (a server builds it once per
// snapshot and answers both families, and exact top-k, from it).
//
// Thread budget: the builders take a MorselScheduler and the families a
// `num_threads` (default 1, 0 = hardware concurrency). The prune phases run
// on the morsel engine; a budget of 1 runs every morsel inline on the
// calling thread. Per-morsel outputs are concatenated in morsel order and
// counters are summed, so every result and counter is bit-identical at any
// budget. The evaluation walk runs on the engine too: one thread walks the
// candidates in order while helpers decide the next few verification sets
// ahead of it under an upper bound on their refutation budgets, and the
// walk replays or re-decides each set so that every result and counter
// equals budget 1's (EvaluateBoundOrdered).

#ifndef PINOCCHIO_CORE_QUERY_ENGINE_H_
#define PINOCCHIO_CORE_QUERY_ENGINE_H_

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
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
/// ascending-index input, so any sort under it yields one sequence.
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
///                however large the candidate set grows. Each slice is
///                ascending by (position count, record index).
///
/// When built without pruning (PINOCCHIO-VO*) every candidate starts with
/// bounds [0, r] and shares the verification set `all_records`: every
/// record, in the same (position count, record index) order.
struct CandidateBrackets {
  std::vector<int64_t> min_inf;
  std::vector<int64_t> max_inf;
  std::vector<uint32_t> vs_offsets;  // size m + 1; empty when !pruned
  std::vector<uint32_t> vs_data;
  std::vector<uint32_t> all_records;  // every record when !pruned
  bool pruned = true;

  size_t num_candidates() const { return min_inf.size(); }

  std::span<const uint32_t> VerificationSet(uint32_t j) const {
    if (!pruned) return all_records;
    return std::span<const uint32_t>(vs_data).subspan(
        vs_offsets[j], vs_offsets[j + 1] - vs_offsets[j]);
  }
};

/// Record indices ascending by (position count, record index): a counting
/// sort over the store's position counts, O(r + max n).
std::vector<uint32_t> ShortObjectsFirst(const ObjectStore& store);

/// Transposes record-major candidate lists (disjoint record ranges) into a
/// CSR layout over `num_candidates`: data[offsets[j], offsets[j + 1])
/// holds the records whose lists name candidate j, filled record by
/// record in `record_order`, so every slice lists its records in that
/// order. `record_order` is a permutation of [0, R) for some R past every
/// range's last record (e.g. ShortObjectsFirst); empty means ascending
/// record index. The layout depends on the lists, not on how the records
/// are split into ranges: one range per record morsel gives the same
/// layout at any thread budget.
void RecordListsToCsr(size_t num_candidates,
                      std::span<const RecordCandidateLists> ranges,
                      std::vector<uint32_t>* offsets,
                      std::vector<uint32_t>* data,
                      std::span<const uint32_t> record_order = {});

/// Runs the IA/NIB prune phase over record morsels and assembles the
/// brackets. IA/NIB counters go to `stats` (may be null). Remnants are
/// collected as per-morsel candidate lists and transposed in
/// ShortObjectsFirst order, so every slice is ascending by (position
/// count, record) and the CSR is byte-identical at any budget.
/// `use_pruning == false` skips the phase entirely (the VO* ablation).
CandidateBrackets BuildCandidateBrackets(
    const PreparedInstance& prepared, const InfluenceKernel& kernel,
    bool use_pruning, SolverStats* stats,
    const MorselScheduler& scheduler = MorselScheduler(1));

/// Candidate indices sorted under OrderBefore — the engine's canonical
/// decreasing-upper-bound evaluation order — in one std::sort on the
/// calling thread.
std::vector<uint32_t> BoundDominationOrder(const CandidateBrackets& brackets);

/// A policy's verdict on the next candidate in bound order.
enum class CandidateAdmission : uint8_t {
  kStop,      // no remaining candidate can matter: end the walk
  kSkip,      // this candidate is settled without validation; keep walking
  kEvaluate,  // validate this candidate's verification set
};

/// The threshold of a policy that has none yet: every budget is unlimited.
inline constexpr int64_t kNoThreshold = std::numeric_limits<int64_t>::min();

/// The refutations a candidate with upper bound `upper` may take before
/// upper < threshold dominates it.
inline int64_t RefutationBudget(int64_t upper, int64_t threshold) {
  return threshold == kNoThreshold ? kUnlimitedRefutations : upper - threshold;
}

/// How a walk above budget 1 came by its sets (all zero at budget 1).
/// Timing-dependent and informational: results and counters do not
/// depend on it.
struct DecideAheadCounts {
  /// Sets a helper decided ahead whose counts the walk took as they were.
  int64_t taken = 0;
  /// Sets a helper decided under a budget that proved too large, which
  /// the walk decided again at the true one.
  int64_t redecided = 0;
};

/// Decides the verification sets of a bound-ordered walk (see
/// EvaluateBoundOrdered). At budget 1, or for fewer than two candidates,
/// Decide() is one InfluenceKernel::DecideSet call and nothing else is
/// allocated or started. Otherwise Run() executes the walk as one body of
/// MorselScheduler::Run beside budget - 1 helpers (fewer for a shorter
/// order), which decide order[i] for i inside a window of
/// kLookaheadPerThread x budget slots past the walk; while a helper holds the slot the walk needs, the
/// walk decides unclaimed slots of the window too. Each slot is O(1)
/// state; a helper blocks on its slot's state while the slot lies beyond
/// the window and never spins.
class SetDecider {
 public:
  static constexpr size_t kLookaheadPerThread = 2;

  SetDecider(const PreparedInstance& prepared, const InfluenceKernel& kernel,
             std::span<const uint32_t> order,
             FunctionRef<std::span<const uint32_t>(uint32_t)> verification_set,
             FunctionRef<int64_t(uint32_t)> upper_bound,
             const MorselScheduler& scheduler);
  ~SetDecider();
  SetDecider(const SetDecider&) = delete;
  SetDecider& operator=(const SetDecider&) = delete;

  /// Runs `walk` once and returns when it and every helper have finished;
  /// the helpers stop once `walk` returns.
  DecideAheadCounts Run(FunctionRef<void()> walk);

  /// Walk side: order[i]'s set decided at the true `budget`. Takes a
  /// helper's result when its budget equals `budget` or it refuted no more
  /// than `budget` records (the walks then coincide), re-decides otherwise,
  /// and decides inline a slot no helper has started.
  InfluenceSetCounters Decide(size_t i, int64_t budget);

  /// Walk side, after order[i] is settled or skipped: publishes the
  /// policy's threshold for the helpers and slides the window by one.
  void Advance(size_t i, int64_t threshold);

 private:
  struct Slot;

  InfluenceSetCounters DecideSet(size_t i, int64_t budget) const;
  /// Claims open slot q and decides it under the last published
  /// threshold's budget; false when the walk claimed it or it was
  /// cancelled.
  bool Speculate(size_t q);
  /// Walk side, while a helper holds slot i: speculates on the next
  /// unclaimed slot inside the window; false when there is none.
  bool SpeculateAhead(size_t i);
  /// A helper's loop: claims slots in order through next_, blocking on
  /// each until the window reaches it.
  void Help();
  /// Cancels every slot nobody claimed, waking the helpers blocked on one.
  void Cancel();

  const PreparedInstance& prepared_;
  const InfluenceKernel& kernel_;
  std::span<const uint32_t> order_;
  FunctionRef<std::span<const uint32_t>(uint32_t)> verification_set_;
  FunctionRef<int64_t(uint32_t)> upper_bound_;
  const MorselScheduler& scheduler_;
  size_t helpers_ = 0;
  size_t window_ = 0;
  std::unique_ptr<Slot[]> slots_;  // one per order position; null inline
  std::atomic<size_t> next_{1};  // the next slot to decide ahead
  std::atomic<int64_t> threshold_{kNoThreshold};
  DecideAheadCounts counts_;
};

/// The bound-ordered evaluation loop (Algorithm 3 lines 13-27, with the
/// acceptance decisions delegated to `policy`). Walks `order`; for each
/// admitted candidate it decides the verification set, in its order, in
/// one InfluenceKernel::DecideSet call (Strategy-2 early stops included)
/// that stops once the candidate's refutations exceed the policy's budget
/// with records left (the generalised Strategy-1 mid-validation cut-off,
/// counted as strategy1_cutoffs).
///
/// Policy contract (duck-typed; see TopKCutoffPolicy for the canonical
/// shape):
///   CandidateAdmission Admit(uint32_t j)             — before heap_pops
///   int64_t Threshold() const                        — T, or kNoThreshold
///   int64_t UpperBound(uint32_t j) const             — max_inf[j]
///   void Settle(uint32_t j, int64_t influenced, int64_t refuted,
///               bool complete)                       — after the set
/// Every policy aborts j once max_inf[j] < T for a threshold T that stays
/// fixed while j is walked and never falls during the walk, and each
/// refutation lowers max_inf[j] by one: j's budget is
/// RefutationBudget(max_inf[j], T) (>= 0 for an admitted candidate).
/// Settle receives the walk's counts, which the policy adds to j's
/// bracket; `complete` is false iff validation aborted early. The walk
/// aborts exactly where a record-at-a-time loop testing max_inf[j] < T
/// before each record would, so both agree on every counter.
///
/// Thread budget: at `scheduler`'s budget 1 the walk runs on the calling
/// thread and decides every set itself. Above it the walk runs on the
/// morsel engine beside helpers that decide the next few candidates' sets
/// ahead (SetDecider). Only the walk calls Admit, Threshold and
/// Settle; helpers call `verification_set` and UpperBound for candidates
/// the walk has not reached, and read the threshold the walk published
/// after its last candidate. That threshold is at most the one in force
/// when the walk reaches the candidate, so a helper's budget bounds the
/// true one from above; the walk replays a helper's counts when the two
/// walks coincide and re-decides the set otherwise. Results and every
/// counter are therefore bit-identical at every budget. Above budget 1,
/// `verification_set` and UpperBound must be safe to call from the
/// helpers.
template <typename Policy>
DecideAheadCounts EvaluateBoundOrdered(
    const PreparedInstance& prepared, const InfluenceKernel& kernel,
    std::span<const uint32_t> order,
    FunctionRef<std::span<const uint32_t>(uint32_t)> verification_set,
    SolverStats* stats, Policy& policy,
    const MorselScheduler& scheduler = MorselScheduler(1)) {
  const auto upper_bound = [&policy](uint32_t j) {
    return policy.UpperBound(j);
  };
  SetDecider decider(prepared, kernel, order, verification_set,
                               upper_bound, scheduler);
  return decider.Run([&] {
    for (size_t i = 0; i < order.size(); ++i) {
      const uint32_t j = order[i];
      const CandidateAdmission admission = policy.Admit(j);
      if (admission == CandidateAdmission::kStop) break;
      if (admission == CandidateAdmission::kEvaluate) {
        ++stats->heap_pops;
        const InfluenceSetCounters decided = decider.Decide(
            i, RefutationBudget(policy.UpperBound(j), policy.Threshold()));
        stats->pairs_validated += decided.influenced + decided.refuted;
        stats->positions_scanned += decided.positions_seen;
        stats->early_stops += decided.early_stops;
        if (!decided.complete) ++stats->strategy1_cutoffs;
        policy.Settle(j, decided.influenced, decided.refuted,
                      decided.complete);
      }
      decider.Advance(i, policy.Threshold());
    }
  });
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
    return (*max_inf_)[j] < Threshold() ? CandidateAdmission::kStop
                                        : CandidateAdmission::kEvaluate;
  }

  /// The k-th best validated lower bound once k candidates are settled.
  int64_t Threshold() const {
    return cutoff_.Saturated() ? cutoff_.Value() : kNoThreshold;
  }

  int64_t UpperBound(uint32_t j) const { return (*max_inf_)[j]; }

  void Settle(uint32_t j, int64_t influenced, int64_t refuted,
              bool /*complete*/) {
    (*min_inf_)[j] += influenced;
    (*max_inf_)[j] -= refuted;
    cutoff_.Push((*min_inf_)[j]);
  }

 private:
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
///
/// The reader index, built with the sets: `ranking` is PIN's ranking
/// (internal::RankByInfluence: influence descending, index ascending), and
/// ge_max[j] / gt_max[j] count the ranked candidates whose
/// influence is >= / > max_inf[j], so each is a prefix length of
/// `ranking`. Top-k reads the ranking and the skyline the counts.
struct InfluenceSets {
  std::vector<uint32_t> offsets;  // size m + 1
  std::vector<uint32_t> objects;  // record indices
  std::vector<int64_t> min_inf;
  std::vector<int64_t> max_inf;
  std::vector<uint32_t> ranking;
  std::vector<uint32_t> ge_max;
  std::vector<uint32_t> gt_max;

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
/// byte is the same at any budget. The reader index is then one sort of
/// the candidates and two binary searches per candidate on the calling
/// thread.
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
/// budget of the prune phase and of the walk, which decides ahead under
/// the policy's last published domination threshold.
SkylineResult SolveSkyline(const PreparedInstance& prepared,
                           std::span<const double> cost,
                           size_t num_threads = 1);

/// The same skyline read off an exact pass's index in O(m) plus a sort of
/// the members. With pm[i] the least cost among the first i ranked
/// candidates (pm[0] = +inf):
///   * j is bound-skipped iff pm[ge_max[j]] < cost[j] or
///     pm[gt_max[j]] <= cost[j]: some candidate strictly cheaper reaches
///     max_inf[j], or one at most as expensive exceeds it;
///   * the members are, per run of equal influence along the ranking
///     whose least cost c lies below every more influential candidate's,
///     the run's candidates at cost c, each keeping its own cost.
/// Both equal the engine walk's: a candidate the walk skips or aborts has
/// influence below the threshold it failed, so it never raises the walk's
/// running maxima, which are therefore maxima over every cheaper
/// candidate; and an equal-cost candidate whose influence exceeds
/// max_inf[j] has a larger max_inf, so bound order walks it before j.
/// Validates nothing, so `stats` holds timing only.
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
