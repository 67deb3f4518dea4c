#include "core/query_engine.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>
#include <numeric>
#include <utility>

#include "geo/point.h"
#include "util/stopwatch.h"

namespace pinocchio {
namespace query {

std::vector<uint32_t> ShortObjectsFirst(const ObjectStore& store) {
  const std::vector<ObjectRecord>& records = store.records();
  uint32_t max_n = 0;
  for (const ObjectRecord& rec : records) {
    max_n = std::max(max_n, rec.position_count);
  }
  std::vector<uint32_t> start(static_cast<size_t>(max_n) + 2, 0);
  for (const ObjectRecord& rec : records) ++start[rec.position_count + 1];
  for (size_t n = 1; n < start.size(); ++n) start[n] += start[n - 1];
  std::vector<uint32_t> order(records.size());
  for (uint32_t k = 0; k < records.size(); ++k) {
    order[start[records[k].position_count]++] = k;
  }
  return order;
}

void RecordListsToCsr(size_t num_candidates,
                      std::span<const RecordCandidateLists> ranges,
                      std::vector<uint32_t>* offsets,
                      std::vector<uint32_t>* data,
                      std::span<const uint32_t> record_order) {
  offsets->assign(num_candidates + 1, 0);
  size_t num_records = record_order.size();
  for (const RecordCandidateLists& range : ranges) {
    for (uint32_t j : range.candidates) ++(*offsets)[j + 1];
    num_records =
        std::max(num_records, range.first_record + range.counts.size());
  }
  for (size_t j = 0; j < num_candidates; ++j) {
    (*offsets)[j + 1] += (*offsets)[j];
  }
  // Each record's list, located once, then filled in `record_order`.
  std::vector<std::span<const uint32_t>> lists(num_records);
  for (const RecordCandidateLists& range : ranges) {
    const uint32_t* id = range.candidates.data();
    for (size_t i = 0; i < range.counts.size(); ++i) {
      lists[range.first_record + i] = {id, range.counts[i]};
      id += range.counts[i];
    }
  }
  std::vector<uint32_t> identity;
  if (record_order.empty()) {
    identity.resize(num_records);
    std::iota(identity.begin(), identity.end(), 0u);
    record_order = identity;
  }
  data->resize(offsets->back());
  std::vector<uint32_t> cursor(offsets->begin(), offsets->end() - 1);
  for (uint32_t rec : record_order) {
    for (uint32_t j : lists[rec]) (*data)[cursor[j]++] = rec;
  }
}

CandidateBrackets BuildCandidateBrackets(const PreparedInstance& prepared,
                                         const InfluenceKernel& kernel,
                                         bool use_pruning, SolverStats* stats,
                                         const MorselScheduler& scheduler) {
  const ObjectStore& store = prepared.store();
  const size_t m = prepared.num_candidates();
  const auto r = static_cast<int64_t>(store.size());

  CandidateBrackets brackets;
  brackets.pruned = use_pruning;
  brackets.min_inf.assign(m, 0);
  brackets.max_inf.assign(m, r);
  if (!use_pruning) {
    // PINOCCHIO-VO*: no pruning phase; every object must be verified.
    brackets.all_records = ShortObjectsFirst(store);
    return brackets;
  }

  // minInf is a per-worker additive accumulator (any completion order
  // sums the same); remnants go to per-morsel lists whose morsel-order
  // concatenation is the record-major, query-visit-minor pair order.
  const std::vector<Morsel> morsels = PlanRecordMorsels(store, scheduler);
  std::vector<PruneWorkerShare> workers(scheduler.num_threads());
  for (PruneWorkerShare& w : workers) w.influence.assign(m, 0);
  std::vector<RecordCandidateLists> remnants(morsels.size());
  scheduler.Run(morsels, [&](size_t w, size_t mi, const Morsel& morsel) {
    PruneWorkerShare& acc = workers[w];
    ClassifyCandidates(prepared.candidate_rtree(), store, kernel,
                       morsel.first_record, morsel.last_record, m, &acc.stats,
                       acc.influence, &remnants[mi]);
  });

  for (const PruneWorkerShare& w : workers) {
    for (size_t j = 0; j < m; ++j) brackets.min_inf[j] += w.influence[j];
    if (stats != nullptr) {
      stats->pairs_pruned_by_ia += w.stats.pairs_pruned_by_ia;
      stats->pairs_pruned_by_nib += w.stats.pairs_pruned_by_nib;
    }
  }
  RecordListsToCsr(m, remnants, &brackets.vs_offsets, &brackets.vs_data,
                   ShortObjectsFirst(store));
  for (size_t j = 0; j < m; ++j) {
    brackets.max_inf[j] = brackets.min_inf[j] + (brackets.vs_offsets[j + 1] -
                                                 brackets.vs_offsets[j]);
  }
  return brackets;
}

std::vector<uint32_t> BoundDominationOrder(const CandidateBrackets& brackets) {
  std::vector<uint32_t> order(brackets.num_candidates());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return OrderBefore(brackets.min_inf, brackets.max_inf, a, b);
  });
  return order;
}

// ------------------------------------------------------------ decide-ahead

namespace {

// A slot is kClosed while it lies beyond the window and kOpen inside it
// until the walk (kWalk) or a helper (kRunning, then kDone) claims it.
// When the walk ends it cancels every slot nobody claimed.
//
// Every store a thread may be blocked on, and every wait, is seq_cst.
// libstdc++'s notify skips the futex wake while its waiter count reads
// zero, and a waiter raises that count before it reads the state: with a
// release store, the count's load may pass the store (store buffering),
// and a waiter then sleeps on a slot that was opened or finished without
// a wake.
enum SlotState : uint32_t {
  kClosed,
  kOpen,
  kRunning,
  kDone,
  kWalk,
  kCancelled,
};

}  // namespace

struct alignas(64) SetDecider::Slot {
  std::atomic<uint32_t> state{kClosed};
  int64_t budget = 0;  // < 0 when the candidate was dominated already
  InfluenceSetCounters decided;
};

SetDecider::SetDecider(
    const PreparedInstance& prepared, const InfluenceKernel& kernel,
    std::span<const uint32_t> order,
    FunctionRef<std::span<const uint32_t>(uint32_t)> verification_set,
    FunctionRef<int64_t(uint32_t)> upper_bound,
    const MorselScheduler& scheduler)
    : prepared_(prepared),
      kernel_(kernel),
      order_(order),
      verification_set_(verification_set),
      upper_bound_(upper_bound),
      scheduler_(scheduler) {
  const size_t budget = scheduler.num_threads();
  if (budget < 2 || order.size() < 2) return;
  window_ = kLookaheadPerThread * budget;
  helpers_ = std::min(budget - 1, order.size() - 1);
  slots_ = std::make_unique<Slot[]>(order.size());
  for (size_t i = 0; i < std::min(window_, order.size()); ++i) {
    slots_[i].state.store(kOpen, std::memory_order_relaxed);
  }
}

SetDecider::~SetDecider() = default;

DecideAheadCounts SetDecider::Run(FunctionRef<void()> walk) {
  if (slots_ == nullptr) {
    walk();
    return counts_;
  }
  // The first body to start walks, so the walk never waits for a thread
  // that has yet to start; every later one helps.
  std::atomic<bool> walking{false};
  const std::vector<Morsel> bodies = PlanUniformMorsels(helpers_ + 1, 1);
  scheduler_.Run(bodies, [&](size_t, size_t, const Morsel&) {
    if (walking.exchange(true, std::memory_order_relaxed)) {
      Help();
      return;
    }
    try {
      walk();
    } catch (...) {
      Cancel();
      throw;
    }
    Cancel();
  });
  return counts_;
}

InfluenceSetCounters SetDecider::DecideSet(size_t i, int64_t budget) const {
  const uint32_t j = order_[i];
  const ObjectStore& store = prepared_.store();
  return kernel_.DecideSet(
      prepared_.candidate(j), verification_set_(j),
      [&store](uint32_t rec) { return store.positions(rec); }, budget);
}

InfluenceSetCounters SetDecider::Decide(size_t i, int64_t budget) {
  if (slots_ == nullptr) return DecideSet(i, budget);
  Slot& slot = slots_[i];
  uint32_t state = kOpen;
  if (slot.state.compare_exchange_strong(state, kWalk,
                                         std::memory_order_acquire)) {
    return DecideSet(i, budget);
  }
  // A helper holds the slot: decide unclaimed slots ahead, as a helper
  // would, until it is done, and block only when none is left.
  while (state == kRunning) {
    if (!SpeculateAhead(i)) {
      slot.state.wait(kRunning, std::memory_order_seq_cst);
    }
    state = slot.state.load(std::memory_order_acquire);
  }
  PINO_CHECK_EQ(state, kDone);
  PINO_CHECK_GE(slot.budget, budget)
      << "a helper's refutation budget fell below the walk's";
  // A walk under the larger budget that never refuted past `budget`
  // decided the same records as one under `budget` would have.
  if (slot.budget == budget || slot.decided.refuted <= budget) {
    ++counts_.taken;
    return slot.decided;
  }
  ++counts_.redecided;
  return DecideSet(i, budget);
}

void SetDecider::Advance(size_t i, int64_t threshold) {
  if (slots_ == nullptr) return;
  threshold_.store(threshold, std::memory_order_relaxed);
  if (i + window_ < order_.size()) {
    Slot& slot = slots_[i + window_];
    slot.state.store(kOpen, std::memory_order_seq_cst);
    slot.state.notify_one();
  }
}

bool SetDecider::Speculate(size_t q) {
  Slot& slot = slots_[q];
  uint32_t state = kOpen;
  if (!slot.state.compare_exchange_strong(state, kRunning,
                                          std::memory_order_acquire)) {
    return false;
  }
  const int64_t threshold = threshold_.load(std::memory_order_relaxed);
  slot.budget = RefutationBudget(upper_bound_(order_[q]), threshold);
  if (slot.budget >= 0) slot.decided = DecideSet(q, slot.budget);
  slot.state.store(kDone, std::memory_order_seq_cst);
  slot.state.notify_one();
  return true;
}

bool SetDecider::SpeculateAhead(size_t i) {
  // Slots before i + window_ are open; claiming through next_ keeps every
  // slot to one claimant.
  const size_t end = std::min(i + window_, order_.size());
  size_t q = next_.load(std::memory_order_relaxed);
  do {
    if (q >= end) return false;
  } while (!next_.compare_exchange_weak(q, q + 1, std::memory_order_relaxed));
  return Speculate(q);
}

void SetDecider::Help() {
  for (;;) {
    const size_t q = next_.fetch_add(1, std::memory_order_relaxed);
    if (q >= order_.size()) return;
    slots_[q].state.wait(kClosed, std::memory_order_seq_cst);
    if (!Speculate(q) &&
        slots_[q].state.load(std::memory_order_relaxed) == kCancelled) {
      return;
    }
  }
}

void SetDecider::Cancel() {
  for (size_t i = 0; i < order_.size(); ++i) {
    std::atomic<uint32_t>& state = slots_[i].state;
    uint32_t old = state.load(std::memory_order_relaxed);
    while ((old == kClosed || old == kOpen) &&
           !state.compare_exchange_weak(old, kCancelled,
                                        std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
    }
    if (old == kClosed) state.notify_one();
  }
}

// ---------------------------------------------------------------- skyline

namespace {

/// The order of a skyline's members: cost ascending, influence
/// descending, candidate index ascending.
bool MemberBefore(const SkylineMember& a, const SkylineMember& b) {
  if (a.cost != b.cost) return a.cost < b.cost;
  if (a.influence != b.influence) return a.influence > b.influence;
  return a.candidate < b.candidate;
}

/// Skyline acceptance over (influence up, cost down). The walk is in cost
/// order, so every settled candidate is at most as expensive as the current
/// one; two running maxima of their exact influences are enough to decide
/// domination against a bracket:
///
///   best_strictly_cheaper_  — max exact influence at strictly lower cost;
///                             >= maxInf(c) dominates (cost is strict);
///   best_in_group_          — max exact influence at equal cost;
///                             > maxInf(c) dominates (influence is strict).
///
/// maxInf only ever overestimates the exact influence, so both tests are
/// sound before and during validation. Settled survivors go into a pool
/// that Finish() sweeps once more: a candidate settled early can still be
/// dominated by a higher-influence member settled later (domination is
/// transitive, so the pool sweep closes the gap without revisiting skipped
/// candidates).
class SkylinePolicy {
 public:
  SkylinePolicy(std::span<const double> cost, std::vector<int64_t> min_inf,
                std::vector<int64_t> max_inf, SkylineResult* result)
      : cost_(cost),
        min_inf_(std::move(min_inf)),
        max_inf_(std::move(max_inf)),
        result_(result) {}

  CandidateAdmission Admit(uint32_t j) {
    if (!have_group_ || cost_[j] != group_cost_) {
      best_strictly_cheaper_ =
          std::max(best_strictly_cheaper_, best_in_group_);
      best_in_group_ = -1;
      group_cost_ = cost_[j];
      have_group_ = true;
    }
    if (Dominated(j)) {
      ++result_->bound_skipped;
      return CandidateAdmission::kSkip;
    }
    return CandidateAdmission::kEvaluate;
  }

  // The smallest upper bound no settled maximum dominates:
  // best_strictly_cheaper_ >= upper or max(best_strictly_cheaper_,
  // best_in_group_) > upper is upper < Threshold(). Both maxima only rise,
  // and a new cost group folds best_in_group_ into best_strictly_cheaper_,
  // so the threshold never falls.
  int64_t Threshold() const {
    return std::max(best_strictly_cheaper_ + 1,
                    std::max(best_strictly_cheaper_, best_in_group_));
  }

  int64_t UpperBound(uint32_t j) const { return max_inf_[j]; }

  void Settle(uint32_t j, int64_t influenced, int64_t refuted,
              bool complete) {
    min_inf_[j] += influenced;
    max_inf_[j] -= refuted;
    // An aborted candidate is dominated; its exact influence is unknown
    // and irrelevant. Fully validated: the bracket has collapsed, minInf
    // is exact.
    if (!complete) return;
    pool_.push_back({j, min_inf_[j], cost_[j]});
    best_in_group_ = std::max(best_in_group_, min_inf_[j]);
  }

  void Finish() {
    std::sort(pool_.begin(), pool_.end(), MemberBefore);
    // One pass in cost order: a pool member is dominated iff some kept
    // member has strictly higher influence, or equal influence at strictly
    // lower cost. best_cost_ is the cost of the first (cheapest) member
    // achieving best_inf_.
    int64_t best_inf = -1;
    double best_cost = 0.0;
    for (const SkylineMember& member : pool_) {
      if (best_inf > member.influence ||
          (best_inf == member.influence && best_cost < member.cost)) {
        continue;
      }
      if (member.influence > best_inf) {
        best_inf = member.influence;
        best_cost = member.cost;
      }
      result_->members.push_back(member);
    }
  }

 private:
  bool Dominated(uint32_t j) const { return max_inf_[j] < Threshold(); }

  std::span<const double> cost_;
  std::vector<int64_t> min_inf_;
  std::vector<int64_t> max_inf_;
  SkylineResult* result_;
  std::vector<SkylineMember> pool_;
  double group_cost_ = 0.0;
  bool have_group_ = false;
  int64_t best_strictly_cheaper_ = -1;
  int64_t best_in_group_ = -1;
};

void CheckSkylineCosts(std::span<const double> cost, size_t m) {
  PINO_CHECK_EQ(cost.size(), m);
  for (double c : cost) PINO_CHECK(std::isfinite(c)) << "skyline cost " << c;
}

/// Cost ascending, then the engine's canonical bound order: cheapest
/// candidates settle first so their exact influences dominate everything
/// more expensive with a smaller upper bound.
std::vector<uint32_t> SkylineOrder(std::span<const double> cost,
                                   std::span<const int64_t> min_inf,
                                   std::span<const int64_t> max_inf) {
  std::vector<uint32_t> order(cost.size());
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (cost[a] != cost[b]) return cost[a] < cost[b];
    return OrderBefore(min_inf, max_inf, a, b);
  });
  return order;
}

}  // namespace

SkylineResult SolveSkyline(const PreparedInstance& prepared,
                           std::span<const double> cost,
                           size_t num_threads) {
  const size_t m = prepared.num_candidates();
  CheckSkylineCosts(cost, m);
  Stopwatch watch;
  SkylineResult result;
  if (m == 0) {
    internal::FinishSolveTiming(&result.stats, watch.ElapsedSeconds());
    return result;
  }
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());
  const MorselScheduler scheduler(num_threads);
  const CandidateBrackets brackets = BuildCandidateBrackets(
      prepared, kernel, /*use_pruning=*/true, &result.stats, scheduler);
  const std::vector<uint32_t> order =
      SkylineOrder(cost, brackets.min_inf, brackets.max_inf);

  SkylinePolicy policy(cost, brackets.min_inf, brackets.max_inf, &result);
  const auto verification_set = [&](uint32_t j) -> std::span<const uint32_t> {
    return brackets.VerificationSet(j);
  };
  EvaluateBoundOrdered(prepared, kernel, order, verification_set,
                       &result.stats, policy, scheduler);
  policy.Finish();
  internal::FinishSolveTiming(&result.stats, watch.ElapsedSeconds());
  return result;
}

SkylineResult SolveSkyline(const InfluenceSets& pass,
                           std::span<const double> cost) {
  const size_t m = pass.num_candidates();
  CheckSkylineCosts(cost, m);
  Stopwatch watch;
  SkylineResult result;
  // least[i]: the least cost among the i most influential candidates.
  std::vector<double> least(m + 1, std::numeric_limits<double>::infinity());
  for (size_t i = 0; i < m; ++i) {
    least[i + 1] = std::min(least[i], cost[pass.ranking[i]]);
  }
  for (uint32_t j = 0; j < m; ++j) {
    if (least[pass.ge_max[j]] < cost[j] || least[pass.gt_max[j]] <= cost[j]) {
      ++result.bound_skipped;
    }
  }
  // Runs of equal influence along the ranking: a run whose least cost
  // undercuts every more influential candidate (least[begin]) contributes
  // its candidates at that cost.
  for (size_t begin = 0, end = 0; begin < m; begin = end) {
    const int64_t influence = pass.Influence(pass.ranking[begin]);
    while (end < m && pass.Influence(pass.ranking[end]) == influence) ++end;
    if (least[end] >= least[begin]) continue;
    for (size_t i = begin; i < end; ++i) {
      const uint32_t j = pass.ranking[i];
      if (cost[j] == least[end]) {
        result.members.push_back({j, influence, cost[j]});
      }
    }
  }
  std::sort(result.members.begin(), result.members.end(), MemberBefore);
  internal::FinishSolveTiming(&result.stats, watch.ElapsedSeconds());
  return result;
}

// ------------------------------------------------------------ diversified

namespace {

/// CELF lazy greedy over prebuilt influence sets.
void GreedySelect(const PreparedInstance& prepared, size_t k,
                  double min_separation, const InfluenceSets& sets,
                  DiversifiedResult* result) {
  const size_t m = prepared.num_candidates();
  const size_t r = prepared.num_objects();

  // CELF lazy greedy: a max-heap of (cached gain, candidate, round the
  // gain was computed in). A popped entry with a stale round is recomputed
  // against the current coverage and pushed back.
  std::vector<char> covered(r, 0);
  int64_t covered_count = 0;

  struct HeapEntry {
    int64_t gain;
    uint32_t candidate;
    size_t round;
    bool operator<(const HeapEntry& other) const {
      // Max-heap by gain; equal gains pop in ascending candidate order, so
      // the selection matches the brute-force greedy reference tie-break.
      if (gain != other.gain) return gain < other.gain;
      return candidate > other.candidate;
    }
  };
  std::priority_queue<HeapEntry> heap;
  for (size_t j = 0; j < m; ++j) {
    // Initial gains are exact (round 0, nothing covered yet).
    heap.push({sets.Influence(static_cast<uint32_t>(j)),
               static_cast<uint32_t>(j), 0});
    ++result->gain_evaluations;
  }

  const auto recompute_gain = [&](uint32_t j) {
    int64_t gain = 0;
    for (uint32_t obj : sets.Objects(j)) {
      if (!covered[obj]) ++gain;
    }
    ++result->gain_evaluations;
    return gain;
  };

  // Coverage is monotone, so a candidate inside the separation radius of
  // any selected facility can never become selectable again — infeasible
  // pops are discarded permanently instead of reinserted.
  const auto feasible = [&](uint32_t j) {
    if (min_separation <= 0.0) return true;
    const Point& c = prepared.candidate(j);
    for (uint32_t s : result->selected) {
      if (Distance(prepared.candidate(s), c) < min_separation) return false;
    }
    return true;
  };

  std::vector<char> selected(m, 0);
  const size_t target = std::min(k, m);
  for (size_t round = 1;
       result->selected.size() < target && !heap.empty();) {
    HeapEntry top = heap.top();
    heap.pop();
    if (selected[top.candidate]) continue;
    if (!feasible(top.candidate)) {
      ++result->separation_rejections;
      continue;
    }
    if (top.round != round) {
      // Stale: refresh and reinsert (submodularity guarantees the true
      // gain is <= the cached one, so the heap order stays valid).
      top.gain = recompute_gain(top.candidate);
      top.round = round;
      heap.push(top);
      continue;
    }
    // Fresh feasible maximum: select it.
    selected[top.candidate] = 1;
    result->selected.push_back(top.candidate);
    for (uint32_t obj : sets.Objects(top.candidate)) {
      if (!covered[obj]) {
        covered[obj] = 1;
        ++covered_count;
      }
    }
    result->coverage.push_back(covered_count);
    ++round;
  }
}

}  // namespace

InfluenceSets BuildInfluenceSets(const PreparedInstance& prepared,
                                 const InfluenceKernel& kernel,
                                 const MorselScheduler& scheduler) {
  const std::vector<Morsel> morsels =
      PlanRecordMorsels(prepared.store(), scheduler);
  const size_t m = prepared.num_candidates();
  std::vector<RecordCandidateLists> influenced(morsels.size());
  std::vector<PruneWorkerShare> workers(scheduler.num_threads());
  for (PruneWorkerShare& w : workers) {
    w.influence.assign(m, 0);
    w.remnants.assign(m, 0);
  }
  scheduler.Run(morsels, [&](size_t w, size_t mi, const Morsel& morsel) {
    RecordCandidateLists& lists = influenced[mi];
    lists.first_record = morsel.first_record;
    lists.counts.assign(morsel.size(), 0);
    PruneAndValidate(prepared.candidate_rtree(), prepared.store(), kernel,
                     morsel.first_record, morsel.last_record, m, nullptr,
                     [&](uint32_t j, uint32_t k) {
                       lists.candidates.push_back(j);
                       ++lists.counts[k - morsel.first_record];
                     },
                     workers[w].influence, workers[w].remnants);
  });
  InfluenceSets sets;
  RecordListsToCsr(m, influenced, &sets.offsets, &sets.objects);
  sets.min_inf.assign(m, 0);
  sets.max_inf.assign(m, 0);
  for (const PruneWorkerShare& w : workers) {
    for (size_t j = 0; j < m; ++j) {
      sets.min_inf[j] += w.influence[j];
      sets.max_inf[j] += w.influence[j] + w.remnants[j];
    }
  }

  // The reader index: PIN's ranking, then per candidate the prefixes of
  // it whose influence reaches max_inf.
  std::vector<int64_t> influence(m);
  for (uint32_t j = 0; j < m; ++j) influence[j] = sets.Influence(j);
  sets.ranking = internal::RankByInfluence(influence);
  const auto prefix = [&](auto reaches) {
    return static_cast<uint32_t>(
        std::partition_point(
            sets.ranking.begin(), sets.ranking.end(),
            [&](uint32_t k) { return reaches(influence[k]); }) -
        sets.ranking.begin());
  };
  sets.ge_max.resize(m);
  sets.gt_max.resize(m);
  for (size_t j = 0; j < m; ++j) {
    const int64_t top = sets.max_inf[j];
    sets.ge_max[j] = prefix([top](int64_t inf) { return inf >= top; });
    sets.gt_max[j] = prefix([top](int64_t inf) { return inf > top; });
  }
  return sets;
}

DiversifiedResult SelectDiversified(const PreparedInstance& prepared, size_t k,
                                    double min_separation,
                                    size_t num_threads) {
  Stopwatch watch;
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());
  DiversifiedResult result = SelectDiversified(
      prepared,
      BuildInfluenceSets(prepared, kernel, MorselScheduler(num_threads)), k,
      min_separation);
  result.solve_seconds = watch.ElapsedSeconds();
  result.elapsed_seconds = result.prepare_seconds + result.solve_seconds;
  return result;
}

DiversifiedResult SelectDiversified(const PreparedInstance& prepared,
                                    const InfluenceSets& pass, size_t k,
                                    double min_separation) {
  PINO_CHECK_GT(k, 0u);
  PINO_CHECK_GE(min_separation, 0.0);
  PINO_CHECK_EQ(pass.num_candidates(), prepared.num_candidates());
  Stopwatch watch;
  DiversifiedResult result;
  GreedySelect(prepared, k, min_separation, pass, &result);
  result.solve_seconds = watch.ElapsedSeconds();
  result.elapsed_seconds = result.prepare_seconds + result.solve_seconds;
  return result;
}

}  // namespace query
}  // namespace pinocchio
