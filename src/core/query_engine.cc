#include "core/query_engine.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "geo/point.h"
#include "util/stopwatch.h"

namespace pinocchio {
namespace query {

namespace {

using PairChunk = std::vector<std::pair<uint32_t, uint32_t>>;

/// Counting-sorts (candidate, record) pairs, concatenated in chunk order,
/// into a CSR layout over `num_candidates`. Size-then-fill is stable, so
/// the chunk concatenation order is each candidate's record order: one
/// chunk per record morsel, in morsel order, gives the record-major layout
/// at any thread budget.
void PairsToCsr(size_t num_candidates, std::span<const PairChunk> chunks,
                std::vector<uint32_t>* offsets, std::vector<uint32_t>* data) {
  offsets->assign(num_candidates + 1, 0);
  size_t total = 0;
  for (const PairChunk& chunk : chunks) {
    total += chunk.size();
    for (const auto& [cand, rec] : chunk) ++(*offsets)[cand + 1];
  }
  for (size_t j = 0; j < num_candidates; ++j) {
    (*offsets)[j + 1] += (*offsets)[j];
  }
  data->resize(total);
  std::vector<uint32_t> cursor(offsets->begin(), offsets->end() - 1);
  for (const PairChunk& chunk : chunks) {
    for (const auto& [cand, rec] : chunk) (*data)[cursor[cand]++] = rec;
  }
}

/// Tournament (winner-tree) merge of per-shard sorted runs under the
/// strict total order `before`. Because the order has no ties and the
/// shards partition the candidate ids, the merged sequence equals a global
/// sort of the concatenated input.
template <typename Before>
std::vector<uint32_t> TournamentMerge(std::vector<std::vector<uint32_t>> runs,
                                      size_t total, const Before& before) {
  constexpr size_t kNone = static_cast<size_t>(-1);
  const size_t s = runs.size();
  if (s == 1) return std::move(runs.front());
  std::vector<uint32_t> out;
  out.reserve(total);
  if (s == 0) return out;

  size_t leaves = 1;
  while (leaves < s) leaves <<= 1;
  std::vector<size_t> tree(2 * leaves, kNone);  // node -> winning run index
  std::vector<size_t> pos(s, 0);

  const auto exhausted = [&](size_t run) {
    return run == kNone || pos[run] >= runs[run].size();
  };
  const auto winner = [&](size_t a, size_t b) {
    if (exhausted(a)) return b;
    if (exhausted(b)) return a;
    return before(runs[a][pos[a]], runs[b][pos[b]]) ? a : b;
  };

  for (size_t i = 0; i < leaves; ++i) tree[leaves + i] = i < s ? i : kNone;
  for (size_t i = leaves - 1; i >= 1; --i) {
    tree[i] = winner(tree[2 * i], tree[2 * i + 1]);
  }
  while (!exhausted(tree[1])) {
    const size_t run = tree[1];
    out.push_back(runs[run][pos[run]]);
    ++pos[run];
    for (size_t node = (leaves + run) / 2; node >= 1; node /= 2) {
      tree[node] = winner(tree[2 * node], tree[2 * node + 1]);
    }
  }
  return out;
}

}  // namespace

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
    brackets.all_records.resize(static_cast<size_t>(r));
    std::iota(brackets.all_records.begin(), brackets.all_records.end(), 0u);
    return brackets;
  }

  // minInf is a per-worker additive accumulator (any completion order
  // sums the same); remnant pairs go to per-morsel lists whose morsel-order
  // concatenation is the record-major, query-visit-minor pair order.
  const std::vector<Morsel> morsels = PlanRecordMorsels(store, scheduler);
  std::vector<PruneWorkerShare> workers(scheduler.num_threads());
  for (PruneWorkerShare& w : workers) w.influence.assign(m, 0);
  std::vector<PairChunk> morsel_pairs(morsels.size());
  scheduler.Run(morsels, [&](size_t w, size_t mi, const Morsel& morsel) {
    PruneWorkerShare& acc = workers[w];
    PairChunk& pairs = morsel_pairs[mi];
    ClassifyCandidates(
        prepared.candidate_rtree(), store, kernel, morsel.first_record,
        morsel.last_record, m, &acc.stats,
        [&](const RTreeEntry& e, uint32_t) { ++acc.influence[e.id]; },
        [&](const RTreeEntry& e, uint32_t k) { pairs.emplace_back(e.id, k); });
  });

  for (const PruneWorkerShare& w : workers) {
    for (size_t j = 0; j < m; ++j) brackets.min_inf[j] += w.influence[j];
    if (stats != nullptr) {
      stats->pairs_pruned_by_ia += w.stats.pairs_pruned_by_ia;
      stats->pairs_pruned_by_nib += w.stats.pairs_pruned_by_nib;
    }
  }
  PairsToCsr(m, morsel_pairs, &brackets.vs_offsets, &brackets.vs_data);
  for (size_t j = 0; j < m; ++j) {
    brackets.max_inf[j] = brackets.min_inf[j] + (brackets.vs_offsets[j + 1] -
                                                 brackets.vs_offsets[j]);
  }
  return brackets;
}

std::vector<uint32_t> BoundDominationOrder(const CandidateBrackets& brackets,
                                           const MorselScheduler& scheduler) {
  const size_t m = brackets.num_candidates();
  const auto before = [&](uint32_t a, uint32_t b) {
    return OrderBefore(brackets.min_inf, brackets.max_inf, a, b);
  };
  // One shard per worker, each sorted on its own (no shared state); the
  // tournament merge of the runs under the same strict total order equals
  // a global sort.
  const size_t threads = scheduler.num_threads();
  const std::vector<Morsel> shards =
      PlanUniformMorsels(m, (m + threads - 1) / threads);
  std::vector<std::vector<uint32_t>> runs(shards.size());
  scheduler.Run(shards, [&](size_t, size_t si, const Morsel& shard) {
    std::vector<uint32_t>& run = runs[si];
    run.resize(shard.size());
    std::iota(run.begin(), run.end(), shard.first_record);
    std::sort(run.begin(), run.end(), before);
  });
  return TournamentMerge(std::move(runs), m, before);
}

// ---------------------------------------------------------------- skyline

namespace {

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
  SkylinePolicy(std::span<const double> cost, CandidateBrackets* brackets,
                SkylineResult* result)
      : cost_(cost), brackets_(brackets), result_(result) {}

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

  bool AbortValidation(uint32_t j) const { return Dominated(j); }

  void OnDecision(uint32_t j, uint32_t /*rec_idx*/, bool influenced) {
    if (influenced) {
      ++brackets_->min_inf[j];
    } else {
      --brackets_->max_inf[j];
    }
  }

  void Settle(uint32_t j, bool complete) {
    // An aborted candidate is dominated; its exact influence is unknown
    // and irrelevant.
    if (!complete) return;
    // Fully validated: the bracket has collapsed, minInf is exact.
    const int64_t influence = brackets_->min_inf[j];
    pool_.push_back({j, influence, cost_[j]});
    best_in_group_ = std::max(best_in_group_, influence);
  }

  void Finish() {
    std::sort(pool_.begin(), pool_.end(),
              [](const SkylineMember& a, const SkylineMember& b) {
                if (a.cost != b.cost) return a.cost < b.cost;
                if (a.influence != b.influence) {
                  return a.influence > b.influence;
                }
                return a.candidate < b.candidate;
              });
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
  bool Dominated(uint32_t j) const {
    const int64_t upper = brackets_->max_inf[j];
    return best_strictly_cheaper_ >= upper ||
           std::max(best_strictly_cheaper_, best_in_group_) > upper;
  }

  std::span<const double> cost_;
  CandidateBrackets* brackets_;
  SkylineResult* result_;
  std::vector<SkylineMember> pool_;
  double group_cost_ = 0.0;
  bool have_group_ = false;
  int64_t best_strictly_cheaper_ = -1;
  int64_t best_in_group_ = -1;
};

}  // namespace

SkylineResult SolveSkyline(const PreparedInstance& prepared,
                           std::span<const double> cost,
                           size_t num_threads) {
  const size_t m = prepared.num_candidates();
  PINO_CHECK_EQ(cost.size(), m);
  for (double c : cost) PINO_CHECK(std::isfinite(c)) << "skyline cost " << c;
  Stopwatch watch;
  SkylineResult result;
  if (m == 0) {
    internal::FinishSolveTiming(&result.stats, watch.ElapsedSeconds());
    return result;
  }
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());
  CandidateBrackets brackets =
      BuildCandidateBrackets(prepared, kernel, /*use_pruning=*/true,
                             &result.stats, MorselScheduler(num_threads));

  // Cost ascending, then the engine's canonical bound order: cheapest
  // candidates settle first so their exact influences dominate everything
  // more expensive with a smaller upper bound.
  std::vector<uint32_t> order(m);
  std::iota(order.begin(), order.end(), 0u);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    if (cost[a] != cost[b]) return cost[a] < cost[b];
    return OrderBefore(brackets.min_inf, brackets.max_inf, a, b);
  });

  SkylinePolicy policy(cost, &brackets, &result);
  const auto verification_set = [&](uint32_t j) -> std::span<const uint32_t> {
    return brackets.VerificationSet(j);
  };
  EvaluateBoundOrdered(prepared, kernel, order, verification_set,
                       &result.stats, policy);
  policy.Finish();
  internal::FinishSolveTiming(&result.stats, watch.ElapsedSeconds());
  return result;
}

// ------------------------------------------------------------ diversified

namespace {

/// Appends (candidate, record) influence pairs for records
/// [first_record, last_record) in record-major order: IA certificates
/// verbatim, remnants decided by the batch kernel.
void CollectInfluencePairs(const PreparedInstance& prepared,
                           const InfluenceKernel& kernel,
                           uint32_t first_record, uint32_t last_record,
                           PairChunk* pairs) {
  const ObjectStore& store = prepared.store();
  const size_t m = prepared.num_candidates();
  std::vector<Point> remnant_points;
  std::vector<uint32_t> remnant_ids;
  std::vector<uint8_t> remnant_influenced;
  for (uint32_t idx = first_record; idx < last_record; ++idx) {
    remnant_points.clear();
    remnant_ids.clear();
    ClassifyCandidates(
        prepared.candidate_rtree(), store, kernel, idx, idx + 1, m, nullptr,
        [&](const RTreeEntry& e, uint32_t rec_idx) {
          pairs->emplace_back(e.id, rec_idx);
        },
        [&](const RTreeEntry& e, uint32_t) {
          remnant_points.push_back(e.point);
          remnant_ids.push_back(e.id);
        });
    if (remnant_points.empty()) continue;
    remnant_influenced.assign(remnant_points.size(), 0);
    kernel.DecideMany(remnant_points, store.positions(idx),
                      remnant_influenced);
    for (size_t i = 0; i < remnant_ids.size(); ++i) {
      if (remnant_influenced[i] != 0) pairs->emplace_back(remnant_ids[i], idx);
    }
  }
}

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
    heap.push({static_cast<int64_t>(sets.Objects(static_cast<uint32_t>(j))
                                        .size()),
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
  std::vector<PairChunk> morsel_pairs(morsels.size());
  scheduler.Run(morsels, [&](size_t, size_t mi, const Morsel& morsel) {
    CollectInfluencePairs(prepared, kernel, morsel.first_record,
                          morsel.last_record, &morsel_pairs[mi]);
  });
  InfluenceSets sets;
  PairsToCsr(prepared.num_candidates(), morsel_pairs, &sets.offsets,
             &sets.objects);
  return sets;
}

DiversifiedResult SelectDiversified(const PreparedInstance& prepared, size_t k,
                                    double min_separation,
                                    size_t num_threads) {
  PINO_CHECK_GT(k, 0u);
  PINO_CHECK_GE(min_separation, 0.0);
  Stopwatch watch;
  DiversifiedResult result;
  if (prepared.num_candidates() == 0) {
    result.solve_seconds = watch.ElapsedSeconds();
    result.elapsed_seconds = result.prepare_seconds + result.solve_seconds;
    return result;
  }
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());
  const InfluenceSets sets =
      BuildInfluenceSets(prepared, kernel, MorselScheduler(num_threads));
  GreedySelect(prepared, k, min_separation, sets, &result);
  result.solve_seconds = watch.ElapsedSeconds();
  result.elapsed_seconds = result.prepare_seconds + result.solve_seconds;
  return result;
}

}  // namespace query
}  // namespace pinocchio
