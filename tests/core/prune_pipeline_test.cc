#include "core/prune_pipeline.h"

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/naive_solver.h"
#include "core/pinocchio_solver.h"
#include "core/prepared_instance.h"
#include "core/query_engine.h"
#include "prob/influence.h"
#include "prob/influence_kernel.h"
#include "testing/instance_helpers.h"
#include "testing/scoped_env.h"

namespace pinocchio {
namespace {

using testing_helpers::DefaultConfig;
using testing_helpers::InstanceOptions;
using testing_helpers::RandomInstance;
using testing_helpers::ScopedEnv;

using PairList = std::vector<std::pair<uint32_t, uint32_t>>;  // (cand, rec)

// Brute-force classification over every (candidate, record) pair, straight
// from the region definitions.
struct BruteForceClassification {
  PairList ia;
  PairList remnant;
  int64_t nib_pruned = 0;
};

BruteForceClassification BruteForceClassify(const ProblemInstance& instance,
                                            const ObjectStore& store,
                                            uint32_t first, uint32_t last) {
  BruteForceClassification want;
  for (uint32_t k = first; k < last; ++k) {
    const ObjectRecord& rec = store.records()[k];
    for (uint32_t j = 0; j < instance.candidates.size(); ++j) {
      const Point& c = instance.candidates[j];
      if (!rec.nib.Contains(c)) {
        ++want.nib_pruned;
      } else if (!rec.ia.IsEmpty() && rec.ia.Contains(c)) {
        want.ia.emplace_back(j, k);
      } else {
        want.remnant.emplace_back(j, k);
      }
    }
  }
  return want;
}

PairList Sorted(PairList pairs) {
  std::sort(pairs.begin(), pairs.end());
  return pairs;
}

// The pass over records [first, last) of the prepared store, counting each
// influenced pair per candidate.
std::vector<int64_t> CountInfluence(const PreparedInstance& prepared,
                                    const InfluenceKernel& kernel,
                                    uint32_t first, uint32_t last,
                                    SolverStats* stats) {
  std::vector<int64_t> influence(prepared.num_candidates(), 0);
  PruneAndValidate(prepared.candidate_rtree(), prepared.store(), kernel, first,
                   last, prepared.num_candidates(), stats,
                   [&](uint32_t j, uint32_t) { ++influence[j]; });
  return influence;
}

// Candidates packed tightly enough that records see dozens of R-tree hits
// inside their NIB box.
InstanceOptions DenseOptions() {
  InstanceOptions opts;
  opts.num_objects = 60;
  opts.num_candidates = 400;
  opts.extent_meters = 5000.0;
  return opts;
}

// Classification against the region definitions, over the whole store and
// a range starting mid-store: per-candidate IA credits, the remnant pairs
// of each record, both prune counters, the reset of stale list content,
// and the transposition of the lists into the record-ascending CSR.
void ExpectClassificationMatchesBruteForce(double tau,
                                           const InstanceOptions& opts = {}) {
  const ProblemInstance instance = RandomInstance(91, opts);
  const PreparedInstance prepared(instance, DefaultConfig(tau));
  const ObjectStore& store = prepared.store();
  const size_t m = prepared.num_candidates();
  const auto r = static_cast<uint32_t>(store.size());
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());

  for (const uint32_t first : {0u, r / 3}) {
    SCOPED_TRACE("first record " + std::to_string(first));
    std::vector<int64_t> credits(m, 0);
    // Stale content must be reset.
    RecordCandidateLists lists{.first_record = r, .counts = {1},
                               .candidates = {7}};
    SolverStats stats;
    ClassifyCandidates(prepared.candidate_rtree(), store, kernel, first, r, m,
                       &stats, credits, &lists);

    const BruteForceClassification want =
        BruteForceClassify(instance, store, first, r);
    std::vector<int64_t> want_credits(m, 0);
    for (const auto& [j, k] : want.ia) ++want_credits[j];
    EXPECT_EQ(credits, want_credits);
    EXPECT_EQ(stats.pairs_pruned_by_ia, static_cast<int64_t>(want.ia.size()));
    EXPECT_EQ(stats.pairs_pruned_by_nib, want.nib_pruned);

    EXPECT_EQ(lists.first_record, first);
    ASSERT_EQ(lists.counts.size(), r - first);
    PairList remnants;
    size_t next = 0;
    for (size_t i = 0; i < lists.counts.size(); ++i) {
      for (uint32_t n = 0; n < lists.counts[i]; ++n) {
        ASSERT_LT(next, lists.candidates.size());
        remnants.emplace_back(lists.candidates[next++],
                              static_cast<uint32_t>(first + i));
      }
    }
    EXPECT_EQ(next, lists.candidates.size());
    ASSERT_FALSE(want.remnant.empty());
    const PairList sorted = Sorted(want.remnant);
    EXPECT_EQ(Sorted(remnants), sorted);

    std::vector<uint32_t> offsets;
    std::vector<uint32_t> data;
    query::RecordListsToCsr(m, {&lists, 1}, &offsets, &data);
    ASSERT_EQ(offsets.size(), m + 1);
    ASSERT_EQ(data.size(), sorted.size());
    for (size_t i = 0; i < sorted.size(); ++i) {
      const auto [j, k] = sorted[i];
      EXPECT_GE(i, offsets[j]);
      EXPECT_LT(i, offsets[j + 1]);
      EXPECT_EQ(data[i], k);
    }
  }
}

TEST(PrunePipelineTest, ClassificationMatchesBruteForceGeometry) {
  ExpectClassificationMatchesBruteForce(0.7);
}

// Tau moves both region boundaries, so each tau is its own geometry.
class PruneClassifyTest : public ::testing::TestWithParam<double> {};

TEST_P(PruneClassifyTest, ClassificationMatchesBruteForceGeometry) {
  ExpectClassificationMatchesBruteForce(GetParam());
}

INSTANTIATE_TEST_SUITE_P(OtherTaus, PruneClassifyTest,
                         ::testing::Values(0.3, 0.5, 0.9),
                         [](const auto& info) {
                           return "tau" + std::to_string(static_cast<int>(
                                              info.param * 100 + 0.5));
                         });

// Every hit of a crowded NIB box is decided by the exact predicates where
// the range query finds it.
TEST(PrunePipelineTest, DenseRecordsMatchBruteForceGeometry) {
  const ProblemInstance instance = RandomInstance(91, DenseOptions());
  const PreparedInstance prepared(instance, DefaultConfig());
  const ObjectStore& store = prepared.store();
  const auto r = static_cast<uint32_t>(store.size());
  const BruteForceClassification inside =
      BruteForceClassify(instance, store, 0, r);
  ASSERT_GE(inside.ia.size() + inside.remnant.size(), size_t{24} * r);
  ExpectClassificationMatchesBruteForce(0.7, DenseOptions());
}

// The prune phase runs the same exact predicates on every SIMD tier and
// validation decides bit-identically, so the pass reports the same pairs in
// the same order, the same starting brackets and the same decision
// counters whichever tier the kernel resolved.
TEST(PrunePipelineTest, PassIsIdenticalOnEveryTier) {
  const ProblemInstance instance = RandomInstance(103, DenseOptions());
  const PreparedInstance prepared(instance, DefaultConfig());
  const size_t m = prepared.num_candidates();
  const auto r = static_cast<uint32_t>(prepared.store().size());

  struct Pass {
    PairList pairs;
    std::vector<int64_t> ia_credits;
    std::vector<int64_t> remnants;
    SolverStats stats;
  };
  const auto run = [&](const char* tier) {
    const InfluenceKernel kernel = [&] {
      ScopedEnv simd("PINOCCHIO_SIMD_TIER", tier);
      return InfluenceKernel(prepared.pf(), prepared.tau());
    }();
    Pass pass;
    pass.ia_credits.assign(m, 0);
    pass.remnants.assign(m, 0);
    PruneAndValidate(
        prepared.candidate_rtree(), prepared.store(), kernel, 0, r, m,
        &pass.stats,
        [&](uint32_t j, uint32_t k) { pass.pairs.emplace_back(j, k); },
        pass.ia_credits, pass.remnants);
    return pass;
  };
  const Pass scalar = run("scalar");
  ASSERT_GT(scalar.stats.pairs_pruned_by_ia, 0);
  ASSERT_GT(scalar.stats.pairs_validated, 0);
  for (const char* tier : {"portable", "avx2"}) {
    SCOPED_TRACE(tier);
    const Pass got = run(tier);
    EXPECT_EQ(got.pairs, scalar.pairs);
    EXPECT_EQ(got.ia_credits, scalar.ia_credits);
    EXPECT_EQ(got.remnants, scalar.remnants);
    EXPECT_EQ(got.stats.pairs_pruned_by_ia, scalar.stats.pairs_pruned_by_ia);
    EXPECT_EQ(got.stats.pairs_pruned_by_nib,
              scalar.stats.pairs_pruned_by_nib);
    EXPECT_EQ(got.stats.pairs_validated, scalar.stats.pairs_validated);
  }
}

TEST(PrunePipelineTest, PruneAndValidateMatchesNaiveSolver) {
  const ProblemInstance instance = RandomInstance(92);
  const SolverConfig config = DefaultConfig();
  const PreparedInstance prepared(instance, config);
  const ObjectStore& store = prepared.store();
  const size_t m = prepared.num_candidates();
  const auto r = static_cast<uint32_t>(store.size());
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());

  SolverStats stats;
  const std::vector<int64_t> influence =
      CountInfluence(prepared, kernel, 0, r, &stats);

  const SolverResult naive = NaiveSolver().Solve(instance, config);
  EXPECT_EQ(influence, naive.influence);
  // Every pair is accounted for exactly once: pruned by IA, pruned by NIB,
  // or validated.
  EXPECT_EQ(stats.pairs_pruned_by_ia + stats.pairs_pruned_by_nib +
                stats.pairs_validated,
            static_cast<int64_t>(m) * static_cast<int64_t>(r));
}

TEST(PrunePipelineTest, RecordRangePartitionsComposeExactly) {
  const ProblemInstance instance = RandomInstance(94);
  const PreparedInstance prepared(instance, DefaultConfig());
  const ObjectStore& store = prepared.store();
  const size_t m = prepared.num_candidates();
  const auto r = static_cast<uint32_t>(store.size());
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());

  SolverStats full_stats;
  const std::vector<int64_t> full =
      CountInfluence(prepared, kernel, 0, r, &full_stats);

  // Disjoint record slices merged with plain addition — the contract the
  // parallel solver relies on.
  std::vector<int64_t> merged(m, 0);
  SolverStats merged_stats;
  const uint32_t mid = r / 2;
  for (const auto& [begin, end] :
       std::vector<std::pair<uint32_t, uint32_t>>{{0, mid}, {mid, r}}) {
    SolverStats part_stats;
    const std::vector<int64_t> part =
        CountInfluence(prepared, kernel, begin, end, &part_stats);
    for (size_t j = 0; j < m; ++j) merged[j] += part[j];
    merged_stats.pairs_pruned_by_ia += part_stats.pairs_pruned_by_ia;
    merged_stats.pairs_pruned_by_nib += part_stats.pairs_pruned_by_nib;
    merged_stats.pairs_validated += part_stats.pairs_validated;
    merged_stats.positions_scanned += part_stats.positions_scanned;
    merged_stats.early_stops += part_stats.early_stops;
  }

  EXPECT_EQ(merged, full);
  EXPECT_EQ(merged_stats.pairs_pruned_by_ia, full_stats.pairs_pruned_by_ia);
  EXPECT_EQ(merged_stats.pairs_pruned_by_nib, full_stats.pairs_pruned_by_nib);
  EXPECT_EQ(merged_stats.pairs_validated, full_stats.pairs_validated);
  EXPECT_EQ(merged_stats.positions_scanned, full_stats.positions_scanned);
  EXPECT_EQ(merged_stats.early_stops, full_stats.early_stops);
}

TEST(PrunePipelineTest, NullStatsIsAccepted) {
  const ProblemInstance instance = RandomInstance(95);
  const PreparedInstance prepared(instance, DefaultConfig());
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());
  const std::vector<int64_t> influence = CountInfluence(
      prepared, kernel, 0, static_cast<uint32_t>(prepared.store().size()),
      nullptr);
  const SolverResult naive = NaiveSolver().Solve(instance, DefaultConfig());
  EXPECT_EQ(influence, naive.influence);
}

// The visitor sees every influenced (candidate, record) pair exactly once —
// the scalar Definition-2 test over every pair — and nothing else.
TEST(PrunePipelineTest, VisitorSeesEachInfluencedPairOnce) {
  const ProblemInstance instance = RandomInstance(96);
  const PreparedInstance prepared(instance, DefaultConfig());
  const ObjectStore& store = prepared.store();
  const auto r = static_cast<uint32_t>(store.size());
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());

  PairList got;
  PruneAndValidate(prepared.candidate_rtree(), store, kernel, 0, r,
                   prepared.num_candidates(), nullptr,
                   [&](uint32_t j, uint32_t k) { got.emplace_back(j, k); });

  PairList want;
  for (uint32_t j = 0; j < prepared.num_candidates(); ++j) {
    for (uint32_t k = 0; k < r; ++k) {
      if (Influences(prepared.pf(), prepared.candidate(j), store.positions(k),
                     prepared.tau())) {
        want.emplace_back(j, k);
      }
    }
  }
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(Sorted(got), want);
}

// PIN is the pass plus a counting visitor, so over the whole store the
// pass's influence and all five pass counters are PIN's.
TEST(PrunePipelineTest, PassCountersMatchPinSolver) {
  const ProblemInstance instance = RandomInstance(98);
  const PreparedInstance prepared(instance, DefaultConfig());
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());

  SolverStats stats;
  const std::vector<int64_t> influence = CountInfluence(
      prepared, kernel, 0, static_cast<uint32_t>(prepared.store().size()),
      &stats);

  const SolverResult pin = PinocchioSolver().Solve(prepared);
  EXPECT_EQ(influence, pin.influence);
  EXPECT_EQ(stats.pairs_pruned_by_ia, pin.stats.pairs_pruned_by_ia);
  EXPECT_EQ(stats.pairs_pruned_by_nib, pin.stats.pairs_pruned_by_nib);
  EXPECT_EQ(stats.pairs_validated, pin.stats.pairs_validated);
  EXPECT_EQ(stats.positions_scanned, pin.stats.positions_scanned);
  EXPECT_EQ(stats.early_stops, pin.stats.early_stops);
}

// ClassifyCandidates is the pass's prune phase alone: the same prune
// counters, and exactly one validation per remnant pair.
TEST(PrunePipelineTest, ClassifyCountersMatchThePass) {
  const ProblemInstance instance = RandomInstance(99);
  const PreparedInstance prepared(instance, DefaultConfig());
  const ObjectStore& store = prepared.store();
  const size_t m = prepared.num_candidates();
  const auto r = static_cast<uint32_t>(store.size());
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());

  SolverStats classify_stats;
  std::vector<int64_t> credits(m, 0);
  RecordCandidateLists remnants;
  ClassifyCandidates(prepared.candidate_rtree(), store, kernel, 0, r, m,
                     &classify_stats, credits, &remnants);
  SolverStats pass_stats;
  CountInfluence(prepared, kernel, 0, r, &pass_stats);

  EXPECT_EQ(classify_stats.pairs_pruned_by_ia, pass_stats.pairs_pruned_by_ia);
  EXPECT_EQ(classify_stats.pairs_pruned_by_nib,
            pass_stats.pairs_pruned_by_nib);
  EXPECT_EQ(classify_stats.pairs_validated, 0);
  EXPECT_EQ(pass_stats.pairs_validated,
            static_cast<int64_t>(remnants.candidates.size()));
}

// Records arrive in ascending order; within a record the IA certificates
// come first, in index-visit order, then the validated remnants in the
// order classification found them. The expected sequence walks the
// candidate R-tree over each record's NIB box with the exact region
// predicates.
TEST(PrunePipelineTest, PairsArriveInRecordOrderIaFirst) {
  const ProblemInstance instance = RandomInstance(100);
  const PreparedInstance prepared(instance, DefaultConfig());
  const ObjectStore& store = prepared.store();
  const size_t m = prepared.num_candidates();
  const auto r = static_cast<uint32_t>(store.size());
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());

  PairList got;
  PruneAndValidate(prepared.candidate_rtree(), store, kernel, 0, r, m, nullptr,
                   [&](uint32_t j, uint32_t k) { got.emplace_back(j, k); });

  PairList want;
  for (uint32_t k = 0; k < r; ++k) {
    const ObjectRecord& rec = store.records()[k];
    std::vector<uint32_t> remnant;
    prepared.candidate_rtree().QueryRect(
        rec.nib.BoundingBox(), [&](const RTreeEntry& e) {
          if (!rec.nib.Contains(e.point)) return;  // Lemma 3
          if (!rec.ia.IsEmpty() && rec.ia.Contains(e.point)) {  // Lemma 2
            want.emplace_back(e.id, k);
          } else {
            remnant.push_back(e.id);
          }
        });
    for (uint32_t j : remnant) {
      if (Influences(prepared.pf(), prepared.candidate(j), store.positions(k),
                     prepared.tau())) {
        want.emplace_back(j, k);
      }
    }
  }
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(got, want);
}

TEST(PrunePipelineTest, EmptyRecordRangeVisitsNothing) {
  const ProblemInstance instance = RandomInstance(101);
  const PreparedInstance prepared(instance, DefaultConfig());
  const InfluenceKernel kernel(prepared.pf(), prepared.tau());
  const auto mid = static_cast<uint32_t>(prepared.store().size() / 2);

  SolverStats stats;
  int64_t visits = 0;
  PruneAndValidate(prepared.candidate_rtree(), prepared.store(), kernel, mid,
                   mid, prepared.num_candidates(), &stats,
                   [&](uint32_t, uint32_t) { ++visits; });
  EXPECT_EQ(visits, 0);
  EXPECT_EQ(stats.pairs_pruned_by_ia, 0);
  EXPECT_EQ(stats.pairs_pruned_by_nib, 0);
  EXPECT_EQ(stats.pairs_validated, 0);
  EXPECT_EQ(stats.positions_scanned, 0);
  EXPECT_EQ(stats.early_stops, 0);
}

}  // namespace
}  // namespace pinocchio
