// Differential coverage for the SIMD filter-and-refine kernel
// (prob/influence_kernel_simd.h): every available tier must produce
// decisions bit-identical to the forced-scalar kernel on adversarial
// inputs — the harness's randomized fuzz instances, all five PF families,
// one-ulp boundary taus and candidates placed exactly on the minMaxRadius
// rim — in whole batches and one candidate per call (the filter's one-lane
// path), plus unit tests for the runtime dispatch and its env override.

#include "prob/influence_kernel_simd.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "prob/alternative_pfs.h"
#include "prob/influence.h"
#include "prob/influence_kernel.h"
#include "prob/power_law.h"
#include "testing/differential_harness.h"
#include "testing/scoped_env.h"
#include "util/random.h"

namespace pinocchio {
namespace {

using testing_helpers::ScopedEnv;

InfluenceKernel MakeKernelForTier(const ProbabilityFunction& pf, double tau,
                                  const char* tier_name) {
  ScopedEnv tier("PINOCCHIO_SIMD_TIER", tier_name);
  return InfluenceKernel(pf, tau);
}

/// Tier names this build + CPU can actually execute (beyond kScalar).
std::vector<const char*> AvailableFilterTiers() {
  std::vector<const char*> tiers = {"portable"};
  const SimdTier detected = DetectCpuSimdTier();
  if (detected >= SimdTier::kAvx2) tiers.push_back("avx2");
  return tiers;
}

struct PfCase {
  std::unique_ptr<ProbabilityFunction> pf;
  const char* label;
};

std::vector<PfCase> AllPfFamilies() {
  std::vector<PfCase> pfs;
  pfs.push_back({std::make_unique<PowerLawPF>(0.9, 1.0), "power-law"});
  pfs.push_back({std::make_unique<LogsigPF>(0.5, 1000.0), "logsig"});
  pfs.push_back({std::make_unique<ConvexPF>(0.8, 4000.0), "convex"});
  pfs.push_back({std::make_unique<ConcavePF>(0.8, 4000.0), "concave"});
  pfs.push_back({std::make_unique<LinearPF>(1.0, 3000.0), "linear-rho1"});
  return pfs;
}

/// Diffs DecideMany of `kernel` against the forced-scalar `reference` on
/// one (candidates, positions) batch, first as one batch and then one
/// candidate per call.
void ExpectTierMatchesScalar(const InfluenceKernel& kernel,
                             const InfluenceKernel& reference,
                             std::span<const Point> candidates,
                             std::span<const Point> positions,
                             const std::string& context) {
  std::vector<uint8_t> got(candidates.size(), 0xFF);
  std::vector<uint8_t> want(candidates.size(), 0xFF);
  const InfluenceBatchCounters simd_counters =
      kernel.DecideMany(candidates, positions, got);
  const InfluenceBatchCounters scalar_counters =
      reference.DecideMany(candidates, positions, want);
  for (size_t i = 0; i < candidates.size(); ++i) {
    ASSERT_EQ(got[i] != 0, want[i] != 0)
        << context << ": candidate " << i << " at (" << candidates[i].x
        << ", " << candidates[i].y << ") over " << positions.size()
        << " positions, tier=" << SimdTierName(kernel.simd_tier());
  }
  // Chunk-granular counters: per batch they are bounded below by the exact
  // scalar early-exit counters and above by the full-scan cost.
  EXPECT_GE(simd_counters.positions_seen, scalar_counters.positions_seen)
      << context;
  EXPECT_LE(simd_counters.positions_seen,
            static_cast<int64_t>(candidates.size() * positions.size()))
      << context;
  EXPECT_LE(simd_counters.early_stops, scalar_counters.early_stops) << context;

  for (size_t i = 0; i < candidates.size(); ++i) {
    const std::span<const Point> one = candidates.subspan(i, 1);
    uint8_t got_one = 0xFF;
    uint8_t want_one = 0xFF;
    const InfluenceBatchCounters got_counters =
        kernel.DecideMany(one, positions, {&got_one, 1});
    const InfluenceBatchCounters want_counters =
        reference.DecideMany(one, positions, {&want_one, 1});
    ASSERT_EQ(got_one != 0, want_one != 0)
        << context << ": one-candidate batch " << i << " at ("
        << candidates[i].x << ", " << candidates[i].y << ") over "
        << positions.size()
        << " positions, tier=" << SimdTierName(kernel.simd_tier());
    EXPECT_GE(got_counters.positions_seen, want_counters.positions_seen)
        << context << ": one-candidate batch " << i;
    EXPECT_LE(got_counters.positions_seen,
              static_cast<int64_t>(positions.size()))
        << context << ": one-candidate batch " << i;
    EXPECT_LE(got_counters.early_stops, want_counters.early_stops)
        << context << ": one-candidate batch " << i;
  }
}

TEST(SimdDispatchTest, TierNamesRoundTrip) {
  EXPECT_STREQ(SimdTierName(SimdTier::kScalar), "scalar");
  EXPECT_STREQ(SimdTierName(SimdTier::kPortable), "portable");
  EXPECT_STREQ(SimdTierName(SimdTier::kAvx2), "avx2");
}

TEST(SimdDispatchTest, TierRequestIsClampedByDetection) {
  {
    ScopedEnv tier("PINOCCHIO_SIMD_TIER", "scalar");
    EXPECT_EQ(ResolveSimdTier(), SimdTier::kScalar);
  }
  {
    // A build without the filter detects (and so resolves to) scalar.
    ScopedEnv tier("PINOCCHIO_SIMD_TIER", "portable");
    EXPECT_EQ(ResolveSimdTier(),
              std::min(SimdTier::kPortable, DetectCpuSimdTier()));
  }
  {
    // Requesting the widest tier never resolves above what the probe (and
    // the build) support.
    ScopedEnv tier("PINOCCHIO_SIMD_TIER", "avx2");
    EXPECT_LE(ResolveSimdTier(), DetectCpuSimdTier());
  }
  {
    // An unknown name (sse2 is no tier) warns and leaves the detected
    // tier in place.
    ScopedEnv tier("PINOCCHIO_SIMD_TIER", "sse2");
    ::testing::internal::CaptureStderr();
    const SimdTier resolved = ResolveSimdTier();
    const std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(resolved, DetectCpuSimdTier());
    EXPECT_NE(log.find("unknown PINOCCHIO_SIMD_TIER value \"sse2\""),
              std::string::npos)
        << log;
  }
  {
    ScopedEnv tier("PINOCCHIO_SIMD_TIER", nullptr);
    EXPECT_EQ(ResolveSimdTier(), DetectCpuSimdTier());
  }
}

// Each tier's name is a request the override accepts: it resolves to that
// tier clamped by detection, with no warning.
TEST(SimdDispatchTest, EveryTierNameIsARequest) {
  for (const SimdTier want :
       {SimdTier::kScalar, SimdTier::kPortable, SimdTier::kAvx2}) {
    ScopedEnv tier("PINOCCHIO_SIMD_TIER", SimdTierName(want));
    ::testing::internal::CaptureStderr();
    const SimdTier resolved = ResolveSimdTier();
    const std::string log = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(resolved, std::min(want, DetectCpuSimdTier()))
        << SimdTierName(want);
    EXPECT_EQ(log, "") << SimdTierName(want);
  }
}

TEST(SimdDispatchTest, KernelCapturesTierAtConstruction) {
  const PowerLawPF pf(0.9, 1.0);
  const InfluenceKernel pinned = [&] {
    ScopedEnv tier("PINOCCHIO_SIMD_TIER", "portable");
    return InfluenceKernel(pf, 0.7);
  }();
  // The environment changed back after construction; the kernel must not
  // re-read it (per-thread kernels share the construction-time decision).
  EXPECT_EQ(pinned.simd_tier(),
            std::min(SimdTier::kPortable, DetectCpuSimdTier()));
}

// The harness's adversarial generator (all PF families, degenerate
// geometries, boundary taus) drives each available tier against the
// forced-scalar kernel, object by object.
TEST(SimdKernelDifferentialTest, FuzzCasesAgreeAcrossTiers) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    const testing_diff::FuzzCase c = testing_diff::GenerateFuzzCase(seed);
    const ProbabilityFunction& pf = *c.config.pf;
    const double tau = c.config.tau;
    const InfluenceKernel reference = MakeKernelForTier(pf, tau, "scalar");
    ASSERT_EQ(reference.simd_tier(), SimdTier::kScalar);
    for (const char* tier : AvailableFilterTiers()) {
      const InfluenceKernel kernel = MakeKernelForTier(pf, tau, tier);
      for (const MovingObject& o : c.instance.objects) {
        ExpectTierMatchesScalar(
            kernel, reference, c.instance.candidates, o.positions,
            "seed " + std::to_string(seed) + " pf=" + c.pf_name +
                (c.boundary_tau ? " (boundary tau)" : ""));
      }
    }
  }
}

// One-ulp boundary taus for every PF family: tau snapped exactly at, one
// ulp below and one ulp above a realised cumulative probability, where any
// unsound filter bound flips a decision.
TEST(SimdKernelDifferentialTest, BoundaryTausAgreeAcrossTiers) {
  Rng rng(98765ull);
  for (const PfCase& c : AllPfFamilies()) {
    for (int i = 0; i < 30; ++i) {
      const size_t n = static_cast<size_t>(rng.UniformInt(1, 24));
      std::vector<Point> positions(n);
      for (Point& p : positions) {
        p = {rng.Uniform(-4000.0, 4000.0), rng.Uniform(-4000.0, 4000.0)};
      }
      std::vector<Point> candidates;
      for (int j = 0; j < 8; ++j) {
        candidates.push_back(
            {rng.Uniform(-4000.0, 4000.0), rng.Uniform(-4000.0, 4000.0)});
      }
      const double p =
          CumulativeInfluenceProbability(*c.pf, candidates.front(), positions);
      if (!(p > 0.0 && p < 1.0)) continue;
      const double taus[] = {p, std::nextafter(p, 0.0),
                             std::nextafter(p, 1.0)};
      for (double tau : taus) {
        if (!(tau > 0.0 && tau < 1.0)) continue;
        const InfluenceKernel reference =
            MakeKernelForTier(*c.pf, tau, "scalar");
        for (const char* tier : AvailableFilterTiers()) {
          const InfluenceKernel kernel = MakeKernelForTier(*c.pf, tau, tier);
          ExpectTierMatchesScalar(kernel, reference, candidates, positions,
                                  std::string(c.label) + " boundary tau");
        }
      }
    }
  }
}

// Candidates on the minMaxRadius rim: positions coincide at an anchor, the
// candidates sit exactly at (and one ulp around) the largest influencing
// distance — the arc-rim soundness case PR 4 fixed in scalar space.
TEST(SimdKernelDifferentialTest, ArcRimCandidatesAgreeAcrossTiers) {
  Rng rng(31337ull);
  for (const PfCase& c : AllPfFamilies()) {
    for (double tau : {0.05, 0.5, 0.9}) {
      for (size_t n : {size_t{1}, size_t{4}, size_t{9}}) {
        const double r = c.pf->MinMaxRadius(tau, n);
        if (r <= 0.0) continue;  // uninfluenceable combination
        const Point anchor{rng.Uniform(-2000.0, 2000.0),
                           rng.Uniform(-2000.0, 2000.0)};
        const std::vector<Point> positions(n, anchor);
        std::vector<Point> candidates;
        for (double d :
             {r, std::nextafter(r, 0.0), std::nextafter(r, 2.0 * r + 1.0),
              r * 0.5, r * 1.5}) {
          candidates.push_back({anchor.x + d, anchor.y});
          candidates.push_back({anchor.x, anchor.y - d});
        }
        const InfluenceKernel reference =
            MakeKernelForTier(*c.pf, tau, "scalar");
        for (const char* tier : AvailableFilterTiers()) {
          const InfluenceKernel kernel = MakeKernelForTier(*c.pf, tau, tier);
          ExpectTierMatchesScalar(kernel, reference, candidates, positions,
                                  std::string(c.label) + " rim tau=" +
                                      std::to_string(tau));
        }
      }
    }
  }
}

// A clustered bulk workload (the bench's shape) where most lanes decide in
// vector registers: exercises the chunked early exit and both thresholds.
TEST(SimdKernelDifferentialTest, BulkClusteredWorkloadAgreesAcrossTiers) {
  Rng rng(2020ull);
  const PowerLawPF pf(0.9, 1.0);
  const double tau = 0.7;
  const InfluenceKernel reference = MakeKernelForTier(pf, tau, "scalar");
  std::vector<Point> candidates;
  for (int j = 0; j < 203; ++j) {  // odd count: exercises the lane tails
    candidates.push_back({rng.Uniform(0.0, 12000.0),
                          rng.Uniform(0.0, 12000.0)});
  }
  for (int rep = 0; rep < 10; ++rep) {
    const Point anchor{rng.Uniform(0.0, 12000.0), rng.Uniform(0.0, 12000.0)};
    const size_t n = static_cast<size_t>(rng.UniformInt(1, 97));
    std::vector<Point> positions;
    for (size_t i = 0; i < n; ++i) {
      positions.push_back({anchor.x + rng.Gaussian(0.0, 800.0),
                           anchor.y + rng.Gaussian(0.0, 800.0)});
    }
    for (const char* tier : AvailableFilterTiers()) {
      const InfluenceKernel kernel = MakeKernelForTier(pf, tau, tier);
      ExpectTierMatchesScalar(kernel, reference, candidates, positions,
                              "bulk rep " + std::to_string(rep));
    }
  }
}

/// The record-at-a-time loop DecideSet replaces: one one-candidate
/// DecideMany per record, stopping before a record once more than `budget`
/// records have been refuted.
InfluenceSetCounters PerRecordReference(
    const InfluenceKernel& kernel, const Point& candidate,
    std::span<const uint32_t> records,
    const std::vector<std::vector<Point>>& spans, int64_t budget) {
  InfluenceSetCounters out;
  for (uint32_t rec : records) {
    if (out.refuted > budget) {
      out.complete = false;
      break;
    }
    uint8_t influenced = 0;
    const InfluenceBatchCounters counters =
        kernel.DecideMany({&candidate, 1}, spans[rec], {&influenced, 1});
    out.positions_seen += counters.positions_seen;
    out.early_stops += counters.early_stops;
    ++(influenced != 0 ? out.influenced : out.refuted);
  }
  return out;
}

// DecideSet on every tier, forced scalar included, against the per-record
// reference on the same tier: random record sets of 1-19-position spans in
// random and position-count order, taus drawn and snapped one ulp around a
// realised cumulative probability, and budgets of 0, one below and at the
// set's refutation count (the boundary where the last refutation may or
// may not leave records), and unlimited. Every count and `complete` must
// be equal.
TEST(SimdKernelDifferentialTest, DecideSetMatchesPerRecordDecideMany) {
  Rng rng(4242ull);
  std::vector<const char*> tiers = AvailableFilterTiers();
  tiers.insert(tiers.begin(), "scalar");
  int64_t aborted = 0;
  int64_t completed_at_boundary = 0;
  for (const PfCase& c : AllPfFamilies()) {
    for (int trial = 0; trial < 12; ++trial) {
      const Point candidate{rng.Uniform(-1000.0, 1000.0),
                            rng.Uniform(-1000.0, 1000.0)};
      std::vector<std::vector<Point>> spans(40);
      for (std::vector<Point>& span : spans) {
        const Point anchor{rng.Uniform(-5000.0, 5000.0),
                           rng.Uniform(-5000.0, 5000.0)};
        span.resize(static_cast<size_t>(rng.UniformInt(1, 19)));
        for (Point& p : span) {
          p = {anchor.x + rng.Gaussian(0.0, 600.0),
               anchor.y + rng.Gaussian(0.0, 600.0)};
        }
      }
      std::vector<uint32_t> records;
      for (uint32_t k = 0; k < spans.size(); ++k) {
        if (rng.Uniform(0.0, 1.0) < 0.8) records.push_back(k);
      }
      rng.Shuffle(records);
      if (trial % 2 == 1) {
        std::stable_sort(records.begin(), records.end(),
                         [&](uint32_t a, uint32_t b) {
                           return spans[a].size() < spans[b].size();
                         });
      }
      std::vector<double> taus = {rng.Uniform(0.05, 0.95)};
      const double p = CumulativeInfluenceProbability(
          *c.pf, candidate, spans[records.empty() ? 0 : records.front()]);
      if (p > 0.0 && p < 1.0) {
        for (double t : {p, std::nextafter(p, 0.0), std::nextafter(p, 1.0)}) {
          if (t > 0.0 && t < 1.0) taus.push_back(t);
        }
      }
      const auto positions = [&](uint32_t rec) -> std::span<const Point> {
        return spans[rec];
      };
      for (double tau : taus) {
        for (const char* tier : tiers) {
          const InfluenceKernel kernel = MakeKernelForTier(*c.pf, tau, tier);
          const int64_t refutations =
              PerRecordReference(kernel, candidate, records, spans,
                                 kUnlimitedRefutations)
                  .refuted;
          for (int64_t budget : {int64_t{0}, refutations - 1, refutations,
                                 kUnlimitedRefutations}) {
            if (budget < 0) continue;
            const InfluenceSetCounters want = PerRecordReference(
                kernel, candidate, records, spans, budget);
            const InfluenceSetCounters got =
                kernel.DecideSet(candidate, records, positions, budget);
            const std::string context =
                std::string(c.label) + " tier=" + tier +
                " trial=" + std::to_string(trial) +
                " budget=" + std::to_string(budget);
            EXPECT_EQ(got.influenced, want.influenced) << context;
            EXPECT_EQ(got.refuted, want.refuted) << context;
            EXPECT_EQ(got.positions_seen, want.positions_seen) << context;
            EXPECT_EQ(got.early_stops, want.early_stops) << context;
            EXPECT_EQ(got.complete, want.complete) << context;
            if (!got.complete) ++aborted;
            if (got.complete && budget == refutations - 1) {
              ++completed_at_boundary;
            }
          }
        }
      }
    }
  }
  // Both sides of the boundary occur.
  EXPECT_GT(aborted, 0);
  EXPECT_GT(completed_at_boundary, 0);
}

}  // namespace
}  // namespace pinocchio
