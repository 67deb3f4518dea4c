#include "prob/influence_kernel.h"

#include <cmath>
#include <memory>
#include <numbers>
#include <span>
#include <vector>

#include <gtest/gtest.h>

#include "prob/alternative_pfs.h"
#include "prob/influence.h"
#include "prob/power_law.h"
#include "testing/scoped_env.h"
#include "util/random.h"

namespace pinocchio {
namespace {

struct PfCase {
  std::unique_ptr<ProbabilityFunction> pf;
  const char* label;
};

std::vector<PfCase> DifferentialPfs() {
  std::vector<PfCase> pfs;
  pfs.push_back({std::make_unique<PowerLawPF>(0.9, 1.0), "power-law"});
  pfs.push_back({std::make_unique<LogsigPF>(0.5, 1000.0), "logsig"});
  pfs.push_back({std::make_unique<ConvexPF>(0.8, 4000.0), "convex"});
  pfs.push_back({std::make_unique<ConcavePF>(0.8, 4000.0), "concave"});
  // rho = 1.0 makes PF(0) = 1, exercising the certain-influence branch of
  // the kernel (a position coincident with the candidate).
  pfs.push_back({std::make_unique<LinearPF>(1.0, 3000.0), "linear-rho1"});
  return pfs;
}

std::vector<Point> RandomPositions(Rng* rng, size_t n, double extent) {
  std::vector<Point> positions(n);
  for (Point& p : positions) {
    p = {rng->Uniform(-extent, extent), rng->Uniform(-extent, extent)};
  }
  return positions;
}

// The core differential property: on every input the kernel's decision,
// its exact probability, and the scalar reference agree — including the
// Lemma-4 early exit, which must certify but never anticipate the
// full-scan test.
TEST(InfluenceKernelDifferentialTest, MatchesScalarReferenceOnRandomCases) {
  Rng rng(20260806ull);
  const std::vector<PfCase> pfs = DifferentialPfs();
  const double taus[] = {0.05, 0.3, 0.5, 0.7, 0.9, 0.99};

  int cases = 0;
  for (const PfCase& c : pfs) {
    for (double tau : taus) {
      const InfluenceKernel kernel(*c.pf, tau);
      for (int i = 0; i < 40; ++i) {
        // Mix of sizes, heavy on the small ones; size 1 covers the
        // single-position-object degenerate case.
        const size_t n = static_cast<size_t>(rng.UniformInt(1, 12));
        const double extent = (i % 2 == 0) ? 500.0 : 8000.0;
        const std::vector<Point> positions =
            RandomPositions(&rng, n, extent);
        Point candidate{rng.Uniform(-extent, extent),
                        rng.Uniform(-extent, extent)};
        if (i % 7 == 0) candidate = positions.front();  // distance 0

        const double scalar =
            CumulativeInfluenceProbability(*c.pf, candidate, positions);
        const bool scalar_influences =
            Influences(*c.pf, candidate, positions, tau);

        EXPECT_EQ(kernel.Probability(candidate, positions), scalar)
            << c.label << " tau=" << tau;
        const InfluenceDecision decision = kernel.Decide(candidate, positions);
        EXPECT_EQ(decision.influenced, scalar_influences)
            << c.label << " tau=" << tau << " p=" << scalar;
        EXPECT_LE(decision.positions_seen, n);
        EXPECT_EQ(decision.decided_early, decision.positions_seen < n);
        if (decision.decided_early) {
          // Early exits may only ever claim influence (Lemma 4 is a
          // sufficient condition, not a rejection rule).
          EXPECT_TRUE(decision.influenced);
        }
        ++cases;
      }
    }
  }
  EXPECT_GE(cases, 1000);
}

// Adversarial thresholds: tau placed exactly at, one ulp below, and one ulp
// above a realised cumulative probability, where any sloppiness in the
// early-exit threshold would flip the decision.
TEST(InfluenceKernelDifferentialTest, AgreesAtNearTauBoundaries) {
  Rng rng(777ull);
  const PowerLawPF pf(0.9, 1.0);
  int boundary_cases = 0;
  for (int i = 0; i < 400; ++i) {
    const size_t n = static_cast<size_t>(rng.UniformInt(1, 8));
    const std::vector<Point> positions = RandomPositions(&rng, n, 6000.0);
    const Point candidate{rng.Uniform(-6000.0, 6000.0),
                          rng.Uniform(-6000.0, 6000.0)};
    const double p = CumulativeInfluenceProbability(pf, candidate, positions);
    if (!(p > 0.0 && p < 1.0)) continue;

    const double taus[] = {p, std::nextafter(p, 0.0), std::nextafter(p, 1.0)};
    for (double tau : taus) {
      if (!(tau > 0.0 && tau < 1.0)) continue;
      const InfluenceKernel kernel(pf, tau);
      EXPECT_EQ(kernel.Decide(candidate, positions).influenced,
                Influences(pf, candidate, positions, tau))
          << "p=" << p << " tau=" << tau;
      ++boundary_cases;
    }
  }
  EXPECT_GE(boundary_cases, 600);
}

TEST(InfluenceKernelTest, DecideManyMatchesPerCandidateDecide) {
  Rng rng(4242ull);
  const PowerLawPF pf(0.9, 1.0);
  const InfluenceKernel kernel(pf, 0.4);
  const std::vector<Point> positions = RandomPositions(&rng, 20, 3000.0);
  const std::vector<Point> candidates = RandomPositions(&rng, 64, 3000.0);

  std::vector<uint8_t> batch(candidates.size(), 0xFF);
  const InfluenceBatchCounters counters =
      kernel.DecideMany(candidates, positions, batch);

  // Decisions are bit-identical to the per-candidate scalar path on any
  // tier; counters are only chunk-granular under the SIMD filter — per
  // pair they sit between the scalar early-exit point and the span size.
  InfluenceBatchCounters scalar;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const InfluenceDecision d = kernel.Decide(candidates[i], positions);
    EXPECT_EQ(batch[i] != 0, d.influenced) << "candidate " << i;
    scalar.positions_seen += d.positions_seen;
    if (d.decided_early) ++scalar.early_stops;
  }
  EXPECT_GE(counters.positions_seen, scalar.positions_seen);
  EXPECT_LE(counters.positions_seen,
            static_cast<int64_t>(candidates.size() * positions.size()));
  EXPECT_LE(counters.early_stops, scalar.early_stops);
  if (kernel.simd_tier() == SimdTier::kScalar) {
    EXPECT_EQ(counters.positions_seen, scalar.positions_seen);
    EXPECT_EQ(counters.early_stops, scalar.early_stops);
  }
}

TEST(InfluenceKernelTest, ForcedScalarDecideManyCountsExactly) {
  Rng rng(4242ull);
  const PowerLawPF pf(0.9, 1.0);
  const InfluenceKernel kernel = [&] {
    testing_helpers::ScopedEnv tier("PINOCCHIO_SIMD_TIER", "scalar");
    return InfluenceKernel(pf, 0.4);
  }();
  ASSERT_EQ(kernel.simd_tier(), SimdTier::kScalar);

  const std::vector<Point> positions = RandomPositions(&rng, 20, 3000.0);
  const std::vector<Point> candidates = RandomPositions(&rng, 64, 3000.0);
  std::vector<uint8_t> batch(candidates.size(), 0xFF);
  const InfluenceBatchCounters counters =
      kernel.DecideMany(candidates, positions, batch);

  InfluenceBatchCounters expected;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const InfluenceDecision d = kernel.Decide(candidates[i], positions);
    EXPECT_EQ(batch[i] != 0, d.influenced) << "candidate " << i;
    expected.positions_seen += d.positions_seen;
    if (d.decided_early) ++expected.early_stops;
  }
  EXPECT_EQ(counters.positions_seen, expected.positions_seen);
  EXPECT_EQ(counters.early_stops, expected.early_stops);
}

TEST(InfluenceKernelTest, EmptyCandidateBatchIsANoOp) {
  const PowerLawPF pf(0.9, 1.0);
  const InfluenceKernel kernel(pf, 0.4);
  const std::vector<Point> positions = {{0, 0}, {1, 1}};
  const InfluenceBatchCounters counters =
      kernel.DecideMany({}, positions, {});
  EXPECT_EQ(counters.positions_seen, 0);
  EXPECT_EQ(counters.early_stops, 0);
}

TEST(InfluenceKernelTest, CertainPositionDecidesImmediately) {
  // PF(0) = 1 with rho = 1: the first coincident position certifies
  // influence without touching the rest of the span.
  const LinearPF pf(1.0, 1000.0);
  const InfluenceKernel kernel(pf, 0.5);
  const std::vector<Point> positions = {{5, 5}, {9000, 9000}, {9001, 9001}};
  const InfluenceDecision d = kernel.Decide({5, 5}, positions);
  EXPECT_TRUE(d.influenced);
  EXPECT_EQ(d.positions_seen, 1u);
  EXPECT_TRUE(d.decided_early);
}

TEST(InfluenceKernelTest, Lemma4EarlyDecision) {
  // Two positions at PF = 0.5 leave a partial survival of 0.25 <= 1 - tau:
  // the object is influenced whatever the far third position contributes,
  // so the scan stops after two positions.
  const PowerLawPF pf(0.9, 1.0);
  const InfluenceKernel kernel(pf, 0.7);
  const double d = pf.Inverse(0.5);
  const std::vector<Point> positions = {{d, 0}, {0, d}, {1e6, 1e6}};
  const InfluenceDecision decision = kernel.Decide({0, 0}, positions);
  EXPECT_TRUE(decision.influenced);
  EXPECT_TRUE(decision.decided_early);
  EXPECT_EQ(decision.positions_seen, 2u);
}

TEST(InfluenceKernelTest, EarlyDecisionIsCertifiedByTheSeenPrefix) {
  // Lemma 4 stops only once the positions already read decide influence
  // on their own: the prefix passes the full-scan test, and so does the
  // whole span (more positions only lower the survival product).
  const PowerLawPF pf(0.9, 1.0);
  const Point c{0, 0};
  Rng rng(5);
  int early = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const double tau = rng.Uniform(0.05, 0.95);
    const InfluenceKernel kernel(pf, tau);
    std::vector<Point> positions;
    for (int i = 0; i < 30; ++i) {
      const double d = pf.Inverse(rng.Uniform(0.01, 0.4));
      const double angle = rng.Uniform(0.0, 2.0 * std::numbers::pi);
      positions.push_back({d * std::cos(angle), d * std::sin(angle)});
    }
    const InfluenceDecision decision = kernel.Decide(c, positions);
    if (!decision.decided_early) continue;
    ++early;
    const std::span<const Point> prefix(positions.data(),
                                        decision.positions_seen);
    EXPECT_TRUE(Influences(pf, c, prefix, tau)) << "trial " << trial;
    EXPECT_TRUE(Influences(pf, c, positions, tau)) << "trial " << trial;
  }
  EXPECT_GE(early, 100);
}

TEST(InfluenceKernelTest, ZeroProbabilityPositionsNeverInfluence) {
  // Positions at or beyond the PF's range add nothing: however many there
  // are, the object is not influenced and the scan reads every one.
  const LinearPF pf(0.9, 1000.0);
  const InfluenceKernel kernel(pf, 0.05);
  std::vector<Point> positions;
  for (int i = 0; i < 100; ++i) positions.push_back({1000.0 + 10.0 * i, 0.0});
  const InfluenceDecision decision = kernel.Decide({0, 0}, positions);
  EXPECT_FALSE(decision.influenced);
  EXPECT_FALSE(decision.decided_early);
  EXPECT_EQ(decision.positions_seen, 100u);
  EXPECT_EQ(kernel.Probability({0, 0}, positions), 0.0);
}

TEST(InfluenceKernelTest, ReusedKernelMatchesFreshKernelPerCall) {
  // Long-lived callers (the incremental engine) keep one kernel for every
  // call: no decision or counter may depend on the calls made before it.
  Rng rng(606ull);
  const PowerLawPF pf(0.9, 1.0);
  const InfluenceKernel reused(pf, 0.5);
  for (int i = 0; i < 50; ++i) {
    const size_t n = static_cast<size_t>(rng.UniformInt(1, 12));
    const std::vector<Point> positions = RandomPositions(&rng, n, 3000.0);
    const std::vector<Point> candidates = RandomPositions(&rng, 16, 3000.0);
    const InfluenceKernel fresh(pf, 0.5);

    const InfluenceDecision a = reused.Decide(candidates[0], positions);
    const InfluenceDecision b = fresh.Decide(candidates[0], positions);
    EXPECT_EQ(a.influenced, b.influenced) << "call " << i;
    EXPECT_EQ(a.positions_seen, b.positions_seen) << "call " << i;
    EXPECT_EQ(a.decided_early, b.decided_early) << "call " << i;

    std::vector<uint8_t> got(candidates.size(), 0);
    std::vector<uint8_t> want(candidates.size(), 0);
    const InfluenceBatchCounters got_counters =
        reused.DecideMany(candidates, positions, got);
    const InfluenceBatchCounters want_counters =
        fresh.DecideMany(candidates, positions, want);
    EXPECT_EQ(got, want) << "call " << i;
    EXPECT_EQ(got_counters.positions_seen, want_counters.positions_seen);
    EXPECT_EQ(got_counters.early_stops, want_counters.early_stops);
  }
}

TEST(InfluenceKernelDeathTest, RejectsInvalidTau) {
  const PowerLawPF pf(0.9, 1.0);
  EXPECT_DEATH({ InfluenceKernel kernel(pf, 0.0); }, "Check failed");
  EXPECT_DEATH({ InfluenceKernel kernel(pf, 1.0); }, "Check failed");
}

}  // namespace
}  // namespace pinocchio
