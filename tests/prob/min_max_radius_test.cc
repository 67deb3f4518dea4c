// Tests of Definition 5 (minMaxRadius) and Theorems 1-2 — the foundations
// of both pruning rules.

#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "geo/point.h"
#include "prob/alternative_pfs.h"
#include "prob/influence.h"
#include "prob/power_law.h"
#include "util/random.h"

namespace pinocchio {
namespace {

TEST(MinMaxRadiusTest, Definition5ClosedForm) {
  const PowerLawPF pf(0.9, 1.0);
  const double tau = 0.7;
  const size_t n = 10;
  const double per_position = 1.0 - std::pow(1.0 - tau, 1.0 / n);
  EXPECT_NEAR(pf.MinMaxRadius(tau, n), pf.Inverse(per_position), 1e-6);
}

TEST(MinMaxRadiusTest, SinglePositionEqualsInverseTau) {
  // Lemma 1: n = 1 degenerates to PF^{-1}(tau).
  const PowerLawPF pf(0.9, 1.0);
  for (double tau : {0.1, 0.3, 0.5, 0.7, 0.89}) {
    EXPECT_NEAR(pf.MinMaxRadius(tau, 1), pf.Inverse(tau), 1e-9);
  }
}

TEST(MinMaxRadiusTest, GrowsWhenTauDecreases) {
  // Paper: if n is fixed, minMaxRadius grows when tau decreases.
  const PowerLawPF pf(0.9, 1.0);
  const size_t n = 20;
  double last = 0.0;
  for (double tau : {0.9, 0.7, 0.5, 0.3, 0.1}) {
    const double radius = pf.MinMaxRadius(tau, n);
    EXPECT_GT(radius, last);
    last = radius;
  }
}

TEST(MinMaxRadiusTest, GrowsWithN) {
  // Paper: if tau is fixed, minMaxRadius grows as n increases.
  const PowerLawPF pf(0.9, 1.0);
  const double tau = 0.7;
  double last = 0.0;
  for (size_t n : {1u, 2u, 5u, 10u, 50u, 200u, 780u}) {
    const double radius = pf.MinMaxRadius(tau, n);
    EXPECT_GT(radius, last) << "n=" << n;
    last = radius;
  }
}

TEST(MinMaxRadiusTest, SentinelWhenThresholdUnreachable) {
  // If the required per-position probability exceeds PF(0), no circle can
  // certify influence and — per-position probabilities being uniformly
  // below the requirement — the object is uninfluenceable altogether.
  const PowerLawPF pf(0.5, 1.0);
  EXPECT_DOUBLE_EQ(pf.MinMaxRadius(0.9, 1),
                   ProbabilityFunction::kUninfluenceable);  // needs 0.9 > rho
}

TEST(MinMaxRadiusTest, UninfluenceableObjectsTrulyUninfluenceable) {
  // The semantic backing of the sentinel: even positions at distance zero
  // cannot push the cumulative probability to tau.
  const PowerLawPF pf(0.5, 1.0);
  const double tau = 0.9;
  for (size_t n : {1u, 2u, 3u}) {
    if (pf.MinMaxRadius(tau, n) != ProbabilityFunction::kUninfluenceable) {
      continue;
    }
    const std::vector<Point> positions(n, Point{0, 0});
    EXPECT_FALSE(Influences(pf, {0, 0}, positions, tau)) << "n=" << n;
  }
}

TEST(MinMaxRadiusTest, SentinelBoundaryConsistency) {
  // Exactly at the reachability boundary (requirement for (tau, 1) is tau
  // itself and PF(0) = 0.5 = tau) the radius is not the sentinel: distance
  // zero still meets the requirement. The radius is the floating-point
  // decision boundary — the largest representable distance that still
  // influences — so it sits an ulp-scale hair above the analytic answer 0.
  const PowerLawPF pf(0.5, 1.0);
  const double radius = pf.MinMaxRadius(0.5, 1);
  EXPECT_GE(radius, 0.0);
  EXPECT_LT(radius, 1e-9);
  const std::vector<Point> at_radius = {{radius, 0.0}};
  EXPECT_TRUE(Influences(pf, {0, 0}, at_radius, 0.5));
  const std::vector<Point> beyond = {{std::nextafter(radius, 1.0), 0.0}};
  EXPECT_FALSE(Influences(pf, {0, 0}, beyond, 0.5));
  EXPECT_GT(pf.MinMaxRadius(0.49, 1), 0.0);
  EXPECT_DOUBLE_EQ(pf.MinMaxRadius(0.51, 1),
                   ProbabilityFunction::kUninfluenceable);
}

TEST(MinMaxRadiusTest, LargeNStaysFinitePowerLaw) {
  const PowerLawPF pf(0.9, 1.0);
  const double radius = pf.MinMaxRadius(0.7, 780);
  EXPECT_TRUE(std::isfinite(radius));
  EXPECT_GT(radius, pf.MinMaxRadius(0.7, 10));
}

// MinMaxRadius with the cumulative test written as a per-position loop,
// log1p evaluated once per term: the reference that the library's
// bisection, which evaluates the term once per test, must equal bit for
// bit.
double PerTermMinMaxRadius(const ProbabilityFunction& pf, double tau,
                           size_t n) {
  const auto certifies = [&](double prob) {
    if (prob >= 1.0) return true;
    double log_survival = 0.0;
    for (size_t i = 0; i < n; ++i) log_survival += std::log1p(-prob);
    return -std::expm1(log_survival) >= tau;
  };
  if (!certifies(pf(0.0))) return ProbabilityFunction::kUninfluenceable;
  double lo = 0.0;
  double hi =
      pf.Inverse(-std::expm1(std::log1p(-tau) / static_cast<double>(n)));
  if (!(hi > 0.0)) hi = 1.0;
  while (certifies(pf(hi))) {
    lo = hi;
    if (std::isinf(hi)) return hi;
    hi *= 2.0;
  }
  while (true) {
    const double mid = lo + 0.5 * (hi - lo);
    if (mid <= lo || mid >= hi) break;
    (certifies(pf(mid)) ? lo : hi) = mid;
  }
  return lo;
}

// The radius is bit-identical to the per-term reference over a (tau, n)
// sweep up to n = 1000, including the taus one ulp either side of the
// reachability boundary -expm1(n log1p(-PF(0))), where the sentinel flips.
TEST(MinMaxRadiusTest, BitIdenticalToPerTermReference) {
  const PowerLawPF power(0.9, 1.0);
  const PowerLawPF half(0.5, 1.0);
  const LinearPF linear(0.5, 2000.0);
  for (const ProbabilityFunction* pf :
       {static_cast<const ProbabilityFunction*>(&power),
        static_cast<const ProbabilityFunction*>(&half),
        static_cast<const ProbabilityFunction*>(&linear)}) {
    for (size_t n : {1u, 2u, 3u, 7u, 16u, 64u, 171u, 500u, 1000u}) {
      std::vector<double> taus = {0.1, 0.3, 0.5, 0.7, 0.9, 0.99};
      double boundary = 0.0;
      for (size_t i = 0; i < n; ++i) boundary += std::log1p(-(*pf)(0.0));
      const double reach = -std::expm1(boundary);
      for (double t : {std::nextafter(reach, 0.0), reach,
                       std::nextafter(reach, 1.0)}) {
        if (t > 0.0 && t < 1.0) taus.push_back(t);
      }
      for (double tau : taus) {
        const double got = pf->MinMaxRadius(tau, n);
        const double want = PerTermMinMaxRadius(*pf, tau, n);
        EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
            << pf->Name() << " tau=" << tau << " n=" << n << ": " << got
            << " vs " << want;
      }
    }
  }
}

// Theorems 1 and 2, exercised across PFs, taus and ns: positions placed
// entirely inside (resp. outside) the minMaxRadius circle around the
// candidate are always (resp. never) influenced.
class TheoremTest : public ::testing::TestWithParam<
                        std::tuple<ProbabilityFunctionPtr, double, size_t>> {};

TEST_P(TheoremTest, Theorem1AllInsideImpliesInfluence) {
  const auto& [pf, tau, n] = GetParam();
  const double radius = pf->MinMaxRadius(tau, n);
  if (radius <= 0.0) GTEST_SKIP() << "degenerate radius";
  Rng rng(17 + n);
  const Point candidate{0, 0};
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Point> positions;
    for (size_t i = 0; i < n; ++i) {
      // Uniform direction, distance within the radius.
      const double theta = rng.Uniform(0, 2 * M_PI);
      const double d = rng.Uniform(0.0, radius * 0.999999);
      positions.push_back({d * std::cos(theta), d * std::sin(theta)});
    }
    EXPECT_TRUE(Influences(*pf, candidate, positions, tau))
        << pf->Name() << " tau=" << tau << " n=" << n;
  }
}

TEST_P(TheoremTest, Theorem2AllOutsideImpliesNoInfluence) {
  const auto& [pf, tau, n] = GetParam();
  const double radius = pf->MinMaxRadius(tau, n);
  Rng rng(23 + n);
  const Point candidate{0, 0};
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<Point> positions;
    for (size_t i = 0; i < n; ++i) {
      const double theta = rng.Uniform(0, 2 * M_PI);
      const double d = radius * (1.0 + 1e-6) + rng.Uniform(0.0, radius + 100.0);
      positions.push_back({d * std::cos(theta), d * std::sin(theta)});
    }
    EXPECT_FALSE(Influences(*pf, candidate, positions, tau))
        << pf->Name() << " tau=" << tau << " n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    PfTauN, TheoremTest,
    ::testing::Combine(
        ::testing::Values(
            std::static_pointer_cast<const ProbabilityFunction>(
                std::make_shared<PowerLawPF>(0.9, 1.0)),
            std::static_pointer_cast<const ProbabilityFunction>(
                std::make_shared<PowerLawPF>(0.7, 1.25)),
            std::static_pointer_cast<const ProbabilityFunction>(
                std::make_shared<LogsigPF>(0.5)),
            std::static_pointer_cast<const ProbabilityFunction>(
                std::make_shared<LinearPF>(0.5, 2000.0))),
        ::testing::Values(0.1, 0.5, 0.7, 0.9),
        ::testing::Values<size_t>(1, 3, 10, 50)),
    // Named from the PF, tau and n, sanitised and index-suffixed, so
    // discovered test names are stable from build to build instead of
    // printing the pointer.
    [](const ::testing::TestParamInfo<TheoremTest::ParamType>& info) {
      std::string name = std::get<0>(info.param)->Name() + "_tau" +
                         std::to_string(std::get<1>(info.param)) + "_n" +
                         std::to_string(std::get<2>(info.param));
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name + "_" + std::to_string(info.index);
    });

}  // namespace
}  // namespace pinocchio
