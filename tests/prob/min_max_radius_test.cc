// Tests of Definition 5 (minMaxRadius) and Theorems 1-2 — the foundations
// of both pruning rules.

#include <algorithm>
#include <bit>
#include <cctype>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "geo/point.h"
#include "prob/alternative_pfs.h"
#include "prob/influence.h"
#include "prob/power_law.h"
#include "testing/min_max_radius_reference.h"
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

// The same at every distance: a reachable tau certifies at +inf.
class ConstantPF : public ProbabilityFunction {
 public:
  explicit ConstantPF(double p) : p_(p) {}
  double operator()(double) const override { return p_; }
  double Inverse(double prob) const override {
    return prob <= p_ ? std::numeric_limits<double>::infinity() : 0.0;
  }
  std::string Name() const override { return "Constant"; }

 private:
  double p_;
};

// The paper's default power law behind an Inverse that always returns
// `inverse`: at 0 or NaN the search starts from 1.0, at +inf it gallops
// down from +inf.
class FixedSeedPF : public ProbabilityFunction {
 public:
  explicit FixedSeedPF(double inverse) : inverse_(inverse) {}
  double operator()(double d) const override { return pf_(d); }
  double Inverse(double) const override { return inverse_; }
  std::string Name() const override {
    return "FixedSeed(" + std::to_string(inverse_) + ")";
  }

 private:
  PowerLawPF pf_{0.9, 1.0};
  double inverse_;
};

// Counts evaluations of the PF it wraps.
class CountingPF : public ProbabilityFunction {
 public:
  explicit CountingPF(const ProbabilityFunction& pf) : pf_(pf) {}
  double operator()(double d) const override {
    ++calls_;
    return pf_(d);
  }
  double Inverse(double prob) const override { return pf_.Inverse(prob); }
  std::string Name() const override { return pf_.Name(); }
  int64_t calls() const { return calls_; }

 private:
  const ProbabilityFunction& pf_;
  mutable int64_t calls_ = 0;
};

using testing_reference::PerTermCertifies;
using testing_reference::PerTermMinMaxRadius;

// The PFs of the sweep: the five families, power laws at extreme decay
// rates and offsets, a constant PF (radius +inf) and PFs whose inverse
// is 0, NaN or +inf.
std::vector<std::shared_ptr<const ProbabilityFunction>> SweepPfs() {
  return {std::make_shared<PowerLawPF>(0.9, 1.0),
          std::make_shared<PowerLawPF>(0.5, 1.0),
          std::make_shared<LinearPF>(0.5, 2000.0),
          std::make_shared<LogsigPF>(0.5),
          std::make_shared<ConvexPF>(0.5, 2000.0),
          std::make_shared<ConcavePF>(0.5, 2000.0),
          std::make_shared<PowerLawPF>(0.9, 0.1),
          std::make_shared<PowerLawPF>(0.9, 10.0),
          std::make_shared<PowerLawPF>(0.9, 1.0, /*d0=*/0.5),
          std::make_shared<PowerLawPF>(0.9, 1.0, /*d0=*/3.0),
          std::make_shared<ConstantPF>(0.3),
          std::make_shared<FixedSeedPF>(0.0),
          std::make_shared<FixedSeedPF>(std::nan("")),
          std::make_shared<FixedSeedPF>(
              std::numeric_limits<double>::infinity())};
}

// The taus of the sweep at n: a spread over (0, 1), taus so small that
// the boundary of a PF with a zero tail (Linear, Convex, Concave) sits at
// the tail's edge, and the taus one ulp either side of the reachability
// boundary -expm1(n log1p(-PF(0))), where the sentinel flips.
std::vector<double> SweepTaus(const ProbabilityFunction& pf, size_t n) {
  std::vector<double> taus = {1e-300, 1e-17, 1e-9, 0.1, 0.3,
                              0.5,    0.7,   0.9,  0.99};
  double boundary = 0.0;
  for (size_t i = 0; i < n; ++i) boundary += std::log1p(-pf(0.0));
  const double reach = -std::expm1(boundary);
  for (double t : {std::nextafter(reach, 0.0), reach,
                   std::nextafter(reach, 1.0)}) {
    if (t > 0.0 && t < 1.0) taus.push_back(t);
  }
  return taus;
}

constexpr size_t kSweepNs[] = {1, 2, 3, 7, 16, 64, 171, 500, 1000};

// Whether the reference search starts from +inf and fails there, where
// its value bisection stops at 0 (min_max_radius_reference.h): the power
// law at lambda 0.1, whose analytic inverse overflows at tiny taus, and
// FixedSeed(inf). The boundary test below covers those cases.
bool ReferenceStartsPastTheBoundaryAtInfinity(const ProbabilityFunction& pf,
                                              double tau, size_t n) {
  const double inf = std::numeric_limits<double>::infinity();
  return pf.Inverse(-std::expm1(std::log1p(-tau) / static_cast<double>(n))) ==
             inf &&
         !PerTermCertifies(pf, inf, n, tau);
}

// The radius is bit-identical to the per-term reference search over the
// sweep, up to n = 1000.
TEST(MinMaxRadiusTest, BitIdenticalToPerTermReference) {
  for (const auto& pf : SweepPfs()) {
    for (size_t n : kSweepNs) {
      for (double tau : SweepTaus(*pf, n)) {
        if (ReferenceStartsPastTheBoundaryAtInfinity(*pf, tau, n)) continue;
        const double got = pf->MinMaxRadius(tau, n);
        const double want = PerTermMinMaxRadius(*pf, tau, n);
        EXPECT_EQ(std::bit_cast<uint64_t>(got), std::bit_cast<uint64_t>(want))
            << pf->Name() << " tau=" << tau << " n=" << n << ": " << got
            << " vs " << want;
      }
    }
  }
}

// Over the same sweep the radius is the boundary itself: n positions at
// the radius certify and n positions one double farther do not (+inf and
// the sentinel aside), and the search stays within its ~128-evaluation
// worst case.
TEST(MinMaxRadiusTest, LargestCertifyingDistanceWithinBoundedSearch) {
  int64_t worst = 0;
  for (const auto& pf : SweepPfs()) {
    for (size_t n : kSweepNs) {
      for (double tau : SweepTaus(*pf, n)) {
        const CountingPF counted(*pf);
        const double radius = counted.MinMaxRadius(tau, n);
        worst = std::max(worst, counted.calls());
        if (radius == ProbabilityFunction::kUninfluenceable) {
          EXPECT_FALSE(PerTermCertifies(*pf, 0.0, n, tau));
          continue;
        }
        EXPECT_TRUE(PerTermCertifies(*pf, radius, n, tau))
            << pf->Name() << " tau=" << tau << " n=" << n;
        if (std::isinf(radius)) continue;
        EXPECT_FALSE(PerTermCertifies(
            *pf, std::nextafter(radius, std::numeric_limits<double>::infinity()),
            n, tau))
            << pf->Name() << " tau=" << tau << " n=" << n << " radius "
            << radius;
      }
    }
  }
  EXPECT_LE(worst, 130);
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
