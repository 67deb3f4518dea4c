#include "prob/probability_function.h"

#include <cctype>
#include <cmath>
#include <limits>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "prob/alternative_pfs.h"
#include "prob/power_law.h"
#include "util/random.h"

namespace pinocchio {
namespace {

// ----------------------------------------------------------- power law

TEST(PowerLawTest, PaperDefaults) {
  // rho = 0.9, lambda = 1.0, d0 = 1.0, distance in km.
  const PowerLawPF pf(0.9, 1.0);
  EXPECT_DOUBLE_EQ(pf(0.0), 0.9);          // rho at distance zero
  EXPECT_DOUBLE_EQ(pf(1000.0), 0.45);      // 0.9 / (1 + 1)
  EXPECT_DOUBLE_EQ(pf(9000.0), 0.09);      // 0.9 / 10
}

TEST(PowerLawTest, LambdaControlsDecay) {
  const PowerLawPF slow(0.9, 0.75);
  const PowerLawPF fast(0.9, 1.25);
  EXPECT_DOUBLE_EQ(slow(0.0), fast(0.0));
  for (double d : {500.0, 2000.0, 10000.0}) {
    EXPECT_GT(slow(d), fast(d));
  }
}

TEST(PowerLawTest, InverseRoundTrip) {
  const PowerLawPF pf(0.9, 1.0);
  for (double d : {0.0, 10.0, 500.0, 3000.0, 25000.0}) {
    EXPECT_NEAR(pf.Inverse(pf(d)), d, 1e-6 * (1.0 + d));
  }
}

TEST(PowerLawTest, InverseBoundaries) {
  const PowerLawPF pf(0.9, 1.0);
  EXPECT_DOUBLE_EQ(pf.Inverse(0.95), 0.0);  // above PF(0)
  EXPECT_DOUBLE_EQ(pf.Inverse(0.9), 0.0);
  EXPECT_TRUE(std::isinf(pf.Inverse(0.0)));
  EXPECT_TRUE(std::isinf(pf.Inverse(-0.5)));
}

TEST(PowerLawTest, NameMentionsParameters) {
  const PowerLawPF pf(0.7, 1.25);
  const std::string name = pf.Name();
  EXPECT_NE(name.find("0.7"), std::string::npos);
  EXPECT_NE(name.find("1.25"), std::string::npos);
}

// The shared check of user-supplied power-law parameters: one row per
// parameter and side of its range, plus the inclusive and valid points.
struct PowerLawParams {
  const char* name;
  double rho;
  double lambda;
  double unit_meters;
  const char* error;  ///< "" when the parameters are valid
};

class PowerLawParameterTest : public ::testing::TestWithParam<PowerLawParams> {
};

TEST_P(PowerLawParameterTest, NamesTheFirstBadParameter) {
  const PowerLawParams& p = GetParam();
  EXPECT_EQ(PowerLawParameterError(p.rho, p.lambda, p.unit_meters), p.error);
  if (std::string(p.error).empty()) {
    const PowerLawPF pf(p.rho, p.lambda, 1.0, p.unit_meters);  // no abort
    EXPECT_DOUBLE_EQ(pf(0.0), p.rho);
  }
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

INSTANTIATE_TEST_SUITE_P(
    Rows, PowerLawParameterTest,
    ::testing::Values(
        PowerLawParams{"defaults", 0.9, 1.0, 100.0, ""},
        PowerLawParams{"rho_one", 1.0, 1.0, 100.0, ""},
        PowerLawParams{"rho_zero", 0.0, 1.0, 100.0, "--rho must be in (0, 1]"},
        PowerLawParams{"rho_above_one", 1.5, 1.0, 100.0,
                       "--rho must be in (0, 1]"},
        PowerLawParams{"rho_nan", kNaN, 1.0, 100.0, "--rho must be in (0, 1]"},
        PowerLawParams{"lambda_zero", 0.9, 0.0, 100.0, "--lambda must be > 0"},
        PowerLawParams{"lambda_negative", 0.9, -1.0, 100.0,
                       "--lambda must be > 0"},
        PowerLawParams{"unit_zero", 0.9, 1.0, 0.0, "--unit-km must be > 0"},
        PowerLawParams{"unit_negative", 0.9, 1.0, -100.0,
                       "--unit-km must be > 0"},
        PowerLawParams{"rho_before_lambda", 0.0, -1.0, -100.0,
                       "--rho must be in (0, 1]"}),
    [](const auto& info) { return std::string(info.param.name); });

// ----------------------------------------------------- alternative PFs

TEST(LogsigTest, ValueAtZeroIsHalfRho) {
  const LogsigPF pf(0.5);
  EXPECT_DOUBLE_EQ(pf(0.0), 0.25);
}

TEST(LogsigTest, InverseRoundTrip) {
  const LogsigPF pf(0.5);
  for (double d : {0.0, 100.0, 1000.0, 5000.0}) {
    EXPECT_NEAR(pf.Inverse(pf(d)), d, 1e-6 * (1.0 + d));
  }
  EXPECT_DOUBLE_EQ(pf.Inverse(0.3), 0.0);  // above PF(0)
  EXPECT_TRUE(std::isinf(pf.Inverse(0.0)));
}

TEST(ConvexConcaveLinearTest, ValuesAtEndpoints) {
  const double range = 2000.0;
  const ConvexPF convex(0.5, range);
  const ConcavePF concave(0.5, range);
  const LinearPF linear(0.5, range);
  for (const ProbabilityFunction* pf :
       {static_cast<const ProbabilityFunction*>(&convex),
        static_cast<const ProbabilityFunction*>(&concave),
        static_cast<const ProbabilityFunction*>(&linear)}) {
    EXPECT_DOUBLE_EQ((*pf)(0.0), 0.5);
    EXPECT_DOUBLE_EQ((*pf)(range), 0.0);
    EXPECT_DOUBLE_EQ((*pf)(range * 3), 0.0);
  }
}

TEST(ConvexConcaveLinearTest, ShapeOrderingAtMidpoint) {
  // At the midpoint the concave curve lies above the chord (linear) and the
  // convex curve below it — the Fig. 16a shapes.
  const double range = 2000.0;
  const ConvexPF convex(0.5, range);
  const ConcavePF concave(0.5, range);
  const LinearPF linear(0.5, range);
  const double mid = range / 2.0;
  EXPECT_LT(convex(mid), linear(mid));
  EXPECT_GT(concave(mid), linear(mid));
}

TEST(ConvexConcaveLinearTest, InverseRoundTrip) {
  const double range = 2000.0;
  const ConvexPF convex(0.5, range);
  const ConcavePF concave(0.5, range);
  const LinearPF linear(0.5, range);
  for (const ProbabilityFunction* pf :
       {static_cast<const ProbabilityFunction*>(&convex),
        static_cast<const ProbabilityFunction*>(&concave),
        static_cast<const ProbabilityFunction*>(&linear)}) {
    for (double d : {0.0, 250.0, 1000.0, 1900.0}) {
      EXPECT_NEAR(pf->Inverse((*pf)(d)), d, 1e-6 * (1.0 + d)) << pf->Name();
    }
  }
}

// ------------------------------------------ properties for all PF types

std::vector<ProbabilityFunctionPtr> AllPfs() {
  return {
      std::make_shared<PowerLawPF>(0.9, 1.0),
      std::make_shared<PowerLawPF>(0.9, 0.75),
      std::make_shared<PowerLawPF>(0.9, 1.25),
      std::make_shared<PowerLawPF>(0.5, 1.0),
      std::make_shared<PowerLawPF>(0.7, 1.0),
      std::make_shared<LogsigPF>(0.5),
      std::make_shared<ConvexPF>(0.5, 2000.0),
      std::make_shared<ConcavePF>(0.5, 2000.0),
      std::make_shared<LinearPF>(0.5, 2000.0),
  };
}

class PfPropertyTest
    : public ::testing::TestWithParam<ProbabilityFunctionPtr> {};

TEST_P(PfPropertyTest, MonotoneNonIncreasing) {
  const ProbabilityFunction& pf = *GetParam();
  Rng rng(55);
  for (int i = 0; i < 500; ++i) {
    const double d1 = rng.Uniform(0.0, 30000.0);
    const double d2 = d1 + rng.Uniform(0.0, 10000.0);
    EXPECT_GE(pf(d1), pf(d2)) << pf.Name() << " at " << d1 << " vs " << d2;
  }
}

TEST_P(PfPropertyTest, RangeWithinUnitInterval) {
  const ProbabilityFunction& pf = *GetParam();
  Rng rng(56);
  for (int i = 0; i < 500; ++i) {
    const double p = pf(rng.Uniform(0.0, 50000.0));
    EXPECT_GE(p, 0.0) << pf.Name();
    EXPECT_LE(p, 1.0) << pf.Name();
  }
}

TEST_P(PfPropertyTest, GeneralizedInverseConsistency) {
  // PF(Inverse(p)) >= p for p <= PF(0), and Inverse is non-increasing.
  const ProbabilityFunction& pf = *GetParam();
  Rng rng(57);
  const double max_p = pf(0.0);
  for (int i = 0; i < 300; ++i) {
    const double p = rng.Uniform(1e-6, max_p);
    const double d = pf.Inverse(p);
    ASSERT_FALSE(std::isnan(d)) << pf.Name();
    if (std::isfinite(d)) {
      EXPECT_GE(pf(d) + 1e-12, p) << pf.Name() << " p=" << p;
    }
    const double p2 = rng.Uniform(1e-6, max_p);
    if (p < p2) {
      EXPECT_GE(pf.Inverse(p), pf.Inverse(p2)) << pf.Name();
    }
  }
}

// Named from the PF, sanitised and index-suffixed, so discovered test
// names are stable from build to build instead of printing the pointer.
INSTANTIATE_TEST_SUITE_P(
    AllPfs, PfPropertyTest, ::testing::ValuesIn(AllPfs()),
    [](const ::testing::TestParamInfo<ProbabilityFunctionPtr>& info) {
      std::string name = info.param->Name();
      for (char& ch : name) {
        if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
      }
      return name + "_" + std::to_string(info.index);
    });

}  // namespace
}  // namespace pinocchio
