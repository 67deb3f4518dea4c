#include "prob/influence.h"

#include <cmath>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "prob/power_law.h"
#include "util/random.h"

namespace pinocchio {
namespace {

// A test-only PF whose probability is directly the fraction dist/scale,
// letting us drive exact probabilities through position placement.
class InverseDistancePF : public ProbabilityFunction {
 public:
  double operator()(double dist_meters) const override {
    // Decreasing from 1 at d=0; probability p corresponds to d = (1-p)*1000.
    return std::max(0.0, 1.0 - dist_meters / 1000.0);
  }
  double Inverse(double prob) const override {
    if (prob <= 0.0) return std::numeric_limits<double>::infinity();
    if (prob >= 1.0) return 0.0;
    return (1.0 - prob) * 1000.0;
  }
  std::string Name() const override { return "InverseDistance"; }
};

// Places a position so that the PF above yields exactly `prob` relative to
// a candidate at the origin.
Point PositionWithProbability(double prob) {
  return {(1.0 - prob) * 1000.0, 0.0};
}

TEST(CumulativeInfluenceTest, PaperExample1ObjectO1) {
  // Example 1: probabilities 0.5, 0.1, 0.2, 0.15, 0.12 give Pr = 0.73...
  const InverseDistancePF pf;
  const Point candidate{0, 0};
  const std::vector<Point> positions = {
      PositionWithProbability(0.5), PositionWithProbability(0.1),
      PositionWithProbability(0.2), PositionWithProbability(0.15),
      PositionWithProbability(0.12)};
  const double pr = CumulativeInfluenceProbability(pf, candidate, positions);
  const double expected =
      1.0 - (1 - 0.5) * (1 - 0.1) * (1 - 0.2) * (1 - 0.15) * (1 - 0.12);
  EXPECT_NEAR(pr, expected, 1e-12);
  EXPECT_NEAR(pr, 0.73, 0.005);  // the paper rounds to 0.73
  EXPECT_FALSE(Influences(pf, candidate, positions, 0.8));
}

TEST(CumulativeInfluenceTest, PaperExample1ObjectO2) {
  // Probabilities 0.25, 0.35, 0.33, 0.3, 0.38 give Pr = 0.86 (rounded).
  const InverseDistancePF pf;
  const Point candidate{0, 0};
  const std::vector<Point> positions = {
      PositionWithProbability(0.25), PositionWithProbability(0.35),
      PositionWithProbability(0.33), PositionWithProbability(0.3),
      PositionWithProbability(0.38)};
  const double pr = CumulativeInfluenceProbability(pf, candidate, positions);
  EXPECT_NEAR(pr, 0.86, 0.005);
  EXPECT_TRUE(Influences(pf, candidate, positions, 0.8));
}

TEST(CumulativeInfluenceTest, EmptyPositionsNeverInfluenced) {
  const InverseDistancePF pf;
  EXPECT_DOUBLE_EQ(
      CumulativeInfluenceProbability(pf, {0, 0}, std::vector<Point>{}), 0.0);
}

TEST(CumulativeInfluenceTest, CertainPositionDominates) {
  const InverseDistancePF pf;
  const std::vector<Point> positions = {PositionWithProbability(1.0),
                                        PositionWithProbability(0.01)};
  EXPECT_DOUBLE_EQ(CumulativeInfluenceProbability(pf, {0, 0}, positions), 1.0);
}

TEST(CumulativeInfluenceTest, MonotoneInPositions) {
  // Adding a position can only increase the cumulative probability.
  const PowerLawPF pf(0.9, 1.0);
  Rng rng(3);
  const Point c{0, 0};
  std::vector<Point> positions;
  double last = 0.0;
  for (int i = 0; i < 100; ++i) {
    positions.push_back({rng.Uniform(-20000, 20000), rng.Uniform(-20000, 20000)});
    const double pr = CumulativeInfluenceProbability(pf, c, positions);
    EXPECT_GE(pr, last - 1e-15);
    EXPECT_LE(pr, 1.0);
    last = pr;
  }
}

TEST(CumulativeInfluenceTest, NumericallyStableForManyFarPositions) {
  // 780 positions each with tiny probability: the cumulative value must
  // stay accurate (direct products would round towards 0 contribution).
  const PowerLawPF pf(0.9, 1.0);
  const Point c{0, 0};
  std::vector<Point> positions(780, Point{200000.0, 0.0});  // 200 km away
  const double single = pf(200000.0);
  const double pr = CumulativeInfluenceProbability(pf, c, positions);
  const double expected = -std::expm1(780.0 * std::log1p(-single));
  EXPECT_NEAR(pr, expected, 1e-12);
  EXPECT_GT(pr, 0.0);
  EXPECT_LT(pr, 1.0);
}

}  // namespace
}  // namespace pinocchio
