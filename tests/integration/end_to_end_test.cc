// Integration tests: full pipeline from synthetic check-in data through all
// solvers to effectiveness metrics — the same path the benchmark harnesses
// take, at test-friendly scale.

#include <memory>

#include <gtest/gtest.h>

#include "baselines/brnn_star.h"
#include "baselines/range_solver.h"
#include "core/incremental.h"
#include "core/naive_solver.h"
#include "core/pinocchio_solver.h"
#include "core/pinocchio_vo_solver.h"
#include "data/checkin_dataset.h"
#include "eval/metrics.h"
#include "prob/power_law.h"

namespace pinocchio {
namespace {

DatasetSpec TestSpec() {
  DatasetSpec spec;
  spec.name = "integration";
  spec.seed = 4242;
  spec.num_users = 120;
  spec.num_venues = 250;
  spec.target_checkins = 4000;
  spec.min_checkins_per_user = 2;
  spec.max_checkins_per_user = 200;
  return spec;
}

SolverConfig PaperConfig(double tau = 0.7) {
  SolverConfig config;
  // 0.1 km PF unit — the calibration the benchmark harnesses use (see
  // bench/bench_common.h): it reproduces the influenced fractions the
  // paper reports, and keeps influence local instead of saturating across
  // the whole extent.
  config.pf = std::make_shared<PowerLawPF>(0.9, 1.0, /*d0=*/1.0,
                                           /*unit_meters=*/100.0);
  config.tau = tau;
  return config;
}

class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    dataset_ = new CheckinDataset(GenerateCheckinDataset(TestSpec()));
    sample_ = new CandidateSample(SampleCandidates(*dataset_, 60, 17));
    instance_ = new ProblemInstance(MakeInstance(*dataset_, *sample_));
  }
  static void TearDownTestSuite() {
    delete instance_;
    delete sample_;
    delete dataset_;
    instance_ = nullptr;
    sample_ = nullptr;
    dataset_ = nullptr;
  }

  static CheckinDataset* dataset_;
  static CandidateSample* sample_;
  static ProblemInstance* instance_;
};

CheckinDataset* EndToEndTest::dataset_ = nullptr;
CandidateSample* EndToEndTest::sample_ = nullptr;
ProblemInstance* EndToEndTest::instance_ = nullptr;

TEST_F(EndToEndTest, AllPrimeLsSolversAgreeOnCheckinData) {
  const SolverConfig config = PaperConfig();
  const SolverResult naive = NaiveSolver().Solve(*instance_, config);
  const SolverResult pin = PinocchioSolver().Solve(*instance_, config);
  const SolverResult vo = PinocchioVOSolver().Solve(*instance_, config);
  const SolverResult star = PinocchioVOStarSolver().Solve(*instance_, config);

  EXPECT_EQ(pin.influence, naive.influence);
  EXPECT_EQ(vo.best_influence, naive.best_influence);
  EXPECT_EQ(star.best_influence, naive.best_influence);
  EXPECT_EQ(naive.influence[vo.best_candidate], naive.best_influence);
}

TEST_F(EndToEndTest, PruningIsSubstantialOnCheckinShapedData) {
  const SolverResult pin = PinocchioSolver().Solve(*instance_, PaperConfig());
  const auto pairs = static_cast<int64_t>(instance_->objects.size() *
                                          instance_->candidates.size());
  // The paper reports ~2/3 of candidates pruned; require a conservative
  // fraction here to avoid tying the test to generator details.
  EXPECT_GT(pin.stats.PairsPruned(), pairs / 4)
      << "IA=" << pin.stats.pairs_pruned_by_ia
      << " NIB=" << pin.stats.pairs_pruned_by_nib;
}

TEST_F(EndToEndTest, VoDoesLessValidationWorkThanPin) {
  const SolverConfig config = PaperConfig();
  const SolverResult pin = PinocchioSolver().Solve(*instance_, config);
  const SolverResult vo = PinocchioVOSolver().Solve(*instance_, config);
  EXPECT_LE(vo.stats.positions_scanned, pin.stats.positions_scanned);
}

TEST_F(EndToEndTest, PrecisionAgainstGroundTruthBeatsRandomGuessing) {
  SolverConfig config = PaperConfig();
  config.top_k = 20;
  const SolverResult result = PinocchioVOSolver().Solve(*instance_, config);
  const auto relevant = RelevantTopK(sample_->ground_truth, 20);
  const double p20 = PrecisionAtK(result.TopK(20), relevant, 20);
  // Random guessing of 20 of 60 candidates gives E[P@20] = 1/3; the
  // distance-decay ground truth must be recovered far better than that.
  EXPECT_GT(p20, 1.0 / 3.0);
}

TEST_F(EndToEndTest, PrimeLsBeatsOrMatchesBaselinesOnPrecision) {
  SolverConfig config = PaperConfig();
  config.top_k = 20;
  const size_t k = 20;
  const auto relevant = RelevantTopK(sample_->ground_truth, k);

  const SolverResult prime = PinocchioVOSolver().Solve(*instance_, config);
  const SolverResult brnn = BrnnStarSolver().Solve(*instance_, config);
  const double range_default = RangeSolver::DefaultRangeMeters(*instance_);
  const SolverResult range =
      RangeSolver(0.5, range_default).Solve(*instance_, config);

  const double p_prime = PrecisionAtK(prime.TopK(k), relevant, k);
  const double p_brnn = PrecisionAtK(brnn.TopK(k), relevant, k);
  const double p_range = PrecisionAtK(range.TopK(k), relevant, k);
  // The paper reports PRIME-LS ahead of both baselines; allow equality to
  // keep the test robust at small scale.
  EXPECT_GE(p_prime + 1e-12, p_brnn);
  EXPECT_GE(p_prime + 1e-12, p_range);
}

TEST_F(EndToEndTest, IncrementalMatchesBatchOnCheckinData) {
  const SolverConfig config = PaperConfig();
  IncrementalPrimeLS inc(instance_->candidates, config);
  for (const MovingObject& o : instance_->objects) {
    for (const Point& p : o.positions) inc.AppendPosition(o.id, p);
  }
  EXPECT_EQ(inc.NumLiveObjects(), instance_->objects.size());
  const SolverResult naive = NaiveSolver().Solve(*instance_, config);
  for (size_t j = 0; j < instance_->candidates.size(); ++j) {
    ASSERT_EQ(inc.InfluenceOf(j), naive.influence[j]) << "candidate " << j;
  }
}

TEST_F(EndToEndTest, MaxInfluenceDropsAsTauGrows) {
  int64_t last = std::numeric_limits<int64_t>::max();
  for (double tau : {0.1, 0.5, 0.9}) {
    const SolverResult result =
        PinocchioVOSolver().Solve(*instance_, PaperConfig(tau));
    EXPECT_LE(result.best_influence, last) << "tau=" << tau;
    last = result.best_influence;
  }
}

TEST_F(EndToEndTest, LargerLambdaLowersInfluence) {
  // Steeper decay -> lower probabilities -> fewer influenced objects.
  SolverConfig gentle = PaperConfig();
  gentle.pf = std::make_shared<PowerLawPF>(0.9, 0.75);
  SolverConfig steep = PaperConfig();
  steep.pf = std::make_shared<PowerLawPF>(0.9, 1.25);
  const SolverResult g = PinocchioVOSolver().Solve(*instance_, gentle);
  const SolverResult s = PinocchioVOSolver().Solve(*instance_, steep);
  EXPECT_GE(g.best_influence, s.best_influence);
}

TEST_F(EndToEndTest, SmallerRhoLowersInfluence) {
  SolverConfig strong = PaperConfig();
  strong.pf = std::make_shared<PowerLawPF>(0.9, 1.0);
  SolverConfig weak = PaperConfig();
  weak.pf = std::make_shared<PowerLawPF>(0.5, 1.0);
  const SolverResult hi = PinocchioVOSolver().Solve(*instance_, strong);
  const SolverResult lo = PinocchioVOSolver().Solve(*instance_, weak);
  EXPECT_GE(hi.best_influence, lo.best_influence);
}

}  // namespace
}  // namespace pinocchio
