#include "core/influence_query.h"

#include <gtest/gtest.h>

#include "core/naive_solver.h"
#include "prob/influence.h"
#include "testing/instance_helpers.h"

namespace pinocchio {
namespace {

using testing_helpers::DefaultConfig;
using testing_helpers::RandomInstance;

TEST(InfluenceQueryTest, MatchesNaivePerCandidate) {
  const ProblemInstance instance = RandomInstance(901);
  const SolverConfig config = DefaultConfig();
  const SolverResult naive = NaiveSolver().Solve(instance, config);
  const ObjectStore store(instance.objects, *config.pf, config.tau);
  for (size_t j = 0; j < instance.candidates.size(); ++j) {
    EXPECT_EQ(
        InfluenceOfCandidate(store, instance.candidates[j], *config.pf),
        naive.influence[j])
        << "candidate " << j;
  }
}

TEST(InfluenceQueryTest, ConvenienceOverloadAgrees) {
  const ProblemInstance instance = RandomInstance(902);
  const SolverConfig config = DefaultConfig();
  const Point c = instance.candidates.front();
  const ObjectStore store(instance.objects, *config.pf, config.tau);
  EXPECT_EQ(InfluenceOfCandidate(instance.objects, c, config),
            InfluenceOfCandidate(store, c, *config.pf));
}

TEST(InfluenceQueryTest, NoObjects) {
  const SolverConfig config = DefaultConfig();
  EXPECT_EQ(InfluenceOfCandidate(std::vector<MovingObject>{}, {0, 0}, config),
            0);
}

TEST(ExplainInfluenceTest, CountsMatchAndProbabilitiesSorted) {
  const ProblemInstance instance = RandomInstance(903);
  const SolverConfig config = DefaultConfig();
  const Point c = instance.candidates.front();
  const InfluenceExplanation explanation =
      ExplainInfluence(instance.objects, c, config);
  EXPECT_EQ(explanation.influence, InfluenceOfCandidate(instance.objects, c,
                                                        config));
  EXPECT_EQ(static_cast<int64_t>(explanation.influenced.size()),
            explanation.influence);
  for (size_t i = 1; i < explanation.influenced.size(); ++i) {
    EXPECT_GE(explanation.influenced[i - 1].probability,
              explanation.influenced[i].probability);
  }
}

TEST(ExplainInfluenceTest, ProbabilitiesAreExact) {
  const ProblemInstance instance = RandomInstance(904);
  const SolverConfig config = DefaultConfig();
  const Point c = instance.candidates.front();
  const InfluenceExplanation explanation =
      ExplainInfluence(instance.objects, c, config);
  for (const InfluencedObject& entry : explanation.influenced) {
    // Locate the object and recompute.
    const MovingObject* object = nullptr;
    for (const MovingObject& o : instance.objects) {
      if (o.id == entry.object_id) object = &o;
    }
    ASSERT_NE(object, nullptr);
    EXPECT_NEAR(entry.probability,
                CumulativeInfluenceProbability(*config.pf, c,
                                               object->positions),
                1e-12);
    EXPECT_GE(entry.probability, config.tau - 1e-9);
    EXPECT_LE(entry.positions_in_radius, object->positions.size());
  }
}

TEST(ExplainInfluenceTest, DecisionAccountingCoversAllObjects) {
  const ProblemInstance instance = RandomInstance(905);
  const SolverConfig config = DefaultConfig();
  const Point c = instance.candidates.front();
  const InfluenceExplanation explanation =
      ExplainInfluence(instance.objects, c, config);
  // NIB exclusions + the rest must account for every object; IA decisions
  // are a subset of influenced objects.
  EXPECT_LE(explanation.decided_by_ia, explanation.influence);
  EXPECT_LE(explanation.decided_by_nib,
            static_cast<int64_t>(instance.objects.size()));
}

}  // namespace
}  // namespace pinocchio
