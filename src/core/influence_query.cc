#include "core/influence_query.h"

#include <algorithm>
#include <cmath>

#include "core/prepared_instance.h"
#include "prob/influence_kernel.h"

namespace pinocchio {

int64_t InfluenceOfCandidate(const ObjectStore& store, const Point& candidate,
                             const ProbabilityFunction& pf) {
  return InfluenceOfCandidate(store, InfluenceKernel(pf, store.tau()),
                              candidate);
}

int64_t InfluenceOfCandidate(const ObjectStore& store,
                             const InfluenceKernel& kernel,
                             const Point& candidate) {
  const std::span<const Point> one(&candidate, 1);
  int64_t influence = 0;
  for (const ObjectRecord& rec : store.records()) {
    if (!rec.nib.Contains(candidate)) continue;  // Lemma 3
    if (!rec.ia.IsEmpty() && rec.ia.Contains(candidate)) {  // Lemma 2
      ++influence;
      continue;
    }
    uint8_t influenced = 0;
    kernel.DecideMany(one, store.positions(rec), {&influenced, 1});
    influence += influenced;
  }
  return influence;
}

int64_t InfluenceOfCandidate(const PreparedInstance& prepared,
                             const Point& candidate) {
  return InfluenceOfCandidate(prepared.store(), candidate, prepared.pf());
}

int64_t InfluenceOfCandidate(const std::vector<MovingObject>& objects,
                             const Point& candidate,
                             const SolverConfig& config) {
  const PreparedInstance prepared(objects, config);
  return InfluenceOfCandidate(prepared, candidate);
}

InfluenceExplanation ExplainInfluence(const PreparedInstance& prepared,
                                      const Point& candidate) {
  const double tau = prepared.tau();
  const ObjectStore& store = prepared.store();
  const InfluenceKernel kernel(prepared.pf(), tau);

  InfluenceExplanation explanation;
  for (const ObjectRecord& rec : store.records()) {
    const bool nib_excludes = !rec.nib.Contains(candidate);
    const bool ia_certifies =
        !rec.ia.IsEmpty() && rec.ia.Contains(candidate);
    if (nib_excludes) {
      ++explanation.decided_by_nib;
      continue;
    }
    if (ia_certifies) ++explanation.decided_by_ia;

    const std::span<const Point> positions = store.positions(rec);
    // The explanation reports the exact probability, so the full-scan
    // evaluation is used here rather than the early-exit decision.
    const double probability = kernel.Probability(candidate, positions);
    const bool influenced = ia_certifies || probability >= tau;
    if (!influenced) continue;

    InfluencedObject entry;
    entry.object_id = rec.object_id;
    entry.probability = probability;
    if (rec.min_max_radius >= 0.0) {
      for (const Point& p : positions) {
        // Same distance-space convention as the region predicates, so the
        // count agrees with them for positions exactly on the rim.
        if (std::sqrt(SquaredDistance(candidate, p)) <= rec.min_max_radius) {
          ++entry.positions_in_radius;
        }
      }
    }
    explanation.influenced.push_back(entry);
  }
  explanation.influence = static_cast<int64_t>(explanation.influenced.size());
  std::stable_sort(explanation.influenced.begin(),
                   explanation.influenced.end(),
                   [](const InfluencedObject& a, const InfluencedObject& b) {
                     return a.probability > b.probability;
                   });
  return explanation;
}

InfluenceExplanation ExplainInfluence(const std::vector<MovingObject>& objects,
                                      const Point& candidate,
                                      const SolverConfig& config) {
  const PreparedInstance prepared(objects, config);
  return ExplainInfluence(prepared, candidate);
}

}  // namespace pinocchio
