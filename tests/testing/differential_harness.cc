#include "testing/differential_harness.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "baselines/brnn_star.h"
#include "baselines/range_solver.h"
#include "core/approx_solver.h"
#include "core/incremental.h"
#include "core/multi_facility.h"
#include "core/naive_solver.h"
#include "core/object_store.h"
#include "core/pinocchio_grid_solver.h"
#include "core/pinocchio_hull_solver.h"
#include "core/pinocchio_solver.h"
#include "core/pinocchio_vo_solver.h"
#include "core/prepared_instance.h"
#include "core/query_engine.h"
#include "core/streaming.h"
#include "core/weighted_solver.h"
#include "data/binary_io.h"
#include "data/checkin_dataset.h"
#include "geo/point.h"
#include "prob/alternative_pfs.h"
#include "prob/influence.h"
#include "prob/power_law.h"
#include "testing/instance_helpers.h"
#include "util/random.h"
#include "util/self_check.h"

namespace pinocchio {
namespace testing_diff {
namespace {

using testing_helpers::InstanceOptions;
using testing_helpers::RandomInstance;

// Decorrelates the shaping stream from RandomInstance's position stream
// (which seeds Rng with the raw seed).
constexpr uint64_t kShapingSalt = 0xA3EC4E5F9C1D2B07ull;

// Independent streams for the query-family checks, so adding them (or
// changing their draws) never perturbs the pinned case generation above.
constexpr uint64_t kSkylineSalt = 0x5D1E8A2C9B4F7E31ull;
constexpr uint64_t kDiverseSalt = 0xC47B26D90E5A813Full;
constexpr uint64_t kStreamingSalt = 0x91F3B7A50C6D2E84ull;
constexpr uint64_t kApproxSalt = 0x7C91E04B5A3D268Full;

// Thread budgets every budgeted solver and query family is swept over;
// each result must be bit-identical to the budget-1 run, which is itself
// checked against the naive oracle. 7 exceeds most fuzz stores' morsel
// counts, so idle workers are exercised too.
constexpr size_t kSweepBudgets[] = {2, 7};

// Draws one of the five PF families of the paper (power law of Section 3
// plus the four Figure-16 alternatives).
ProbabilityFunctionPtr DrawPf(Rng& rng, std::string* name) {
  switch (rng.UniformInt(0, 4)) {
    case 0: {
      const double rho = rng.Uniform(0.5, 0.99);
      const double lambda = rng.Uniform(0.5, 2.0);
      *name = "PowerLaw";
      return std::make_shared<PowerLawPF>(rho, lambda);
    }
    case 1: {
      *name = "Logsig";
      return std::make_shared<LogsigPF>(rng.Uniform(0.4, 0.95),
                                        rng.Uniform(500.0, 5000.0));
    }
    case 2: {
      *name = "Convex";
      return std::make_shared<ConvexPF>(rng.Uniform(0.4, 0.95),
                                        rng.Uniform(2000.0, 20000.0));
    }
    case 3: {
      *name = "Concave";
      return std::make_shared<ConcavePF>(rng.Uniform(0.4, 0.95),
                                         rng.Uniform(2000.0, 20000.0));
    }
    default: {
      *name = "Linear";
      return std::make_shared<LinearPF>(rng.Uniform(0.4, 0.95),
                                        rng.Uniform(2000.0, 20000.0));
    }
  }
}

// Injects the degenerate geometries the pruning rules are most sensitive
// to: single-point objects (zero-area MBR), duplicated positions,
// collinear positions (degenerate-height MBR) and duplicated candidates.
void InjectDegenerateGeometry(Rng& rng, ProblemInstance* instance) {
  auto pick_object = [&]() -> MovingObject& {
    return instance->objects[static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(instance->objects.size()) - 1))];
  };
  if (!instance->objects.empty()) {
    if (rng.NextDouble() < 0.30) {  // single-point object
      MovingObject& o = pick_object();
      o.positions.resize(1);
    }
    if (rng.NextDouble() < 0.30) {  // duplicated position
      MovingObject& o = pick_object();
      const size_t i = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(o.positions.size()) - 1));
      o.positions.push_back(o.positions[i]);
    }
    if (rng.NextDouble() < 0.30) {  // collinear positions (flat MBR)
      MovingObject& o = pick_object();
      for (Point& p : o.positions) p.y = o.positions[0].y;
    }
  }
  if (!instance->candidates.empty() && rng.NextDouble() < 0.25) {
    const size_t j = static_cast<size_t>(rng.UniformInt(
        0, static_cast<int64_t>(instance->candidates.size()) - 1));
    instance->candidates.push_back(instance->candidates[j]);
  }
}

// Places candidates exactly on an object's pruning-region boundaries:
// minDist == minMaxRadius (the NIB rim, where the <= in Lemma 3 decides)
// and maxDist == minMaxRadius (the IA rim, where Lemma 2's certificate
// flips). Exact to the last rounding of the coordinate arithmetic, which
// is precisely the regime the comparisons must survive.
void InjectBoundaryCandidates(Rng& rng, const SolverConfig& config,
                              ProblemInstance* instance) {
  if (instance->objects.empty() || rng.NextDouble() >= 0.45) return;
  const ObjectStore store(instance->objects, *config.pf, config.tau);
  const auto& records = store.records();
  const ObjectRecord& rec = records[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(records.size()) - 1))];
  const double radius = rec.min_max_radius;
  if (!(radius > 0.0)) return;  // uninfluenceable sentinel or zero
  const double cy = 0.5 * (rec.mbr.min_y() + rec.mbr.max_y());
  // NIB rim: due east of the MBR at exactly `radius` from its edge.
  instance->candidates.push_back({rec.mbr.max_x() + radius, cy});
  // IA rim: the farthest corner is the west one, so solve
  // maxDist((max_x + t, cy)) = hypot(width + t, height / 2) == radius.
  const double half_h = 0.5 * rec.mbr.height();
  if (radius > half_h) {
    const double t =
        std::sqrt(radius * radius - half_h * half_h) - rec.mbr.width();
    if (t >= 0.0) {
      instance->candidates.push_back({rec.mbr.max_x() + t, cy});
    }
  }
}

// With some probability snaps tau to the exact cumulative probability of a
// random (candidate, object) pair — or one ulp to either side — so the
// Pr_c(O) >= tau comparison is exercised exactly at its boundary.
bool MaybeSnapBoundaryTau(Rng& rng, const ProblemInstance& instance,
                          SolverConfig* config) {
  if (instance.objects.empty() || instance.candidates.empty() ||
      rng.NextDouble() >= 0.40) {
    return false;
  }
  const MovingObject& o = instance.objects[static_cast<size_t>(
      rng.UniformInt(0, static_cast<int64_t>(instance.objects.size()) - 1))];
  const Point& c = instance.candidates[static_cast<size_t>(rng.UniformInt(
      0, static_cast<int64_t>(instance.candidates.size()) - 1))];
  const double pr =
      CumulativeInfluenceProbability(*config->pf, c, o.positions);
  if (!(pr > 0.01) || !(pr < 0.99)) return false;
  const int64_t nudge = rng.UniformInt(-1, 1);
  double tau = pr;
  if (nudge < 0) tau = std::nextafter(pr, 0.0);
  if (nudge > 0) tau = std::nextafter(pr, 1.0);
  config->tau = tau;
  return true;
}

bool SameStats(const SolverStats& a, const SolverStats& b) {
  return a.pairs_pruned_by_ia == b.pairs_pruned_by_ia &&
         a.pairs_pruned_by_nib == b.pairs_pruned_by_nib &&
         a.pairs_validated == b.pairs_validated &&
         a.positions_scanned == b.positions_scanned &&
         a.early_stops == b.early_stops && a.heap_pops == b.heap_pops &&
         a.strategy1_cutoffs == b.strategy1_cutoffs;
}

// Empty when `got` equals `want` bit for bit — influence vector, ranking,
// best and every stats counter — else a description of the first
// difference.
std::string DescribeResultDiff(const SolverResult& got,
                               const SolverResult& want) {
  if (got.influence != want.influence) return "influence vector";
  if (got.influence_exact != want.influence_exact) return "influence_exact";
  if (got.ranking != want.ranking) return "ranking";
  if (got.best_candidate != want.best_candidate ||
      got.best_influence != want.best_influence) {
    return "best";
  }
  if (SameStats(got.stats, want.stats)) return "";
  std::ostringstream msg;
  msg << "stats counters (validated " << got.stats.pairs_validated << " vs "
      << want.stats.pairs_validated << ", scanned "
      << got.stats.positions_scanned << " vs " << want.stats.positions_scanned
      << ", pops " << got.stats.heap_pops << " vs " << want.stats.heap_pops
      << ")";
  return msg.str();
}

std::string DescribeVectorDiff(const std::string& solver,
                               const std::vector<int64_t>& got,
                               const std::vector<int64_t>& want) {
  std::ostringstream msg;
  msg << solver << ": influence vector differs from NaiveSolver";
  if (got.size() != want.size()) {
    msg << " (size " << got.size() << " vs " << want.size() << ")";
    return msg.str();
  }
  for (size_t j = 0; j < got.size(); ++j) {
    if (got[j] != want[j]) {
      msg << " (first diff at candidate " << j << ": " << got[j] << " vs "
          << want[j] << ")";
      break;
    }
  }
  return msg.str();
}

// Restores the fatal default handler on scope exit.
struct ScopedThrowingViolationHandler {
  ScopedThrowingViolationHandler() {
    SetSelfCheckViolationHandler(
        [](const std::string& message) { throw SelfCheckViolation(message); });
  }
  ~ScopedThrowingViolationHandler() { SetSelfCheckViolationHandler(nullptr); }
};

class CaseChecker {
 public:
  CaseChecker(const FuzzCase& fuzz, FuzzCaseResult* result)
      : fuzz_(fuzz), result_(result) {}

  void Fail(const std::string& message) {
    result_->failures.push_back(message);
  }

  // Runs `body` and converts self-check violations / exceptions into
  // recorded failures so the remaining checks still execute.
  template <typename Fn>
  void Guard(const std::string& what, Fn&& body) {
    try {
      body();
    } catch (const SelfCheckViolation& v) {
      Fail(what + ": self-check violation: " + v.what());
    } catch (const std::exception& e) {
      Fail(what + ": exception: " + e.what());
    }
  }

  void RunAll(bool check_auxiliary) {
    const PreparedInstance prepared(fuzz_.instance, fuzz_.config);
    const SolverResult naive = NaiveSolver().Solve(prepared);

    CheckExactSolver(PinocchioSolver(), prepared, naive);
    CheckExactSolver(PinocchioGridSolver(), prepared, naive);
    CheckExactSolver(PinocchioHullSolver(), prepared, naive);
    CheckVOSolver(PinocchioVOSolver(), prepared, naive);
    CheckVOSolver(PinocchioVOStarSolver(), prepared, naive);
    CheckThreadSweep<PinocchioSolver>(prepared);
    CheckThreadSweep<PinocchioVOSolver>(prepared);
    CheckThreadSweep<PinocchioVOStarSolver>(prepared);
    CheckClassicalBaseline(BrnnStarSolver(), prepared);
    if (!fuzz_.instance.objects.empty()) {
      CheckClassicalBaseline(
          RangeSolver(0.5, RangeSolver::DefaultRangeMeters(fuzz_.instance)),
          prepared);
    }
    if (check_auxiliary) {
      CheckWeighted(prepared, naive);
      CheckMultiFacility(prepared, naive);
      CheckSkyline(prepared, naive);
      CheckDiversified(prepared, naive);
      CheckApprox(prepared, naive);
      CheckIncremental(naive);
      CheckStreaming(naive);
    }
  }

 private:
  void CheckExactSolver(const Solver& solver, const PreparedInstance& prepared,
                        const SolverResult& naive) {
    Guard(solver.Name(), [&] {
      const SolverResult r = solver.Solve(prepared);
      if (r.influence != naive.influence) {
        Fail(DescribeVectorDiff(solver.Name(), r.influence, naive.influence));
      }
      if (r.best_candidate != naive.best_candidate ||
          r.best_influence != naive.best_influence) {
        std::ostringstream msg;
        msg << solver.Name() << ": best (" << r.best_candidate << ", "
            << r.best_influence << ") vs naive (" << naive.best_candidate
            << ", " << naive.best_influence << ")";
        Fail(msg.str());
      }
    });
  }

  void CheckVOSolver(const PinocchioVOSolver& solver,
                     const PreparedInstance& prepared,
                     const SolverResult& naive) {
    Guard(solver.Name(), [&] {
      const SolverResult r = solver.Solve(prepared);
      if (naive.influence.empty()) return;
      if (r.best_influence != naive.best_influence) {
        std::ostringstream msg;
        msg << solver.Name() << ": best influence " << r.best_influence
            << " vs naive " << naive.best_influence;
        Fail(msg.str());
      }
      if (r.best_candidate >= naive.influence.size() ||
          naive.influence[r.best_candidate] != r.best_influence) {
        std::ostringstream msg;
        msg << solver.Name() << ": winner " << r.best_candidate
            << " does not attain its reported influence under naive";
        Fail(msg.str());
      }
      for (size_t j = 0; j < r.influence.size(); ++j) {
        if (r.influence[j] > naive.influence[j]) {
          std::ostringstream msg;
          msg << solver.Name() << ": influence[" << j << "] = "
              << r.influence[j] << " exceeds exact " << naive.influence[j]
              << " (lower-bound contract broken)";
          Fail(msg.str());
          break;
        }
      }
      const size_t exact_k =
          std::min(fuzz_.config.top_k, naive.influence.size());
      for (size_t i = 0; i < exact_k && i < r.ranking.size(); ++i) {
        const uint32_t j = r.ranking[i];
        if (r.influence[j] != naive.influence[j]) {
          std::ostringstream msg;
          msg << solver.Name() << ": top-" << fuzz_.config.top_k
              << " entry " << j << " reported " << r.influence[j]
              << " but exact is " << naive.influence[j];
          Fail(msg.str());
          break;
        }
      }
    });
  }

  // Every thread budget promises results *bit-identical* to budget 1 —
  // same influence vector (including the inexact lower bounds of
  // Strategy-1-eliminated candidates), same ranking and same stats
  // counters — so budgets 2 and 7 are diffed against budget 1, whose
  // contract with the naive oracle is checked above.
  template <typename BudgetedSolver>
  void CheckThreadSweep(const PreparedInstance& prepared) {
    Guard(BudgetedSolver(1).Name() + " thread sweep", [&] {
      const SolverResult one = BudgetedSolver(1).Solve(prepared);
      for (size_t threads : kSweepBudgets) {
        const BudgetedSolver solver(threads);
        const std::string diff =
            DescribeResultDiff(solver.Solve(prepared), one);
        if (!diff.empty()) {
          Fail(solver.Name() + ": " + diff + " diverges from budget 1");
        }
      }
    });
  }

  // The classical-semantics baselines (nearest-neighbour votes, range
  // counts) do not share the PRIME-LS objective, so there is no naive
  // vector to diff against; check determinism and internal consistency
  // instead.
  void CheckClassicalBaseline(const Solver& solver,
                              const PreparedInstance& prepared) {
    Guard(solver.Name(), [&] {
      const SolverResult a = solver.Solve(prepared);
      const SolverResult b = solver.Solve(prepared);
      if (a.influence != b.influence || a.best_candidate != b.best_candidate) {
        Fail(solver.Name() + ": non-deterministic across identical solves");
      }
      if (!a.influence.empty()) {
        if (a.best_candidate >= a.influence.size() ||
            a.influence[a.best_candidate] != a.best_influence) {
          Fail(solver.Name() + ": best_influence inconsistent with vector");
        }
        if (a.best_influence !=
            *std::max_element(a.influence.begin(), a.influence.end())) {
          Fail(solver.Name() + ": best_influence is not the vector maximum");
        }
      }
    });
  }

  void CheckWeighted(const PreparedInstance& prepared,
                     const SolverResult& naive) {
    Guard("Weighted(unit)", [&] {
      const std::vector<double> unit(prepared.store().size(), 1.0);
      const WeightedSolverResult w = SolveWeightedPinocchio(prepared, unit);
      for (size_t j = 0; j < naive.influence.size(); ++j) {
        // Unit weights make the score an integer count; == is exact.
        if (w.score[j] != static_cast<double>(naive.influence[j])) {
          std::ostringstream msg;
          msg << "Weighted(unit): score[" << j << "] = " << w.score[j]
              << " vs naive influence " << naive.influence[j];
          Fail(msg.str());
          break;
        }
      }
      if (!naive.influence.empty()) {
        const WeightedVOResult v = SolveWeightedPinocchioVO(prepared, unit);
        if (v.best_score != static_cast<double>(naive.best_influence)) {
          std::ostringstream msg;
          msg << "WeightedVO(unit): best score " << v.best_score
              << " vs naive best influence " << naive.best_influence;
          Fail(msg.str());
        }
      }
    });
  }

  void CheckMultiFacility(const PreparedInstance& prepared,
                          const SolverResult& naive) {
    if (naive.influence.empty()) return;
    Guard("MultiFacility(k=1)", [&] {
      const MultiFacilityResult mf = SelectFacilities(prepared, 1);
      if (mf.selected.size() != 1 || mf.coverage.size() != 1) {
        Fail("MultiFacility(k=1): expected exactly one selection");
        return;
      }
      // Greedy's first pick is exactly the single-facility optimum.
      if (mf.coverage[0] != naive.best_influence ||
          naive.influence[mf.selected[0]] != naive.best_influence) {
        std::ostringstream msg;
        msg << "MultiFacility(k=1): coverage " << mf.coverage[0]
            << " of candidate " << mf.selected[0]
            << " vs naive best influence " << naive.best_influence;
        Fail(msg.str());
      }
    });
  }

  // Skyline over (influence, cost) against a brute-force O(m^2) domination
  // sweep on the naive influence vector, with three cost regimes: distances
  // from a random origin (the serving path), arbitrary uniform costs, and
  // all-equal costs (every candidate in one group, so the result is exactly
  // the maximum-influence set — the all-dominated edge case). Budgets 2 and
  // 7 are then diffed bit-identically against budget 1.
  void CheckSkyline(const PreparedInstance& prepared,
                    const SolverResult& naive) {
    if (naive.influence.empty()) return;
    Guard("Skyline", [&] {
      Rng rng(result_->seed * 0x9E3779B97F4A7C15ull ^ kSkylineSalt);
      const size_t m = naive.influence.size();
      std::vector<double> cost(m);
      const int64_t mode = rng.UniformInt(0, 2);
      if (mode == 0) {
        const Point origin{rng.Uniform(0.0, 40000.0),
                           rng.Uniform(0.0, 40000.0)};
        for (size_t j = 0; j < m; ++j) {
          cost[j] =
              Distance(prepared.candidate(static_cast<uint32_t>(j)), origin);
        }
      } else if (mode == 1) {
        for (size_t j = 0; j < m; ++j) cost[j] = rng.Uniform(0.0, 100.0);
      } else {
        const double c = rng.Uniform(0.0, 100.0);
        for (size_t j = 0; j < m; ++j) cost[j] = c;
      }

      // Brute-force reference: j survives iff no i strictly dominates it.
      std::vector<uint32_t> expected;
      for (uint32_t j = 0; j < m; ++j) {
        bool dominated = false;
        for (uint32_t i = 0; i < m && !dominated; ++i) {
          dominated = cost[i] <= cost[j] &&
                      naive.influence[i] >= naive.influence[j] &&
                      (cost[i] < cost[j] ||
                       naive.influence[i] > naive.influence[j]);
        }
        if (!dominated) expected.push_back(j);
      }
      std::sort(expected.begin(), expected.end(),
                [&](uint32_t a, uint32_t b) {
                  if (cost[a] != cost[b]) return cost[a] < cost[b];
                  return a < b;
                });

      const query::SkylineResult got = query::SolveSkyline(prepared, cost);
      bool match = got.members.size() == expected.size();
      for (size_t i = 0; match && i < expected.size(); ++i) {
        const query::SkylineMember& member = got.members[i];
        match = member.candidate == expected[i] &&
                member.influence == naive.influence[expected[i]] &&
                member.cost == cost[expected[i]];
      }
      if (!match) {
        std::ostringstream msg;
        msg << "Skyline: " << got.members.size() << " members vs brute-force "
            << expected.size() << " (cost mode " << mode << ")";
        Fail(msg.str());
      }

      for (size_t threads : kSweepBudgets) {
        const query::SkylineResult par =
            query::SolveSkyline(prepared, cost, threads);
        bool same = par.members.size() == got.members.size() &&
                    par.bound_skipped == got.bound_skipped &&
                    SameStats(par.stats, got.stats);
        for (size_t i = 0; same && i < got.members.size(); ++i) {
          same = par.members[i].candidate == got.members[i].candidate &&
                 par.members[i].influence == got.members[i].influence &&
                 par.members[i].cost == got.members[i].cost;
        }
        if (!same) {
          std::ostringstream msg;
          msg << "Skyline at " << threads << " threads diverges from budget 1";
          Fail(msg.str());
        }
      }
    });
  }

  // The approximate tier certifies: with probability >= 1 - delta the
  // returned bracket contains the exact influence. The harness asserts
  // containment on EVERY seed with zero tolerated violations, so the
  // sampled regime runs at (0.4, 1e-6) — a 46-record budget whose real
  // two-sided failure probability is below 1e-7 even before the
  // without-replacement correction, yet small enough to leave genuine
  // sampling on fuzz-sized verification sets. The epsilon -> 0 regime
  // must degenerate to the exact top-k bit-for-bit, and the delta -> 1
  // regime (a near-vacuous certificate: a 2-record budget) still has to
  // hold the structural invariants. Each regime is additionally run at
  // budgets 2 and 7 and diffed bit-identically against budget 1.
  void CheckApprox(const PreparedInstance& prepared,
                   const SolverResult& naive) {
    if (naive.influence.empty()) return;
    Guard("ApproxTopK", [&] {
      Rng rng(result_->seed * 0x9E3779B97F4A7C15ull ^ kApproxSalt);
      const size_t m = naive.influence.size();
      const size_t k = 1 + result_->seed % 5;
      const auto r = static_cast<int64_t>(prepared.store().size());

      const SketchParams regimes[] = {
          {0.4, 1e-6, rng.Next()},   // sampling engaged, >5-sigma bracket
          {1e-9, 0.999, rng.Next()},  // budget >= any set: exact tier
          {0.45, 0.999, rng.Next()},  // delta near 1: structural only
      };
      for (size_t which = 0; which < 3; ++which) {
        const SketchParams& params = regimes[which];
        std::ostringstream tag;
        tag << "ApproxTopK[eps=" << params.epsilon
            << ",delta=" << params.delta << "]";
        const ApproxTopKResult res = SolveApproxTopK(prepared, k, params);

        if (res.entries.size() != std::min(k, m)) {
          std::ostringstream msg;
          msg << tag.str() << ": " << res.entries.size() << " entries for k="
              << k << " over " << m << " candidates";
          Fail(msg.str());
          continue;
        }
        for (size_t i = 0; i < res.entries.size(); ++i) {
          const ApproxEntry& e = res.entries[i];
          std::ostringstream msg;
          msg << tag.str() << ": entry " << i << " (candidate " << e.candidate
              << ", estimate " << e.estimate << ", [" << e.lo << ", " << e.hi
              << "])";
          if (e.candidate >= m) {
            Fail(msg.str() + " names a candidate out of range");
            break;
          }
          if (e.lo < 0 || e.hi > r || e.lo > e.estimate || e.estimate > e.hi) {
            Fail(msg.str() + " breaks the bracket invariants");
            break;
          }
          if (i > 0 && res.entries[i - 1].estimate < e.estimate) {
            Fail(msg.str() + " is not in descending estimate order");
            break;
          }
          const int64_t exact = naive.influence[e.candidate];
          if (e.exact && (e.lo != exact || e.hi != exact)) {
            Fail(msg.str() + " is flagged exact but disagrees with naive");
            break;
          }
          if (which == 0) {
            if (exact < e.lo || exact > e.hi) {
              std::ostringstream v;
              v << msg.str() << " does not contain the exact influence "
                << exact;
              Fail(v.str());
              break;
            }
            const auto width_cap = static_cast<int64_t>(
                2.0 * params.epsilon * static_cast<double>(r));
            if (e.hi - e.lo > width_cap) {
              Fail(msg.str() + " is wider than the certified 2*eps*N cap");
              break;
            }
          }
        }

        if (which == 1) {
          // The tiny-epsilon budget covers any verification set, so the
          // answer must be the exact top-k under the solver's tie-break
          // (influence descending, candidate ascending) with nothing
          // sampled away.
          if (res.pairs_skipped != 0) {
            Fail(tag.str() + ": exact-degenerate run still skipped pairs");
          }
          std::vector<uint32_t> expected(m);
          for (uint32_t j = 0; j < m; ++j) expected[j] = j;
          std::sort(expected.begin(), expected.end(),
                    [&](uint32_t a, uint32_t b) {
                      if (naive.influence[a] != naive.influence[b]) {
                        return naive.influence[a] > naive.influence[b];
                      }
                      return a < b;
                    });
          for (size_t i = 0; i < res.entries.size(); ++i) {
            if (!res.entries[i].exact ||
                res.entries[i].candidate != expected[i] ||
                res.entries[i].estimate != naive.influence[expected[i]]) {
              std::ostringstream msg;
              msg << tag.str() << ": entry " << i
                  << " diverges from the exact top-k";
              Fail(msg.str());
              break;
            }
          }
        }

        for (size_t threads : kSweepBudgets) {
          const ApproxTopKResult par =
              SolveApproxTopK(prepared, k, params, threads);
          bool same = par.entries.size() == res.entries.size() &&
                      par.sample_budget == res.sample_budget &&
                      par.pairs_skipped == res.pairs_skipped &&
                      par.pairs_refined == res.pairs_refined &&
                      SameStats(par.stats, res.stats);
          for (size_t i = 0; same && i < res.entries.size(); ++i) {
            same = par.entries[i].candidate == res.entries[i].candidate &&
                   par.entries[i].estimate == res.entries[i].estimate &&
                   par.entries[i].lo == res.entries[i].lo &&
                   par.entries[i].hi == res.entries[i].hi &&
                   par.entries[i].exact == res.entries[i].exact;
          }
          if (!same) {
            std::ostringstream msg;
            msg << tag.str() << ": " << threads
                << " threads diverge from budget 1";
            Fail(msg.str());
          }
        }
      }
    });
  }

  // Diversified selection against a recompute-every-round greedy built on
  // influence sets derived from first principles (Definition 2 per pair),
  // sweeping min_separation 0 (plain multi-facility, also diffed against
  // SelectFacilities), a random separation up to the candidate diameter,
  // and one larger than the diameter (only a single pick can ever be
  // feasible). Budgets 2 and 7 are diffed bit-identically against
  // budget 1.
  void CheckDiversified(const PreparedInstance& prepared,
                        const SolverResult& naive) {
    if (naive.influence.empty()) return;
    Guard("Diversified", [&] {
      Rng rng(result_->seed * 0x9E3779B97F4A7C15ull ^ kDiverseSalt);
      const ObjectStore& store = prepared.store();
      const size_t m = naive.influence.size();
      const size_t r = store.size();
      const size_t k = 1 + result_->seed % 4;

      double diameter = 0.0;
      for (uint32_t a = 0; a < m; ++a) {
        for (uint32_t b = a + 1; b < m; ++b) {
          diameter = std::max(
              diameter, Distance(prepared.candidate(a), prepared.candidate(b)));
        }
      }
      const int64_t mode = rng.UniformInt(0, 2);
      double delta = 0.0;
      if (mode == 1) delta = rng.Uniform(0.0, std::max(diameter, 1.0));
      if (mode == 2) delta = diameter * 1.5 + 1.0;

      // Influence sets from first principles.
      std::vector<std::vector<uint32_t>> sets(m);
      for (uint32_t j = 0; j < m; ++j) {
        const Point& c = prepared.candidate(j);
        for (uint32_t rec = 0; rec < r; ++rec) {
          if (CumulativeInfluenceProbability(prepared.pf(), c,
                                             store.positions(rec)) >=
              prepared.tau()) {
            sets[j].push_back(rec);
          }
        }
      }

      // Reference greedy: recompute every gain each round, pick the
      // max-gain feasible candidate (smallest index on ties).
      std::vector<uint32_t> want_selected;
      std::vector<int64_t> want_coverage;
      std::vector<char> covered(r, 0);
      std::vector<char> picked(m, 0);
      int64_t covered_count = 0;
      while (want_selected.size() < std::min(k, m)) {
        int64_t best_gain = -1;
        uint32_t best_j = 0;
        for (uint32_t j = 0; j < m; ++j) {
          if (picked[j]) continue;
          bool feasible = true;
          for (uint32_t s : want_selected) {
            if (Distance(prepared.candidate(s), prepared.candidate(j)) <
                delta) {
              feasible = false;
              break;
            }
          }
          if (!feasible) continue;
          int64_t gain = 0;
          for (uint32_t rec : sets[j]) gain += covered[rec] ? 0 : 1;
          if (gain > best_gain) {
            best_gain = gain;
            best_j = j;
          }
        }
        if (best_gain < 0) break;  // nothing feasible remains
        picked[best_j] = 1;
        want_selected.push_back(best_j);
        for (uint32_t rec : sets[best_j]) {
          if (!covered[rec]) {
            covered[rec] = 1;
            ++covered_count;
          }
        }
        want_coverage.push_back(covered_count);
      }

      const query::DiversifiedResult got =
          query::SelectDiversified(prepared, k, delta);
      if (got.selected != want_selected || got.coverage != want_coverage) {
        std::ostringstream msg;
        msg << "Diversified(k=" << k << ", delta=" << delta << "): picked "
            << got.selected.size() << " vs reference greedy "
            << want_selected.size();
        if (!got.selected.empty() && !want_selected.empty() &&
            got.selected[0] != want_selected[0]) {
          msg << " (first pick " << got.selected[0] << " vs "
              << want_selected[0] << ")";
        }
        Fail(msg.str());
      }
      if (mode == 2 && got.selected.size() > 1) {
        Fail("Diversified: multiple picks despite delta beyond the diameter");
      }

      if (delta == 0.0) {
        // min_separation 0 must reduce exactly to multi-facility greedy.
        const MultiFacilityResult mf = SelectFacilities(prepared, k);
        if (mf.selected != got.selected || mf.coverage != got.coverage ||
            mf.gain_evaluations != got.gain_evaluations) {
          Fail("Diversified(delta=0): diverges from SelectFacilities");
        }
      }

      for (size_t threads : kSweepBudgets) {
        const query::DiversifiedResult par =
            query::SelectDiversified(prepared, k, delta, threads);
        if (par.selected != got.selected || par.coverage != got.coverage ||
            par.gain_evaluations != got.gain_evaluations ||
            par.separation_rejections != got.separation_rejections) {
          std::ostringstream msg;
          msg << "Diversified at " << threads
              << " threads diverges from budget 1";
          Fail(msg.str());
        }
      }
    });
  }

  void CheckIncremental(const SolverResult& naive) {
    Guard("IncrementalPrimeLS", [&] {
      IncrementalPrimeLS inc(fuzz_.instance.candidates, fuzz_.config);
      for (const MovingObject& o : fuzz_.instance.objects) inc.AddObject(o);
      for (size_t j = 0; j < naive.influence.size(); ++j) {
        if (inc.InfluenceOf(j) != naive.influence[j]) {
          std::ostringstream msg;
          msg << "IncrementalPrimeLS: influence[" << j << "] = "
              << inc.InfluenceOf(j) << " vs naive " << naive.influence[j];
          Fail(msg.str());
          break;
        }
      }
      // Delta ops: slide each object's window by appending its own
      // positions again and expiring the oldest, then diff against a
      // from-scratch structure holding the slid windows.
      std::unordered_map<uint32_t, std::deque<Point>> windows;
      for (const MovingObject& o : fuzz_.instance.objects) {
        windows.emplace(o.id,
                        std::deque<Point>(o.positions.begin(),
                                          o.positions.end()));
      }
      Rng rng(result_->seed ^ kStreamingSalt);
      for (const MovingObject& o : fuzz_.instance.objects) {
        std::deque<Point>& window = windows[o.id];
        for (const Point& p : o.positions) {
          if (rng.NextDouble() < 0.5) {
            inc.AppendPosition(o.id, p);
            window.push_back(p);
          }
          if (!window.empty() && rng.NextDouble() < 0.5) {
            inc.ExpireOldestPosition(o.id);
            window.pop_front();
          }
        }
      }
      IncrementalPrimeLS fresh(fuzz_.instance.candidates, fuzz_.config);
      for (const auto& [id, window] : windows) {
        if (window.empty()) continue;
        MovingObject o;
        o.id = id;
        o.positions.assign(window.begin(), window.end());
        fresh.AddObject(o);
      }
      for (size_t j = 0; j < fuzz_.instance.candidates.size(); ++j) {
        if (inc.InfluenceOf(j) != fresh.InfluenceOf(j)) {
          std::ostringstream msg;
          msg << "IncrementalPrimeLS delta ops: influence[" << j << "] = "
              << inc.InfluenceOf(j) << " vs from-scratch "
              << fresh.InfluenceOf(j);
          Fail(msg.str());
          break;
        }
      }
      if (inc.Best() != fresh.Best() || inc.TopK(5) != fresh.TopK(5)) {
        Fail("IncrementalPrimeLS delta ops: Best/TopK diverge from "
             "from-scratch");
      }
    });
  }

  void CheckStreaming(const SolverResult& naive) {
    Guard("StreamingPrimeLS", [&] {
      StreamingPrimeLS::Options opts;
      opts.config = fuzz_.config;
      opts.window_seconds = 1e9;  // everything observed stays live
      StreamingPrimeLS stream(fuzz_.instance.candidates, opts);
      double t = 0.0;
      for (const MovingObject& o : fuzz_.instance.objects) {
        for (const Point& p : o.positions) {
          stream.Observe(o.id, t, p);
          t += 1.0;
        }
      }
      for (size_t j = 0; j < naive.influence.size(); ++j) {
        if (stream.InfluenceOf(j) != naive.influence[j]) {
          std::ostringstream msg;
          msg << "StreamingPrimeLS: influence[" << j << "] = "
              << stream.InfluenceOf(j) << " vs naive " << naive.influence[j];
          Fail(msg.str());
          break;
        }
      }
    });
    Guard("StreamingPrimeLS/window", [&] { CheckStreamingWindowed(); });
  }

  // Sliding-window interleavings over the delta-maintenance path: every
  // streamed state is compared against a from-scratch solve of the live
  // window (influence counters, optimum, live object and position counts).
  // The feed mixes duplicate object ids,
  // zero time steps, horizon-exact steps (an observation landing exactly
  // window_seconds after another keeps the older one live — the closed
  // window) and occasional far AdvanceTo() drains.
  void CheckStreamingWindowed() {
    const ProblemInstance& instance = fuzz_.instance;
    if (instance.objects.empty() || instance.candidates.empty()) return;
    Rng rng(result_->seed ^ kStreamingSalt);
    const size_t m = instance.candidates.size();
    const double window = rng.Uniform(4.0, 32.0);

    StreamingPrimeLS::Options opts;
    opts.config = fuzz_.config;
    opts.window_seconds = window;
    StreamingPrimeLS delta(instance.candidates, opts);

    // Mirror of the live window, expired with the engines' strict-<
    // horizon rule, for the from-scratch reference.
    std::unordered_map<uint32_t, std::deque<std::pair<double, Point>>> live;
    auto expire_live = [&](double at) {
      const double horizon = at - window;
      for (auto it = live.begin(); it != live.end();) {
        auto& dq = it->second;
        while (!dq.empty() && dq.front().first < horizon) dq.pop_front();
        it = dq.empty() ? live.erase(it) : std::next(it);
      }
    };
    auto check_vs_batch = [&]() -> bool {
      size_t live_positions = 0;
      for (const auto& entry : live) live_positions += entry.second.size();
      if (delta.NumLiveObjects() != live.size() ||
          delta.NumLivePositions() != live_positions) {
        std::ostringstream msg;
        msg << "StreamingPrimeLS/window: live counts " << delta.NumLiveObjects()
            << "/" << delta.NumLivePositions() << " vs window mirror "
            << live.size() << "/" << live_positions << " at now="
            << delta.now();
        Fail(msg.str());
        return false;
      }
      int64_t best = 0;
      for (size_t j = 0; j < m; ++j) {
        int64_t want = 0;
        std::vector<Point> positions;
        for (const auto& [id, dq] : live) {
          (void)id;
          positions.clear();
          for (const auto& tp : dq) positions.push_back(tp.second);
          if (Influences(*fuzz_.config.pf, instance.candidates[j], positions,
                         fuzz_.config.tau)) {
            ++want;
          }
        }
        if (delta.InfluenceOf(j) != want) {
          std::ostringstream msg;
          msg << "StreamingPrimeLS/window: delta influence[" << j << "] = "
              << delta.InfluenceOf(j) << " vs window batch " << want
              << " at now=" << delta.now();
          Fail(msg.str());
          return false;
        }
        best = std::max(best, want);
      }
      const auto reported = delta.Best();
      if (!reported.has_value() || reported->second != best ||
          delta.InfluenceOf(reported->first) != best) {
        std::ostringstream msg;
        msg << "StreamingPrimeLS/window: Best() disagrees with the window "
               "batch maximum "
            << best << " at now=" << delta.now();
        Fail(msg.str());
        return false;
      }
      return true;
    };

    double now = 0.0;
    for (const MovingObject& o : instance.objects) {
      for (const Point& p : o.positions) {
        const double roll = rng.NextDouble();
        if (roll < 0.25) {
          // burst: same timestamp as the previous observation
        } else if (roll < 0.35) {
          now += window;  // previous observations land exactly on the horizon
        } else {
          now += rng.Uniform(0.0, window / 4.0);
        }
        // Duplicate-id pressure: distinct instance objects fold into a few
        // shared streaming ids.
        const uint32_t id =
            rng.NextDouble() < 0.3 ? o.id % 3 : o.id;
        delta.Observe(id, now, p);
        live[id].emplace_back(now, p);
        expire_live(now);
        if (!check_vs_batch()) return;
        if (rng.NextDouble() < 0.03) {
          now += rng.Uniform(0.0, 2.0 * window);
          delta.AdvanceTo(now);
          expire_live(now);
          if (!check_vs_batch()) return;
        }
      }
    }
    // Full drain, then the final state against the from-scratch batch.
    now += 3.0 * window;
    delta.AdvanceTo(now);
    expire_live(now);
    if (!check_vs_batch()) return;
    if (delta.NumLiveObjects() != 0 || delta.NumLivePositions() != 0) {
      Fail("StreamingPrimeLS/window: window not empty after full drain");
    }
  }

  const FuzzCase& fuzz_;
  FuzzCaseResult* result_;
};

// Serialises the failing case: the instance as a binary dataset snapshot
// (candidates as venues, objects verbatim) plus a sidecar text file with
// the exact configuration and the failure list.
std::string DumpReproducer(uint64_t seed, const FuzzCase& fuzz,
                           const FuzzCaseResult& result,
                           const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) return "";

  CheckinDataset dataset;
  dataset.spec.name = "fuzz-" + std::to_string(seed);
  dataset.spec.seed = seed;
  dataset.venues = fuzz.instance.candidates;
  dataset.venue_checkins.assign(fuzz.instance.candidates.size(), 0);
  dataset.objects = fuzz.instance.objects;
  const std::string base = dir + "/fuzz-" + std::to_string(seed);
  SaveDatasetBinaryFile(dataset, base + ".pino");

  std::ofstream sidecar(base + ".txt");
  sidecar.precision(17);
  sidecar << "seed: " << seed << "\n"
          << "pf: " << fuzz.pf_name << " (" << fuzz.config.pf->Name() << ")\n"
          << "tau: " << std::hexfloat << fuzz.config.tau << std::defaultfloat
          << " (" << fuzz.config.tau << ")\n"
          << "boundary_tau: " << (fuzz.boundary_tau ? "yes" : "no") << "\n"
          << "rtree_fanout: " << fuzz.config.rtree_fanout << "\n"
          << "top_k: " << fuzz.config.top_k << "\n"
          << "objects: " << fuzz.instance.objects.size()
          << ", candidates: " << fuzz.instance.candidates.size() << "\n"
          << "replay: fuzz_driver --seed_begin=" << seed
          << " --seed_end=" << seed + 1 << "\n\nfailures:\n";
  for (const std::string& f : result.failures) sidecar << "  - " << f << "\n";
  return base + ".pino";
}

}  // namespace

FuzzCase GenerateFuzzCase(uint64_t seed) {
  Rng rng(seed ^ kShapingSalt);
  FuzzCase fuzz;

  InstanceOptions opts;
  opts.num_objects = static_cast<size_t>(rng.UniformInt(1, 60));
  opts.num_candidates = static_cast<size_t>(rng.UniformInt(1, 40));
  opts.min_positions = 1;
  opts.max_positions = static_cast<size_t>(rng.UniformInt(1, 25));
  opts.extent_meters = rng.Uniform(5000.0, 40000.0);
  opts.roamer_fraction = rng.NextDouble();
  fuzz.instance = RandomInstance(seed, opts);

  fuzz.config.pf = DrawPf(rng, &fuzz.pf_name);
  fuzz.config.tau = rng.Uniform(0.05, 0.95);
  // The R-tree requires fanout >= 4 (rtree.cc enforces it).
  fuzz.config.rtree_fanout = static_cast<size_t>(rng.UniformInt(4, 10));
  fuzz.config.top_k = static_cast<size_t>(rng.UniformInt(1, 3));

  InjectDegenerateGeometry(rng, &fuzz.instance);
  fuzz.boundary_tau = MaybeSnapBoundaryTau(rng, fuzz.instance, &fuzz.config);
  InjectBoundaryCandidates(rng, fuzz.config, &fuzz.instance);
  return fuzz;
}

FuzzCaseResult RunFuzzCase(uint64_t seed, const FuzzOptions& options) {
  FuzzCaseResult result;
  result.seed = seed;

  const ScopedThrowingViolationHandler scoped_handler;
  FuzzCase fuzz;
  try {
    fuzz = GenerateFuzzCase(seed);
    CaseChecker checker(fuzz, &result);
    checker.RunAll(options.check_auxiliary);
  } catch (const SelfCheckViolation& v) {
    result.failures.push_back(std::string("self-check violation: ") +
                              v.what());
  } catch (const std::exception& e) {
    result.failures.push_back(std::string("exception: ") + e.what());
  }

  if (!result.ok() && !options.reproducer_dir.empty()) {
    result.reproducer_path =
        DumpReproducer(seed, fuzz, result, options.reproducer_dir);
  }
  return result;
}

FuzzSummary RunFuzzRange(uint64_t seed_begin, uint64_t seed_end,
                         const FuzzOptions& options, std::ostream* progress) {
  FuzzSummary summary;
  for (uint64_t seed = seed_begin; seed < seed_end; ++seed) {
    if (options.should_stop != nullptr && options.should_stop()) {
      summary.interrupted = true;
      if (progress != nullptr) {
        *progress << "interrupted after " << summary.cases_run
                  << " cases\n";
      }
      break;
    }
    FuzzCaseResult result = RunFuzzCase(seed, options);
    ++summary.cases_run;
    if (!result.ok()) {
      if (progress != nullptr) {
        *progress << "seed " << seed << " FAILED:\n";
        for (const std::string& f : result.failures) {
          *progress << "  - " << f << "\n";
        }
        if (!result.reproducer_path.empty()) {
          *progress << "  reproducer: " << result.reproducer_path << "\n";
        }
      }
      summary.failures.push_back(std::move(result));
    } else if (progress != nullptr && summary.cases_run % 100 == 0) {
      *progress << summary.cases_run << " cases, "
                << summary.failures.size() << " failures\n";
    }
  }
  return summary;
}

}  // namespace testing_diff
}  // namespace pinocchio
