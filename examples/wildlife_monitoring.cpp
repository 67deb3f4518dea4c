// Wildlife monitoring-station placement.
//
// A reserve wants to place a telemetry station where it can detect the
// most animals. Each animal's movement is a trajectory sampled at regular
// intervals (random-waypoint movement between seasonal ranges); a station
// detects an animal at distance d with a linearly decaying probability up
// to its 3 km detection range, and an animal counts as "covered" if the
// cumulative detection probability across its sampled positions reaches
// 0.8. A seasonal migration then arrives: the example appends the new herd
// to the instance and solves again, as the server's update op rebuilds its
// snapshot.
//
// Run:  ./wildlife_monitoring

#include <cmath>
#include <iostream>
#include <memory>

#include "core/pinocchio_vo_solver.h"
#include "eval/report.h"
#include "util/string_utils.h"
#include "prob/alternative_pfs.h"
#include "util/random.h"

using namespace pinocchio;

namespace {

// Random-waypoint trajectory between a herd's seasonal ranges.
MovingObject MakeAnimal(uint32_t id, const std::vector<Point>& ranges,
                        size_t samples, Rng& rng) {
  MovingObject animal;
  animal.id = id;
  Point current =
      ranges[static_cast<size_t>(rng.UniformInt(0, ranges.size() - 1))];
  for (size_t i = 0; i < samples; ++i) {
    // Pick a waypoint near a random seasonal range and walk towards it in
    // one step with jitter (a coarse hourly sampling of the movement).
    const Point& range =
        ranges[static_cast<size_t>(rng.UniformInt(0, ranges.size() - 1))];
    const Point waypoint{range.x + rng.Gaussian(0, 800),
                         range.y + rng.Gaussian(0, 800)};
    const double step = rng.Uniform(0.2, 0.8);
    current = {current.x + (waypoint.x - current.x) * step,
               current.y + (waypoint.y - current.y) * step};
    animal.positions.push_back(current);
  }
  return animal;
}

}  // namespace

int main() {
  Rng rng(77);

  // Three herds with distinct seasonal ranges on a 30 x 20 km reserve.
  const std::vector<std::vector<Point>> herd_ranges = {
      {{4000, 5000}, {9000, 14000}},             // herd A: two ranges
      {{22000, 6000}, {26000, 15000}, {15000, 10000}},  // herd B: three
      {{12000, 3000}, {17000, 17000}},           // herd C
  };
  ProblemInstance instance;
  uint32_t id = 0;
  for (size_t h = 0; h < herd_ranges.size(); ++h) {
    for (int a = 0; a < 60; ++a) {
      instance.objects.push_back(
          MakeAnimal(id++, herd_ranges[h], /*samples=*/48, rng));
    }
  }
  std::cout << "Tracked animals: " << instance.objects.size()
            << ", 48 positions each\n";

  // Candidate station sites: a coarse service-road grid.
  for (double x = 2000; x <= 28000; x += 2000) {
    for (double y = 2000; y <= 18000; y += 2000) {
      instance.candidates.push_back({x, y});
    }
  }
  std::cout << "Candidate sites: " << instance.candidates.size()
            << " (service-road grid)\n";

  // Detection model: linear decay to zero at the 3 km telemetry range.
  SolverConfig config;
  config.pf = std::make_shared<LinearPF>(/*rho=*/0.9, /*range_meters=*/3000.0);
  config.tau = 0.8;
  config.top_k = 3;

  const auto print_top = [&](const std::string& title,
                             const SolverResult& result) {
    TablePrinter table(title, {"rank", "x (km)", "y (km)", "animals covered"});
    const auto top = result.TopK(3);
    for (size_t i = 0; i < top.size(); ++i) {
      const Point& p = instance.candidates[top[i]];
      table.AddRow({std::to_string(i + 1), FormatDouble(p.x / 1000, 1),
                    FormatDouble(p.y / 1000, 1),
                    std::to_string(result.influence[top[i]])});
    }
    table.Print(std::cout);
  };
  const SolverResult result = PinocchioVOSolver().Solve(instance, config);
  print_top("Best station sites", result);

  // --- Seasonal migration: herd D arrives; append it and solve again.
  const std::vector<Point> herd_d = {{6000, 16000}, {3000, 10000}};
  std::cout << "\nHerd D (40 animals) migrates into the north-west...\n";
  for (int a = 0; a < 40; ++a) {
    instance.objects.push_back(MakeAnimal(id++, herd_d, 48, rng));
  }
  const SolverResult migrated = PinocchioVOSolver().Solve(instance, config);
  print_top("Best station sites after the migration", migrated);

  if (migrated.best_candidate != result.best_candidate) {
    std::cout << "\nThe migration moved the optimal site.\n";
  } else {
    std::cout << "\nThe optimal site is unchanged by the migration.\n";
  }
  return 0;
}
