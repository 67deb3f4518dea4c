#include "tools/cli.h"

#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>

#include "baselines/brnn_star.h"
#include "baselines/range_solver.h"
#include "core/multi_facility.h"
#include "core/naive_solver.h"
#include "core/influence_query.h"
#include "core/pinocchio_grid_solver.h"
#include "core/pinocchio_hull_solver.h"
#include "core/pinocchio_solver.h"
#include "core/pinocchio_vo_solver.h"
#include "core/prepared_instance.h"
#include "core/validation.h"
#include "data/binary_io.h"
#include "data/checkin_dataset.h"
#include "data/csv_io.h"
#include "eval/geojson.h"
#include "eval/histogram.h"
#include "eval/report.h"
#include "prob/power_law.h"
#include "traj/traj_io.h"
#include "util/flags.h"
#include "util/string_utils.h"

namespace pinocchio {
namespace cli {
namespace {

constexpr char kUsage[] = R"(pinocchio — probabilistic influence-based location selection

Usage:
  pinocchio generate --profile=foursquare|gowalla [--scale=F] [--seed=N]
            --out=FILE[.csv|.pino]
  pinocchio stats --in=FILE [--detailed]
  pinocchio explain --in=FILE --candidate=J [--candidates=600] [--tau=0.7]
            [--rho=0.9] [--lambda=1.0] [--unit-km=0.1] [--seed=N] [--top=10]
  pinocchio discretize --in=TRAJ.csv --out=CHECKINS.csv [--interval-s=1800]
            (trajectory rows: entity_id,time_seconds,lat,lon)
  pinocchio select --in=FILE --k=3 [--candidates=600] [--tau=0.7]
            [--rho=0.9] [--lambda=1.0] [--unit-km=0.1] [--seed=N]
            (k facilities maximising their union influence, greedy 1-1/e)
  pinocchio solve --in=FILE [--algorithm=pin-vo] [--candidates=600]
            [--tau=0.7] [--rho=0.9] [--lambda=1.0] [--unit-km=0.1]
            [--top=10] [--seed=N] [--threads=T] [--geojson=FILE]

Datasets are CSV check-ins (user_id,lat,lon[,venue_id]) or binary .pino
snapshots written by `generate`.

Algorithms: na, pin, pin-grid, pin-hull, pin-vo, pin-vo-star, brnn, range.
--threads (default 1, 0 = hardware concurrency) is the thread budget of
pin, pin-vo and pin-vo-star; results are identical at every budget.
)";

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

int FailUnknownFlags(const FlagParser& flags,
                     const std::vector<std::string>& known,
                     std::ostream& err) {
  const auto unknown = flags.UnknownFlags(known);
  if (unknown.empty()) return 0;
  err << "unknown flag(s): ";
  for (size_t i = 0; i < unknown.size(); ++i) {
    err << (i > 0 ? ", " : "") << "--" << unknown[i];
  }
  err << "\n";
  return 2;
}

bool LoadAnyDataset(const std::string& path, CheckinDataset* dataset,
                    std::ostream& err) {
  if (EndsWith(path, ".pino")) {
    std::string error;
    if (!LoadDatasetBinaryFile(path, dataset, &error)) {
      err << "failed to load " << path << ": " << error << "\n";
      return false;
    }
    return true;
  }
  std::ifstream in(path);
  if (!in.is_open()) {
    err << "cannot open " << path << "\n";
    return false;
  }
  size_t skipped = 0;
  *dataset = LoadCheckinsCsv(in, /*strict=*/false, &skipped);
  if (skipped > 0) err << "note: skipped " << skipped << " malformed rows\n";
  if (dataset->objects.empty()) {
    err << "no usable check-ins in " << path << "\n";
    return false;
  }
  return true;
}

int RunGenerate(const FlagParser& flags, std::ostream& out,
                std::ostream& err) {
  if (int rc = FailUnknownFlags(flags, {"profile", "scale", "seed", "out"},
                                err)) {
    return rc;
  }
  const std::string profile = flags.GetString("profile", "foursquare");
  DatasetSpec spec;
  if (profile == "foursquare") {
    spec = DatasetSpec::Foursquare();
  } else if (profile == "gowalla") {
    spec = DatasetSpec::Gowalla();
  } else {
    err << "unknown profile '" << profile << "'\n";
    return 2;
  }
  const double scale = flags.GetDouble("scale", 1.0);
  if (scale <= 0.0 || scale > 1.0) {
    err << "--scale must be in (0, 1]\n";
    return 2;
  }
  spec = spec.Scaled(scale);
  spec.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  const auto path = flags.GetString("out");
  if (!path.has_value()) {
    err << "--out is required\n";
    return 2;
  }

  out << "generating " << spec.name << " x" << scale << " (users "
      << spec.num_users << ", venues " << spec.num_venues << ")...\n";
  const CheckinDataset dataset = GenerateCheckinDataset(spec);
  if (EndsWith(*path, ".pino")) {
    SaveDatasetBinaryFile(dataset, *path);
  } else {
    std::ofstream file(*path);
    if (!file.is_open()) {
      err << "cannot create " << *path << "\n";
      return 1;
    }
    SaveCheckinsCsv(dataset, file);
  }
  out << "wrote " << dataset.TotalCheckins() << " check-ins to " << *path
      << "\n";
  return 0;
}

int RunStats(const FlagParser& flags, std::ostream& out, std::ostream& err) {
  if (int rc = FailUnknownFlags(flags, {"in", "detailed"}, err)) return rc;
  const auto path = flags.GetString("in");
  if (!path.has_value()) {
    err << "--in is required\n";
    return 2;
  }
  CheckinDataset dataset;
  if (!LoadAnyDataset(*path, &dataset, err)) return 1;
  const DatasetStats stats = ComputeStats(dataset);
  TablePrinter table("Dataset statistics: " + dataset.spec.name,
                     {"metric", "value"});
  table.AddRow({"users", std::to_string(stats.user_count)});
  table.AddRow({"venues", std::to_string(stats.venue_count)});
  table.AddRow({"check-ins", std::to_string(stats.checkin_count)});
  table.AddRow({"avg check-ins/user",
                FormatDouble(stats.avg_checkins_per_user, 1)});
  table.AddRow({"min check-ins/user",
                std::to_string(stats.min_checkins_per_user)});
  table.AddRow({"max check-ins/user",
                std::to_string(stats.max_checkins_per_user)});
  table.AddRow({"extent (km)", FormatDouble(stats.extent_x_km, 2) + " x " +
                                   FormatDouble(stats.extent_y_km, 2)});
  table.AddRow({"avg object MBR (km)",
                FormatDouble(stats.avg_object_mbr_x_km, 2) + " x " +
                    FormatDouble(stats.avg_object_mbr_y_km, 2)});
  table.Print(out);

  if (flags.GetBool("detailed", false)) {
    SummaryStats per_user;
    SummaryStats diag_km;
    for (const MovingObject& o : dataset.objects) {
      per_user.Add(static_cast<double>(o.positions.size()));
      diag_km.Add(2.0 * o.ActivityMbr().HalfDiagonal() / 1000.0);
    }
    out << "\ncheck-ins per user: median " << FormatDouble(per_user.Median(), 1)
        << ", p90 " << FormatDouble(per_user.Quantile(0.9), 1) << ", p99 "
        << FormatDouble(per_user.Quantile(0.99), 1) << "\n";
    Histogram count_hist(0.0, per_user.Quantile(0.99) + 1.0, 10);
    for (const MovingObject& o : dataset.objects) {
      count_hist.Add(static_cast<double>(o.positions.size()));
    }
    out << count_hist.Render();
    out << "\nactivity-region diagonal (km): median "
        << FormatDouble(diag_km.Median(), 2) << ", p90 "
        << FormatDouble(diag_km.Quantile(0.9), 2) << "\n";
    Histogram diag_hist(0.0, std::max(1e-3, diag_km.Max()), 10);
    for (const MovingObject& o : dataset.objects) {
      diag_hist.Add(2.0 * o.ActivityMbr().HalfDiagonal() / 1000.0);
    }
    out << diag_hist.Render();
  }
  return 0;
}

int RunSolve(const FlagParser& flags, std::ostream& out, std::ostream& err) {
  if (int rc = FailUnknownFlags(
          flags, {"in", "algorithm", "candidates", "tau", "rho", "lambda",
                  "unit-km", "top", "seed", "threads", "range-km",
                  "proportion", "geojson"},
          err)) {
    return rc;
  }
  const auto path = flags.GetString("in");
  if (!path.has_value()) {
    err << "--in is required\n";
    return 2;
  }
  CheckinDataset dataset;
  if (!LoadAnyDataset(*path, &dataset, err)) return 1;

  const auto num_candidates =
      static_cast<size_t>(flags.GetInt("candidates", 600));
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  const auto top = static_cast<size_t>(flags.GetInt("top", 10));
  const int64_t threads_flag = flags.GetInt("threads", 1);
  if (threads_flag < 0) {
    err << "--threads must be >= 0\n";
    return 2;
  }
  const auto threads = static_cast<size_t>(threads_flag);

  SolverConfig config;
  config.tau = flags.GetDouble("tau", 0.7);
  config.pf = std::make_shared<PowerLawPF>(
      flags.GetDouble("rho", 0.9), flags.GetDouble("lambda", 1.0),
      /*d0=*/1.0, /*unit_meters=*/flags.GetDouble("unit-km", 0.1) * 1000.0);
  config.top_k = top;
  if (config.tau <= 0.0 || config.tau >= 1.0) {
    err << "--tau must be in (0, 1)\n";
    return 2;
  }

  CandidateSample sample;
  ProblemInstance instance;
  instance.objects = dataset.objects;
  const bool have_ground_truth = !dataset.venues.empty();
  if (have_ground_truth) {
    const size_t count = std::min(num_candidates, dataset.venues.size());
    sample = SampleCandidates(dataset, count, seed);
    instance.candidates = sample.points;
  } else {
    // No venue table (raw CSV without venue ids): sample candidate
    // coordinates from the check-in positions themselves.
    Rng rng(seed);
    std::vector<Point> pool;
    for (const MovingObject& o : dataset.objects) {
      for (const Point& p : o.positions) pool.push_back(p);
    }
    const size_t count = std::min(num_candidates, pool.size());
    for (size_t idx : rng.SampleWithoutReplacement(pool.size(), count)) {
      instance.candidates.push_back(pool[idx]);
    }
  }

  const auto issues = ValidateInstance(instance);
  if (!issues.empty()) err << FormatIssues(issues);
  if (!IsValid(issues)) {
    err << "instance is invalid; aborting\n";
    return 1;
  }

  const std::string algorithm = flags.GetString("algorithm", "pin-vo");
  std::unique_ptr<Solver> solver;
  if (algorithm == "na") {
    solver = std::make_unique<NaiveSolver>();
  } else if (algorithm == "pin") {
    solver = std::make_unique<PinocchioSolver>(threads);
  } else if (algorithm == "pin-grid") {
    solver = std::make_unique<PinocchioGridSolver>();
  } else if (algorithm == "pin-hull") {
    solver = std::make_unique<PinocchioHullSolver>();
  } else if (algorithm == "pin-vo") {
    solver = std::make_unique<PinocchioVOSolver>(threads);
  } else if (algorithm == "pin-vo-star") {
    solver = std::make_unique<PinocchioVOStarSolver>(threads);
  } else if (algorithm == "brnn") {
    solver = std::make_unique<BrnnStarSolver>();
  } else if (algorithm == "range") {
    const double range_m = flags.GetDouble("range-km", 0.0) * 1000.0;
    solver = std::make_unique<RangeSolver>(
        flags.GetDouble("proportion", 0.5),
        range_m > 0.0 ? range_m : RangeSolver::DefaultRangeMeters(instance));
  } else {
    err << "unknown algorithm '" << algorithm << "'\n";
    return 2;
  }

  // Explicit prepare/solve split: the indexes are built once up front and
  // the solver runs against them, so the two costs print separately.
  const PreparedInstance prepared(instance, config);
  const PreparedBuildStats& build = prepared.build_stats();
  SolverResult result = solver->Solve(prepared);
  result.stats.prepare_seconds = build.build_seconds;
  result.stats.elapsed_seconds =
      result.stats.prepare_seconds + result.stats.solve_seconds;
  out << solver->Name() << " over " << instance.objects.size()
      << " objects and " << instance.candidates.size() << " candidates in "
      << FormatSeconds(result.stats.elapsed_seconds) << " ("
      << FormatTimingSplit(result.stats.prepare_seconds,
                           result.stats.solve_seconds)
      << ")\n";
  out << "prepared: A_2D " << prepared.num_objects() << " records ("
      << build.radius_memo_hits << " radius memo hits, "
      << build.radius_memo_entries << " distinct n), R-tree height "
      << build.rtree_height << " / " << build.rtree_nodes << " nodes\n";

  TablePrinter table(
      "Top-" + std::to_string(top) + " candidates",
      have_ground_truth
          ? std::vector<std::string>{"rank", "candidate", "influence",
                                     "actual check-ins"}
          : std::vector<std::string>{"rank", "candidate", "influence"});
  const auto ranking = result.TopK(top);
  for (size_t i = 0; i < ranking.size(); ++i) {
    std::vector<std::string> row = {std::to_string(i + 1),
                                    "#" + std::to_string(ranking[i]),
                                    std::to_string(result.influence[ranking[i]])};
    if (have_ground_truth) {
      row.push_back(std::to_string(sample.ground_truth[ranking[i]]));
    }
    table.AddRow(row);
  }
  table.Print(out);

  if (const auto geojson_path = flags.GetString("geojson");
      geojson_path.has_value()) {
    std::ofstream file(*geojson_path);
    if (!file.is_open()) {
      err << "cannot create " << *geojson_path << "\n";
      return 1;
    }
    GeoJsonOptions geo_options;
    geo_options.top_k = top;
    WriteResultGeoJson(instance, result, Projection(dataset.spec.origin),
                       file, geo_options);
    out << "wrote GeoJSON to " << *geojson_path << "\n";
  }

  if (result.stats.PairsPruned() > 0) {
    out << "pruning: " << result.stats.pairs_pruned_by_ia
        << " pairs certified by influence arcs, "
        << result.stats.pairs_pruned_by_nib
        << " excluded by the non-influence boundary, "
        << result.stats.pairs_validated << " validated\n";
  }
  return 0;
}

int RunSelect(const FlagParser& flags, std::ostream& out, std::ostream& err) {
  if (int rc = FailUnknownFlags(
          flags, {"in", "k", "candidates", "tau", "rho", "lambda", "unit-km",
                  "seed"},
          err)) {
    return rc;
  }
  const auto path = flags.GetString("in");
  if (!path.has_value()) {
    err << "--in is required\n";
    return 2;
  }
  CheckinDataset dataset;
  if (!LoadAnyDataset(*path, &dataset, err)) return 1;

  const auto k = static_cast<size_t>(flags.GetInt("k", 3));
  if (k == 0) {
    err << "--k must be positive\n";
    return 2;
  }
  const auto num_candidates =
      static_cast<size_t>(flags.GetInt("candidates", 600));
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 7));

  SolverConfig config;
  config.tau = flags.GetDouble("tau", 0.7);
  config.pf = std::make_shared<PowerLawPF>(
      flags.GetDouble("rho", 0.9), flags.GetDouble("lambda", 1.0),
      /*d0=*/1.0, /*unit_meters=*/flags.GetDouble("unit-km", 0.1) * 1000.0);
  if (config.tau <= 0.0 || config.tau >= 1.0) {
    err << "--tau must be in (0, 1)\n";
    return 2;
  }

  ProblemInstance instance;
  instance.objects = dataset.objects;
  const size_t count = std::min(num_candidates, dataset.venues.size());
  if (count > 0) {
    instance.candidates = SampleCandidates(dataset, count, seed).points;
  } else {
    err << "dataset has no venue table; select requires one\n";
    return 1;
  }

  const MultiFacilityResult result = SelectFacilities(instance, k, config);
  TablePrinter table("Greedy facility set (union influence)",
                     {"step", "facility", "union coverage", "marginal gain",
                      "coverage %"});
  int64_t previous = 0;
  for (size_t i = 0; i < result.selected.size(); ++i) {
    table.AddRow(
        {std::to_string(i + 1), "#" + std::to_string(result.selected[i]),
         std::to_string(result.coverage[i]),
         std::to_string(result.coverage[i] - previous),
         FormatDouble(100.0 * static_cast<double>(result.coverage[i]) /
                          std::max<double>(1.0, static_cast<double>(
                                                    instance.objects.size())),
                      1)});
    previous = result.coverage[i];
  }
  table.Print(out);
  out << "selected " << result.selected.size() << " facilities in "
      << FormatSeconds(result.elapsed_seconds) << " ("
      << result.gain_evaluations << " gain evaluations)\n";
  return 0;
}

int RunDiscretize(const FlagParser& flags, std::ostream& out,
                  std::ostream& err) {
  if (int rc = FailUnknownFlags(flags, {"in", "out", "interval-s"}, err)) {
    return rc;
  }
  const auto in_path = flags.GetString("in");
  const auto out_path = flags.GetString("out");
  if (!in_path.has_value() || !out_path.has_value()) {
    err << "--in and --out are required\n";
    return 2;
  }
  const double interval = flags.GetDouble("interval-s", 1800.0);
  if (interval <= 0.0) {
    err << "--interval-s must be positive\n";
    return 2;
  }
  std::ifstream in(*in_path);
  if (!in.is_open()) {
    err << "cannot open " << *in_path << "\n";
    return 1;
  }
  size_t skipped = 0;
  const TrajectoryDataset trajectories =
      LoadTrajectoriesCsv(in, /*strict=*/false, &skipped);
  if (skipped > 0) err << "note: skipped " << skipped << " malformed rows\n";
  if (trajectories.trajectories.empty()) {
    err << "no usable trajectories in " << *in_path << "\n";
    return 1;
  }

  // Resample per Section 3.1 and write as check-ins (user,lat,lon) that
  // `solve`/`stats` consume.
  CheckinDataset dataset;
  dataset.spec.name = "discretized";
  dataset.spec.origin = trajectories.origin;
  dataset.objects = DiscretizeTrajectories(trajectories, interval);
  dataset.spec.num_users = dataset.objects.size();
  std::ofstream out_file(*out_path);
  if (!out_file.is_open()) {
    err << "cannot create " << *out_path << "\n";
    return 1;
  }
  SaveCheckinsCsv(dataset, out_file);
  out << "discretized " << trajectories.trajectories.size()
      << " trajectories at " << interval << " s into "
      << dataset.TotalCheckins() << " positions -> " << *out_path << "\n";
  return 0;
}

int RunExplain(const FlagParser& flags, std::ostream& out,
               std::ostream& err) {
  if (int rc = FailUnknownFlags(
          flags, {"in", "candidate", "candidates", "tau", "rho", "lambda",
                  "unit-km", "seed", "top"},
          err)) {
    return rc;
  }
  const auto path = flags.GetString("in");
  if (!path.has_value()) {
    err << "--in is required\n";
    return 2;
  }
  CheckinDataset dataset;
  if (!LoadAnyDataset(*path, &dataset, err)) return 1;

  const auto num_candidates =
      static_cast<size_t>(flags.GetInt("candidates", 600));
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  const auto candidate_index =
      static_cast<size_t>(flags.GetInt("candidate", 0));
  const auto top = static_cast<size_t>(flags.GetInt("top", 10));

  SolverConfig config;
  config.tau = flags.GetDouble("tau", 0.7);
  config.pf = std::make_shared<PowerLawPF>(
      flags.GetDouble("rho", 0.9), flags.GetDouble("lambda", 1.0),
      /*d0=*/1.0, /*unit_meters=*/flags.GetDouble("unit-km", 0.1) * 1000.0);
  if (config.tau <= 0.0 || config.tau >= 1.0) {
    err << "--tau must be in (0, 1)\n";
    return 2;
  }

  const size_t count = std::min(num_candidates, dataset.venues.size());
  if (count == 0) {
    err << "dataset has no venue table; explain requires one\n";
    return 1;
  }
  const CandidateSample sample = SampleCandidates(dataset, count, seed);
  if (candidate_index >= sample.points.size()) {
    err << "--candidate out of range (sampled " << sample.points.size()
        << " candidates)\n";
    return 2;
  }

  const Point c = sample.points[candidate_index];
  const InfluenceExplanation explanation =
      ExplainInfluence(dataset.objects, c, config);
  out << "candidate #" << candidate_index << " influences "
      << explanation.influence << " of " << dataset.objects.size()
      << " objects (tau = " << config.tau << ")\n";
  out << "decided geometrically: " << explanation.decided_by_ia
      << " by influence arcs, " << explanation.decided_by_nib
      << " excluded by the non-influence boundary\n";

  TablePrinter table("Most strongly influenced objects",
                     {"object", "Pr_c(O)", "positions in minMaxRadius"});
  const size_t rows = std::min(top, explanation.influenced.size());
  for (size_t i = 0; i < rows; ++i) {
    const InfluencedObject& o = explanation.influenced[i];
    table.AddRow({std::to_string(o.object_id),
                  FormatDouble(o.probability, 4),
                  std::to_string(o.positions_in_radius)});
  }
  table.Print(out);
  return 0;
}

}  // namespace

int Run(const std::vector<std::string>& args, std::ostream& out,
        std::ostream& err) {
  if (args.empty() || args[0] == "--help" || args[0] == "help") {
    out << kUsage;
    return args.empty() ? 2 : 0;
  }
  const std::string command = args[0];
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  const FlagParser flags(rest);
  if (flags.Has("help")) {
    out << kUsage;
    return 0;
  }
  if (!flags.errors().empty()) {
    for (const std::string& e : flags.errors()) err << e << "\n";
    return 2;
  }
  if (command == "generate") return RunGenerate(flags, out, err);
  if (command == "stats") return RunStats(flags, out, err);
  if (command == "solve") return RunSolve(flags, out, err);
  if (command == "explain") return RunExplain(flags, out, err);
  if (command == "discretize") return RunDiscretize(flags, out, err);
  if (command == "select") return RunSelect(flags, out, err);
  err << "unknown command '" << command << "'\n" << kUsage;
  return 2;
}

}  // namespace cli
}  // namespace pinocchio
