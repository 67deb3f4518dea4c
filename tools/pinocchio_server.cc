// pinocchio_server — the influence query daemon.
//
// Boots an InfluenceService over a dataset (generated synthetically or
// loaded from a CSV/.pino file), listens on a TCP port and answers wire-
// protocol requests (solve / top-k / probe / what-if / update / stats)
// concurrently against snapshot-swapped prepared instances. SIGINT or
// SIGTERM drains gracefully: in-flight requests are answered, pending
// update rebuilds are published, and final stats are flushed to stdout.

#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>

#include "data/binary_io.h"
#include "data/checkin_dataset.h"
#include "data/csv_io.h"
#include "prob/power_law.h"
#include "serve/server.h"
#include "serve/service.h"
#include "util/flags.h"
#include "util/shutdown.h"

namespace {

constexpr char kUsage[] = R"(Usage: pinocchio_server [flags]

  --port=N          TCP port to listen on (default 7741; 0 = ephemeral,
                    printed at boot).
  --bind=ADDR       Bind address (default 127.0.0.1).
  --workers=N       Worker threads (default max(4, hardware)).
  --in=FILE         Serve a CSV / .pino dataset instead of generating one.
  --profile=NAME    Synthetic profile: foursquare (default) or gowalla.
  --scale=F         Synthetic dataset scale in (0, 1] (default 0.1).
  --candidates=N    Candidate locations sampled from the dataset (600).
  --seed=N          Sampling/generation seed (default 7).
  --tau=F           Influence threshold (default 0.7).
  --rho=F --lambda=F --unit-km=F
                    Power-law PF parameters (defaults 0.9 / 1.0 / 0.1).
  --topk-limit=N    top_k the snapshots are prepared with (default 16).
  --solve_threads=N Thread budget of solve/topk/skyline/diverse/approx
                    requests (default 1 = inline; 0 = hardware
                    concurrency). NA solves stay sequential.
  --stream-window=F Streaming ingestion window in seconds; enables the
                    observe/advance request family (default 0 = off).
  --approx-default  Route plain topk requests through the approximate
                    tier (selection approximate, reported influences
                    exact).
  --approx-epsilon=F --approx-delta=F --approx-seed=N
                    Certified error / failure probability / sampling
                    seed for --approx-default (defaults 0.05 / 0.01 / 0).
  --help            Show this message.

Stop with SIGINT/SIGTERM; the server drains in-flight requests and
prints final statistics before exiting.
)";

void PrintStats(const pinocchio::serve::StatsResponse& s, std::ostream& out) {
  out << "epoch " << s.epoch << ", " << s.num_objects << " objects, "
      << s.num_candidates << " candidates, " << s.snapshot_swaps
      << " snapshot swaps, " << s.pending_updates << " pending updates\n"
      << "requests: solve " << s.solve_requests << ", topk "
      << s.topk_requests << ", probe " << s.probe_requests << ", whatif "
      << s.whatif_requests << ", update " << s.update_requests << ", stats "
      << s.stats_requests << ", approx " << s.approx_requests << ", errors "
      << s.error_responses << "\n"
      << "uptime " << s.uptime_seconds << " s, solve threads "
      << s.solve_threads << ", solve busy " << s.solve_busy_seconds << " s";
  if (s.stream_window_seconds > 0.0) {
    out << "\nstream: window " << s.stream_window_seconds << " s, "
        << s.stream_observations << " observations over "
        << s.observe_requests << " observe + " << s.advance_requests
        << " advance requests; live " << s.stream_live_objects
        << " objects / " << s.stream_live_positions << " positions";
  }
  if (s.uptime_seconds > 0.0 && s.solve_threads > 0) {
    out << " (utilisation "
        << 100.0 * s.solve_busy_seconds /
               (s.uptime_seconds * static_cast<double>(s.solve_threads))
        << "%)";
  }
  out << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pinocchio;

  const FlagParser flags(argc, argv);
  if (flags.GetBool("help", false)) {
    std::cout << kUsage;
    return 0;
  }
  const auto unknown = flags.UnknownFlags(
      {"port", "bind", "workers", "in", "profile", "scale", "candidates",
       "seed", "tau", "rho", "lambda", "unit-km", "topk-limit",
       "solve_threads", "stream-window", "approx-default", "approx-epsilon",
       "approx-delta", "approx-seed", "help"});
  if (!unknown.empty() || !flags.errors().empty()) {
    for (const std::string& name : unknown) {
      std::cerr << "error: unknown flag --" << name << "\n";
    }
    for (const std::string& error : flags.errors()) {
      std::cerr << "error: " << error << "\n";
    }
    std::cerr << kUsage;
    return 2;
  }

  // ------------------------------------------------------------- dataset
  CheckinDataset dataset;
  if (const auto path = flags.GetString("in"); path.has_value()) {
    if (path->size() > 5 &&
        path->compare(path->size() - 5, 5, ".pino") == 0) {
      std::string error;
      if (!LoadDatasetBinaryFile(*path, &dataset, &error)) {
        std::cerr << "failed to load " << *path << ": " << error << "\n";
        return 1;
      }
    } else {
      std::ifstream in(*path);
      if (!in.is_open()) {
        std::cerr << "cannot open " << *path << "\n";
        return 1;
      }
      size_t skipped = 0;
      dataset = LoadCheckinsCsv(in, /*strict=*/false, &skipped);
      if (dataset.objects.empty()) {
        std::cerr << "no usable check-ins in " << *path << "\n";
        return 1;
      }
    }
  } else {
    const std::string profile = flags.GetString("profile", "foursquare");
    DatasetSpec spec;
    if (profile == "foursquare") {
      spec = DatasetSpec::Foursquare();
    } else if (profile == "gowalla") {
      spec = DatasetSpec::Gowalla();
    } else {
      std::cerr << "unknown profile '" << profile << "'\n";
      return 2;
    }
    const double scale = flags.GetDouble("scale", 0.1);
    if (scale <= 0.0 || scale > 1.0) {
      std::cerr << "--scale must be in (0, 1]\n";
      return 2;
    }
    spec = spec.Scaled(scale);
    spec.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
    dataset = GenerateCheckinDataset(spec);
  }

  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  const auto num_candidates =
      static_cast<size_t>(flags.GetInt("candidates", 600));
  ProblemInstance instance;
  instance.objects = dataset.objects;
  if (!dataset.venues.empty()) {
    const size_t count = std::min(num_candidates, dataset.venues.size());
    instance.candidates = SampleCandidates(dataset, count, seed).points;
  } else {
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
  if (instance.objects.empty() || instance.candidates.empty()) {
    std::cerr << "dataset yields an empty instance\n";
    return 1;
  }

  SolverConfig config;
  config.tau = flags.GetDouble("tau", 0.7);
  if (config.tau <= 0.0 || config.tau >= 1.0) {
    std::cerr << "--tau must be in (0, 1)\n";
    return 2;
  }
  const double unit_meters = flags.GetDouble("unit-km", 0.1) * 1000.0;
  config.pf = std::make_shared<PowerLawPF>(flags.GetDouble("rho", 0.9),
                                           flags.GetDouble("lambda", 1.0),
                                           /*d0=*/1.0, unit_meters);

  serve::ServiceOptions service_options;
  service_options.prepared_top_k =
      static_cast<size_t>(flags.GetInt("topk-limit", 16));
  service_options.pf_unit_meters = unit_meters;
  service_options.solve_threads =
      static_cast<size_t>(flags.GetInt("solve_threads", 1));
  service_options.stream_window_seconds =
      flags.GetDouble("stream-window", 0.0);
  if (service_options.stream_window_seconds < 0.0) {
    std::cerr << "--stream-window must be >= 0\n";
    return 2;
  }
  service_options.approx_default = flags.GetBool("approx-default", false);
  service_options.approx_epsilon = flags.GetDouble("approx-epsilon", 0.05);
  service_options.approx_delta = flags.GetDouble("approx-delta", 0.01);
  service_options.approx_seed =
      static_cast<uint64_t>(flags.GetInt("approx-seed", 0));
  if (!(service_options.approx_epsilon > 0.0) ||
      !(service_options.approx_epsilon <= 1.0)) {
    std::cerr << "--approx-epsilon must be in (0, 1]\n";
    return 2;
  }
  if (!(service_options.approx_delta > 0.0) ||
      !(service_options.approx_delta < 1.0)) {
    std::cerr << "--approx-delta must be in (0, 1)\n";
    return 2;
  }

  std::cout << "preparing " << instance.objects.size() << " objects / "
            << instance.candidates.size() << " candidates (tau "
            << config.tau << ")...\n";
  serve::InfluenceService service(std::move(instance), config,
                                  service_options);

  serve::ServerOptions server_options;
  server_options.port = static_cast<uint16_t>(flags.GetInt("port", 7741));
  server_options.num_workers =
      static_cast<size_t>(flags.GetInt("workers", 0));
  const std::string bind = flags.GetString("bind", "127.0.0.1");
  server_options.bind_address = bind.c_str();

  serve::TcpServer server(&service, server_options);
  if (!server.Start()) return 1;
  std::cout << "listening on " << bind << ":" << server.port()
            << " — stop with SIGINT/SIGTERM\n";

  InstallShutdownHandlers();
  while (!ShutdownRequested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::cout << "\nshutdown requested; draining...\n";
  server.Stop();

  // Flush final statistics (the satellite guarantee: no dying mid-write).
  serve::Request stats_request;
  stats_request.type = serve::RequestType::kStats;
  const serve::Response stats = service.Execute(stats_request);
  PrintStats(stats.stats, std::cout);
  std::cout << "accepted " << server.connections_accepted()
            << " connections; bye\n";
  return 0;
}
