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
#include <utility>

#include "core/morsel_scheduler.h"
#include "data/binary_io.h"
#include "data/checkin_dataset.h"
#include "data/csv_io.h"
#include "prob/power_law.h"
#include "serve/render.h"
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
  --topk-limit=N    Exact prefix of pin-vo solves and what-ifs: the top_k
                    the snapshots are prepared with (default 16). Top-k
                    requests are exact at every k.
  --solve_threads=N Thread budget of solve requests and of each
                    snapshot's exact pass, which topk/skyline/diverse/
                    approx requests read: an update's rebuild builds it
                    before the swap, the boot snapshot's first such
                    request builds its own (default 1 = inline; 0 =
                    hardware concurrency; at most 256). NA solves stay
                    sequential.
  --stream-window=F Streaming ingestion window in seconds; enables the
                    observe/advance request family (default 0 = off).
  --help            Show this message.

Stop with SIGINT/SIGTERM; the server drains in-flight requests and
prints final statistics before exiting.
)";

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
       "solve_threads", "stream-window", "help"});
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

  // --------------------------------------------------------------- flags
  serve::ServiceOptions service_options;
  serve::ServerOptions server_options;
  size_t port = 0;
  size_t num_candidates = 0;
  size_t seed = 0;
  double rho = 0.0;
  double lambda = 0.0;
  double unit_km = 0.0;
  double scale = 0.0;
  SolverConfig config;
  if (!GetCountFlag(flags, "port", 7741, 0, &port, std::cerr, 65535) ||
      !GetCountFlag(flags, "workers", 0, 0, &server_options.num_workers,
                    std::cerr) ||
      !GetCountFlag(flags, "candidates", 600, 1, &num_candidates,
                    std::cerr) ||
      !GetCountFlag(flags, "topk-limit", 16, 1,
                    &service_options.prepared_top_k, std::cerr) ||
      !GetCountFlag(flags, "solve_threads", 1, 0,
                    &service_options.solve_threads, std::cerr,
                    kMaxThreadBudget) ||
      !GetCountFlag(flags, "seed", 7, 0, &seed, std::cerr) ||
      !GetNumberFlag(flags, "tau", 0.7, &config.tau, std::cerr) ||
      !GetNumberFlag(flags, "rho", 0.9, &rho, std::cerr) ||
      !GetNumberFlag(flags, "lambda", 1.0, &lambda, std::cerr) ||
      !GetNumberFlag(flags, "unit-km", 0.1, &unit_km, std::cerr) ||
      !GetNumberFlag(flags, "stream-window", 0.0,
                     &service_options.stream_window_seconds, std::cerr) ||
      !GetNumberFlag(flags, "scale", 0.1, &scale, std::cerr)) {
    return 2;
  }
  if (!(config.tau > 0.0 && config.tau < 1.0)) {
    std::cerr << "--tau must be in (0, 1)\n";
    return 2;
  }
  const double unit_meters = unit_km * 1000.0;
  if (const std::string error =
          PowerLawParameterError(rho, lambda, unit_meters);
      !error.empty()) {
    std::cerr << error << "\n";
    return 2;
  }
  config.pf =
      std::make_shared<PowerLawPF>(rho, lambda, /*d0=*/1.0, unit_meters);
  service_options.pf_unit_meters = unit_meters;
  if (!(service_options.stream_window_seconds >= 0.0)) {
    std::cerr << "--stream-window must be >= 0\n";
    return 2;
  }
  if (!(scale > 0.0 && scale <= 1.0)) {
    std::cerr << "--scale must be in (0, 1]\n";
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
    spec = spec.Scaled(scale);
    spec.seed = seed;
    dataset = GenerateCheckinDataset(spec);
  }

  ProblemInstance instance;
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
  // Moved, not copied, once the no-venue fallback has sampled from them:
  // the snapshot's instance and the store's arena keep every position.
  instance.objects = std::move(dataset.objects);
  if (instance.objects.empty() || instance.candidates.empty()) {
    std::cerr << "dataset yields an empty instance\n";
    return 1;
  }

  std::cout << "preparing " << instance.objects.size() << " objects / "
            << instance.candidates.size() << " candidates (tau "
            << config.tau << ")...\n";
  serve::InfluenceService service(std::move(instance), config,
                                  service_options);

  server_options.port = static_cast<uint16_t>(port);
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
  serve::RenderResponse(service.Execute(stats_request), /*json=*/false,
                        std::cout);
  std::cout << "accepted " << server.connections_accepted()
            << " connections; bye\n";
  return 0;
}
