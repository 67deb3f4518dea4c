// Streaming ingestion benchmark: steady-state observation throughput of
// the delta-maintained sliding window (IncrementalPrimeLS::AppendPosition
// / ExpireOldestPosition).
//
// The engine fills a window of W positions (W = 1M at
// PINOCCHIO_BENCH_SCALE=1.0), then ingests a timed steady-state slice in
// which every observation also expires the oldest one on average. The
// slice additionally records per-observation latencies, whose p99 is
// reported as the best-lag: the worst-case delay between an observation
// arriving and the maintained optimum reflecting it (reads of Best()
// are O(1) against the maintained order, so ingest latency IS the
// staleness).
//
// Emits google-benchmark-style JSON lines to $PINOCCHIO_BENCH_JSON —
// "BM_StreamIngest/delta" and "BM_StreamIngest/fill" — which
// scripts/bench_ab.py gates against the parent's runs on the same
// machine. Exits nonzero if the final window disagrees with a
// from-scratch PinocchioSolver over a PreparedInstance of the live
// positions on any influence counter, the best influence, or the live
// object/position counts.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <map>
#include <vector>

#include "bench_common.h"
#include "core/pinocchio_solver.h"
#include "core/prepared_instance.h"
#include "core/streaming.h"
#include "geo/point.h"
#include "util/quantile.h"
#include "util/random.h"
#include "util/stopwatch.h"

namespace pinocchio {
namespace bench {
namespace {

/// Window size in positions at PINOCCHIO_BENCH_SCALE=1.0.
constexpr size_t kWindowPositionsFullScale = 1'000'000;
/// Mean in-window positions per object.
constexpr size_t kPositionsPerObject = 128;
/// Simulated inter-observation gap; the window spans W observations.
constexpr double kObservationGapSeconds = 1e-3;

struct TimedObservation {
  uint32_t object_id;
  double time;
  Point position;
};

/// Objects random-walk inside the candidate bounding box; observation
/// times advance on a fixed grid.
std::vector<TimedObservation> MakeStream(const ProblemInstance& instance,
                                         size_t count, size_t num_objects,
                                         uint64_t seed) {
  Point lo = instance.candidates.front();
  Point hi = lo;
  for (const Point& c : instance.candidates) {
    lo.x = std::min(lo.x, c.x);
    lo.y = std::min(lo.y, c.y);
    hi.x = std::max(hi.x, c.x);
    hi.y = std::max(hi.y, c.y);
  }
  Rng rng(seed);
  std::vector<Point> cursor(num_objects);
  for (Point& p : cursor) {
    p = {rng.Uniform(lo.x, hi.x), rng.Uniform(lo.y, hi.y)};
  }
  const double step = std::max(hi.x - lo.x, hi.y - lo.y) / 200.0;
  std::vector<TimedObservation> stream;
  stream.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const auto id = static_cast<uint32_t>(
        rng.UniformInt(0, static_cast<int64_t>(num_objects) - 1));
    Point& p = cursor[id];
    p.x = std::clamp(p.x + rng.Uniform(-step, step), lo.x, hi.x);
    p.y = std::clamp(p.y + rng.Uniform(-step, step), lo.y, hi.y);
    stream.push_back(
        {id, static_cast<double>(i + 1) * kObservationGapSeconds, p});
  }
  return stream;
}

struct IngestResult {
  double fill_seconds = 0.0;
  double steady_seconds = 0.0;
  double best_lag_p99_seconds = 0.0;
  uint64_t best_changes = 0;
};

/// Feeds the whole stream: the first `fill` observations populate the
/// window, the remainder is the timed steady-state slice. `track_lag`
/// additionally times every steady observation individually.
IngestResult RunIngest(StreamingPrimeLS& engine,
                       const std::vector<TimedObservation>& stream,
                       size_t fill, bool track_lag) {
  IngestResult result;
  engine.SetBestChangedCallback(
      [&result](const std::optional<std::pair<size_t, int64_t>>&, double) {
        ++result.best_changes;
      });
  Stopwatch fill_watch;
  for (size_t i = 0; i < fill; ++i) {
    engine.Observe(stream[i].object_id, stream[i].time, stream[i].position);
  }
  result.fill_seconds = fill_watch.ElapsedSeconds();

  result.best_changes = 0;
  std::vector<double> lags;
  if (track_lag) lags.reserve(stream.size() - fill);
  Stopwatch steady_watch;
  for (size_t i = fill; i < stream.size(); ++i) {
    if (track_lag) {
      Stopwatch op_watch;
      engine.Observe(stream[i].object_id, stream[i].time, stream[i].position);
      lags.push_back(op_watch.ElapsedSeconds());
    } else {
      engine.Observe(stream[i].object_id, stream[i].time, stream[i].position);
    }
  }
  result.steady_seconds = steady_watch.ElapsedSeconds();
  if (track_lag) {
    SortForQuantiles(lags);
    result.best_lag_p99_seconds = QuantileOfSorted(lags, 0.99);
  }
  engine.SetBestChangedCallback(nullptr);
  return result;
}

/// The engine's window must equal a batch solve of its live positions —
/// the observations with time >= now - window_seconds (the closed window of
/// streaming.h) — re-prepared from scratch. Any divergence is a bug in the
/// delta maintenance.
bool MatchesBatchSolve(const StreamingPrimeLS& engine,
                       const std::vector<TimedObservation>& stream,
                       const ProblemInstance& instance,
                       const StreamingPrimeLS::Options& options) {
  const double horizon = engine.now() - options.window_seconds;
  std::map<uint32_t, std::vector<Point>> live;
  size_t live_positions = 0;
  for (const TimedObservation& o : stream) {
    if (o.time < horizon) continue;
    live[o.object_id].push_back(o.position);
    ++live_positions;
  }
  ProblemInstance window;
  window.candidates = instance.candidates;
  for (auto& [id, positions] : live) {
    window.objects.push_back({id, std::move(positions)});
  }
  const SolverResult batch =
      PinocchioSolver().Solve(PreparedInstance(window, options.config));
  if (engine.NumLivePositions() != live_positions ||
      engine.NumLiveObjects() != window.objects.size() ||
      engine.Best().value_or(std::pair<size_t, int64_t>{0, 0}).second !=
          batch.best_influence) {
    return false;
  }
  for (size_t j = 0; j < window.candidates.size(); ++j) {
    if (engine.InfluenceOf(j) != batch.influence[j]) return false;
  }
  return true;
}

int Main() {
  const BenchContext ctx = BenchContext::FromEnv();
  ctx.Announce("streaming_ingest");

  const size_t window_positions = std::max<size_t>(
      20'000, static_cast<size_t>(
                  static_cast<double>(kWindowPositionsFullScale) * ctx.scale));
  const size_t steady = std::min<size_t>(20'000, window_positions / 4);
  const size_t num_objects =
      std::max<size_t>(64, window_positions / kPositionsPerObject);

  const CheckinDataset dataset = MakeGowalla(ctx);
  const size_t m = ScaledCandidates(ctx, kDefaultCandidates);
  const ProblemInstance instance = MakeInstance(dataset, m, ctx.seed);
  const std::vector<TimedObservation> stream = MakeStream(
      instance, window_positions + steady, num_objects, ctx.seed + 1);

  StreamingPrimeLS::Options options;
  options.config = DefaultConfig();
  options.window_seconds =
      static_cast<double>(window_positions) * kObservationGapSeconds;

  StreamingPrimeLS delta(instance.candidates, options);
  const IngestResult delta_run =
      RunIngest(delta, stream, window_positions, /*track_lag=*/true);

  const double delta_pps =
      static_cast<double>(steady) / delta_run.steady_seconds;
  const double fill_pps =
      static_cast<double>(window_positions) / delta_run.fill_seconds;
  const bool agree = MatchesBatchSolve(delta, stream, instance, options);

  TablePrinter table(
      "Streaming ingest (Gowalla candidates, " +
          std::to_string(window_positions) + "-position window, " +
          std::to_string(steady) + " steady observations)",
      {"mode", "seconds", "positions/s", "best-lag p99", "agree"});
  table.AddRow({"delta (steady)", FormatSeconds(delta_run.steady_seconds),
                std::to_string(static_cast<uint64_t>(delta_pps)),
                FormatSeconds(delta_run.best_lag_p99_seconds),
                agree ? "yes" : "NO"});
  table.AddRow({"delta (fill)", FormatSeconds(delta_run.fill_seconds),
                std::to_string(static_cast<uint64_t>(fill_pps)), "-", "-"});
  table.Print(std::cout);
  std::cout << "  " << delta_run.best_changes
            << " best changes in the steady slice\n";

  const char* json_path = std::getenv("PINOCCHIO_BENCH_JSON");
  if (json_path != nullptr && *json_path != '\0') {
    std::ofstream json(json_path, std::ios::app);
    if (!json) {
      std::cerr << "[bench] cannot open PINOCCHIO_BENCH_JSON=" << json_path
                << "\n";
    } else {
      json << "{\"name\": \"BM_StreamIngest/delta\", \"seconds\": "
           << delta_run.steady_seconds
           << ", \"positions_per_sec\": " << delta_pps
           << ", \"best_lag_p99_seconds\": " << delta_run.best_lag_p99_seconds
           << ", \"best_changes\": " << delta_run.best_changes
           << ", \"window_positions\": " << window_positions << "}\n";
      json << "{\"name\": \"BM_StreamIngest/fill\", \"seconds\": "
           << delta_run.fill_seconds
           << ", \"positions_per_sec\": " << fill_pps << "}\n";
    }
  }

  if (!agree) {
    std::cerr << "[bench] FATAL: the streamed window disagrees with a "
                 "batch solve of its live positions\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace pinocchio

int main() { return pinocchio::bench::Main(); }
