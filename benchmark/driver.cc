// Load driver of the served-query benchmark (see benchmark/README.md).
//
// One invocation measures one workload against freshly booted
// pinocchio_server processes:
//   1. writes the workload's .pino instance and boots the server, timing
//      spawn -> first answered stats round trip (setup_s; more boots
//      follow the load);
//   2. checks epoch-1 answers against the same computation done here, in
//      process, on the same instance and candidate sample (the gate);
//   3. runs the timed load: open-loop schedules, each request timed from
//      when it was due, or a closed loop, over at most four connections;
//   4. with --trace=1, replays the same seeded requests in process against
//      an InfluenceService and times the layers' public calls as spans,
//      which yield the per-layer metrics and are written to --trace_out.
//
// It writes one JSON document to --out. When an answer is wrong it prints
// the reason, writes nothing and exits 1.

#include <fcntl.h>
#include <netinet/in.h>
#include <sched.h>
#include <signal.h>
#include <spawn.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "core/approx_solver.h"
#include "core/influence_query.h"
#include "core/pinocchio_solver.h"
#include "core/pinocchio_vo_solver.h"
#include "core/prepared_instance.h"
#include "core/query_engine.h"
#include "core/streaming.h"
#include "data/binary_io.h"
#include "data/checkin_dataset.h"
#include "parallel/parallel_solvers.h"
#include "prob/influence_kernel.h"
#include "prob/power_law.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/service.h"
#include "serve/socket_io.h"
#include "util/flags.h"
#include "util/quantile.h"
#include "util/random.h"

extern char** environ;

namespace {

using namespace pinocchio;
using namespace pinocchio::serve;
using Clock = std::chrono::steady_clock;

// ------------------------------------------------------------- constants

/// Server settings shared by every workload (the server's own defaults
/// unless noted).
constexpr int kServerWorkers = 4;
constexpr size_t kPreparedTopK = 16;
constexpr size_t kMaxCandidates = 600;
constexpr double kTau = 0.7;
constexpr double kRho = 0.9;
constexpr double kLambda = 1.0;
constexpr double kUnitMeters = 100.0;

/// Ranking size of topk / solve / what-if / diverse / approx requests.
constexpr uint32_t kRequestK = 5;
constexpr double kStreamWindowSeconds = 300.0;
constexpr uint32_t kObserveBatch = 16;
/// Observations per frame while prefilling the stream window (untimed).
constexpr size_t kPrefillBatch = 1024;
/// Boots timed before and after the load, besides the one that serves it.
/// A child starts on its parent's CPU, and on a shared 4-vCPU VM vCPUs
/// booted up to 1.6x apart, changing over minutes, so these boots start on
/// each allowed CPU in turn. setup_s is the fastest boot: interference only
/// adds time, and across two sets of ten runs of the same code the median
/// boot moved by up to 22% where the fastest moved by at most 3%.
constexpr int kBootsBefore = 4;
constexpr int kBootsAfter = 4;
/// A lane stops sending this long after the schedule's end; whatever it
/// has not sent by then counts as failed.
constexpr double kLoadGraceSeconds = 60.0;
constexpr size_t kClosedLoopPlan = 20000;
/// Wall-time budget of the traced replay (it runs twice: spans on, off).
constexpr double kReplayBudgetSeconds = 3.0;
constexpr int kCoreRepeats = 3;

// ------------------------------------------------------------- workloads

enum class Op : uint8_t {
  kTopK,
  kSolve,
  kProbe,
  kWhatIf,
  kSkyline,
  kDiverse,
  kApprox,
  kUpdate,
  kStats,
  kObserve,
  kAdvance,
  kCount,
};
constexpr size_t kNumOps = static_cast<size_t>(Op::kCount);
const char* const kOpNames[kNumOps] = {
    "topk",    "solve",  "probe", "whatif",  "skyline", "diverse",
    "approx",  "update", "stats", "observe", "advance"};
const char* const kRequestSpans[kNumOps] = {
    "request.topk",    "request.solve",  "request.probe", "request.whatif",
    "request.skyline", "request.diverse", "request.approx", "request.update",
    "request.stats",   "request.observe", "request.advance"};
const char* const kExecuteSpans[kNumOps] = {
    "service.execute.topk",    "service.execute.solve",
    "service.execute.probe",   "service.execute.whatif",
    "service.execute.skyline", "service.execute.diverse",
    "service.execute.approx",  "service.execute.update",
    "service.execute.stats",   "service.execute.observe",
    "service.execute.advance"};

size_t Idx(Op op) { return static_cast<size_t>(op); }

/// One request stream with its own connections. Ops come in stratified
/// blocks — every block holds exactly `block` (op, count) pairs in a
/// shuffled order — so every run serves the same op mix.
struct Lane {
  int connections = 1;
  /// Offered rate of an open loop; 0 makes the lane a closed loop.
  double rate_rps = 0.0;
  std::vector<std::pair<Op, int>> block;
};

struct Workload {
  const char* name;
  double scale;
  /// Seeds the dataset, the candidate sample and the schedule (arrival
  /// times and op order), which belong to the workload; --seed draws every
  /// request's parameters and the stream's replay order. Seed-drawn
  /// instances moved PIN-VO time 2x and seed-drawn schedules moved mix
  /// mean latency by +-13% (what-if clusters holding all connections), so
  /// with both fixed the seed-to-seed spread measures the server instead.
  uint64_t dataset_seed;
  size_t solve_threads;
  bool stream;
  /// Latency limit on p99 of `limit_op` (all requests when kCount); 0 for
  /// the closed loop, which has no offered rate to hold.
  double limit_ms;
  Op limit_op;
  std::vector<Lane> lanes;
};

// Rates are absolute and frozen here; see README.md for their calibration.
const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"mix", 0.1, 7, 1, false, 1000.0, Op::kCount,
       {{4, 15.0,
         {{Op::kTopK, 25}, {Op::kProbe, 25}, {Op::kWhatIf, 10},
          {Op::kUpdate, 5}, {Op::kSolve, 10}, {Op::kStats, 5},
          {Op::kSkyline, 12}, {Op::kDiverse, 8}}}}},
      {"point", 0.1, 7, 1, false, 5.0, Op::kCount,
       {{4, 500.0, {{Op::kProbe, 9}, {Op::kStats, 1}}}}},
      {"analyst", 0.25, 7, 4, false, 0.0, Op::kCount,
       {{1, 0.0,
         {{Op::kTopK, 6}, {Op::kSolve, 3}, {Op::kSkyline, 4},
          {Op::kApprox, 3}, {Op::kDiverse, 2}, {Op::kWhatIf, 2}}}}},
      // Observe and advance share one ordered connection, so stream times
      // reach the server in order and no frame is rejected.
      // Top-k stays at 1/s, half a percent of the requests, so p99 lies
      // inside the observe/probe population rather than on the top-k edge.
      {"ingest", 0.1, 7, 1, true, 20.0, Op::kObserve,
       {{1, 155.0, {{Op::kObserve, 30}, {Op::kAdvance, 1}}},
        {3, 43.0, {{Op::kProbe, 40}, {Op::kTopK, 1}, {Op::kUpdate, 2}}}}},
  };
  return workloads;
}

// ------------------------------------------------------------- utilities

double NowSeconds() {
  static const Clock::time_point origin = Clock::now();
  return std::chrono::duration<double>(Clock::now() - origin).count();
}

double Quantile(std::vector<double> values, double q) {
  SortForQuantiles(values);
  return QuantileOfSorted(values, q);
}

double Median(std::vector<double> values) {
  return Quantile(std::move(values), 0.5);
}

double Mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

std::string JsonNumber(double value) {
  if (!std::isfinite(value)) return "null";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%.12g", value);
  return buffer;
}

std::string JsonString(const std::string& value) {
  std::string out = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

/// Insertion-ordered JSON object built from already-serialised values.
class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, std::string json) {
    fields_.emplace_back(key, std::move(json));
    return *this;
  }
  JsonObject& Num(const std::string& key, double value) {
    return Raw(key, JsonNumber(value));
  }
  JsonObject& Str(const std::string& key, const std::string& value) {
    return Raw(key, JsonString(value));
  }
  std::string Dump() const {
    std::string out = "{";
    for (size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += JsonString(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string MetricsJson(const std::vector<Metric>& metrics) {
  JsonObject object;
  for (const Metric& m : metrics) {
    object.Raw(m.name,
               JsonObject().Num("value", m.value).Str("unit", m.unit).Dump());
  }
  return object.Dump();
}

// -------------------------------------------------------------- instance

struct Instance {
  ProblemInstance problem;
  /// The config the server prepares its snapshots with.
  SolverConfig config;
  ServiceOptions options;
  /// Bounding box of the venues; probe, skyline and update points are
  /// drawn from it.
  Point lo{0.0, 0.0};
  Point hi{0.0, 0.0};
};

Point RandomVenuePoint(const Instance& inst, Rng& rng) {
  return Point{rng.Uniform(inst.lo.x, inst.hi.x),
               rng.Uniform(inst.lo.y, inst.hi.y)};
}

SolverConfig MakeConfig(double tau, double rho, double lambda) {
  SolverConfig config;
  config.tau = tau;
  config.pf =
      std::make_shared<PowerLawPF>(rho, lambda, /*d0=*/1.0, kUnitMeters);
  config.top_k = kPreparedTopK;
  return config;
}

/// Generates the workload's dataset, writes it to `pino` and reads it back,
/// so the driver computes on exactly the bytes the server loads. The
/// candidate sample mirrors pinocchio_server's (--candidates, --seed).
bool BuildInstance(const Workload& w, const std::string& pino, Instance* out,
                   std::string* error) {
  DatasetSpec spec = DatasetSpec::Foursquare().Scaled(w.scale);
  spec.seed = w.dataset_seed;
  SaveDatasetBinaryFile(GenerateCheckinDataset(spec), pino);
  CheckinDataset d;
  if (!LoadDatasetBinaryFile(pino, &d, error)) return false;
  if (d.venues.empty() || d.objects.empty()) {
    *error = "generated dataset is empty";
    return false;
  }
  out->problem.objects = d.objects;
  out->problem.candidates =
      SampleCandidates(d, std::min(kMaxCandidates, d.venues.size()),
                       w.dataset_seed)
          .points;
  out->config = MakeConfig(kTau, kRho, kLambda);
  out->options.prepared_top_k = kPreparedTopK;
  out->options.pf_unit_meters = kUnitMeters;
  out->options.solve_threads = w.solve_threads;
  out->options.stream_window_seconds = w.stream ? kStreamWindowSeconds : 0.0;
  out->lo = out->hi = d.venues.front();
  for (const Point& v : d.venues) {
    out->lo = Point{std::min(out->lo.x, v.x), std::min(out->lo.y, v.y)};
    out->hi = Point{std::max(out->hi.x, v.x), std::max(out->hi.y, v.y)};
  }
  return true;
}

// ------------------------------------------------------------------ stream

/// Replays the instance's own check-ins as a timestamped stream. Each pass
/// visits every (object, position) pair once in a seeded order;
/// consecutive observations are dt stream-seconds apart, with dt chosen so
/// one pass spans the window — after the prefill every new observation
/// expires about one old one.
class StreamReplay {
 public:
  StreamReplay(const std::vector<MovingObject>& objects, uint64_t seed)
      : objects_(objects), rng_(seed) {
    for (uint32_t o = 0; o < objects_.size(); ++o) {
      for (uint32_t p = 0; p < objects_[o].positions.size(); ++p) {
        pairs_.emplace_back(o, p);
      }
    }
    dt_ = kStreamWindowSeconds / static_cast<double>(pairs_.size());
    cursor_ = pairs_.size();
  }

  size_t pass_size() const { return pairs_.size(); }

  Observation Next() {
    if (cursor_ == pairs_.size()) {
      rng_.Shuffle(pairs_);
      cursor_ = 0;
    }
    const auto [o, p] = pairs_[cursor_++];
    Observation obs;
    obs.object_id = objects_[o].id;
    obs.time = static_cast<double>(count_++) * dt_;
    obs.position = objects_[o].positions[p];
    return obs;
  }

  /// A clock time strictly between the last observation and the next.
  double AdvanceTime() const {
    return (static_cast<double>(count_) - 0.5) * dt_;
  }

 private:
  const std::vector<MovingObject>& objects_;
  Rng rng_;
  std::vector<std::pair<uint32_t, uint32_t>> pairs_;
  size_t cursor_ = 0;
  uint64_t count_ = 0;
  double dt_ = 1.0;
};

/// The prefill: one pass of the replay, in large untimed frames.
std::vector<Request> PrefillRequests(StreamReplay* replay) {
  std::vector<Request> frames;
  for (size_t sent = 0; sent < replay->pass_size();) {
    Request request;
    request.type = RequestType::kObserve;
    const size_t n = std::min(kPrefillBatch, replay->pass_size() - sent);
    for (size_t i = 0; i < n; ++i) {
      request.observe.observations.push_back(replay->Next());
    }
    sent += n;
    frames.push_back(std::move(request));
  }
  return frames;
}

void ApplyToStream(const Request& request, StreamingPrimeLS* stream) {
  if (request.type == RequestType::kObserve) {
    for (const Observation& o : request.observe.observations) {
      stream->Observe(o.object_id, o.time, o.position);
    }
  } else if (request.type == RequestType::kAdvance) {
    stream->AdvanceTo(request.advance.time);
  }
}

std::unique_ptr<StreamingPrimeLS> MakeStream(const Instance& inst) {
  StreamingPrimeLS::Options options;
  options.config = inst.config;
  options.window_seconds = kStreamWindowSeconds;
  return std::make_unique<StreamingPrimeLS>(inst.problem.candidates,
                                            std::move(options));
}

// ---------------------------------------------------------------- requests

/// Draws seeded request parameters for each op.
class RequestFactory {
 public:
  RequestFactory(const Instance& inst, StreamReplay* stream)
      : inst_(inst), stream_(stream) {}

  Request Make(Op op, Rng& rng) {
    Request r;
    switch (op) {
      case Op::kTopK:
        r.type = RequestType::kTopK;
        r.top_k.k = kRequestK;
        break;
      case Op::kSolve:
        r.type = RequestType::kSolve;
        r.solve.algorithm = WireAlgorithm::kPinVO;
        r.solve.top_k = kRequestK;
        break;
      case Op::kProbe:
        r.type = RequestType::kProbe;
        r.probe.location = RandomVenuePoint(inst_, rng);
        break;
      case Op::kWhatIf:
        r.type = RequestType::kWhatIf;
        r.what_if.tau = rng.Uniform(0.5, 0.9);
        r.what_if.rho = rng.Uniform(0.7, 0.95);
        r.what_if.lambda = rng.Uniform(0.8, 1.2);
        r.what_if.top_k = kRequestK;
        break;
      case Op::kSkyline:
        r.type = RequestType::kSkyline;
        r.skyline.cost_origin = RandomVenuePoint(inst_, rng);
        break;
      case Op::kDiverse:
        r.type = RequestType::kDiversified;
        r.diversified.k = kRequestK;
        r.diversified.min_separation = rng.Uniform(0.0, Span() / 8.0);
        break;
      case Op::kApprox:
        r.type = RequestType::kApproxTopK;
        r.approx.k = kRequestK;
        r.approx.epsilon = rng.Uniform(0.05, 0.3);
        r.approx.delta = 0.05;
        r.approx.seed = static_cast<uint64_t>(rng.UniformInt(0, 1 << 20));
        break;
      case Op::kUpdate: {
        // A new user who moves like an existing one: up to six of a random
        // user's check-ins, jittered by up to 50 m.
        r.type = RequestType::kUpdate;
        const std::vector<MovingObject>& objects = inst_.problem.objects;
        const MovingObject& like = objects[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(objects.size()) - 1))];
        UpdateObject object;
        object.object_id = next_object_id_++;
        const size_t count = std::min<size_t>(6, like.positions.size());
        for (size_t i :
             rng.SampleWithoutReplacement(like.positions.size(), count)) {
          const Point& p = like.positions[i];
          object.positions.push_back(Point{p.x + rng.Uniform(-50.0, 50.0),
                                           p.y + rng.Uniform(-50.0, 50.0)});
        }
        r.update.objects.push_back(std::move(object));
        break;
      }
      case Op::kObserve:
        r.type = RequestType::kObserve;
        for (uint32_t i = 0; i < kObserveBatch; ++i) {
          r.observe.observations.push_back(stream_->Next());
        }
        break;
      case Op::kAdvance:
        r.type = RequestType::kAdvance;
        r.advance.time = stream_->AdvanceTime();
        break;
      case Op::kStats:
      case Op::kCount:
        r.type = RequestType::kStats;
        break;
    }
    return r;
  }

 private:
  double Span() const {
    return std::max(inst_.hi.x - inst_.lo.x, inst_.hi.y - inst_.lo.y);
  }

  const Instance& inst_;
  StreamReplay* stream_;
  // Appended object ids sit far above the dataset's.
  uint32_t next_object_id_ = 1u << 24;
};

ResponseType ExpectedResponse(Op op) {
  switch (op) {
    case Op::kTopK:
    case Op::kSolve:
    case Op::kWhatIf:
      return ResponseType::kSolve;
    case Op::kProbe:
      return ResponseType::kProbe;
    case Op::kSkyline:
      return ResponseType::kSkyline;
    case Op::kDiverse:
      return ResponseType::kDiversified;
    case Op::kApprox:
      return ResponseType::kApprox;
    case Op::kUpdate:
      return ResponseType::kUpdate;
    case Op::kObserve:
    case Op::kAdvance:
      return ResponseType::kStream;
    case Op::kStats:
    case Op::kCount:
      break;
  }
  return ResponseType::kStats;
}

struct Planned {
  double due = 0.0;  // seconds after the load starts; unused when closed
  Op op = Op::kStats;
  Request request;
};

std::vector<Op> StratifiedOps(const Lane& lane, size_t count, Rng& rng) {
  std::vector<Op> ops;
  while (ops.size() < count) {
    std::vector<Op> block;
    for (const auto& [op, n] : lane.block) block.insert(block.end(), n, op);
    rng.Shuffle(block);
    ops.insert(ops.end(), block.begin(), block.end());
  }
  ops.resize(count);
  return ops;
}

/// An open lane gets rate x seconds arrivals placed uniformly at random
/// over the run — a Poisson process conditioned on its count, so the
/// offered load is the same in every run. Requests are built in due order,
/// which keeps stream times increasing along the lane.
std::vector<Planned> PlanLane(const Lane& lane, double seconds,
                              Rng& schedule_rng, Rng& param_rng,
                              RequestFactory& factory) {
  const bool open = lane.rate_rps > 0.0;
  const size_t count =
      open ? static_cast<size_t>(std::llround(lane.rate_rps * seconds))
           : kClosedLoopPlan;
  std::vector<double> due(count, 0.0);
  if (open) {
    for (double& d : due) d = schedule_rng.Uniform(0.0, seconds);
    std::sort(due.begin(), due.end());
  }
  const std::vector<Op> ops = StratifiedOps(lane, count, schedule_rng);
  std::vector<Planned> plan(count);
  for (size_t i = 0; i < count; ++i) {
    plan[i].due = due[i];
    plan[i].op = ops[i];
    plan[i].request = factory.Make(ops[i], param_rng);
  }
  return plan;
}

// ------------------------------------------------------------------ server

sockaddr_in Loopback(uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  return addr;
}

uint16_t PickFreePort() {
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) return 0;
  sockaddr_in addr = Loopback(0);
  socklen_t len = sizeof(addr);
  uint16_t port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port = ntohs(addr.sin_port);
  }
  ::close(fd);
  return port;
}

/// One pinocchio_server child process. Stop() (also run by the destructor)
/// sends SIGTERM, waits for the graceful drain and falls back to SIGKILL.
class ServerProcess {
 public:
  ServerProcess(const std::vector<std::string>& argv, const std::string& log) {
    std::vector<char*> args;
    for (const std::string& a : argv) {
      args.push_back(const_cast<char*>(a.c_str()));
    }
    args.push_back(nullptr);
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, log.c_str(),
                                     O_WRONLY | O_CREAT | O_APPEND, 0644);
    posix_spawn_file_actions_adddup2(&actions, STDOUT_FILENO, STDERR_FILENO);
    if (posix_spawn(&pid_, args[0], &actions, nullptr, args.data(),
                    environ) != 0) {
      pid_ = -1;
    }
    posix_spawn_file_actions_destroy(&actions);
  }
  ~ServerProcess() { Stop(); }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  bool running() {
    if (pid_ <= 0) return false;
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      return false;
    }
    return true;
  }

  /// The server's peak resident set (VmHWM) in MiB; 0 when unreadable.
  double PeakRssMb() const {
    std::ifstream status("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(status, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::stod(line.substr(6)) / 1024.0;
      }
    }
    return 0.0;
  }

  void Stop() {
    if (!running()) return;
    ::kill(pid_, SIGTERM);
    const double deadline = NowSeconds() + 10.0;
    while (NowSeconds() < deadline) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, nullptr, 0);
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
};

/// Readiness is one answered stats round trip: connect attempts repeat
/// every 200 us while refused, far finer than the boot being timed.
bool WaitReady(ServerProcess& server, uint16_t port, double timeout_s) {
  const double deadline = NowSeconds() + timeout_s;
  while (NowSeconds() < deadline && server.running()) {
    const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    const sockaddr_in addr = Loopback(port);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) != 0) {
      ::close(fd);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
      continue;
    }
    Request stats;
    stats.type = RequestType::kStats;
    FrameAssembler assembler;
    std::vector<uint8_t> body;
    const bool ok = SendAll(fd, EncodeRequest(stats)) &&
                    ReceiveFrame(fd, &assembler, &body) == RecvStatus::kFrame;
    ::close(fd);
    if (!ok) return false;
    const std::optional<Response> response = DecodeResponse(body);
    return response.has_value() && response->type == ResponseType::kStats;
  }
  return false;
}

// -------------------------------------------------------------- the gate

/// Keeps the first failed expectation.
class GateError {
 public:
  const std::string& message() const { return message_; }
  void Expect(bool condition, const std::string& what) {
    if (!condition && message_.empty()) message_ = what;
  }

 private:
  std::string message_;
};

std::optional<Response> CallExpecting(BlockingClient& client, const Request& r,
                                      ResponseType type, GateError* gate,
                                      const char* what) {
  std::string error;
  std::optional<Response> response = client.Call(r, &error);
  gate->Expect(response.has_value(), std::string(what) + ": " + error);
  if (!response.has_value()) return std::nullopt;
  gate->Expect(response->type == type,
               std::string(what) + ": unexpected response " +
                   ResponseTypeName(response->type) +
                   (response->type == ResponseType::kError
                        ? " (" + response->error.message + ")"
                        : std::string()));
  if (response->type != type) return std::nullopt;
  return response;
}

void ExpectRanking(const SolveResponse& s, const SolverResult& exact, size_t k,
                   GateError* gate, const std::string& what) {
  gate->Expect(s.epoch == 1, what + ": epoch is not 1");
  gate->Expect(s.topk.size() == std::min(k, exact.ranking.size()),
               what + ": ranking size");
  for (size_t i = 0; i < s.topk.size() && i < exact.ranking.size(); ++i) {
    const uint32_t c = exact.ranking[i];
    gate->Expect(s.topk[i].candidate == c &&
                     s.topk[i].influence == exact.influence[c] &&
                     s.topk[i].exact,
                 what + ": entry " + std::to_string(i) + " differs");
  }
}

/// Idle served round trips (send -> reply) recorded by the gate; they
/// stand in for the timed load's when its mix lacks the op.
struct IdleSamples {
  std::vector<double> probe_ms;
  std::vector<double> stats_ms;
};

double TimedCall(BlockingClient& client, const Request& r,
                 std::optional<Response>* response) {
  const double start = NowSeconds();
  *response = client.Call(r);
  return (NowSeconds() - start) * 1e3;
}

/// Compares epoch-1 answers with the same computation done in process:
/// rankings, probes, skyline, diversified and what-if answers must be
/// equal, and approximate brackets must contain the exact influence.
std::string CheckEpochOne(BlockingClient& client, const Instance& inst,
                          uint64_t seed, IdleSamples* idle) {
  GateError gate;
  Rng rng(seed ^ 0x6a09e667f3bcc909ull);
  const PreparedInstance prepared(inst.problem, inst.config);
  const SolverResult exact = PinocchioSolver().Solve(prepared);
  const size_t m = prepared.num_candidates();

  Request stats;
  stats.type = RequestType::kStats;
  for (int i = 0; i < 20; ++i) {
    std::optional<Response> r;
    idle->stats_ms.push_back(TimedCall(client, stats, &r));
    gate.Expect(r.has_value() && r->type == ResponseType::kStats &&
                    r->stats.epoch == 1 &&
                    r->stats.num_objects == inst.problem.objects.size() &&
                    r->stats.num_candidates == m,
                "stats: epoch-1 instance sizes differ");
  }

  Request topk;
  topk.type = RequestType::kTopK;
  topk.top_k.k = 10;
  if (auto r =
          CallExpecting(client, topk, ResponseType::kSolve, &gate, "topk")) {
    ExpectRanking(r->solve, exact, 10, &gate, "topk");
  }
  for (WireAlgorithm algorithm : {WireAlgorithm::kPinVO, WireAlgorithm::kPin}) {
    Request solve;
    solve.type = RequestType::kSolve;
    solve.solve.algorithm = algorithm;
    solve.solve.top_k = kRequestK;
    const std::string what =
        std::string("solve ") + WireAlgorithmName(algorithm);
    if (auto r = CallExpecting(client, solve, ResponseType::kSolve, &gate,
                               what.c_str())) {
      ExpectRanking(r->solve, exact, kRequestK, &gate, what);
    }
  }

  // Probes at candidate points check against the exact solver, probes
  // elsewhere against the point query.
  for (int i = 0; i < 20; ++i) {
    Request probe;
    probe.type = RequestType::kProbe;
    int64_t expected = 0;
    if (i % 2 == 0) {
      const auto j = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(m) - 1));
      probe.probe.location = prepared.candidate(j);
      expected = exact.influence[j];
    } else {
      probe.probe.location = RandomVenuePoint(inst, rng);
      expected = InfluenceOfCandidate(prepared, probe.probe.location);
    }
    std::optional<Response> r;
    idle->probe_ms.push_back(TimedCall(client, probe, &r));
    gate.Expect(r.has_value() && r->type == ResponseType::kProbe &&
                    r->probe.epoch == 1 && r->probe.influence == expected,
                "probe " + std::to_string(i) + " differs");
  }

  Request skyline;
  skyline.type = RequestType::kSkyline;
  skyline.skyline.cost_origin = RandomVenuePoint(inst, rng);
  if (auto r = CallExpecting(client, skyline, ResponseType::kSkyline, &gate,
                             "skyline")) {
    std::vector<double> cost(m);
    for (size_t j = 0; j < m; ++j) {
      cost[j] = Distance(prepared.candidate(j), skyline.skyline.cost_origin);
    }
    const query::SkylineResult ref = query::SolveSkyline(prepared, cost);
    const SkylineResponse& s = r->skyline;
    gate.Expect(s.skyline.size() == ref.members.size() &&
                    s.bound_skipped == static_cast<uint64_t>(ref.bound_skipped),
                "skyline: size or bound_skipped differs");
    for (size_t i = 0; i < s.skyline.size() && i < ref.members.size(); ++i) {
      gate.Expect(s.skyline[i].candidate == ref.members[i].candidate &&
                      s.skyline[i].influence == ref.members[i].influence &&
                      s.skyline[i].cost == ref.members[i].cost,
                  "skyline: member " + std::to_string(i) + " differs");
    }
  }

  Request diverse;
  diverse.type = RequestType::kDiversified;
  diverse.diversified.k = kRequestK;
  diverse.diversified.min_separation = 2000.0;
  if (auto r = CallExpecting(client, diverse, ResponseType::kDiversified,
                             &gate, "diverse")) {
    const query::DiversifiedResult ref =
        query::SelectDiversified(prepared, kRequestK, 2000.0);
    const DiverseResponse& s = r->diverse;
    gate.Expect(s.selected.size() == ref.selected.size() &&
                    s.gain_evaluations ==
                        static_cast<uint64_t>(ref.gain_evaluations),
                "diverse: size or gain evaluations differ");
    for (size_t i = 0; i < s.selected.size() && i < ref.selected.size(); ++i) {
      gate.Expect(s.selected[i].candidate == ref.selected[i] &&
                      s.selected[i].coverage == ref.coverage[i],
                  "diverse: pick " + std::to_string(i) + " differs");
    }
  }

  Request whatif;
  whatif.type = RequestType::kWhatIf;
  whatif.what_if = WhatIfRequest{0.6, 0.85, 1.1, kRequestK};
  if (auto r = CallExpecting(client, whatif, ResponseType::kSolve, &gate,
                             "whatif")) {
    const PreparedInstance altered(inst.problem, MakeConfig(0.6, 0.85, 1.1));
    ExpectRanking(r->solve, PinocchioSolver().Solve(altered), kRequestK, &gate,
                  "whatif");
  }

  // delta = 1e-6 per entry keeps a spurious miss out of reach.
  Request approx;
  approx.type = RequestType::kApproxTopK;
  approx.approx = ApproxTopKRequest{
      kRequestK, 0.2, 1e-6, static_cast<uint64_t>(rng.UniformInt(0, 1 << 20))};
  if (auto r = CallExpecting(client, approx, ResponseType::kApprox, &gate,
                             "approx")) {
    gate.Expect(r->approx.entries.size() == std::min<size_t>(kRequestK, m),
                "approx: entry count");
    for (const ApproxRankedCandidate& e : r->approx.entries) {
      const int64_t inf = e.candidate < m ? exact.influence[e.candidate] : -1;
      gate.Expect(e.lo <= inf && inf <= e.hi && e.lo <= e.estimate &&
                      e.estimate <= e.hi && (!e.exact || e.lo == e.hi),
                  "approx: bracket of candidate " +
                      std::to_string(e.candidate) + " misses " +
                      std::to_string(inf));
    }
  }
  return gate.message();
}

// ------------------------------------------------------------------- load

struct Sample {
  Op op = Op::kStats;
  double due = 0.0;   // when it should have gone out
  double free = 0.0;  // when its connection took it
  double send = 0.0;
  double done = 0.0;
  bool sent = false;
  bool ok = false;
};

struct LaneResult {
  std::vector<Sample> samples;
  std::atomic<uint64_t> transport_failures{0};
  std::atomic<uint64_t> error_responses{0};
  std::atomic<uint64_t> wrong_type{0};
  std::atomic<size_t> next{0};
};

/// Asks for a 0.1 ms scheduler slice (honoured by EEVDF kernels, 6.12 and
/// later; ignored before), so a generator thread waking for a due request
/// preempts a busy server thread instead of waiting out that thread's
/// slice of about 3 ms.
void RequestShortSlice() {
  struct {
    uint32_t size;
    uint32_t sched_policy;
    uint64_t sched_flags;
    int32_t sched_nice;
    uint32_t sched_priority;
    uint64_t sched_runtime;
    uint64_t sched_deadline;
    uint64_t sched_period;
  } attr{};
  attr.size = sizeof(attr);
  attr.sched_policy = SCHED_OTHER;
  attr.sched_runtime = 100'000;  // ns
  ::syscall(SYS_sched_setattr, 0, &attr, 0);
}

/// One connection's loop: take the next request in due order, wait until
/// it is due (open loop) and send it. A request due while every
/// connection is busy waits — that wait is the queue the open loop shows.
void RunConnection(BlockingClient* client, const Lane& lane,
                   const std::vector<Planned>& plan, double t0, double seconds,
                   LaneResult* out) {
  RequestShortSlice();
  const bool open = lane.rate_rps > 0.0;
  const Clock::time_point start =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(t0 - NowSeconds()));
  for (;;) {
    const size_t i = out->next.fetch_add(1);
    if (i >= plan.size()) return;
    const double free = NowSeconds();
    if (!open && free - t0 >= seconds) return;
    if (free - t0 > seconds + kLoadGraceSeconds) return;
    Sample& s = out->samples[i];
    s.op = plan[i].op;
    s.free = free;
    s.due = open ? t0 + plan[i].due : free;
    if (open) {
      std::this_thread::sleep_until(
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(plan[i].due)));
    }
    s.send = NowSeconds();
    s.sent = true;
    const std::optional<Response> response = client->Call(plan[i].request);
    s.done = NowSeconds();
    if (!response.has_value()) {
      out->transport_failures.fetch_add(1);
      return;  // the connection is gone
    }
    const size_t batch = plan[i].request.observe.observations.size();
    if (response->type == ResponseType::kError) {
      out->error_responses.fetch_add(1);
    } else if (response->type != ExpectedResponse(s.op) ||
               (s.op == Op::kObserve && response->stream.applied != batch)) {
      out->wrong_type.fetch_add(1);
    } else {
      s.ok = true;
    }
  }
}

std::optional<StatsResponse> FetchStats(uint16_t port) {
  BlockingClient client;
  if (!client.Connect("127.0.0.1", port, 5.0)) return std::nullopt;
  Request request;
  request.type = RequestType::kStats;
  const std::optional<Response> r = client.Call(request);
  if (!r.has_value() || r->type != ResponseType::kStats) return std::nullopt;
  return r->stats;
}

/// What the timed load measured, merged over lanes. Times in ms.
struct LoadSummary {
  std::vector<double> latency_ms;  // due -> reply
  std::vector<double> wait_ms;     // due -> send
  std::vector<double> late_ms;     // max(due, connection free) -> send
  std::vector<std::vector<double>> op_latency_ms =
      std::vector<std::vector<double>>(kNumOps);
  std::vector<std::vector<double>> op_served_ms =  // send -> reply
      std::vector<std::vector<double>>(kNumOps);
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t wrong = 0;  // replies of the wrong shape
  double wall = 0.0;   // seconds from the start to the last reply
  double busy = 0.0;   // seconds, summed send -> reply
  double backlog_growth = 0.0;
  bool backlog_flagged = false;
  std::string lanes_json;
};

LoadSummary Summarize(const Workload& workload,
                      const std::vector<std::unique_ptr<LaneResult>>& results,
                      double t0) {
  LoadSummary out;
  std::vector<Sample> completed;
  double last_done = t0;
  JsonObject lanes;
  for (size_t l = 0; l < workload.lanes.size(); ++l) {
    const Lane& lane = workload.lanes[l];
    const LaneResult& r = *results[l];
    out.wrong += r.wrong_type.load();
    size_t sent = 0;
    size_t ok = 0;
    for (const Sample& s : r.samples) {
      if (!s.sent) continue;
      ++sent;
      if (!s.ok) continue;
      ++ok;
      completed.push_back(s);
      out.latency_ms.push_back((s.done - s.due) * 1e3);
      out.wait_ms.push_back((s.send - s.due) * 1e3);
      out.late_ms.push_back((s.send - std::max(s.due, s.free)) * 1e3);
      out.op_latency_ms[Idx(s.op)].push_back((s.done - s.due) * 1e3);
      out.op_served_ms[Idx(s.op)].push_back((s.done - s.send) * 1e3);
      last_done = std::max(last_done, s.done);
      out.busy += s.done - s.send;
    }
    const bool open = lane.rate_rps > 0.0;
    const size_t attempted = open ? r.samples.size() : sent;
    out.attempted += attempted;
    out.failed += attempted - ok;
    lanes.Raw(std::to_string(l),
              JsonObject()
                  .Num("connections", lane.connections)
                  .Str("loop", open ? "open" : "closed")
                  .Num("offered_rps", lane.rate_rps)
                  .Num("attempted", static_cast<double>(attempted))
                  .Num("completed", static_cast<double>(ok))
                  .Num("transport_failures",
                       static_cast<double>(r.transport_failures.load()))
                  .Num("error_replies",
                       static_cast<double>(r.error_responses.load()))
                  .Dump());
  }
  out.wall = last_done - t0;
  out.lanes_json = lanes.Dump();

  // Median queue wait in the last tenth of the run against the middle
  // tenth, in due order: a growing backlog is flagged, never averaged
  // away. Medians keep one burst of arrivals from reading as growth.
  std::sort(completed.begin(), completed.end(),
            [](const Sample& a, const Sample& b) { return a.due < b.due; });
  const auto tenth_wait_ms = [&](double from) {
    const auto n = static_cast<double>(completed.size());
    std::vector<double> wait;
    for (auto i = static_cast<size_t>(from * n);
         i < static_cast<size_t>((from + 0.1) * n); ++i) {
      wait.push_back(completed[i].send - completed[i].due);
    }
    return Median(wait) * 1e3;
  };
  const double last = tenth_wait_ms(0.9);
  out.backlog_growth = last / std::max(1e-9, tenth_wait_ms(0.45));
  out.backlog_flagged = out.backlog_growth > 2.0 && last > 1.0;
  return out;
}

/// The server's stream state after the load must equal an in-process
/// StreamingPrimeLS fed the prefill and exactly the frames the server
/// accepted, both advanced to `final_time`.
bool FinalStreamMatches(
    const Instance& inst, const std::vector<Request>& prefill,
    const std::vector<std::vector<Planned>>& plans,
    const std::vector<std::unique_ptr<LaneResult>>& results,
    double final_time, uint16_t port) {
  std::unique_ptr<StreamingPrimeLS> mirror = MakeStream(inst);
  for (const Request& r : prefill) ApplyToStream(r, mirror.get());
  for (size_t l = 0; l < plans.size(); ++l) {
    for (size_t i = 0; i < plans[l].size(); ++i) {
      if (results[l]->samples[i].ok) {
        ApplyToStream(plans[l][i].request, mirror.get());
      }
    }
  }
  mirror->AdvanceTo(final_time);
  Request advance;
  advance.type = RequestType::kAdvance;
  advance.advance.time = final_time;
  BlockingClient client;
  if (!client.Connect("127.0.0.1", port, 5.0)) return false;
  const std::optional<Response> r = client.Call(advance);
  const auto best = mirror->Best();
  return r.has_value() && r->type == ResponseType::kStream &&
         r->stream.now == mirror->now() &&
         r->stream.live_positions == mirror->NumLivePositions() &&
         r->stream.live_objects == mirror->NumLiveObjects() &&
         r->stream.has_best == best.has_value() &&
         (!best.has_value() || (r->stream.best_candidate == best->first &&
                                r->stream.best_influence == best->second));
}

// ------------------------------------------------------------------ trace

/// In-memory span recorder. With tracing off Begin() reads no clock and
/// returns -1, so the same code path measures the recorder's overhead.
class Tracer {
 public:
  struct Span {
    const char* name;
    int parent;
    int64_t request;
    double start;
    double end;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  int Begin(const char* name, int parent = -1, int64_t request = -1) {
    if (!enabled_) return -1;
    spans_.push_back({name, parent, request, NowSeconds(), 0.0});
    return static_cast<int>(spans_.size()) - 1;
  }
  /// Closes `span` and returns its duration in seconds (0 when off).
  double End(int span) {
    if (span < 0) return 0.0;
    spans_[span].end = NowSeconds();
    return spans_[span].end - spans_[span].start;
  }

  const std::vector<Span>& spans() const { return spans_; }

  bool Write(const std::string& path) const {
    std::ofstream out(path);
    for (const Span& s : spans_) {
      out << "{\"name\": " << JsonString(s.name) << ", \"start_us\": "
          << JsonNumber(s.start * 1e6) << ", \"end_us\": "
          << JsonNumber(s.end * 1e6) << ", \"parent\": " << s.parent
          << ", \"request\": " << s.request << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Runs `fn` inside a span and returns the span's duration in seconds.
template <typename F>
double Timed(Tracer& tracer, const char* name, int parent, F&& fn) {
  const double start = NowSeconds();
  const int span = tracer.Begin(name, parent);
  fn();
  tracer.End(span);
  return NowSeconds() - start;
}

struct CodecTotals {
  uint64_t frames = 0;
  uint64_t bytes = 0;
};

/// Runs one request through the steps a served request takes, in process:
/// encode, decode, Execute, encode and decode the reply. Each step is a
/// child span of one request span carrying the request id.
void TraceRequest(InfluenceService& service, Op op, const Request& request,
                  int64_t id, Tracer& tracer, CodecTotals* codec) {
  const int root = tracer.Begin(kRequestSpans[Idx(op)], -1, id);
  int span = tracer.Begin("protocol.encode", root, id);
  const std::vector<uint8_t> frame = EncodeRequest(request);
  tracer.End(span);
  span = tracer.Begin("protocol.decode", root, id);
  const std::optional<Request> decoded =
      DecodeRequest(std::span<const uint8_t>(frame).subspan(4));
  tracer.End(span);
  span = tracer.Begin(kExecuteSpans[Idx(op)], root, id);
  const Response response = service.Execute(*decoded);
  tracer.End(span);
  span = tracer.Begin("protocol.encode", root, id);
  const std::vector<uint8_t> reply = EncodeResponse(response);
  tracer.End(span);
  span = tracer.Begin("protocol.decode", root, id);
  const std::optional<Response> back =
      DecodeResponse(std::span<const uint8_t>(reply).subspan(4));
  tracer.End(span);
  tracer.End(root);
  codec->frames += 2;
  codec->bytes += frame.size() + reply.size();
  if (!back.has_value()) std::cerr << "warning: reply failed to decode\n";
}

struct LayerInputs {
  const Instance* inst;
  uint64_t seed;
  /// Requests in due order across lanes, after the stream prefill.
  std::vector<std::pair<Op, const Request*>> replay;
  const std::vector<Request>* prefill;
};

std::unique_ptr<InfluenceService> FreshService(
    const Instance& inst, const std::vector<Request>& prefill) {
  // The traced service always has a stream window, so observe and advance
  // are measured on every workload.
  ServiceOptions options = inst.options;
  options.stream_window_seconds = kStreamWindowSeconds;
  auto service = std::make_unique<InfluenceService>(inst.problem, inst.config,
                                                    options);
  for (const Request& r : prefill) service->Execute(r);
  return service;
}

/// The per-layer pass. Returns its metrics; spans go to `tracer`.
std::vector<Metric> TraceLayers(const LayerInputs& in, Tracer& tracer,
                                std::vector<double>* observe_frame_ms,
                                std::vector<double>* probe_codec_ms,
                                std::vector<double>* stats_codec_ms) {
  std::vector<Metric> metrics;
  const auto add = [&](std::string name, double value, const char* unit) {
    metrics.push_back({std::move(name), value, unit});
  };
  const auto ratio = [](int64_t part, int64_t whole) {
    return static_cast<double>(part) /
           static_cast<double>(std::max<int64_t>(1, whole));
  };
  const Instance& inst = *in.inst;

  // Replay, spans on, within the budget; then the same prefix spans off.
  size_t replayed = 0;
  CodecTotals codec;
  double wall_on = 0.0;
  {
    std::unique_ptr<InfluenceService> service = FreshService(inst, *in.prefill);
    const double start = NowSeconds();
    for (const auto& [op, request] : in.replay) {
      if (NowSeconds() - start > kReplayBudgetSeconds) break;
      TraceRequest(*service, op, *request, static_cast<int64_t>(replayed),
                   tracer, &codec);
      ++replayed;
    }
    service->DrainUpdates();
    wall_on = NowSeconds() - start;
  }
  double wall_off = 0.0;
  {
    Tracer off(false);
    CodecTotals unused;
    std::unique_ptr<InfluenceService> service = FreshService(inst, *in.prefill);
    const double start = NowSeconds();
    for (size_t i = 0; i < replayed; ++i) {
      TraceRequest(*service, in.replay[i].first, *in.replay[i].second,
                   static_cast<int64_t>(i), off, &unused);
    }
    service->DrainUpdates();
    wall_off = NowSeconds() - start;
  }

  // Sweep: every op at least a few times, so each execute p50 exists on
  // every workload; stream ops follow a one-pass prefill of their own.
  {
    std::unique_ptr<InfluenceService> service = FreshService(inst, {});
    StreamReplay stream(inst.problem.objects, in.seed ^ 0x3c6ef372fe94f82bull);
    for (const Request& r : PrefillRequests(&stream)) service->Execute(r);
    RequestFactory factory(inst, &stream);
    Rng rng(in.seed ^ 0xa54ff53a5f1d36f1ull);
    int64_t id = static_cast<int64_t>(replayed);
    const Op order[] = {Op::kStats,   Op::kProbe,   Op::kObserve, Op::kAdvance,
                        Op::kTopK,    Op::kSolve,   Op::kWhatIf,  Op::kSkyline,
                        Op::kDiverse, Op::kApprox,  Op::kUpdate};
    for (Op op : order) {
      const bool light = op == Op::kStats || op == Op::kProbe ||
                         op == Op::kObserve || op == Op::kAdvance;
      const int count = light ? 50 : op == Op::kUpdate ? 5 : kCoreRepeats;
      for (int i = 0; i < count; ++i) {
        TraceRequest(*service, op, factory.Make(op, rng), id++, tracer, &codec);
      }
    }
    service->DrainUpdates();

    std::vector<double> rebuild;
    for (int i = 0; i < kCoreRepeats; ++i) {
      const Request update = factory.Make(Op::kUpdate, rng);
      rebuild.push_back(Timed(tracer, "snapshot.rebuild", -1, [&] {
        service->Execute(update);
        service->DrainUpdates();
      }));
    }
    add("snapshot.rebuild_ms", Median(rebuild) * 1e3, "ms");
  }

  // Codec and execute, per frame and per op.
  const std::vector<Tracer::Span>& spans = tracer.spans();
  double encode = 0.0;
  double decode = 0.0;
  std::vector<std::vector<double>> execute(kNumOps);
  std::vector<double> codec_by_request(spans.size(), 0.0);
  for (const Tracer::Span& s : spans) {
    const double d = s.end - s.start;
    if (std::string_view(s.name) == "protocol.encode") encode += d;
    if (std::string_view(s.name) == "protocol.decode") decode += d;
    if (s.parent >= 0 && std::string_view(s.name).rfind("protocol.", 0) == 0) {
      codec_by_request[s.parent] += d;
    }
    for (size_t op = 0; op < kNumOps; ++op) {
      if (std::string_view(s.name) == kExecuteSpans[op]) {
        execute[op].push_back(d);
      }
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string_view name = spans[i].name;
    if (spans[i].parent != -1) continue;
    if (name == kRequestSpans[Idx(Op::kObserve)]) {
      observe_frame_ms->push_back((spans[i].end - spans[i].start) * 1e3);
    } else if (name == kRequestSpans[Idx(Op::kProbe)]) {
      probe_codec_ms->push_back(codec_by_request[i] * 1e3);
    } else if (name == kRequestSpans[Idx(Op::kStats)]) {
      stats_codec_ms->push_back(codec_by_request[i] * 1e3);
    }
  }
  const auto frames = static_cast<double>(std::max<uint64_t>(1, codec.frames));
  add("protocol.encode_us", encode / frames * 1e6, "us");
  add("protocol.decode_us", decode / frames * 1e6, "us");
  add("protocol.frame_bytes", static_cast<double>(codec.bytes) / frames,
      "bytes");
  for (size_t op = 0; op < kNumOps; ++op) {
    add(std::string("service.execute_ms.") + kOpNames[op] + ".p50",
        Median(execute[op]) * 1e3, "ms");
  }
  add("trace.overhead", wall_on / wall_off - 1.0, "ratio");

  // Core layers on the epoch-1 instance, each call a span under "core".
  const int core = tracer.Begin("core");
  std::vector<double> prepare;
  std::optional<PreparedInstance> prepared;
  for (int i = 0; i < kCoreRepeats; ++i) {
    prepare.push_back(Timed(tracer, "core.prepare", core, [&] {
      prepared.emplace(inst.problem, inst.config);
    }));
  }
  add("core.prepare_ms", Median(prepare) * 1e3, "ms");

  const InfluenceKernel kernel(prepared->pf(), prepared->tau());
  std::vector<double> brackets_s, order_s, validate_s;
  SolverStats stats;
  query::CandidateBrackets brackets;
  std::vector<uint32_t> order;
  for (int i = 0; i < kCoreRepeats; ++i) {
    stats = SolverStats{};
    brackets_s.push_back(Timed(tracer, "core.brackets", core, [&] {
      brackets = query::BuildCandidateBrackets(*prepared, kernel, true, &stats);
    }));
    order_s.push_back(Timed(tracer, "core.order", core, [&] {
      order = query::BoundDominationOrder(brackets);
    }));
    query::CandidateBrackets work = brackets;
    validate_s.push_back(Timed(tracer, "core.validate", core, [&] {
      query::TopKCutoffPolicy policy(std::min(kPreparedTopK, order.size()),
                                     &work.min_inf, &work.max_inf);
      const auto vs = [&](uint32_t j) { return work.VerificationSet(j); };
      query::EvaluateBoundOrdered(*prepared, kernel, order, vs, &stats, policy);
    }));
  }
  add("core.brackets_ms", Median(brackets_s) * 1e3, "ms");
  add("core.order_ms", Median(order_s) * 1e3, "ms");
  add("core.validate_ms", Median(validate_s) * 1e3, "ms");
  add("core.pairs_ia", static_cast<double>(stats.pairs_pruned_by_ia), "count");
  add("core.pairs_nib", static_cast<double>(stats.pairs_pruned_by_nib),
      "count");
  add("core.pairs_validated", static_cast<double>(stats.pairs_validated),
      "count");
  add("core.prune_rate",
      ratio(stats.PairsPruned(),
            static_cast<int64_t>(prepared->num_objects() *
                                 prepared->num_candidates())),
      "ratio");
  add("core.heap_pops", static_cast<double>(stats.heap_pops), "count");
  add("core.strategy1_cutoffs", static_cast<double>(stats.strategy1_cutoffs),
      "count");
  add("core.positions_scanned", static_cast<double>(stats.positions_scanned),
      "count");
  add("core.early_stop_rate", ratio(stats.early_stops, stats.pairs_validated),
      "ratio");

  // The kernel over the verification sets of the first kPreparedTopK
  // candidates in bound order, grouped by record so each DecideMany call
  // sees every such candidate whose set holds that record.
  {
    const size_t head = std::min(kPreparedTopK, order.size());
    std::vector<std::vector<Point>> by_record(prepared->num_objects());
    for (size_t i = 0; i < head; ++i) {
      for (uint32_t rec : brackets.VerificationSet(order[i])) {
        by_record[rec].push_back(prepared->candidate(order[i]));
      }
    }
    int64_t positions = 0;
    std::vector<uint8_t> influenced;
    const double seconds = Timed(tracer, "prob.decide_many", core, [&] {
      for (size_t rec = 0; rec < by_record.size(); ++rec) {
        if (by_record[rec].empty()) continue;
        influenced.assign(by_record[rec].size(), 0);
        positions += kernel.DecideMany(by_record[rec],
                                       prepared->store().positions(rec),
                                       influenced).positions_seen;
      }
    });
    add("prob.decide_ns_per_position",
        seconds * 1e9 / static_cast<double>(std::max<int64_t>(1, positions)),
        "ns");
  }

  // Solvers and query families.
  const auto repeat = [&](const char* name, const std::function<void()>& fn) {
    std::vector<double> s;
    for (int i = 0; i < kCoreRepeats; ++i) {
      s.push_back(Timed(tracer, name, core, fn));
    }
    return Median(s) * 1e3;
  };
  add("core.pin_ms",
      repeat("core.pin", [&] { PinocchioSolver().Solve(*prepared); }), "ms");
  add("core.pinvo_ms",
      repeat("core.pinvo", [&] { PinocchioVOSolver().Solve(*prepared); }),
      "ms");

  Rng rng(in.seed ^ 0x510e527fade682d1ull);
  const Point origin = RandomVenuePoint(inst, rng);
  std::vector<double> cost(prepared->num_candidates());
  for (size_t j = 0; j < cost.size(); ++j) {
    cost[j] = Distance(prepared->candidate(j), origin);
  }
  query::SkylineResult skyline;
  add("core.skyline_ms", repeat("core.skyline", [&] {
        skyline = query::SolveSkyline(*prepared, cost);
      }), "ms");
  add("core.skyline.bound_skipped", static_cast<double>(skyline.bound_skipped),
      "count");
  query::DiversifiedResult diverse;
  add("core.diverse_ms", repeat("core.diverse", [&] {
        diverse = query::SelectDiversified(*prepared, kRequestK, 2000.0);
      }), "ms");
  add("core.diverse.gain_evaluations",
      static_cast<double>(diverse.gain_evaluations), "count");
  ApproxTopKResult approx;
  const SketchParams params{0.1, 0.05, in.seed};
  add("core.approx_ms", repeat("core.approx", [&] {
        approx = SolveApproxTopK(*prepared, kRequestK, params);
      }), "ms");
  add("core.approx.refine_share",
      ratio(approx.pairs_refined, approx.pairs_refined + approx.pairs_skipped),
      "ratio");

  std::vector<double> probe_s;
  for (int i = 0; i < 200; ++i) {
    const Point p = RandomVenuePoint(inst, rng);
    probe_s.push_back(Timed(tracer, "core.probe", core,
                            [&] { InfluenceOfCandidate(*prepared, p); }));
  }
  add("core.probe_us", Median(probe_s) * 1e6, "us");

  const double t1 = repeat("parallel.pinvo.t1", [&] {
    ParallelPinocchioVOSolver(1).Solve(*prepared);
  });
  const double t4 = repeat("parallel.pinvo.t4", [&] {
    ParallelPinocchioVOSolver(4).Solve(*prepared);
  });
  add("parallel.pinvo_ms.t1", t1, "ms");
  add("parallel.pinvo_ms.t4", t4, "ms");
  add("parallel.speedup.t4", t1 / t4, "ratio");

  // What-if: a re-prepare of the cached clone, and the clone an epoch
  // change forces.
  {
    const auto random_config = [&] {
      return MakeConfig(rng.Uniform(0.5, 0.9), rng.Uniform(0.7, 0.95),
                        rng.Uniform(0.8, 1.2));
    };
    std::vector<double> reclone, reprepare;
    for (int i = 0; i < kCoreRepeats; ++i) {
      const SolverConfig altered = random_config();
      std::optional<PreparedInstance> clone;
      reclone.push_back(Timed(tracer, "whatif.reclone", core, [&] {
        clone.emplace(inst.problem, altered);
      }));
      const SolverConfig next = random_config();
      reprepare.push_back(Timed(tracer, "whatif.reprepare", core,
                                [&] { clone->Reprepare(next); }));
    }
    add("whatif.reclone_ms", Median(reclone) * 1e3, "ms");
    add("whatif.reprepare_ms", Median(reprepare) * 1e3, "ms");
  }

  // Streaming engine after a one-pass prefill, per observation.
  {
    std::unique_ptr<StreamingPrimeLS> stream = MakeStream(inst);
    StreamReplay replay(inst.problem.objects, in.seed ^ 0x1f83d9abfb41bd6bull);
    for (const Request& r : PrefillRequests(&replay)) {
      ApplyToStream(r, stream.get());
    }
    std::vector<double> observe, advance;
    for (int i = 0; i < 4000; ++i) {
      const Observation o = replay.Next();
      observe.push_back(Timed(tracer, "stream.observe", core, [&] {
        stream->Observe(o.object_id, o.time, o.position);
      }));
      if (i % 100 == 99) {
        const double t = replay.AdvanceTime();
        advance.push_back(Timed(tracer, "stream.advance", core,
                                [&] { stream->AdvanceTo(t); }));
      }
    }
    add("stream.observe_us", Mean(observe) * 1e6, "us");
    add("stream.advance_us", Mean(advance) * 1e6, "us");
    add("stream.live_positions",
        static_cast<double>(stream->NumLivePositions()), "count");
  }
  tracer.End(core);
  return metrics;
}

// -------------------------------------------------------------------- main

constexpr char kUsage[] = R"(Usage: bench_driver --workload=NAME --seed=N
         --seconds=S --server=PATH --workdir=DIR --out=FILE
         [--trace=0|1] [--trace_out=FILE]

Measures one workload (mix, point, analyst, ingest) against freshly booted
pinocchio_server processes and writes a JSON result to --out; see
benchmark/README.md. Exits 1 without writing it when an answer is wrong.
)";

int Fail(const std::string& message) {
  std::cerr << "bench_driver: " << message << "\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  ::signal(SIGPIPE, SIG_IGN);
  const FlagParser flags(argc, argv);
  const auto unknown =
      flags.UnknownFlags({"workload", "seed", "seconds", "trace", "server",
                          "workdir", "out", "trace_out", "help"});
  if (flags.GetBool("help", false) || !unknown.empty() ||
      !flags.errors().empty() || !flags.Has("workload") ||
      !flags.Has("server") || !flags.Has("out") || !flags.Has("workdir")) {
    std::cerr << kUsage;
    return 2;
  }
  const std::string name = flags.GetString("workload", "");
  const Workload* workload = nullptr;
  for (const Workload& w : Workloads()) {
    if (name == w.name) workload = &w;
  }
  if (workload == nullptr) return Fail("unknown workload '" + name + "'");
  const auto seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const double seconds = flags.GetDouble("seconds", 10.0);
  const bool trace = flags.GetInt("trace", 0) != 0;
  const std::string server_path = flags.GetString("server", "");
  const std::string workdir = flags.GetString("workdir", "");
  if (seconds <= 0.0) return Fail("--seconds must be positive");

  // ------------------------------------------------------------ instance
  const std::string pino = workdir + "/" + name + ".pino";
  Instance inst;
  std::string error;
  if (!BuildInstance(*workload, pino, &inst, &error)) return Fail(error);

  Rng schedule_rng(workload->dataset_seed);
  Rng param_rng(seed * 0x9e3779b97f4a7c15ull + 1);
  StreamReplay stream_replay(inst.problem.objects,
                             seed ^ 0xbb67ae8584caa73bull);
  const std::vector<Request> prefill = PrefillRequests(&stream_replay);
  RequestFactory factory(inst, &stream_replay);
  std::vector<std::vector<Planned>> plans;
  for (const Lane& lane : workload->lanes) {
    plans.push_back(PlanLane(lane, seconds, schedule_rng, param_rng, factory));
  }

  // --------------------------------------------------------------- boots
  const std::string log = workdir + "/server-" + name + ".log";
  const auto server_argv = [&](uint16_t port) {
    std::vector<std::string> argv = {
        server_path, "--in=" + pino, "--port=" + std::to_string(port),
        "--workers=" + std::to_string(kServerWorkers),
        "--seed=" + std::to_string(workload->dataset_seed),
        "--solve_threads=" + std::to_string(workload->solve_threads)};
    if (workload->stream) {
      argv.push_back("--stream-window=" + std::to_string(kStreamWindowSeconds));
    }
    return argv;
  };
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  ::sched_getaffinity(0, sizeof(allowed), &allowed);
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  std::vector<double> boots;
  std::unique_ptr<ServerProcess> server;
  uint16_t port = 0;
  // Replaces `server` with a fresh boot and records spawn -> ready. With
  // `cpu` >= 0 the child inherits that one CPU (boots that serve no load).
  const auto boot = [&](int cpu) {
    if (server) server->Stop();
    port = PickFreePort();
    if (port == 0) return false;
    if (cpu >= 0) {
      cpu_set_t one;
      CPU_ZERO(&one);
      CPU_SET(cpu, &one);
      ::sched_setaffinity(0, sizeof(one), &one);
    }
    const double start = NowSeconds();
    server = std::make_unique<ServerProcess>(server_argv(port), log);
    ::sched_setaffinity(0, sizeof(allowed), &allowed);
    if (!WaitReady(*server, port, 30.0)) return false;
    boots.push_back(NowSeconds() - start);
    return true;
  };
  const auto cpu_for = [&](int i) {
    return cpus[static_cast<size_t>(i) % cpus.size()];
  };
  for (int i = 0; i <= kBootsBefore; ++i) {
    if (!boot(i < kBootsBefore ? cpu_for(i) : -1)) {
      return Fail("server did not become ready; see " + log);
    }
  }

  // ---------------------------------------------------------------- gate
  BlockingClient gate_client;
  if (!gate_client.Connect("127.0.0.1", port, 5.0)) {
    return Fail("cannot connect");
  }
  IdleSamples idle;
  const std::string mismatch = CheckEpochOne(gate_client, inst, seed, &idle);
  if (!mismatch.empty()) return Fail("correctness gate: " + mismatch);
  if (workload->stream) {
    for (const Request& r : prefill) {
      const std::optional<Response> response = gate_client.Call(r);
      if (!response.has_value() || response->type != ResponseType::kStream) {
        return Fail("stream prefill rejected");
      }
    }
  }
  gate_client.Close();
  const std::optional<StatsResponse> before = FetchStats(port);
  if (!before.has_value()) return Fail("stats before the load failed");

  // ---------------------------------------------------------------- load
  std::vector<std::unique_ptr<LaneResult>> results;
  std::vector<std::unique_ptr<BlockingClient>> clients;
  for (size_t l = 0; l < workload->lanes.size(); ++l) {
    results.push_back(std::make_unique<LaneResult>());
    results.back()->samples.resize(plans[l].size());
    for (int c = 0; c < workload->lanes[l].connections; ++c) {
      clients.push_back(std::make_unique<BlockingClient>());
      if (!clients.back()->Connect("127.0.0.1", port, 5.0)) {
        return Fail("cannot connect");
      }
    }
  }
  const double t0 = NowSeconds() + 0.05;
  {
    std::vector<std::thread> threads;
    size_t next_client = 0;
    for (size_t l = 0; l < workload->lanes.size(); ++l) {
      for (int c = 0; c < workload->lanes[l].connections; ++c) {
        threads.emplace_back(RunConnection, clients[next_client++].get(),
                             std::cref(workload->lanes[l]),
                             std::cref(plans[l]), t0, seconds,
                             results[l].get());
      }
    }
    for (std::thread& t : threads) t.join();
  }
  clients.clear();

  if (workload->stream &&
      !FinalStreamMatches(inst, prefill, plans, results,
                          stream_replay.AdvanceTime(), port)) {
    return Fail("correctness gate: final stream state differs from replay");
  }

  const std::optional<StatsResponse> after = FetchStats(port);
  if (!after.has_value()) return Fail("stats after the load failed");
  const double peak_rss_mb = server->PeakRssMb();
  for (int i = 0; i < kBootsAfter; ++i) {
    if (!boot(cpu_for(i))) {
      return Fail("server did not become ready; see " + log);
    }
  }
  server.reset();

  // --------------------------------------------------------- end to end
  const LoadSummary load = Summarize(*workload, results, t0);
  if (load.wrong > 0) {
    return Fail("correctness: " + std::to_string(load.wrong) +
                " replies of the wrong shape");
  }
  if (load.latency_ms.empty()) return Fail("no request completed");
  const auto completed = static_cast<double>(load.latency_ms.size());
  const double achieved_rps = completed / load.wall;
  const std::vector<Metric> e2e = {
      {"setup_s", *std::min_element(boots.begin(), boots.end()), "s"},
      {"p50_ms", Quantile(load.latency_ms, 0.5), "ms"},
      {"throughput_rps", achieved_rps, "1/s"},
      {"peak_rss_mb", peak_rss_mb, "MiB"},
  };
  const double limited_p99 =
      Quantile(workload->limit_op == Op::kCount
                   ? load.latency_ms
                   : load.op_latency_ms[Idx(workload->limit_op)],
               0.99);

  // ----------------------------------------------------------- per layer
  std::vector<Metric> layers;
  if (trace) {
    LayerInputs in{&inst, seed, {}, &prefill};
    std::vector<std::pair<double, std::pair<Op, const Request*>>> merged;
    for (const std::vector<Planned>& plan : plans) {
      for (size_t i = 0; i < plan.size(); ++i) {
        merged.push_back({plan[i].due + 1e-12 * static_cast<double>(i),
                          {plan[i].op, &plan[i].request}});
      }
    }
    std::stable_sort(
        merged.begin(), merged.end(),
        [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& entry : merged) in.replay.push_back(entry.second);

    Tracer tracer(true);
    std::vector<double> observe_frame_ms, probe_codec_ms, stats_codec_ms;
    const std::vector<Metric> traced = TraceLayers(
        in, tracer, &observe_frame_ms, &probe_codec_ms, &stats_codec_ms);
    const auto execute_p50 = [&](Op op) {
      const std::string metric =
          std::string("service.execute_ms.") + kOpNames[Idx(op)] + ".p50";
      for (const Metric& m : traced) {
        if (m.name == metric) return m.value;
      }
      return 0.0;
    };
    // Served time beyond execute and codec: transport plus the server's
    // own steps. From the timed load when its mix has the op, else from
    // the gate's idle round trips.
    const auto residual = [&](Op op, const std::vector<double>& idle_ms,
                              const std::vector<double>& codec_ms) {
      const std::vector<double>& loaded = load.op_served_ms[Idx(op)];
      return Median(loaded.empty() ? idle_ms : loaded) - execute_p50(op) -
             Median(codec_ms);
    };
    const std::vector<double>& observe_served =
        load.op_latency_ms[Idx(Op::kObserve)];
    const double threads = static_cast<double>(
        std::max<uint64_t>(1, after->solve_threads));
    layers = {
        {"serve.latency_ms.mean", Mean(load.latency_ms), "ms"},
        {"serve.latency_ms.p99", Quantile(load.latency_ms, 0.99), "ms"},
        {"gen.late_ms.p99", Quantile(load.late_ms, 0.99), "ms"},
        {"serve.queue_wait_ms.p50", Quantile(load.wait_ms, 0.5), "ms"},
        {"serve.queue_wait_ms.p99", Quantile(load.wait_ms, 0.99), "ms"},
        {"serve.backlog_growth", load.backlog_growth, "ratio"},
        {"serve.utilisation", load.busy / (load.wall * kServerWorkers),
         "ratio"},
        {"serve.error_rate",
         static_cast<double>(load.failed) /
             static_cast<double>(load.attempted),
         "ratio"},
        {"serve.observe_ms.p99",
         Quantile(observe_served.empty() ? observe_frame_ms : observe_served,
                  0.99),
         "ms"},
        {"serve.residual_ms.probe",
         residual(Op::kProbe, idle.probe_ms, probe_codec_ms), "ms"},
        {"serve.residual_ms.stats",
         residual(Op::kStats, idle.stats_ms, stats_codec_ms), "ms"},
        {"snapshot.swaps",
         static_cast<double>(after->snapshot_swaps - before->snapshot_swaps),
         "count"},
        {"parallel.busy_share",
         (after->solve_busy_seconds - before->solve_busy_seconds) /
             ((after->uptime_seconds - before->uptime_seconds) * threads),
         "ratio"},
    };
    layers.insert(layers.end(), traced.begin(), traced.end());
    const std::string trace_out = flags.GetString(
        "trace_out", workdir + "/trace-" + name + ".jsonl");
    if (!tracer.Write(trace_out)) {
      std::cerr << "warning: cannot write " << trace_out << "\n";
    }
  }

  // -------------------------------------------------------------- output
  JsonObject per_op;
  for (size_t op = 0; op < kNumOps; ++op) {
    const std::vector<double>& latency = load.op_latency_ms[op];
    if (latency.empty()) continue;
    per_op.Raw(kOpNames[op],
               JsonObject()
                   .Num("count", static_cast<double>(latency.size()))
                   .Num("p50_ms", Quantile(latency, 0.5))
                   .Num("p99_ms", Quantile(latency, 0.99))
                   .Num("served_p50_ms", Median(load.op_served_ms[op]))
                   .Dump());
  }
  std::string boots_json = "[";
  for (size_t i = 0; i < boots.size(); ++i) {
    boots_json += (i ? ", " : "") + JsonNumber(boots[i]);
  }
  boots_json += "]";
  size_t positions = 0;
  for (const MovingObject& o : inst.problem.objects) {
    positions += o.positions.size();
  }
  const auto count = [](size_t n) { return static_cast<double>(n); };
  const bool limit_met =
      workload->limit_ms <= 0.0 || limited_p99 <= workload->limit_ms;

  JsonObject result;
  result.Str("workload", name)
      .Num("seed", static_cast<double>(seed))
      .Num("seconds", seconds)
      .Num("trace", trace ? 1 : 0)
      .Raw("correct", "true")
      .Num("attempted", static_cast<double>(load.attempted))
      .Num("failed", static_cast<double>(load.failed))
      .Raw("end_to_end", MetricsJson(e2e))
      .Raw("per_layer", MetricsJson(layers))
      .Raw("provenance",
           JsonObject()
               .Num("hardware_concurrency",
                    std::thread::hardware_concurrency())
               .Str("simd_tier", SimdTierName(DetectCpuSimdTier()))
               .Str("compiler", BENCH_COMPILER)
               .Str("build_type", BENCH_BUILD_TYPE)
               .Str("dataset", "foursquare x" + JsonNumber(workload->scale) +
                                   ", seed " +
                                   std::to_string(workload->dataset_seed))
               .Num("objects", count(inst.problem.objects.size()))
               .Num("candidates", count(inst.problem.candidates.size()))
               .Num("positions", count(positions))
               .Num("solve_threads", count(workload->solve_threads))
               .Num("stream_window_s",
                    workload->stream ? kStreamWindowSeconds : 0.0)
               .Num("stream_prefill_observations",
                    workload->stream ? count(stream_replay.pass_size()) : 0.0)
               .Dump())
      .Raw("detail",
           JsonObject()
               .Raw("setup_boots_s", boots_json)
               .Raw("lanes", load.lanes_json)
               .Num("samples", completed)
               .Num("wall_s", load.wall)
               .Num("achieved_rps", achieved_rps)
               .Num("limit_ms", workload->limit_ms)
               .Str("limit_on", workload->limit_op == Op::kCount
                                    ? "all requests"
                                    : kOpNames[Idx(workload->limit_op)])
               .Num("limit_p99_ms", limited_p99)
               .Raw("limit_met", limit_met ? "true" : "false")
               .Num("backlog_growth", load.backlog_growth)
               .Raw("backlog_flagged", load.backlog_flagged ? "true" : "false")
               .Raw("per_op", per_op.Dump())
               .Dump());
  std::ofstream out(flags.GetString("out", ""));
  out << result.Dump() << "\n";
  if (!out) return Fail("cannot write the result");
  return 0;
}
