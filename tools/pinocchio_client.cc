// pinocchio_client — one-shot CLI for the influence query server.
//
// Connects to a running pinocchio_server, issues a single request named
// by --op, prints the response as `name: value` text lines (or a single
// JSON object with --json; see serve/render.h) and exits. Exit code 0 on
// a successful response, 1 on a server-side error response or a rejected
// update, 2 on usage errors, 3 on transport failure.

#include <iostream>
#include <string>
#include <vector>

#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/render.h"
#include "util/flags.h"

namespace {

using namespace pinocchio;
using namespace pinocchio::serve;

constexpr char kUsage[] = R"(Usage: pinocchio_client --op=OP [flags]

  --host=ADDR       Server address (default 127.0.0.1).
  --port=N          Server port (default 7741).
  --json            Print the response as one JSON object.

Operations (--op=...):
  solve             Full solve. --algo=pin-vo|pin|naive, --k=N ranking size.
  topk              Top-k ranking. --k=N.
  probe             Influence at a point. --x=F --y=F.
  whatif            Solve under altered parameters without committing
                    them: --tau=F --rho=F --lambda=F --k=N.
  update            Append a candidate location: --x=F --y=F. (Object
                    updates are exercised by the load generator.)
  stats             Server statistics.
  skyline           Influence/cost skyline; cost is the distance from each
                    candidate to the origin --x=F --y=F.
  diverse           Greedy diversified top-k: --k=N picks, each pair of
                    picks >= --delta=F apart (0 = plain multi-facility).
  observe           Stream one observation into the server's window:
                    --id=N --time=F --x=F --y=F. Requires a server
                    started with --stream-window.
  advance           Advance the server's stream clock: --time=F.
  approx            Top-k under an accuracy contract: --k=N --epsilon=F
                    --delta=F --seed=N. Answers are exact: each entry's
                    [lo, hi] is [influence, influence], which meets any
                    contract.
)";

}  // namespace

int main(int argc, char** argv) {
  const FlagParser flags(argc, argv);
  if (flags.GetBool("help", false)) {
    std::cout << kUsage;
    return 0;
  }
  const auto unknown = flags.UnknownFlags({"op", "host", "port", "json",
                                           "algo", "k", "x", "y", "tau",
                                           "rho", "lambda", "delta", "id",
                                           "time", "epsilon", "seed", "help"});
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

  const auto op = flags.GetString("op");
  if (!op.has_value()) {
    std::cerr << "--op is required\n" << kUsage;
    return 2;
  }

  Request request;
  if (*op == "solve") {
    request.type = RequestType::kSolve;
    const std::string algo = flags.GetString("algo", "pin-vo");
    if (algo == "pin-vo") {
      request.solve.algorithm = WireAlgorithm::kPinVO;
    } else if (algo == "pin") {
      request.solve.algorithm = WireAlgorithm::kPin;
    } else if (algo == "naive") {
      request.solve.algorithm = WireAlgorithm::kNaive;
    } else {
      std::cerr << "unknown --algo '" << algo << "'\n";
      return 2;
    }
    request.solve.top_k = static_cast<uint32_t>(flags.GetInt("k", 1));
  } else if (*op == "topk") {
    request.type = RequestType::kTopK;
    request.top_k.k = static_cast<uint32_t>(flags.GetInt("k", 5));
  } else if (*op == "probe") {
    request.type = RequestType::kProbe;
    request.probe.location =
        Point{flags.GetDouble("x", 0.0), flags.GetDouble("y", 0.0)};
  } else if (*op == "whatif") {
    request.type = RequestType::kWhatIf;
    request.what_if.tau = flags.GetDouble("tau", 0.7);
    request.what_if.rho = flags.GetDouble("rho", 0.9);
    request.what_if.lambda = flags.GetDouble("lambda", 1.0);
    request.what_if.top_k = static_cast<uint32_t>(flags.GetInt("k", 1));
  } else if (*op == "update") {
    request.type = RequestType::kUpdate;
    request.update.candidates.push_back(
        Point{flags.GetDouble("x", 0.0), flags.GetDouble("y", 0.0)});
  } else if (*op == "stats") {
    request.type = RequestType::kStats;
  } else if (*op == "skyline") {
    request.type = RequestType::kSkyline;
    request.skyline.cost_origin =
        Point{flags.GetDouble("x", 0.0), flags.GetDouble("y", 0.0)};
  } else if (*op == "diverse") {
    request.type = RequestType::kDiversified;
    request.diversified.k = static_cast<uint32_t>(flags.GetInt("k", 4));
    request.diversified.min_separation = flags.GetDouble("delta", 0.0);
  } else if (*op == "observe") {
    request.type = RequestType::kObserve;
    Observation o;
    o.object_id = static_cast<uint32_t>(flags.GetInt("id", 0));
    o.time = flags.GetDouble("time", 0.0);
    o.position = Point{flags.GetDouble("x", 0.0), flags.GetDouble("y", 0.0)};
    request.observe.observations.push_back(o);
  } else if (*op == "advance") {
    request.type = RequestType::kAdvance;
    request.advance.time = flags.GetDouble("time", 0.0);
  } else if (*op == "approx") {
    request.type = RequestType::kApproxTopK;
    request.approx.k = static_cast<uint32_t>(flags.GetInt("k", 5));
    request.approx.epsilon = flags.GetDouble("epsilon", 0.05);
    request.approx.delta = flags.GetDouble("delta", 0.01);
    request.approx.seed = static_cast<uint64_t>(flags.GetInt("seed", 0));
  } else {
    std::cerr << "unknown --op '" << *op << "'\n" << kUsage;
    return 2;
  }

  BlockingClient client;
  const std::string host = flags.GetString("host", "127.0.0.1");
  const auto port = static_cast<uint16_t>(flags.GetInt("port", 7741));
  if (!client.Connect(host, port, /*timeout_seconds=*/5.0)) {
    std::cerr << "cannot connect to " << host << ":" << port << "\n";
    return 3;
  }
  std::string error;
  const auto response = client.Call(request, &error);
  if (!response.has_value()) {
    std::cerr << "transport error: " << error << "\n";
    return 3;
  }
  // Errors go to stderr in text mode; --json keeps every answer on stdout.
  const bool json = flags.GetBool("json", false);
  const bool error_response = response->type == ResponseType::kError;
  RenderResponse(*response, json, error_response && !json ? std::cerr
                                                          : std::cout);
  const bool rejected_update =
      response->type == ResponseType::kUpdate && !response->update.accepted;
  return error_response || rejected_update ? 1 : 0;
}
