// Differential fuzz driver: sweeps a seed range through the differential
// harness (tests/testing/differential_harness.h), which diffs every solver,
// the skyline/diversified/approx families and the stream engine's
// position-delta path against the NaiveSolver oracle on randomized
// instances. With
// --self_check (the default) every pruning and validation decision is
// additionally re-verified in-solver via the PINOCCHIO_SELF_CHECK
// machinery.
//
// --protocol=N switches to fuzzing the serving layer's wire codec
// instead: N seeds each drive an encode/decode round-trip check on a
// request and a response of random type with every field randomised
// (compared with the messages' defaulted operator==), a mutation pass
// (bit flips and truncations must decode cleanly or be rejected — never
// crash), and a garbage frame through the FrameAssembler.
//
// SIGINT/SIGTERM stops either sweep at the next case boundary and still
// prints the partial summary.
//
// Exit status: 0 when every case passes, 1 on any failure, 2 on bad usage.

#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "prob/influence_kernel_simd.h"
#include "serve/protocol.h"
#include "testing/differential_harness.h"
#include "util/flags.h"
#include "util/random.h"
#include "util/self_check.h"
#include "util/shutdown.h"

namespace {

constexpr char kUsage[] = R"(Usage: fuzz_driver [flags]

  --seed_begin=N       First seed to run (default 1).
  --seed_end=N         One past the last seed (default seed_begin + 100).
  --reproducer_dir=D   Dump failing instances (binary snapshot + sidecar)
                       into D (default: no dumping).
  --self_check=BOOL    Re-verify every pruning/validation decision against
                       the scalar reference while solving (default true).
  --check_auxiliary=BOOL
                       Also exercise the skyline/diversified/approx
                       families and the position-delta stream engine
                       (default true).
  --protocol=N         Fuzz the wire-protocol codec for N seeds instead of
                       the solvers (round-trips, mutations, garbage).
  --help               Show this message.

Replay a failure by re-running its seed: --seed_begin=S --seed_end=S+1.
)";

using namespace pinocchio;
using namespace pinocchio::serve;

// ------------------------------------------------------- protocol fuzzing

/// Fills every field of a message through its field list with a random
/// value the decoder accepts. A struct whose WireCheck rejects the draw is
/// redrawn, so every fuzzed message is valid on the wire.
class RandomFill {
 public:
  explicit RandomFill(Rng* rng) : rng_(rng) {}

  template <typename T>
  void operator()(const char* name, T& value) {
    if constexpr (std::is_same_v<T, bool> || std::is_enum_v<T>) {
      value = static_cast<T>(
          rng_->UniformInt(0, static_cast<int64_t>(WireMax(T{}))));
    } else if constexpr (std::is_floating_point_v<T>) {
      // Half the draws land in [0, 1) so range-checked parameters (the
      // approx epsilon and delta) pass often; the rest span coordinates.
      value = rng_->UniformInt(0, 1) == 1 ? rng_->NextDouble()
                                          : rng_->Uniform(-1e9, 1e9);
    } else if constexpr (std::is_integral_v<T>) {
      value = static_cast<T>(rng_->Next());
    } else if constexpr (std::is_same_v<T, std::string>) {
      value.resize(static_cast<size_t>(rng_->UniformInt(0, 64)));
      for (char& c : value) c = static_cast<char>(rng_->UniformInt(32, 126));
    } else if constexpr (kIsVector<T>) {
      value.resize(static_cast<size_t>(rng_->UniformInt(0, 8)));
      for (auto& element : value) (*this)(name, element);
    } else {
      do {
        Fields(*this, value);
      } while (WireCheck(value) != nullptr);
    }
  }

 private:
  Rng* rng_;
};

/// A message of a uniformly drawn type with every field randomised.
template <typename Message, typename Table>
Message RandomMessage(const Table& table, Rng* rng) {
  const auto pick = static_cast<size_t>(
      rng->UniformInt(0, static_cast<int64_t>(std::tuple_size_v<Table>) - 1));
  Message message;
  ForEachOp(table, [&](const auto& op, size_t index) {
    if (index != pick) return;
    message.type = op.type;
    RandomFill fill(rng);
    fill(op.name, message.*op.member);
  });
  return message;
}

/// One protocol fuzz case: returns a failure description, or "" on pass.
std::string RunProtocolCase(uint64_t seed) {
  Rng rng(seed);

  // Round-trip: encode -> frame-assemble -> decode must reproduce the
  // message bit-for-bit.
  const auto request = RandomMessage<Request>(kRequestOps, &rng);
  const std::vector<uint8_t> request_frame = EncodeRequest(request);
  const auto response = RandomMessage<Response>(kResponseOps, &rng);
  const std::vector<uint8_t> response_frame = EncodeResponse(response);

  FrameAssembler assembler;
  assembler.Append(request_frame);
  assembler.Append(response_frame);
  const auto request_body = assembler.NextFrame();
  const auto response_body = assembler.NextFrame();
  if (!request_body.has_value() || !response_body.has_value()) {
    return "assembler failed to split back-to-back frames";
  }
  if (assembler.buffered_bytes() != 0) return "assembler retained bytes";
  std::string error;
  const auto request2 = DecodeRequest(*request_body, &error);
  if (!request2.has_value()) return "request decode failed: " + error;
  if (request != *request2) {
    return std::string("request round-trip drift: ") +
           RequestTypeName(request.type);
  }
  const auto response2 = DecodeResponse(*response_body, &error);
  if (!response2.has_value()) return "response decode failed: " + error;
  if (response != *response2) {
    return std::string("response round-trip drift: ") +
           ResponseTypeName(response.type);
  }

  // Every truncation of a valid body must be rejected or decode cleanly
  // (never crash); same for random bit flips.
  const std::vector<uint8_t> body(request_frame.begin() + 4,
                                  request_frame.end());
  for (size_t len = 0; len < body.size(); ++len) {
    (void)DecodeRequest(std::span(body.data(), len));
    (void)DecodeResponse(std::span(body.data(), len));
  }
  std::vector<uint8_t> mutated = body;
  const int flips = static_cast<int>(rng.UniformInt(1, 16));
  for (int i = 0; i < flips; ++i) {
    const auto pos =
        static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(
                                                  mutated.size() - 1)));
    mutated[pos] ^= static_cast<uint8_t>(1u << rng.UniformInt(0, 7));
    (void)DecodeRequest(mutated);
    (void)DecodeResponse(mutated);
  }

  // Garbage through the assembler: random bytes must never produce a
  // frame longer than the cap and must poison on an oversized prefix.
  FrameAssembler garbage;
  const int chunks = static_cast<int>(rng.UniformInt(1, 4));
  for (int i = 0; i < chunks; ++i) {
    std::vector<uint8_t> noise(
        static_cast<size_t>(rng.UniformInt(0, 256)));
    for (uint8_t& byte : noise) {
      byte = static_cast<uint8_t>(rng.UniformInt(0, 255));
    }
    garbage.Append(noise);
    while (const auto frame = garbage.NextFrame()) {
      if (frame->size() > kMaxFrameBody) return "oversized frame emitted";
      (void)DecodeRequest(*frame);
      (void)DecodeResponse(*frame);
    }
  }
  return "";
}

int RunProtocolFuzz(uint64_t cases) {
  uint64_t run = 0;
  uint64_t failures = 0;
  for (uint64_t seed = 1; seed <= cases; ++seed) {
    if (ShutdownRequested()) {
      std::cerr << "interrupted after " << run << " cases\n";
      break;
    }
    const std::string failure = RunProtocolCase(seed);
    ++run;
    if (!failure.empty()) {
      ++failures;
      std::cerr << "protocol seed " << seed << " FAILED: " << failure
                << "\n";
    }
  }
  std::cerr << "protocol fuzz done: " << run << " cases, " << failures
            << " failures\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const pinocchio::FlagParser flags(argc, argv);
  if (flags.GetBool("help", false)) {
    std::cout << kUsage;
    return 0;
  }
  if (!flags.errors().empty()) {
    for (const std::string& error : flags.errors()) {
      std::cerr << "error: " << error << "\n";
    }
    std::cerr << kUsage;
    return 2;
  }
  const auto unknown = flags.UnknownFlags({"seed_begin", "seed_end",
                                           "reproducer_dir", "self_check",
                                           "check_auxiliary", "protocol",
                                           "help"});
  if (!unknown.empty()) {
    for (const std::string& name : unknown) {
      std::cerr << "error: unknown flag --" << name << "\n";
    }
    std::cerr << kUsage;
    return 2;
  }

  pinocchio::InstallShutdownHandlers();

  if (const int64_t protocol_cases = flags.GetInt("protocol", 0);
      protocol_cases > 0) {
    return RunProtocolFuzz(static_cast<uint64_t>(protocol_cases));
  }

  const auto seed_begin =
      static_cast<uint64_t>(flags.GetInt("seed_begin", 1));
  const auto seed_end = static_cast<uint64_t>(
      flags.GetInt("seed_end", static_cast<int64_t>(seed_begin) + 100));
  if (seed_end < seed_begin) {
    std::cerr << "error: --seed_end must be >= --seed_begin\n";
    return 2;
  }

  pinocchio::SetSelfCheckEnabled(flags.GetBool("self_check", true));

  pinocchio::testing_diff::FuzzOptions options;
  options.reproducer_dir = flags.GetString("reproducer_dir", "");
  options.check_auxiliary = flags.GetBool("check_auxiliary", true);
  options.should_stop = &pinocchio::ShutdownRequested;

  std::cerr << "fuzzing seeds [" << seed_begin << ", " << seed_end
            << "), self_check="
            << (pinocchio::SelfCheckEnabled() ? "on" : "off")
            << ", simd_tier="
            << pinocchio::SimdTierName(pinocchio::ResolveSimdTier()) << "\n";
  const pinocchio::testing_diff::FuzzSummary summary =
      pinocchio::testing_diff::RunFuzzRange(seed_begin, seed_end, options,
                                            &std::cerr);
  std::cerr << "done: " << summary.cases_run << " cases"
            << (summary.interrupted ? " (interrupted)" : "") << ", "
            << summary.failures.size() << " failures\n";
  return summary.ok() ? 0 : 1;
}
