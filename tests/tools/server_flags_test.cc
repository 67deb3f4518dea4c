// pinocchio_server refuses malformed and out-of-range operator flags: it
// exits 2 with a message naming the flag before it loads data or opens a
// socket, instead of aborting on a check, wrapping through a cast,
// listening on a truncated port or serving at a default. A dataset file it
// cannot load makes it exit 1, also before it listens.

#include <sys/wait.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "data/binary_io.h"
#include "data/checkin_dataset.h"

namespace {

// The sanitizers reserve terabytes of address space up front, so the
// server can run under an address-space cap only without them.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

struct ServerRun {
  int status = 0;
  std::string output;
};

// Runs the server at a small scale with `flags`, stdout and stderr merged.
// `timeout` turns a server that accepts its input and starts serving into
// a failed case instead of a hung one.
ServerRun RunServer(const std::string& flags, const std::string& prefix = "") {
  const std::string command = prefix + "timeout 20 " + PINOCCHIO_SERVER_BIN +
                              " --scale=0.02 --port=0 " + flags + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  if (pipe == nullptr) return {-1, "popen failed: " + command};
  ServerRun run;
  char buffer[256];
  while (const size_t n = fread(buffer, 1, sizeof(buffer), pipe)) {
    run.output.append(buffer, n);
  }
  run.status = pclose(pipe);
  return run;
}

struct ServerFlagRow {
  const char* name;
  const char* flag;
  const char* message;
};

class ServerOutOfRangeFlagTest
    : public ::testing::TestWithParam<ServerFlagRow> {};

TEST_P(ServerOutOfRangeFlagTest, ExitsTwoWithAMessage) {
  const ServerFlagRow& row = GetParam();
  const ServerRun run = RunServer(row.flag);
  ASSERT_TRUE(WIFEXITED(run.status)) << run.output;
  EXPECT_EQ(WEXITSTATUS(run.status), 2) << run.output;
  EXPECT_NE(run.output.find(row.message), std::string::npos) << run.output;
  EXPECT_EQ(run.output.find("listening"), std::string::npos) << run.output;
}

// A .pino whose venue count claims 2^32 - 1 venues (64 GiB) exits 1 with
// "failed to load" instead of aborting on bad_alloc. Without a sanitizer
// the server runs under a 4 GiB address-space cap, so a loader that sizes
// its arrays from the count fails fast instead of paging memory in.
TEST(ServerDatasetTest, CorruptedVenueCountExitsOne) {
  pinocchio::DatasetSpec spec;
  spec.name = "corrupt";
  spec.num_users = 4;
  spec.num_venues = 6;
  spec.target_checkins = 24;
  spec.min_checkins_per_user = 2;
  spec.max_checkins_per_user = 10;
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  pinocchio::SaveDatasetBinary(pinocchio::GenerateCheckinDataset(spec),
                               buffer);
  std::string bytes = buffer.str();
  // The venue count follows the magic, version, name and five spec fields.
  const uint64_t count = (uint64_t{1} << 32) - 1;
  std::memcpy(bytes.data() + 8 + 4 + 4 + spec.name.size() + 5 * 8, &count,
              sizeof(count));
  const std::string path =
      ::testing::TempDir() + "/server_flags_test_corrupt_venues.pino";
  std::ofstream(path, std::ios::binary) << bytes;

  const ServerRun run = RunServer(
      "--in=" + path, kSanitized ? "" : "ulimit -v 4194304 && exec ");
  ASSERT_TRUE(WIFEXITED(run.status)) << run.output;
  EXPECT_EQ(WEXITSTATUS(run.status), 1) << run.output;
  EXPECT_NE(run.output.find("failed to load"), std::string::npos)
      << run.output;
  EXPECT_EQ(run.output.find("listening"), std::string::npos) << run.output;
}

INSTANTIATE_TEST_SUITE_P(
    Flags, ServerOutOfRangeFlagTest,
    ::testing::Values(
        ServerFlagRow{"workers_m1", "--workers=-1", "--workers must be >= 0"},
        ServerFlagRow{"rho_0", "--rho=0", "--rho must be in (0, 1]"},
        ServerFlagRow{"lambda_m1", "--lambda=-1", "--lambda must be > 0"},
        ServerFlagRow{"unit_km_m1", "--unit-km=-1", "--unit-km must be > 0"},
        ServerFlagRow{"port_70000", "--port=70000",
                      "--port must be <= 65535"},
        ServerFlagRow{"port_m1", "--port=-1", "--port must be >= 0"},
        ServerFlagRow{"candidates_m3", "--candidates=-3",
                      "--candidates must be >= 1"},
        ServerFlagRow{"candidates_0", "--candidates=0",
                      "--candidates must be >= 1"},
        ServerFlagRow{"solve_threads_m1", "--solve_threads=-1",
                      "--solve_threads must be >= 0"},
        ServerFlagRow{"solve_threads_257", "--solve_threads=257",
                      "--solve_threads must be <= 256"},
        ServerFlagRow{"solve_threads_1000000", "--solve_threads=1000000",
                      "--solve_threads must be <= 256"},
        ServerFlagRow{"topk_limit_m1", "--topk-limit=-1",
                      "--topk-limit must be >= 1"},
        ServerFlagRow{"topk_limit_0", "--topk-limit=0",
                      "--topk-limit must be >= 1"},
        ServerFlagRow{"tau_nan", "--tau=nan", "--tau must be a finite number"},
        ServerFlagRow{"scale_nan", "--scale=nan",
                      "--scale must be a finite number"},
        ServerFlagRow{"stream_window_nan", "--stream-window=nan",
                      "--stream-window must be a finite number"},
        ServerFlagRow{"tau_abc", "--tau=abc",
                      "--tau must be a finite number"}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
