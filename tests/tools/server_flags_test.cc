// pinocchio_server refuses malformed and out-of-range operator flags: it
// exits 2 with a message naming the flag before it loads data or opens a
// socket, instead of aborting on a check, wrapping through a cast,
// listening on a truncated port or serving at a default.

#include <sys/wait.h>

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

namespace {

struct ServerFlagRow {
  const char* name;
  const char* flag;
  const char* message;
};

class ServerOutOfRangeFlagTest
    : public ::testing::TestWithParam<ServerFlagRow> {};

TEST_P(ServerOutOfRangeFlagTest, ExitsTwoWithAMessage) {
  const ServerFlagRow& row = GetParam();
  // `timeout` turns a server that accepts the flag and starts serving into
  // a failed case instead of a hung one.
  const std::string command = std::string("timeout 20 ") +
                              PINOCCHIO_SERVER_BIN +
                              " --scale=0.02 --port=0 " + row.flag + " 2>&1";
  FILE* pipe = popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr);
  std::string output;
  char buffer[256];
  while (const size_t n = fread(buffer, 1, sizeof(buffer), pipe)) {
    output.append(buffer, n);
  }
  const int status = pclose(pipe);
  ASSERT_TRUE(WIFEXITED(status)) << output;
  EXPECT_EQ(WEXITSTATUS(status), 2) << output;
  EXPECT_NE(output.find(row.message), std::string::npos) << output;
  EXPECT_EQ(output.find("listening"), std::string::npos) << output;
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
