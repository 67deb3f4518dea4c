// End-to-end socket tests: a real TcpServer on an ephemeral port, real
// BlockingClients over loopback. Verifies the full path (connect → frame
// → decode → Execute → encode → frame → decode), server-side rejection
// of malformed frames, concurrent connections, and graceful Stop() with
// clients attached.

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "serve/client.h"
#include "serve/server.h"
#include "serve/service.h"
#include "serve/socket_io.h"
#include "testing/instance_helpers.h"

namespace pinocchio {
namespace serve {
namespace {

using testing_helpers::DefaultConfig;
using testing_helpers::InstanceOptions;
using testing_helpers::RandomInstance;

InstanceOptions SmallInstance() {
  InstanceOptions options;
  options.num_objects = 10;
  options.num_candidates = 6;
  options.max_positions = 5;
  return options;
}

class ServerSocketTest : public ::testing::Test {
 protected:
  void SetUp() override {
    service_ = std::make_unique<InfluenceService>(
        RandomInstance(31, SmallInstance()), DefaultConfig());
    ServerOptions options;
    options.port = 0;  // ephemeral
    options.num_workers = 2;
    server_ = std::make_unique<TcpServer>(service_.get(), options);
    ASSERT_TRUE(server_->Start());
    ASSERT_NE(server_->port(), 0);
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  std::unique_ptr<InfluenceService> service_;
  std::unique_ptr<TcpServer> server_;
};

TEST_F(ServerSocketTest, SolveOverLoopbackMatchesDirectExecute) {
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()));

  Request request;
  request.type = RequestType::kSolve;
  request.solve.top_k = 3;
  std::string error;
  const auto over_wire = client.Call(request, &error);
  ASSERT_TRUE(over_wire.has_value()) << error;
  ASSERT_EQ(over_wire->type, ResponseType::kSolve);

  const Response direct = service_->Execute(request);
  EXPECT_EQ(over_wire->solve.epoch, direct.solve.epoch);
  EXPECT_EQ(over_wire->solve.best_candidate, direct.solve.best_candidate);
  EXPECT_EQ(over_wire->solve.best_influence, direct.solve.best_influence);
  ASSERT_EQ(over_wire->solve.topk.size(), direct.solve.topk.size());
  for (size_t i = 0; i < direct.solve.topk.size(); ++i) {
    EXPECT_EQ(over_wire->solve.topk[i].candidate,
              direct.solve.topk[i].candidate);
    EXPECT_EQ(over_wire->solve.topk[i].influence,
              direct.solve.topk[i].influence);
  }
}

TEST_F(ServerSocketTest, MultipleRequestsOnOneConnection) {
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()));
  for (int round = 0; round < 5; ++round) {
    Request request;
    request.type = RequestType::kStats;
    const auto response = client.Call(request);
    ASSERT_TRUE(response.has_value());
    ASSERT_EQ(response->type, ResponseType::kStats);
  }
  // All five stats requests (plus nothing else) were served.
  Request stats;
  stats.type = RequestType::kStats;
  const auto response = client.Call(stats);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->stats.stats_requests, 6u);
}

TEST_F(ServerSocketTest, ConcurrentClientsAllGetAnswers) {
  constexpr size_t kClients = 4;
  std::vector<std::thread> threads;
  std::atomic<uint64_t> failures{0};
  const uint16_t port = server_->port();
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([port, &failures] {
      BlockingClient client;
      if (!client.Connect("127.0.0.1", port)) {
        failures.fetch_add(1);
        return;
      }
      for (int round = 0; round < 8; ++round) {
        Request request;
        request.type = RequestType::kProbe;
        request.probe.location = Point{1000.0 * round, 500.0 * round};
        const auto response = client.Call(request);
        if (!response.has_value() ||
            response->type != ResponseType::kProbe) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GE(server_->connections_accepted(), kClients);
}

TEST_F(ServerSocketTest, SemanticErrorKeepsConnectionAlive) {
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()));

  Request bad;
  bad.type = RequestType::kUpdate;  // empty update: semantic error
  const auto response = client.Call(bad);
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->type, ResponseType::kError);
  EXPECT_EQ(response->error.code, ErrorCode::kBadRequest);

  // The connection survives a semantic error (only framing/decode
  // errors drop it).
  Request stats;
  stats.type = RequestType::kStats;
  EXPECT_TRUE(client.Call(stats).has_value());
}

TEST_F(ServerSocketTest, UndecodableFrameGetsErrorThenDisconnect) {
  const int fd =
      ConnectWithRetry("127.0.0.1", server_->port(), /*timeout_seconds=*/5.0);
  ASSERT_GE(fd, 0);

  // Well-framed but undecodable: bad version byte. The server answers
  // with a typed kError response and then drops the connection (framing
  // may be out of sync after a decode failure).
  const uint8_t frame[] = {2, 0, 0, 0, 0xEE,
                           static_cast<uint8_t>(RequestType::kStats)};
  ASSERT_TRUE(SendAll(fd, frame));

  FrameAssembler assembler;
  std::vector<uint8_t> body;
  ASSERT_EQ(ReceiveFrame(fd, &assembler, &body), RecvStatus::kFrame);
  const auto response = DecodeResponse(body);
  ASSERT_TRUE(response.has_value());
  ASSERT_EQ(response->type, ResponseType::kError);
  EXPECT_EQ(response->error.code, ErrorCode::kBadRequest);

  // The server closes after the error response.
  EXPECT_EQ(ReceiveFrame(fd, &assembler, &body), RecvStatus::kClosed);
  ::close(fd);
}

TEST_F(ServerSocketTest, OversizedLengthPrefixDropsConnection) {
  const int fd =
      ConnectWithRetry("127.0.0.1", server_->port(), /*timeout_seconds=*/5.0);
  ASSERT_GE(fd, 0);

  // A length prefix above kMaxFrameBody poisons the server-side
  // assembler; the server sends a kBadFrame error and disconnects.
  const uint32_t huge = kMaxFrameBody + 1;
  uint8_t prefix[4];
  std::memcpy(prefix, &huge, sizeof(huge));
  ASSERT_TRUE(SendAll(fd, prefix));

  FrameAssembler assembler;
  std::vector<uint8_t> body;
  const RecvStatus status = ReceiveFrame(fd, &assembler, &body);
  if (status == RecvStatus::kFrame) {
    const auto response = DecodeResponse(body);
    ASSERT_TRUE(response.has_value());
    EXPECT_EQ(response->type, ResponseType::kError);
    EXPECT_EQ(response->error.code, ErrorCode::kBadFrame);
    EXPECT_EQ(ReceiveFrame(fd, &assembler, &body), RecvStatus::kClosed);
  } else {
    // Acceptable alternative: the server dropped the connection without
    // a response (e.g. the error write raced the close).
    EXPECT_EQ(status, RecvStatus::kClosed);
  }
  ::close(fd);
}

TEST_F(ServerSocketTest, UpdateOverWireSwapsSnapshot) {
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()));

  Request update;
  update.type = RequestType::kUpdate;
  UpdateObject object;
  object.object_id = 777;
  object.positions = {{100.0, 100.0}, {200.0, 200.0}};
  update.update.objects.push_back(object);
  const auto accepted = client.Call(update);
  ASSERT_TRUE(accepted.has_value());
  ASSERT_EQ(accepted->type, ResponseType::kUpdate);
  EXPECT_TRUE(accepted->update.accepted);

  service_->DrainUpdates();
  Request stats;
  stats.type = RequestType::kStats;
  const auto response = client.Call(stats);
  ASSERT_TRUE(response.has_value());
  EXPECT_EQ(response->stats.epoch, 2u);
  EXPECT_EQ(response->stats.num_objects, 11u);
}

TEST_F(ServerSocketTest, GracefulStopWithConnectedClient) {
  BlockingClient client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server_->port()));
  Request request;
  request.type = RequestType::kStats;
  ASSERT_TRUE(client.Call(request).has_value());

  server_->Stop();  // client still connected

  // After Stop() the connection is closed; the next call fails as a
  // transport error rather than hanging.
  std::string error;
  EXPECT_FALSE(client.Call(request, &error).has_value());

  // Stop() is idempotent.
  server_->Stop();
}

// Entries of /proc/self/fd: the process's open descriptors.
size_t OpenFdCount() {
  size_t count = 0;
  for ([[maybe_unused]] const auto& entry :
       std::filesystem::directory_iterator("/proc/self/fd")) {
    ++count;
  }
  return count;
}

TEST(ServerSocketStandaloneTest, StartFailsOnOccupiedPort) {
  InfluenceService service(RandomInstance(32, SmallInstance()),
                           DefaultConfig());
  ServerOptions options;
  options.port = 0;
  options.num_workers = 1;
  TcpServer first(&service, options);
  ASSERT_TRUE(first.Start());

  // A failed Start leaves no descriptor open once its server is gone.
  const size_t before = OpenFdCount();
  {
    ServerOptions clash = options;
    clash.port = first.port();
    TcpServer second(&service, clash);
    EXPECT_FALSE(second.Start());
  }
  EXPECT_EQ(OpenFdCount(), before);
  first.Stop();
}

// An address that does not parse: Start fails after pipe2 and socket.
ServerOptions BadAddressOptions() {
  return {.port = 0, .num_workers = 1, .bind_address = "not-an-address"};
}

TEST(ServerSocketStandaloneTest, StartFailsOnBadBindAddress) {
  InfluenceService service(RandomInstance(33, SmallInstance()),
                           DefaultConfig());
  const size_t before = OpenFdCount();
  EXPECT_FALSE(TcpServer(&service, BadAddressOptions()).Start());
  EXPECT_EQ(OpenFdCount(), before);
}

// Destroying a server whose Start failed closes no descriptor opened after
// the failure, though such a descriptor may reuse a number Start freed.
TEST(ServerSocketStandaloneTest, FailedStartLeavesLaterDescriptorsOpen) {
  InfluenceService service(RandomInstance(34, SmallInstance()),
                           DefaultConfig());
  int later[2] = {-1, -1};
  {
    TcpServer server(&service, BadAddressOptions());
    ASSERT_FALSE(server.Start());
    ASSERT_EQ(::pipe(later), 0);
  }
  for (int fd : later) {
    EXPECT_NE(::fcntl(fd, F_GETFD), -1) << "fd " << fd;
    ::close(fd);
  }
}

}  // namespace
}  // namespace serve
}  // namespace pinocchio
