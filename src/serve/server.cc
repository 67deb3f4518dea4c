#include "serve/server.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "serve/socket_io.h"
#include "util/logging.h"

namespace pinocchio {
namespace serve {
namespace {

void CloseIfOpen(int* fd) {
  if (*fd >= 0) {
    ::close(*fd);
    *fd = -1;
  }
}

}  // namespace

TcpServer::TcpServer(InfluenceService* service, const ServerOptions& options)
    : service_(service), options_(options) {
  PINO_CHECK(service_ != nullptr);
}

TcpServer::~TcpServer() { Stop(); }

bool TcpServer::Start() {
  PINO_CHECK(!started_.load()) << "Start() called twice";
  if (::pipe2(stop_pipe_, O_CLOEXEC | O_NONBLOCK) != 0) {
    PINO_LOG(ERROR) << "pipe2 failed: " << std::strerror(errno);
    return false;
  }
  // Stop() does nothing for a server that never started, so every later
  // failure closes what Start opened.
  const auto fail = [this] {
    CloseIfOpen(&listen_fd_);
    CloseIfOpen(&stop_pipe_[0]);
    CloseIfOpen(&stop_pipe_[1]);
    return false;
  };
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (listen_fd_ < 0) {
    PINO_LOG(ERROR) << "socket failed: " << std::strerror(errno);
    return fail();
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.bind_address, &addr.sin_addr) != 1) {
    PINO_LOG(ERROR) << "bad bind address " << options_.bind_address;
    return fail();
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    PINO_LOG(ERROR) << "bind to " << options_.bind_address << ":"
                    << options_.port << " failed: " << std::strerror(errno);
    return fail();
  }
  if (::listen(listen_fd_, 128) != 0) {
    PINO_LOG(ERROR) << "listen failed: " << std::strerror(errno);
    return fail();
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  size_t workers = options_.num_workers;
  if (workers == 0) {
    workers = std::max<size_t>(4, std::thread::hardware_concurrency());
  }
  started_.store(true);
  accept_thread_ = std::thread(&TcpServer::AcceptLoop, this);
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back(&TcpServer::WorkerLoop, this);
  }
  PINO_LOG(INFO) << "serving on " << options_.bind_address << ":" << port_
                 << " with " << workers << " workers";
  return true;
}

void TcpServer::Stop() {
  if (!started_.load()) return;
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) {
    // A concurrent/previous Stop() is already draining; wait for it by
    // joining below only from the thread that won the race.
    return;
  }
  // Wake every poll(): one byte is enough, the pipe stays readable.
  const uint8_t byte = 1;
  [[maybe_unused]] const ssize_t n = ::write(stop_pipe_[1], &byte, 1);
  if (accept_thread_.joinable()) accept_thread_.join();
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  // Connections that were queued but never picked up: close without
  // answering (their clients see EOF).
  for (int fd : pending_connections_) ::close(fd);
  pending_connections_.clear();
  CloseIfOpen(&listen_fd_);
  CloseIfOpen(&stop_pipe_[0]);
  CloseIfOpen(&stop_pipe_[1]);
  // Let queued object/candidate updates finish rebuilding so a restart
  // (or the final stats print) sees them applied.
  service_->DrainUpdates();
}

void TcpServer::AcceptLoop() {
  for (;;) {
    struct pollfd fds[2] = {{listen_fd_, POLLIN, 0},
                            {stop_pipe_[0], POLLIN, 0}};
    const int rc = ::poll(fds, 2, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      PINO_LOG(ERROR) << "accept poll failed: " << std::strerror(errno);
      return;
    }
    if (fds[1].revents != 0 || stopping_.load()) return;
    if ((fds[0].revents & POLLIN) == 0) continue;
    const int conn = ::accept4(listen_fd_, nullptr, nullptr, SOCK_CLOEXEC);
    if (conn < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      PINO_LOG(ERROR) << "accept failed: " << std::strerror(errno);
      return;
    }
    const int one = 1;
    ::setsockopt(conn, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    connections_accepted_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      pending_connections_.push_back(conn);
    }
    queue_cv_.notify_one();
  }
}

void TcpServer::WorkerLoop() {
  for (;;) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return stopping_.load() || !pending_connections_.empty();
      });
      if (stopping_.load()) return;
      fd = pending_connections_.front();
      pending_connections_.pop_front();
    }
    ServeConnection(fd);
    ::close(fd);
  }
}

void TcpServer::ServeConnection(int fd) {
  FrameAssembler assembler;
  std::vector<uint8_t> body;
  for (;;) {
    const RecvStatus status =
        ReceiveFrame(fd, &assembler, &body, stop_pipe_[0]);
    if (status == RecvStatus::kClosed || status == RecvStatus::kInterrupted) {
      // EOF, or a graceful stop between requests: nothing in flight.
      return;
    }
    if (status == RecvStatus::kError) {
      // Tell the peer what happened if the socket still accepts writes.
      Response error;
      error.type = ResponseType::kError;
      error.error.code = ErrorCode::kBadFrame;
      error.error.message = "malformed or oversized frame";
      SendAll(fd, EncodeResponse(error));
      return;
    }

    std::string decode_error;
    const std::optional<Request> request = DecodeRequest(body, &decode_error);
    Response response;
    if (!request.has_value()) {
      response.type = ResponseType::kError;
      response.error.code = ErrorCode::kBadRequest;
      response.error.message = decode_error;
    } else {
      response = service_->Execute(*request);
    }
    if (!SendAll(fd, EncodeResponse(response))) return;
    if (response.type == ResponseType::kError &&
        response.error.code == ErrorCode::kBadRequest &&
        !request.has_value()) {
      // Undecodable request: framing may be out of sync; drop the
      // connection rather than misinterpret subsequent bytes.
      return;
    }
  }
}

}  // namespace serve
}  // namespace pinocchio
