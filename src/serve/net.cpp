#include "serve/net.hpp"

#include <arpa/inet.h>
#include <cerrno>
#include <csignal>
#include <condition_variable>
#include <cstring>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "support/assert.hpp"
#include "support/ordered_mutex.hpp"

namespace bm::serve {

namespace {

void close_quiet(int fd) {
  if (fd >= 0) ::close(fd);
}

int make_uds_listener(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  BM_REQUIRE(fd >= 0, "socket(AF_UNIX): " + errno_string(errno));
  ::unlink(path.c_str());  // stale socket from a previous run
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  BM_REQUIRE(path.size() < sizeof(addr.sun_path), "socket path too long");
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string err = errno_string(errno);
    close_quiet(fd);
    throw Error("bind(" + path + "): " + err);
  }
  if (::listen(fd, 64) != 0) {
    const std::string err = errno_string(errno);
    close_quiet(fd);
    throw Error("listen(" + path + "): " + err);
  }
  return fd;
}

int make_tcp_listener(int port, int& bound_port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  BM_REQUIRE(fd >= 0, "socket(AF_INET): " + errno_string(errno));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // loopback only
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    const std::string err = errno_string(errno);
    close_quiet(fd);
    throw Error("tcp bind/listen on port " + std::to_string(port) + ": " +
                err);
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len);
  bound_port = ntohs(bound.sin_port);
  return fd;
}

/// Per-connection state shared with in-flight response callbacks. The
/// connection thread only closes the fd after `outstanding` drops to zero,
/// so a callback never writes to a dead descriptor.
struct ConnState {
  int fd = -1;
  /// Serializes response frames. Ordered before `mu`: the response path
  /// may finish a frame write and then bump the outstanding count down.
  OrderedMutex write_mu{LockLevel::kConnWrite, "ConnState.write_mu"};

  OrderedMutex mu{LockLevel::kConnState, "ConnState.mu"};
  std::condition_variable_any cv;
  std::size_t outstanding = 0;
  bool write_failed = false;

  void begin_request() {
    OrderedLock lock(mu);
    ++outstanding;
  }
  void end_request() {
    OrderedLock lock(mu);
    --outstanding;
    if (outstanding == 0) cv.notify_all();
  }
  void wait_quiesced() {
    OrderedLock lock(mu);
    cv.wait(lock, [this] { return outstanding == 0; });
  }
};

}  // namespace

struct Server::Impl {
  NetConfig cfg;
  int uds_fd = -1;
  int tcp_fd = -1;
  int stop_pipe[2] = {-1, -1};

  OrderedMutex conn_mu{LockLevel::kServerConns, "Server.conn_mu"};
  std::vector<std::shared_ptr<ConnState>> conns;
  std::vector<std::thread> conn_threads;

  ServeCore* core = nullptr;

  void serve_connection(const std::shared_ptr<ConnState>& conn) {
    std::vector<CancelToken> tokens;
    for (;;) {
      std::optional<std::string> payload;
      try {
        payload = read_frame(conn->fd);
      } catch (const std::exception&) {
        break;  // truncated frame / reset: treat as disconnect
      }
      if (!payload) break;  // clean EOF

      Request req;
      try {
        req = decode_request(*payload);
      } catch (const std::exception& e) {
        Response resp;
        resp.status = Status::kError;
        resp.error = client_error_text(e);
        OrderedLock lock(conn->write_mu);
        if (!write_frame(conn->fd, encode_response(resp))) break;
        continue;
      }

      conn->begin_request();
      CancelToken token = core->submit(std::move(req), [conn](
                                                          const Response& r) {
        {
          OrderedLock lock(conn->write_mu);
          if (!conn->write_failed &&
              !write_frame(conn->fd, encode_response(r)))
            conn->write_failed = true;
        }
        conn->end_request();
      });
      tokens.push_back(std::move(token));
    }

    // Disconnect: whatever is still queued for this connection is torn up;
    // running requests finish and their responses are written (harmlessly
    // failing if the peer is truly gone) before the fd closes.
    for (CancelToken& t : tokens) t.cancel();
    conn->wait_quiesced();
    // conn_mu also guards the drain path's shutdown(fd) against this close
    // recycling the descriptor number under it.
    OrderedLock lock(conn_mu);
    ::shutdown(conn->fd, SHUT_RDWR);
    close_quiet(conn->fd);
    conn->fd = -1;
  }
};

Server::Server(NetConfig cfg) : impl_(std::make_unique<Impl>()) {
  // A peer vanishing mid-response must surface as a write error on that
  // connection, not a process-wide SIGPIPE.
  ::signal(SIGPIPE, SIG_IGN);
  impl_->cfg = std::move(cfg);
  core_ = std::make_unique<ServeCore>(impl_->cfg.core);
  impl_->core = core_.get();

  BM_REQUIRE(::pipe(impl_->stop_pipe) == 0, "pipe: " + errno_string(errno));
  // Self-pipe hygiene: never leak into exec'd children, and never let the
  // event loop block on the pipe itself — commands arrive via poll(), and
  // a full pipe on the write side just means a wakeup is already pending.
  for (const int fd : impl_->stop_pipe) {
    ::fcntl(fd, F_SETFD, FD_CLOEXEC);
    ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  }
  if (!impl_->cfg.uds_path.empty())
    impl_->uds_fd = make_uds_listener(impl_->cfg.uds_path);
  if (impl_->cfg.tcp_port >= 0)
    impl_->tcp_fd = make_tcp_listener(impl_->cfg.tcp_port, tcp_port_);
  BM_REQUIRE(impl_->uds_fd >= 0 || impl_->tcp_fd >= 0,
             "server needs at least one listener (socket path or port)");
}

Server::~Server() {
  close_quiet(impl_->uds_fd);
  close_quiet(impl_->tcp_fd);
  close_quiet(impl_->stop_pipe[0]);
  close_quiet(impl_->stop_pipe[1]);
  if (!impl_->cfg.uds_path.empty()) ::unlink(impl_->cfg.uds_path.c_str());
}

void Server::request_stop() {
  const char byte = 's';
  [[maybe_unused]] ssize_t n = ::write(impl_->stop_pipe[1], &byte, 1);
}

void Server::request_dump() {
  const char byte = 'd';
  [[maybe_unused]] ssize_t n = ::write(impl_->stop_pipe[1], &byte, 1);
}

void Server::run() {
  for (;;) {
    pollfd fds[3];
    nfds_t nfds = 0;
    fds[nfds++] = {impl_->stop_pipe[0], POLLIN, 0};
    if (impl_->uds_fd >= 0) fds[nfds++] = {impl_->uds_fd, POLLIN, 0};
    if (impl_->tcp_fd >= 0) fds[nfds++] = {impl_->tcp_fd, POLLIN, 0};

    const int rc = ::poll(fds, nfds, -1);
    if (rc < 0) {
      if (errno == EINTR) continue;
      throw Error("poll: " + errno_string(errno));
    }
    if (fds[0].revents & POLLIN) {
      // One command byte per wakeup: 's' = graceful stop, 'd' = dump the
      // stats snapshot to stderr (the SIGUSR1 path) and keep serving. A
      // signal landing between poll() and read() must not be mistaken for
      // a stop command: retry on EINTR, and treat a drained pipe (EAGAIN —
      // another wakeup already consumed the byte) as a no-op. Only a dead
      // pipe degrades to stop.
      char cmd = 0;
      for (;;) {
        const ssize_t n = ::read(impl_->stop_pipe[0], &cmd, 1);
        if (n == 1) break;
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
          cmd = 0;
          break;
        }
        cmd = 's';  // EOF or hard error: the pipe is gone, shut down
        break;
      }
      if (cmd == 0) continue;
      if (cmd == 's') break;
      if (cmd == 'd') {
        const std::string snap = core_->stats_json() + "\n";
        [[maybe_unused]] ssize_t n =
            ::write(STDERR_FILENO, snap.data(), snap.size());
      }
      continue;
    }

    for (nfds_t i = 1; i < nfds; ++i) {
      if (!(fds[i].revents & POLLIN)) continue;
      const int client = ::accept(fds[i].fd, nullptr, nullptr);
      if (client < 0) continue;  // transient accept failure
      auto conn = std::make_shared<ConnState>();
      conn->fd = client;
      OrderedLock lock(impl_->conn_mu);
      impl_->conns.push_back(conn);
      impl_->conn_threads.emplace_back(
          [impl = impl_.get(), conn] { impl->serve_connection(conn); });
    }
  }

  // Graceful drain: stop accepting (listeners stay bound but unpolled),
  // complete every admitted request — responses reach their connections
  // because connection teardown waits for its outstanding count — then
  // unblock the reader threads and join them.
  core_->drain();
  {
    OrderedLock lock(impl_->conn_mu);
    for (const auto& conn : impl_->conns)
      if (conn->fd >= 0) ::shutdown(conn->fd, SHUT_RD);
  }
  for (std::thread& t : impl_->conn_threads) t.join();
  impl_->conn_threads.clear();
  impl_->conns.clear();
}

}  // namespace bm::serve
