#include "service/server.h"

#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <vector>

#include "common/json.h"
#include "service/protocol.h"

namespace sbm::service {

namespace {

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

SocketServer::SocketServer(CampaignService& service, ServerOptions options)
    : service_(service), options_(std::move(options)) {}

SocketServer::~SocketServer() { stop(); }

bool SocketServer::start(std::string* error) {
  auto fail = [&](const char* what) {
    if (error != nullptr) *error = std::string(what) + ": " + std::strerror(errno);
    close_all();
    return false;
  };

  int wake[2];
  if (::pipe(wake) != 0) return fail("pipe");
  wake_read_ = wake[0];
  wake_write_ = wake[1];
  set_nonblocking(wake_read_);

  if (!options_.unix_path.empty()) {
    sockaddr_un addr{};
    if (options_.unix_path.size() >= sizeof(addr.sun_path)) {
      if (error != nullptr) *error = "unix path too long";
      close_all();
      return false;
    }
    unix_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (unix_fd_ < 0) return fail("socket(unix)");
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, options_.unix_path.c_str(), sizeof(addr.sun_path) - 1);
    ::unlink(options_.unix_path.c_str());  // replace a stale socket file
    if (::bind(unix_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return fail("bind(unix)");
    }
    if (::listen(unix_fd_, 512) != 0) return fail("listen(unix)");
    set_nonblocking(unix_fd_);
  }

  if (options_.tcp) {
    tcp_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (tcp_fd_ < 0) return fail("socket(tcp)");
    const int one = 1;
    ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // local clients only
    addr.sin_port = htons(options_.tcp_port);
    if (::bind(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      return fail("bind(tcp)");
    }
    if (::listen(tcp_fd_, 512) != 0) return fail("listen(tcp)");
    set_nonblocking(tcp_fd_);
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    ::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
    tcp_port_ = ntohs(bound.sin_port);
  }

  if (unix_fd_ < 0 && tcp_fd_ < 0) {
    if (error != nullptr) *error = "no listener configured";
    close_all();
    return false;
  }

  running_.store(true);
  reactor_ = std::thread([this] { reactor(); });
  return true;
}

void SocketServer::wait() {
  if (reactor_.joinable()) reactor_.join();
}

void SocketServer::stop() {
  stop_requested_.store(true);
  if (wake_write_ >= 0) {
    const char b = 'x';
    [[maybe_unused]] const ssize_t n = ::write(wake_write_, &b, 1);
  }
  wait();
  close_all();
}

void SocketServer::close_all() {
  for (auto& [fd, conn] : conns_) ::close(fd);
  conns_.clear();
  for (int* fd : {&unix_fd_, &tcp_fd_, &wake_read_, &wake_write_}) {
    if (*fd >= 0) {
      ::close(*fd);
      *fd = -1;
    }
  }
  if (!options_.unix_path.empty()) ::unlink(options_.unix_path.c_str());
}

std::string SocketServer::handle_line(std::string_view line) {
  std::string parse_error;
  const std::optional<Request> req = parse_request(line, &parse_error);
  if (!req) return error_response(400, parse_error, std::string());

  JsonWriter w;
  switch (req->verb) {
    case Verb::kSubmit: {
      const CampaignService::Submitted s = service_.submit(req->spec);
      if (!s.ok) {
        return error_response(Verb::kSubmit, s.code, s.error, req->request_id, s.retry_after_ms);
      }
      begin_response(w, Verb::kSubmit, true, req->request_id);
      w.field("id", s.id).field("queue_depth", s.queue_depth);
      w.end_object();
      return w.str();
    }
    case Verb::kStatus: {
      const std::optional<JobView> view = service_.status(req->job_id);
      if (!view) return error_response(Verb::kStatus, 404, "unknown_job", req->request_id);
      begin_response(w, Verb::kStatus, true, req->request_id);
      w.key("job");
      write_job_view(w, *view, /*include_metrics=*/true);
      w.end_object();
      return w.str();
    }
    case Verb::kResult: {
      if (!service_.status(req->job_id)) {
        return error_response(Verb::kResult, 404, "unknown_job", req->request_id);
      }
      const std::optional<std::string> report = service_.result_json(req->job_id);
      if (!report) return error_response(Verb::kResult, 409, "not_finished", req->request_id);
      begin_response(w, Verb::kResult, true, req->request_id);
      w.key("report").raw_value(*report);
      w.end_object();
      return w.str();
    }
    case Verb::kCancel: {
      const std::optional<JobState> state = service_.cancel(req->job_id);
      if (!state) return error_response(Verb::kCancel, 404, "unknown_job", req->request_id);
      if (*state == JobState::kDone || *state == JobState::kFailed ||
          *state == JobState::kDeadline) {
        return error_response(Verb::kCancel, 409, "already_finished", req->request_id);
      }
      begin_response(w, Verb::kCancel, true, req->request_id);
      w.field("state", std::string(to_string(*state)));
      w.end_object();
      return w.str();
    }
    case Verb::kList: {
      const std::vector<JobView> views = service_.list(req->tenant);
      begin_response(w, Verb::kList, true, req->request_id);
      w.field("count", views.size());
      w.key("jobs");
      w.begin_array();
      for (const JobView& v : views) write_job_view(w, v, /*include_metrics=*/false);
      w.end_array();
      w.end_object();
      return w.str();
    }
    case Verb::kMetrics: {
      begin_response(w, Verb::kMetrics, true, req->request_id);
      w.key("metrics").raw_value(service_.metrics_json());
      w.end_object();
      return w.str();
    }
    case Verb::kShutdown: {
      shutdown_drain_.store(req->drain);
      shutdown_requested_.store(true);
      begin_response(w, Verb::kShutdown, true, req->request_id);
      w.field("drain", req->drain);
      w.end_object();
      return w.str();
    }
  }
  return error_response(400, "unhandled_verb", req->request_id);
}

void SocketServer::reactor() {
  std::vector<pollfd> fds;
  char buf[4096];

  auto flush = [&](int fd, Conn& conn) {
    while (!conn.out.empty()) {
      const ssize_t n = ::send(fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
      if (n > 0) {
        conn.out.erase(0, static_cast<size_t>(n));
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      return false;  // peer gone
    }
    return true;
  };

  for (;;) {
    // Exit once asked — but after a shutdown verb, only when every response
    // byte (the shutdown ack in particular) has been flushed.
    if (stop_requested_.load()) break;
    if (shutdown_requested_.load()) {
      bool pending = false;
      for (auto& [fd, conn] : conns_) pending = pending || !conn.out.empty();
      if (!pending) break;
    }

    fds.clear();
    if (unix_fd_ >= 0) fds.push_back({unix_fd_, POLLIN, 0});
    if (tcp_fd_ >= 0) fds.push_back({tcp_fd_, POLLIN, 0});
    fds.push_back({wake_read_, POLLIN, 0});
    const size_t first_conn = fds.size();
    for (auto& [fd, conn] : conns_) {
      short events = POLLIN;
      if (!conn.out.empty()) events |= POLLOUT;
      fds.push_back({fd, events, 0});
    }

    const int rc = ::poll(fds.data(), fds.size(), 250);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0) continue;

    size_t idx = 0;
    auto accept_from = [&](int listen_fd) {
      for (;;) {
        const int cfd = ::accept(listen_fd, nullptr, nullptr);
        if (cfd < 0) return;  // EAGAIN or transient (EMFILE): try next round
        set_nonblocking(cfd);
        conns_.emplace(cfd, Conn{});
      }
    };
    if (unix_fd_ >= 0) {
      if ((fds[idx].revents & POLLIN) != 0) accept_from(unix_fd_);
      ++idx;
    }
    if (tcp_fd_ >= 0) {
      if ((fds[idx].revents & POLLIN) != 0) accept_from(tcp_fd_);
      ++idx;
    }
    if ((fds[idx].revents & POLLIN) != 0) {
      while (::read(wake_read_, buf, sizeof(buf)) > 0) {
      }
    }
    ++idx;

    std::vector<int> dead;
    for (size_t i = first_conn; i < fds.size(); ++i) {
      const int fd = fds[i].fd;
      const short revents = fds[i].revents;
      const auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      Conn& conn = it->second;
      bool alive = true;

      if ((revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        for (;;) {
          const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
          if (n > 0) {
            conn.in.append(buf, static_cast<size_t>(n));
            continue;
          }
          if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
          alive = false;  // EOF or hard error
          break;
        }
        size_t start = 0;
        for (;;) {
          const size_t nl = conn.in.find('\n', start);
          if (nl == std::string::npos) break;
          std::string_view line(conn.in.data() + start, nl - start);
          if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
          start = nl + 1;
          if (line.empty()) continue;
          if (line.size() > options_.max_line) {
            conn.out += error_response(400, "line_too_long", std::string());
            conn.out += '\n';
            conn.closing = true;
            break;
          }
          conn.out += handle_line(line);
          conn.out += '\n';
        }
        conn.in.erase(0, start);
        if (conn.in.size() > options_.max_line) {
          conn.out += error_response(400, "line_too_long", std::string());
          conn.out += '\n';
          conn.closing = true;
        }
      }

      if (alive) alive = flush(fd, conn);
      if (!alive || (conn.closing && conn.out.empty())) dead.push_back(fd);
    }
    for (const int fd : dead) {
      ::close(fd);
      conns_.erase(fd);
    }
  }

  for (auto& [fd, conn] : conns_) ::close(fd);
  conns_.clear();
  running_.store(false);
}

}  // namespace sbm::service
