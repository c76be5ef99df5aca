#include "service/client.h"

#include <errno.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>
#include <utility>

namespace sbm::service {

namespace {

void set_error(std::string* error, const char* what) {
  if (error != nullptr) *error = std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept : fd_(other.fd_), buf_(std::move(other.buf_)) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = std::exchange(other.fd_, -1);
    buf_ = std::move(other.buf_);
  }
  return *this;
}

void Client::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buf_.clear();
}

bool Client::connect_unix(const std::string& path, std::string* error) {
  close();
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) *error = "unix path too long";
    return false;
  }
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) {
    set_error(error, "socket");
    return false;
  }
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    set_error(error, "connect");
    close();
    return false;
  }
  return true;
}

bool Client::connect_tcp(u16 port, std::string* error) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    set_error(error, "socket");
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    set_error(error, "connect");
    close();
    return false;
  }
  return true;
}

bool Client::send_line(const std::string& line) {
  std::string framed = line;
  framed += '\n';
  size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(n);
  }
  return true;
}

std::optional<std::string> Client::read_line() {
  char chunk[4096];
  for (;;) {
    const size_t nl = buf_.find('\n');
    if (nl != std::string::npos) {
      std::string line = buf_.substr(0, nl);
      buf_.erase(0, nl + 1);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n > 0) {
      buf_.append(chunk, static_cast<size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return std::nullopt;  // EOF or hard error mid-line
  }
}

std::optional<JsonValue> Client::request_raw(const std::string& line) {
  if (fd_ < 0 || !send_line(line)) {
    close();
    return std::nullopt;
  }
  const std::optional<std::string> response = read_line();
  if (!response) {
    close();
    return std::nullopt;
  }
  return parse_json(*response);
}

std::optional<JsonValue> Client::request(const Request& req) {
  return request_raw(request_to_json(req));
}

std::optional<std::string> Client::submit(const JobSpec& spec, int* code, std::string* error,
                                          size_t* retry_after_ms) {
  Request req;
  req.verb = Verb::kSubmit;
  req.spec = spec;
  const std::optional<JsonValue> resp = request(req);
  if (!resp || !resp->is_object()) {
    if (code != nullptr) *code = 0;
    if (error != nullptr) *error = "transport";
    return std::nullopt;
  }
  if (const JsonValue* ok = resp->find("ok"); ok != nullptr && ok->as_bool()) {
    const JsonValue* id = resp->find("id");
    if (id != nullptr) return id->as_string();
  }
  if (code != nullptr) {
    const JsonValue* c = resp->find("code");
    *code = c == nullptr ? 0 : static_cast<int>(c->as_u64());
  }
  if (error != nullptr) {
    const JsonValue* e = resp->find("error");
    *error = e == nullptr ? "" : e->as_string();
  }
  if (retry_after_ms != nullptr) {
    const JsonValue* r = resp->find("retry_after_ms");
    *retry_after_ms = r == nullptr ? 0 : static_cast<size_t>(r->as_u64());
  }
  return std::nullopt;
}

std::optional<std::string> Client::wait_done(const std::string& id, size_t poll_ms) {
  Request req;
  req.verb = Verb::kStatus;
  req.job_id = id;
  for (;;) {
    const std::optional<JsonValue> resp = request(req);
    if (!resp || !resp->is_object()) return std::nullopt;
    const JsonValue* ok = resp->find("ok");
    if (ok == nullptr || !ok->as_bool()) return std::nullopt;
    const JsonValue* job = resp->find("job");
    const JsonValue* state = job == nullptr ? nullptr : job->find("state");
    if (state == nullptr) return std::nullopt;
    const std::optional<JobState> s = job_state_from_string(state->as_string());
    if (!s) return std::nullopt;
    if (is_terminal(*s)) return state->as_string();
    std::this_thread::sleep_for(std::chrono::milliseconds(poll_ms));
  }
}

}  // namespace sbm::service
