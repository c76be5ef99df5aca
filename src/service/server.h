// Socket front-end of the campaign daemon (DESIGN.md §4h): newline-delimited
// JSON requests (service/protocol.h) over a Unix-domain socket and/or local
// TCP, served by one poll()-based reactor thread.
//
// Why a reactor and not thread-per-connection: the load profile is thousands
// of mostly-idle submitters, each waiting on a one-line response — threads
// would spend their stacks on blocked reads.  One thread multiplexing
// non-blocking sockets handles the whole fleet; the actual campaign work
// happens on the CampaignService's workers, never on the reactor (every verb
// is a bounded-time state lookup or queue operation).
//
// The reactor owns sockets only.  Service lifecycle stays with the caller:
// a "shutdown" verb is answered, flushed, and then the reactor exits; the
// embedding main() observes shutdown_requested()/shutdown_drain() after
// wait() and calls CampaignService::drain() or stop_hard() itself.
#pragma once

#include <atomic>
#include <map>
#include <string>
#include <thread>

#include "service/service.h"

namespace sbm::service {

struct ServerOptions {
  /// Unix-domain socket path; empty = no unix listener.  An existing socket
  /// file at the path is replaced.
  std::string unix_path;
  /// Also (or instead) listen on 127.0.0.1:tcp_port.
  bool tcp = false;
  /// 0 = ephemeral; the bound port is readable via tcp_port() after start().
  u16 tcp_port = 0;
  /// Requests longer than this are answered 400 and the connection dropped.
  size_t max_line = 1 << 20;
  bool verbose = false;
};

class SocketServer {
 public:
  SocketServer(CampaignService& service, ServerOptions options);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds the listeners and spawns the reactor thread.  False + *error on
  /// bind failure (nothing is left running).
  bool start(std::string* error);
  /// Blocks until the reactor exits — after a client's "shutdown" verb or a
  /// local stop().
  void wait();
  /// Asks the reactor to exit and joins it.  Open connections are dropped.
  void stop();

  /// True while the reactor thread is serving (false once it has exited,
  /// e.g. after a client's "shutdown" verb).
  bool running() const { return running_.load(); }

  /// Resolved TCP port (valid after start() when options.tcp).
  u16 tcp_port() const { return tcp_port_; }
  const std::string& unix_path() const { return options_.unix_path; }

  /// True once a client issued "shutdown"; drain tells the embedder whether
  /// to CampaignService::drain() (true) or stop_hard() (false).
  bool shutdown_requested() const { return shutdown_requested_.load(); }
  bool shutdown_drain() const { return shutdown_drain_.load(); }

 private:
  struct Conn {
    std::string in;
    std::string out;
    bool closing = false;  // flush out, then close
  };

  void reactor();
  /// Dispatches one request line; returns the response line (no newline).
  std::string handle_line(std::string_view line);
  void close_all();

  CampaignService& service_;
  const ServerOptions options_;

  int unix_fd_ = -1;
  int tcp_fd_ = -1;
  int wake_read_ = -1;   // self-pipe: stop() wakes the poll loop
  int wake_write_ = -1;
  u16 tcp_port_ = 0;

  std::map<int, Conn> conns_;
  std::thread reactor_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stop_requested_{false};
  std::atomic<bool> shutdown_requested_{false};
  std::atomic<bool> shutdown_drain_{true};
};

}  // namespace sbm::service
