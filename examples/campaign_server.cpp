// Campaign daemon: a persistent multi-tenant attack-job service over a local
// socket (DESIGN.md §4h).
//
//   ./campaign_server --store /tmp/jobs --unix /tmp/sbm.sock
//   ./campaign_server --store /tmp/jobs --tcp 0 --workers 2
//
// Clients speak the newline-delimited JSON protocol of service/protocol.h
// (submit / status / result / cancel / list / metrics / shutdown); try
// examples/campaign_load.cpp for a multi-tenant load generator, or:
//
//   echo '{"verb":"submit","job":{"tenant":"t0","options":{"trials":4}}}' |
//     nc -U /tmp/sbm.sock
//
// Kill the daemon at any instant and restart it with the same --store: jobs
// that were queued or running are rescheduled and resume from their
// checkpoints, with final fingerprints identical to an uninterrupted run.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "campaign/campaign.h"
#include "common/json.h"
#include "count_arg.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "service/server.h"
#include "service/service.h"

namespace {

using namespace sbm;

volatile std::sig_atomic_t g_signal = 0;

void on_signal(int sig) { g_signal = sig; }

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --store DIR [--unix PATH] [--tcp PORT] [options]\n"
               "\n"
               "  --store DIR          job store directory (required)\n"
               "  --unix PATH          listen on a unix-domain socket at PATH\n"
               "  --tcp PORT           listen on 127.0.0.1:PORT (0 = ephemeral;\n"
               "                       the resolved port is printed on stdout)\n"
               "  --workers N          concurrent job slots (default 1)\n"
               "  --pool-threads N     shared trial pool size (default: hardware)\n"
               "  --tenant-cap N       per-tenant queue capacity (default 64)\n"
               "  --total-cap N        global queue capacity (default 1024)\n"
               "  --metrics            enable the obs metrics registry\n"
               "  --verbose            log job lifecycle events to stderr\n"
               "\n"
               "A restart with the same --store always reschedules the jobs that were\n"
               "queued or running; they resume from their checkpoints.\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  service::ServiceOptions svc_opt;
  service::ServerOptions srv_opt;
  bool metrics = false;
  bool tcp_set = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--store") {
      svc_opt.store_dir = next();
    } else if (arg == "--unix") {
      srv_opt.unix_path = next();
    } else if (arg == "--tcp") {
      srv_opt.tcp = true;
      cli::parse_count(arg, next(), srv_opt.tcp_port);
      tcp_set = true;
    } else if (arg == "--workers") {
      cli::parse_count(arg, next(), svc_opt.workers, campaign::kMaxThreads);
    } else if (arg == "--pool-threads") {
      cli::parse_count(arg, next(), svc_opt.pool_threads, campaign::kMaxThreads);
    } else if (arg == "--tenant-cap") {
      cli::parse_count(arg, next(), svc_opt.limits.per_tenant_capacity);
    } else if (arg == "--total-cap") {
      cli::parse_count(arg, next(), svc_opt.limits.total_capacity);
    } else if (arg == "--metrics") {
      metrics = true;
    } else if (arg == "--verbose") {
      svc_opt.verbose = true;
      srv_opt.verbose = true;
    } else {
      return usage(argv[0]);
    }
  }
  if (svc_opt.store_dir.empty()) return usage(argv[0]);
  if (srv_opt.unix_path.empty() && !tcp_set) {
    std::fprintf(stderr, "need --unix and/or --tcp\n");
    return usage(argv[0]);
  }
  if (metrics) obs::set_mode(obs::Mode::kMetrics);

  service::CampaignService service(svc_opt);
  service::SocketServer server(service, srv_opt);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "cannot start server: %s\n", error.c_str());
    return 1;
  }

  std::signal(SIGINT, on_signal);
  std::signal(SIGTERM, on_signal);

  {
    // One machine-readable line so scripts can find the endpoint (the
    // ephemeral TCP port in particular) and the resumed-job count.
    JsonWriter w;
    w.begin_object();
    w.field("listening", true);
    if (!srv_opt.unix_path.empty()) w.field("unix", srv_opt.unix_path);
    if (srv_opt.tcp) w.field("tcp_port", u64{server.tcp_port()});
    w.field("workers", svc_opt.workers)
        .field("resumed_jobs", service.stats().resumed_jobs)
        .field("queued", service.stats().queued);
    w.end_object();
    std::printf("%s\n", w.str().c_str());
    std::fflush(stdout);
  }

  // The reactor owns the sockets; this thread just waits for either a
  // client "shutdown" verb (reactor exits by itself) or a signal.
  while (g_signal == 0 && server.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }

  if (g_signal != 0) {
    // Signal: stop like a crash would — drop connections, interrupt running
    // jobs after their in-flight trials, leave everything resumable.
    std::fprintf(stderr, "signal %d: hard stop (jobs stay resumable)\n",
                 static_cast<int>(g_signal));
    server.stop();
    service.stop_hard();
  } else {
    server.wait();
    server.stop();
    if (server.shutdown_drain()) {
      service.drain();
    } else {
      service.stop_hard();
    }
  }

  const service::CampaignService::Stats stats = service.stats();
  JsonWriter w;
  w.begin_object();
  w.field("shutdown", server.shutdown_requested() ? "client" : "signal")
      .field("submitted", stats.submitted)
      .field("completed", stats.completed)
      .field("failed", stats.failed)
      .field("cancelled", stats.cancelled)
      .field("rejected", stats.rejected)
      .field("still_queued", stats.queued)
      .field("still_running", stats.running);
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
