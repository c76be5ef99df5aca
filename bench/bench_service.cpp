// Campaign-service throughput and latency: an in-process daemon (service +
// poll-reactor server over a unix socket) driven by a fleet of client
// threads submitting synthetic jobs across multiple tenants.
//
// Two measurements, written to BENCH_service.json (no baseline is
// committed: they are raw walls); the job audit sets the exit code:
//
//   sustained — C clients x J jobs each (T tenants): sustained jobs/s from
//     submit to terminal state, submit/e2e latency percentiles, and the
//     lost/duplicated-job audit (both must be zero);
//   roundtrip — single-connection status round-trips against a finished
//     job: the protocol + reactor floor, req/s and percentiles.
//
// Synthetic jobs run the real orchestration, scheduling, checkpoint and
// job-store path — only the per-trial attack is a deterministic stand-in —
// so this bench moves when the daemon's machinery regresses, not when the
// attack pipeline does (bench_attack_e2e owns that).
//
// --smoke shrinks the fleet for the unconditional ctest entry.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "service/client.h"
#include "service/server.h"
#include "service/service.h"

namespace {

using namespace sbm;
using Clock = std::chrono::steady_clock;

bool g_smoke = false;

struct Daemon {
  service::CampaignService service;
  service::SocketServer server;

  Daemon(const std::string& store_dir, const std::string& sock, size_t workers)
      : service([&] {
          service::ServiceOptions opt;
          opt.store_dir = store_dir;
          opt.workers = workers;
          opt.pool_threads = 1;
          opt.limits.total_capacity = 4096;
          opt.limits.per_tenant_capacity = 2048;
          return opt;
        }()),
        server(service, [&] {
          service::ServerOptions opt;
          opt.unix_path = sock;
          return opt;
        }()) {
    std::string error;
    if (!server.start(&error)) {
      std::fprintf(stderr, "FATAL: server start failed: %s\n", error.c_str());
      std::exit(1);
    }
  }

  ~Daemon() {
    server.stop();
    service.stop_hard();
  }
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx = std::min(v.size() - 1, static_cast<size_t>(p * (v.size() - 1) + 0.5));
  return v[idx];
}

std::string scratch_dir(const char* leaf) {
  const char* base = std::getenv("TMPDIR");
  std::string dir = (base != nullptr && *base != '\0') ? base : "/tmp";
  dir += "/";
  dir += leaf;
  dir += "-";
  dir += std::to_string(static_cast<unsigned long>(::getpid()));
  return dir;
}

struct SustainedResult {
  double wall_seconds = 0;
  double jobs_per_s = 0;
  size_t accepted = 0;
  size_t completed = 0;
  size_t lost = 0;
  size_t duplicates = 0;
  size_t rejects_retried = 0;
  double submit_p50_ms = 0;
  double submit_p99_ms = 0;
  double e2e_p50_ms = 0;
  double e2e_p99_ms = 0;
};

SustainedResult run_sustained(const std::string& sock, size_t clients, size_t tenants,
                              size_t jobs_per_client, size_t trials) {
  struct PerClient {
    std::vector<std::string> ids;
    std::vector<double> submit_ms;
    std::vector<double> e2e_ms;
    size_t rejects = 0;
    size_t done = 0;
  };
  std::vector<PerClient> per(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);

  const auto t0 = Clock::now();
  for (size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      PerClient& r = per[c];
      service::Client client;
      if (!client.connect_unix(sock)) return;
      service::JobSpec spec;
      spec.tenant = "tenant-" + std::to_string(c % tenants);
      spec.mode = service::JobMode::kSynthetic;
      spec.options.trials = trials;
      for (size_t j = 0; j < jobs_per_client; ++j) {
        spec.options.seed = 0xbe9c ^ (c * 1000003ull + j);
        for (int attempt = 0; attempt < 1000; ++attempt) {
          int code = 0;
          size_t retry_ms = 0;
          const auto s0 = Clock::now();
          const auto id = client.submit(spec, &code, nullptr, &retry_ms);
          const double ms =
              std::chrono::duration<double, std::milli>(Clock::now() - s0).count();
          if (id) {
            r.ids.push_back(*id);
            r.submit_ms.push_back(ms);
            break;
          }
          if (code != 429 && code != 503) return;
          ++r.rejects;
          std::this_thread::sleep_for(
              std::chrono::milliseconds(std::min<size_t>(std::max<size_t>(retry_ms, 1), 500)));
        }
      }
      for (const std::string& id : r.ids) {
        const auto w0 = Clock::now();
        if (client.wait_done(id, /*poll_ms=*/5)) {
          r.e2e_ms.push_back(
              std::chrono::duration<double, std::milli>(Clock::now() - w0).count());
          ++r.done;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  SustainedResult out;
  out.wall_seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  std::set<std::string> unique;
  std::vector<double> submit_ms;
  std::vector<double> e2e_ms;
  for (const PerClient& r : per) {
    out.accepted += r.ids.size();
    out.completed += r.done;
    out.rejects_retried += r.rejects;
    for (const std::string& id : r.ids) {
      if (!unique.insert(id).second) ++out.duplicates;
    }
    submit_ms.insert(submit_ms.end(), r.submit_ms.begin(), r.submit_ms.end());
    e2e_ms.insert(e2e_ms.end(), r.e2e_ms.begin(), r.e2e_ms.end());
  }
  out.lost = out.accepted - out.completed;
  out.jobs_per_s = out.wall_seconds > 0 ? out.completed / out.wall_seconds : 0;
  out.submit_p50_ms = percentile(submit_ms, 0.50);
  out.submit_p99_ms = percentile(submit_ms, 0.99);
  out.e2e_p50_ms = percentile(e2e_ms, 0.50);
  out.e2e_p99_ms = percentile(e2e_ms, 0.99);
  return out;
}

struct RoundtripResult {
  size_t requests = 0;
  double req_per_s = 0;
  double p50_ms = 0;
  double p99_ms = 0;
};

RoundtripResult run_roundtrip(const std::string& sock, const std::string& job_id,
                              size_t requests) {
  RoundtripResult out;
  out.requests = requests;
  service::Client client;
  if (!client.connect_unix(sock)) return out;
  service::Request req;
  req.verb = service::Verb::kStatus;
  req.job_id = job_id;
  std::vector<double> ms;
  ms.reserve(requests);
  const auto t0 = Clock::now();
  for (size_t i = 0; i < requests; ++i) {
    const auto s0 = Clock::now();
    const auto resp = client.request(req);
    if (!resp) break;
    ms.push_back(std::chrono::duration<double, std::milli>(Clock::now() - s0).count());
  }
  const double wall = std::chrono::duration<double>(Clock::now() - t0).count();
  out.req_per_s = wall > 0 ? ms.size() / wall : 0;
  out.p50_ms = percentile(ms, 0.50);
  out.p99_ms = percentile(ms, 0.99);
  return out;
}

void run_and_report() {
  const size_t clients = g_smoke ? 16 : 128;
  const size_t tenants = 4;
  const size_t jobs_per_client = g_smoke ? 1 : 4;
  const size_t trials = 8;
  const size_t roundtrips = g_smoke ? 200 : 2000;

  const std::string store = scratch_dir("sbm-bench-service-store");
  const std::string sock = scratch_dir("sbm-bench-service.sock");
  Daemon daemon(store, sock, /*workers=*/2);

  const SustainedResult sustained =
      run_sustained(sock, clients, tenants, jobs_per_client, trials);

  // One known-terminal job for the round-trip floor.
  std::string probe_id;
  {
    service::Client client;
    if (client.connect_unix(sock)) {
      service::JobSpec spec;
      spec.tenant = "probe";
      spec.mode = service::JobMode::kSynthetic;
      spec.options.trials = 2;
      if (const auto id = client.submit(spec)) {
        client.wait_done(*id, 2);
        probe_id = *id;
      }
    }
  }
  const RoundtripResult roundtrip = run_roundtrip(sock, probe_id, roundtrips);

  std::printf("service sustained: %zu/%zu jobs, %.0f jobs/s, submit p99 %.2f ms, "
              "e2e p50/p99 %.1f/%.1f ms, lost %zu, dup %zu, retried rejects %zu\n",
              sustained.completed, sustained.accepted, sustained.jobs_per_s,
              sustained.submit_p99_ms, sustained.e2e_p50_ms, sustained.e2e_p99_ms,
              sustained.lost, sustained.duplicates, sustained.rejects_retried);
  std::printf("service roundtrip: %zu reqs, %.0f req/s, p50 %.3f ms, p99 %.3f ms\n",
              roundtrip.requests, roundtrip.req_per_s, roundtrip.p50_ms, roundtrip.p99_ms);

  JsonWriter w;
  w.begin_object();
  w.field("bench", "service")
      .field("smoke", g_smoke)
      .field("clients", clients)
      .field("tenants", tenants)
      .field("jobs_per_client", jobs_per_client)
      .field("trials", trials);
  w.key("sustained").begin_object();
  w.field("wall_seconds", sustained.wall_seconds)
      .field("jobs_per_s", sustained.jobs_per_s)
      .field("accepted", sustained.accepted)
      .field("completed", sustained.completed)
      .field("lost", sustained.lost)
      .field("duplicates", sustained.duplicates)
      .field("rejects_retried", sustained.rejects_retried)
      .field("submit_p50_ms", sustained.submit_p50_ms)
      .field("submit_p99_ms", sustained.submit_p99_ms)
      .field("e2e_p50_ms", sustained.e2e_p50_ms)
      .field("e2e_p99_ms", sustained.e2e_p99_ms);
  w.end_object();
  w.key("roundtrip").begin_object();
  w.field("requests", roundtrip.requests)
      .field("req_per_s", roundtrip.req_per_s)
      .field("p50_ms", roundtrip.p50_ms)
      .field("p99_ms", roundtrip.p99_ms);
  w.end_object();
  w.end_object();
  if (std::FILE* f = std::fopen("BENCH_service.json", "w")) {
    std::fwrite(w.str().data(), 1, w.str().size(), f);
    std::fclose(f);
    std::printf("wrote BENCH_service.json\n\n");
  }

  // The smoke entry doubles as a correctness check: losing or duplicating a
  // job is a daemon bug regardless of speed.
  if (sustained.lost != 0 || sustained.duplicates != 0 ||
      sustained.completed != sustained.accepted) {
    std::fprintf(stderr, "FATAL: job audit failed (lost=%zu dup=%zu)\n", sustained.lost,
                 sustained.duplicates);
    std::exit(1);
  }
}

void BM_StatusRoundtrip(benchmark::State& state) {
  const std::string store = scratch_dir("sbm-bench-service-bm");
  const std::string sock = scratch_dir("sbm-bench-service-bm.sock");
  Daemon daemon(store, sock, /*workers=*/1);
  service::Client client;
  std::string id;
  if (client.connect_unix(sock)) {
    service::JobSpec spec;
    spec.mode = service::JobMode::kSynthetic;
    spec.options.trials = 2;
    if (const auto submitted = client.submit(spec)) {
      client.wait_done(*submitted, 2);
      id = *submitted;
    }
  }
  service::Request req;
  req.verb = service::Verb::kStatus;
  req.job_id = id;
  for (auto _ : state) {
    auto resp = client.request(req);
    benchmark::DoNotOptimize(resp);
    if (!resp) state.SkipWithError("transport failed");
  }
}
BENCHMARK(BM_StatusRoundtrip)->Unit(benchmark::kMicrosecond);

}  // namespace

int main(int argc, char** argv) {
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      g_smoke = true;
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;
  run_and_report();
  if (g_smoke) return 0;  // smoke: skip the google-benchmark entries
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
