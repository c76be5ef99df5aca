// Load generator for the campaign daemon: simulates a fleet of concurrent
// submitters spread across multiple tenants and reports throughput and
// latency percentiles plus a lost/duplicated-job audit.
//
//   ./campaign_server --store /tmp/jobs --unix /tmp/sbm.sock --workers 2 &
//   ./campaign_load --unix /tmp/sbm.sock --clients 1000 --tenants 4
//
// Each client thread connects, submits its jobs (honouring 429 backpressure
// by sleeping the server's retry_after_ms hint), then polls until every one
// of its jobs reaches a terminal state.  Jobs are synthetic (the service's
// deterministic stand-in trials) so the run measures the daemon — protocol,
// scheduler, job store — not the attack pipeline; pass --attack for real
// trials.  The audit at the end cross-checks every accepted job id against
// the server's list: an id that never terminated is lost, an id accepted
// twice is a duplicate — both are zero on a correct daemon.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.h"
#include "common/json.h"
#include "count_arg.h"
#include "service/client.h"

namespace {

using namespace sbm;
using Clock = std::chrono::steady_clock;

struct Config {
  std::string unix_path;
  bool tcp = false;
  u16 tcp_port = 0;
  size_t clients = 1000;
  size_t tenants = 4;
  size_t jobs_per_client = 1;
  size_t trials = 4;
  u32 synthetic_ms = 0;
  bool attack = false;      // real pipeline trials instead of synthetic
  bool weighted = false;    // tenant k gets WFQ weight k+1
  size_t poll_ms = 50;      // status-poll interval while waiting
  size_t max_retries = 200; // submit attempts per job before giving up
  std::string out_path;     // also write the report JSON here
};

struct ClientResult {
  std::vector<std::string> accepted;          // job ids, in submit order
  std::vector<double> submit_ms;              // per accepted submit
  std::vector<std::pair<std::string, double>> done_ms;  // id -> e2e latency
  size_t rejects = 0;                         // 429/503 responses (retried)
  size_t transport_errors = 0;
  size_t gave_up = 0;                         // submits that hit max_retries
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx = std::min(v.size() - 1, static_cast<size_t>(p * (v.size() - 1) + 0.5));
  return v[idx];
}

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--unix PATH | --tcp PORT) [options]\n"
               "\n"
               "  --clients N        concurrent submitter threads (default 1000)\n"
               "  --tenants K        tenants, clients round-robin over them (default 4)\n"
               "  --jobs N           jobs per client (default 1)\n"
               "  --trials N         trials per job (default 4)\n"
               "  --synthetic-ms N   per-trial sleep, models slow boards (default 0)\n"
               "  --attack           submit real attack jobs instead of synthetic\n"
               "  --weighted         tenant k submits with WFQ weight k+1\n"
               "  --poll-ms N        completion poll interval (default 50)\n"
               "  --out FILE         also write the report JSON to FILE\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Config cfg;
  bool endpoint_set = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--unix") {
      cfg.unix_path = next();
      endpoint_set = true;
    } else if (arg == "--tcp") {
      cfg.tcp = true;
      cli::parse_count(arg, next(), cfg.tcp_port);
      endpoint_set = true;
    } else if (arg == "--clients") {
      cli::parse_count(arg, next(), cfg.clients, campaign::kMaxThreads);
    } else if (arg == "--tenants") {
      cli::parse_count(arg, next(), cfg.tenants);
      cfg.tenants = std::max<size_t>(1, cfg.tenants);
    } else if (arg == "--jobs") {
      cli::parse_count(arg, next(), cfg.jobs_per_client);
    } else if (arg == "--trials") {
      cli::parse_count(arg, next(), cfg.trials);
      cfg.trials = std::max<size_t>(1, cfg.trials);
    } else if (arg == "--synthetic-ms") {
      cli::parse_count(arg, next(), cfg.synthetic_ms);
    } else if (arg == "--attack") {
      cfg.attack = true;
    } else if (arg == "--weighted") {
      cfg.weighted = true;
    } else if (arg == "--poll-ms") {
      cli::parse_count(arg, next(), cfg.poll_ms);
      cfg.poll_ms = std::max<size_t>(1, cfg.poll_ms);
    } else if (arg == "--out") {
      cfg.out_path = next();
    } else {
      return usage(argv[0]);
    }
  }
  if (!endpoint_set) return usage(argv[0]);

  auto connect = [&cfg](service::Client& client) {
    return cfg.tcp ? client.connect_tcp(cfg.tcp_port) : client.connect_unix(cfg.unix_path);
  };

  std::vector<ClientResult> results(cfg.clients);
  std::vector<std::thread> threads;
  threads.reserve(cfg.clients);
  std::atomic<size_t> started{0};

  const auto t0 = Clock::now();
  for (size_t c = 0; c < cfg.clients; ++c) {
    threads.emplace_back([&, c] {
      ClientResult& r = results[c];
      service::Client client;
      if (!connect(client)) {
        ++r.transport_errors;
        return;
      }
      started.fetch_add(1);

      service::JobSpec spec;
      spec.tenant = "tenant-" + std::to_string(c % cfg.tenants);
      if (cfg.weighted) spec.weight = static_cast<double>(c % cfg.tenants + 1);
      spec.mode = cfg.attack ? service::JobMode::kAttack : service::JobMode::kSynthetic;
      spec.synthetic_trial_ms = cfg.synthetic_ms;
      spec.options.trials = cfg.trials;

      for (size_t j = 0; j < cfg.jobs_per_client; ++j) {
        spec.options.seed = 0x10adc0de ^ (c * 1000003ull + j);
        bool accepted = false;
        for (size_t attempt = 0; attempt < cfg.max_retries; ++attempt) {
          int code = 0;
          size_t retry_after_ms = 0;
          const auto s0 = Clock::now();
          const auto id = client.submit(spec, &code, nullptr, &retry_after_ms);
          const double ms =
              std::chrono::duration<double, std::milli>(Clock::now() - s0).count();
          if (id) {
            r.accepted.push_back(*id);
            r.submit_ms.push_back(ms);
            accepted = true;
            break;
          }
          if (code == 429 || code == 503) {
            // Honest backoff: sleep what the server asked for (capped).
            ++r.rejects;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(std::min<size_t>(std::max<size_t>(retry_after_ms, 1), 2000)));
            continue;
          }
          ++r.transport_errors;
          if (!client.connected() && !connect(client)) return;
        }
        if (!accepted) ++r.gave_up;
      }

      for (const std::string& id : r.accepted) {
        const auto w0 = Clock::now();
        if (client.wait_done(id, cfg.poll_ms)) {
          r.done_ms.emplace_back(
              id, std::chrono::duration<double, std::milli>(Clock::now() - w0).count());
        } else {
          ++r.transport_errors;
          if (!connect(client)) return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_s = std::chrono::duration<double>(Clock::now() - t0).count();

  // Audit: every accepted id must be unique, and must show up as done on
  // the server (terminal via our own wait plus the server's list view).
  std::set<std::string> unique_ids;
  size_t duplicates = 0;
  size_t accepted = 0;
  size_t completed_seen = 0;
  size_t rejects = 0;
  size_t transport_errors = 0;
  size_t gave_up = 0;
  std::vector<double> submit_ms;
  std::vector<double> e2e_ms;
  std::set<std::string> done_ids;
  for (const ClientResult& r : results) {
    accepted += r.accepted.size();
    rejects += r.rejects;
    transport_errors += r.transport_errors;
    gave_up += r.gave_up;
    for (const std::string& id : r.accepted) {
      if (!unique_ids.insert(id).second) ++duplicates;
    }
    for (const auto& [id, ms] : r.done_ms) {
      done_ids.insert(id);
      e2e_ms.push_back(ms);
      ++completed_seen;
    }
    submit_ms.insert(submit_ms.end(), r.submit_ms.begin(), r.submit_ms.end());
  }

  // Server-side cross-check: list all jobs, count terminal states for ids
  // this run accepted, and catch ids the server lost track of.
  size_t lost = 0;
  size_t server_terminal = 0;
  {
    service::Client client;
    if (connect(client)) {
      service::Request req;
      req.verb = service::Verb::kList;
      if (const auto resp = client.request(req); resp && resp->is_object()) {
        std::map<std::string, std::string> server_state;
        if (const JsonValue* jobs = resp->find("jobs"); jobs != nullptr && jobs->is_array()) {
          for (const JsonValue& job : jobs->items) {
            const JsonValue* id = job.find("id");
            const JsonValue* state = job.find("state");
            if (id != nullptr && state != nullptr) server_state[id->as_string()] = state->as_string();
          }
        }
        for (const std::string& id : unique_ids) {
          const auto it = server_state.find(id);
          const auto state = it == server_state.end()
                                 ? std::nullopt
                                 : service::job_state_from_string(it->second);
          if (state && service::is_terminal(*state)) {
            ++server_terminal;
          } else {
            ++lost;
          }
        }
      }
    }
  }

  const double jobs_per_s = wall_s > 0 ? static_cast<double>(completed_seen) / wall_s : 0;
  JsonWriter w;
  w.begin_object();
  w.field("bench", "service_load")
      .field("clients", cfg.clients)
      .field("tenants", cfg.tenants)
      .field("jobs_per_client", cfg.jobs_per_client)
      .field("trials", cfg.trials)
      .field("mode", cfg.attack ? "attack" : "synthetic")
      .field("wall_seconds", wall_s)
      .field("accepted", accepted)
      .field("completed", completed_seen)
      .field("server_terminal", server_terminal)
      .field("lost", lost)
      .field("duplicates", duplicates)
      .field("rejects_retried", rejects)
      .field("gave_up", gave_up)
      .field("transport_errors", transport_errors)
      .field("jobs_per_s", jobs_per_s)
      .field("submit_p50_ms", percentile(submit_ms, 0.50))
      .field("submit_p90_ms", percentile(submit_ms, 0.90))
      .field("submit_p99_ms", percentile(submit_ms, 0.99))
      .field("e2e_p50_ms", percentile(e2e_ms, 0.50))
      .field("e2e_p90_ms", percentile(e2e_ms, 0.90))
      .field("e2e_p99_ms", percentile(e2e_ms, 0.99));
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  if (!cfg.out_path.empty()) {
    if (std::FILE* f = std::fopen(cfg.out_path.c_str(), "w")) {
      std::fwrite(w.str().data(), 1, w.str().size(), f);
      std::fclose(f);
    } else {
      std::fprintf(stderr, "cannot write %s\n", cfg.out_path.c_str());
    }
  }

  const bool ok = lost == 0 && duplicates == 0 && gave_up == 0 && completed_seen == accepted;
  return ok ? 0 : 1;
}
