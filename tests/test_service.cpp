// Campaign service (DESIGN.md §4h): wire protocol over a real socket, the
// weighted fair scheduler, job-store crash safety, backpressure, cancel,
// daemon-restart resume with fingerprint identity, and the metrics-schema
// parity between the daemon's per-job blocks and the CLI's report JSON.
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fsio.h"
#include "common/json.h"
#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/obs.h"
#include "service/client.h"
#include "service/job_store.h"
#include "service/protocol.h"
#include "service/scheduler.h"
#include "service/server.h"
#include "service/service.h"

namespace sbm::service {
namespace {

/// Fresh scratch path per call: tests must never inherit another test's
/// store (a stale record would be "resumed" and skew counts).
std::string fresh_path(const std::string& leaf) {
  static std::atomic<int> counter{0};
  return ::testing::TempDir() + "sbm-svc-" + leaf + "-" + std::to_string(::getpid()) + "-" +
         std::to_string(counter.fetch_add(1));
}

JobSpec synthetic_spec(size_t trials, u32 trial_ms = 0, const std::string& tenant = "t0") {
  JobSpec spec;
  spec.tenant = tenant;
  spec.mode = JobMode::kSynthetic;
  spec.synthetic_trial_ms = trial_ms;
  spec.options.trials = trials;
  spec.options.seed = 0x5eedf00d;
  spec.options.protected_every = 3;
  return spec;
}

ServiceOptions small_service(const std::string& store_dir, size_t workers = 1) {
  ServiceOptions opt;
  opt.store_dir = store_dir;
  opt.workers = workers;
  opt.pool_threads = 1;
  return opt;
}

/// Polls the service until `id` is terminal; returns the final view.
JobView wait_terminal(CampaignService& service, const std::string& id) {
  for (int i = 0; i < 4000; ++i) {
    const auto view = service.status(id);
    EXPECT_TRUE(view.has_value());
    if (!view) return JobView{};
    if (is_terminal(view->state)) return *view;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ADD_FAILURE() << "job " << id << " never reached a terminal state";
  return JobView{};
}

// ---------------------------------------------------------------------------
// Protocol units

TEST(ServiceProtocol, RequestRoundTrip) {
  Request req;
  req.verb = Verb::kSubmit;
  req.request_id = "r-42";
  req.spec = synthetic_spec(7, 3, "acme");
  req.spec.weight = 2.5;

  std::string error;
  const auto parsed = parse_request(request_to_json(req), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_EQ(parsed->verb, Verb::kSubmit);
  EXPECT_EQ(parsed->request_id, "r-42");
  EXPECT_EQ(parsed->spec.tenant, "acme");
  EXPECT_EQ(parsed->spec.mode, JobMode::kSynthetic);
  EXPECT_EQ(parsed->spec.synthetic_trial_ms, 3u);
  EXPECT_EQ(parsed->spec.weight, 2.5);
  EXPECT_EQ(parsed->spec.options.trials, 7u);
  EXPECT_EQ(parsed->spec.options.seed, 0x5eedf00d);
  EXPECT_EQ(parsed->spec.options.protected_every, 3u);

  // The round trip reaches a fixpoint: re-rendering the parsed request
  // reproduces the original bytes.
  EXPECT_EQ(request_to_json(*parsed), request_to_json(req));
}

TEST(ServiceProtocol, MalformedRequestsAreRejected) {
  std::string error;
  EXPECT_FALSE(parse_request("not json", &error).has_value());
  EXPECT_FALSE(parse_request("[1,2]", &error).has_value());
  EXPECT_FALSE(parse_request("{\"verb\":\"frobnicate\"}", &error).has_value());
  EXPECT_FALSE(parse_request("{\"verb\":\"status\"}", &error).has_value());  // no id
  EXPECT_FALSE(parse_request("{\"verb\":\"submit\"}", &error).has_value());  // no job
  // Zero trials and out-of-range batch widths are spec errors, not crashes.
  EXPECT_FALSE(
      parse_request("{\"verb\":\"submit\",\"job\":{\"options\":{\"trials\":0}}}", &error)
          .has_value());
  EXPECT_FALSE(
      parse_request("{\"verb\":\"submit\",\"job\":{\"options\":{\"batch_width\":513}}}", &error)
          .has_value());
  // Widths up to the SIMD ceiling are accepted (clamped at runtime to the
  // active backend's lane count).
  EXPECT_TRUE(
      parse_request("{\"verb\":\"submit\",\"job\":{\"options\":{\"batch_width\":512}}}", &error)
          .has_value());
  // Non-positive deadlines and zero fleet sizes are spec errors too: a
  // tenant either sets a real wall-clock budget or omits the field.
  EXPECT_FALSE(
      parse_request("{\"verb\":\"submit\",\"job\":{\"options\":{\"deadline_seconds\":0}}}",
                    &error)
          .has_value());
  EXPECT_FALSE(
      parse_request("{\"verb\":\"submit\",\"job\":{\"options\":{\"deadline_seconds\":-2}}}",
                    &error)
          .has_value());
  EXPECT_TRUE(
      parse_request("{\"verb\":\"submit\",\"job\":{\"options\":{\"deadline_seconds\":1.5}}}",
                    &error)
          .has_value());
  EXPECT_FALSE(
      parse_request("{\"verb\":\"submit\",\"job\":{\"options\":{\"fleet_size\":0}}}", &error)
          .has_value());
  EXPECT_FALSE(
      parse_request("{\"verb\":\"submit\",\"job\":{\"options\":{\"fleet_size\":65}}}", &error)
          .has_value());
  EXPECT_TRUE(
      parse_request("{\"verb\":\"submit\",\"job\":{\"options\":{\"fleet_size\":4}}}", &error)
          .has_value());
  // Unknown probe controllers are spec errors; the known kinds parse.
  EXPECT_FALSE(
      parse_request("{\"verb\":\"submit\",\"job\":{\"options\":{\"controller\":\"turbo\"}}}",
                    &error)
          .has_value());
  EXPECT_TRUE(
      parse_request("{\"verb\":\"submit\",\"job\":{\"options\":{\"controller\":\"adaptive\"}}}",
                    &error)
          .has_value());
}

// ---------------------------------------------------------------------------
// Weighted fair scheduler

TEST(FairScheduler, WeightedShareUnderSaturation) {
  SchedulerLimits limits;
  FairScheduler sched(limits);
  for (int i = 0; i < 30; ++i) {
    ASSERT_FALSE(sched.push("light", 1.0, 1.0, "L" + std::to_string(i)).has_value());
    ASSERT_FALSE(sched.push("heavy", 2.0, 1.0, "H" + std::to_string(i)).has_value());
  }
  // Under saturation a weight-2 tenant must receive ~2x the dispatches of a
  // weight-1 tenant over any window.
  size_t heavy = 0;
  size_t light = 0;
  for (int i = 0; i < 30; ++i) {
    const auto id = sched.try_pop();
    ASSERT_TRUE(id.has_value());
    ((*id)[0] == 'H' ? heavy : light) += 1;
  }
  EXPECT_GE(heavy, 18u);
  EXPECT_GE(light, 9u);
  // The rest drains completely.
  size_t rest = 0;
  while (sched.try_pop().has_value()) ++rest;
  EXPECT_EQ(rest, 30u);
}

TEST(FairScheduler, DispatchOrderIsDeterministic) {
  auto run = [] {
    SchedulerLimits limits;
    FairScheduler sched(limits);
    for (int i = 0; i < 12; ++i) {
      sched.push("a", 1.0, 2.0, "a" + std::to_string(i));
      sched.push("b", 3.0, 2.0, "b" + std::to_string(i));
      sched.push("c", 1.5, 2.0, "c" + std::to_string(i));
    }
    std::string order;
    while (const auto id = sched.try_pop()) order += (*id)[0];
    return order;
  };
  const std::string first = run();
  EXPECT_EQ(first, run());
  EXPECT_EQ(first.size(), 36u);
}

TEST(FairScheduler, LateTenantGetsNoBankedCredit) {
  SchedulerLimits limits;
  FairScheduler sched(limits);
  for (int i = 0; i < 10; ++i) sched.push("busy", 1.0, 1.0, "x" + std::to_string(i));
  for (int i = 0; i < 5; ++i) sched.try_pop();  // virtual clock advances
  // A tenant that was idle the whole time starts at the current virtual
  // clock: its first job tags at V + 1 = 6, tying busy's head (also 6); the
  // tenant-name tie-break dispatches busy first, the newcomer second.  The
  // newcomer cannot leapfrog the whole backlog, and cannot be starved by it
  // either.
  sched.push("late", 1.0, 1.0, "late0");
  const auto first = sched.try_pop();
  const auto second = sched.try_pop();
  ASSERT_TRUE(first.has_value());
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*first, "x5");
  EXPECT_EQ(*second, "late0");
  size_t busy_rest = 0;
  while (sched.try_pop().has_value()) ++busy_rest;
  EXPECT_EQ(busy_rest, 4u);
}

TEST(FairScheduler, BoundedQueuesRejectWithRetryHint) {
  SchedulerLimits limits;
  limits.per_tenant_capacity = 2;
  limits.total_capacity = 3;
  limits.workers = 1;
  FairScheduler sched(limits);
  sched.note_job_ms(200);  // seed the EWMA so hints are predictable-ish

  EXPECT_FALSE(sched.push("a", 1.0, 1.0, "a0").has_value());
  EXPECT_FALSE(sched.push("a", 1.0, 1.0, "a1").has_value());
  const auto tenant_full = sched.push("a", 1.0, 1.0, "a2");
  ASSERT_TRUE(tenant_full.has_value());
  EXPECT_EQ(tenant_full->code, 429);
  EXPECT_STREQ(tenant_full->reason, "tenant_queue_full");
  EXPECT_GT(tenant_full->retry_after_ms, 0u);

  EXPECT_FALSE(sched.push("b", 1.0, 1.0, "b0").has_value());
  const auto total_full = sched.push("b", 1.0, 1.0, "b1");
  ASSERT_TRUE(total_full.has_value());
  EXPECT_EQ(total_full->code, 429);
  EXPECT_STREQ(total_full->reason, "queue_full");

  // Deeper backlog, longer hint.
  EXPECT_GE(total_full->retry_after_ms, tenant_full->retry_after_ms);
}

TEST(FairScheduler, DrainAndHardClose) {
  SchedulerLimits limits;
  FairScheduler drain(limits);
  drain.push("a", 1.0, 1.0, "a0");
  drain.drain_close();
  EXPECT_EQ(drain.push("a", 1.0, 1.0, "a1")->code, 503);
  EXPECT_EQ(drain.pop_wait(), "a0");  // backlog still drains
  EXPECT_FALSE(drain.pop_wait().has_value());

  FairScheduler hard(limits);
  hard.push("a", 1.0, 1.0, "a0");
  hard.hard_close();
  EXPECT_FALSE(hard.pop_wait().has_value());  // immediate, backlog stays
}

// ---------------------------------------------------------------------------
// Job store durability

JobRecord sample_record(const std::string& id, u64 seq) {
  JobRecord rec;
  rec.id = id;
  rec.seq = seq;
  rec.spec = synthetic_spec(5, 0, "acme");
  rec.state = JobState::kQueued;
  rec.trials_done = 2;
  return rec;
}

TEST(JobStore, RecordRoundTripsThroughDisk) {
  const JobStore store(fresh_path("roundtrip"));
  JobRecord rec = sample_record("j-000007", 7);
  rec.state = JobState::kDone;
  rec.fingerprint = 0xabcdef0123456789ull;
  rec.all_expected = true;
  rec.resumed_trials = 2;
  rec.report_json = "{\"options\":{\"trials\":5},\"metrics\":{\"oracle_runs\":12}}";
  ASSERT_TRUE(store.save(rec));

  const JobStore::Loaded loaded = store.load_all();
  EXPECT_EQ(loaded.corrupt, 0u);
  ASSERT_EQ(loaded.jobs.size(), 1u);
  const JobRecord& got = loaded.jobs[0];
  EXPECT_EQ(got.id, rec.id);
  EXPECT_EQ(got.seq, rec.seq);
  EXPECT_EQ(got.state, JobState::kDone);
  EXPECT_EQ(got.fingerprint, rec.fingerprint);
  EXPECT_TRUE(got.all_expected);
  EXPECT_EQ(got.resumed_trials, 2u);
  EXPECT_EQ(got.spec.tenant, "acme");
  EXPECT_EQ(got.spec.options.trials, 5u);
  // report_json is re-rendered compactly; parse-equivalence is what matters.
  EXPECT_EQ(parse_json(got.report_json)->dump(), parse_json(rec.report_json)->dump());
}

TEST(JobStore, PartialWriteIsSkippedAndTmpDebrisSwept) {
  const std::string dir = fresh_path("crash");
  const JobStore store(dir);
  ASSERT_TRUE(store.save(sample_record("j-000001", 1)));
  ASSERT_TRUE(store.save(sample_record("j-000002", 2)));

  // Injected crash #1: a record whose write was cut mid-JSON (no atomic
  // rename would ever produce this, but disk corruption can).
  const std::string whole = job_record_to_json(sample_record("j-000002", 2));
  ASSERT_TRUE(write_file(store.job_path("j-000002"), whole.substr(0, whole.size() / 2)));

  // Injected crash #2: temp debris from a write interrupted before rename.
  const std::string tmp = store.job_path("j-000003") + ".tmp";
  ASSERT_TRUE(write_file(tmp, "{\"version\":1,\"id\":\"j-00"));

  const JobStore::Loaded loaded = store.load_all();
  EXPECT_EQ(loaded.corrupt, 1u);  // the truncated record is skipped, not fatal
  ASSERT_EQ(loaded.jobs.size(), 1u);
  EXPECT_EQ(loaded.jobs[0].id, "j-000001");
  struct stat st {};
  EXPECT_NE(::stat(tmp.c_str(), &st), 0) << "tmp debris must be swept";
}

TEST(JobStore, AtomicWriteLeavesOldContentOnFailure) {
  // write_file_atomic into a missing directory fails cleanly...
  EXPECT_FALSE(write_file_atomic(fresh_path("nodir") + "/sub/file.json", "x"));
  // ...and a successful rewrite replaces content in one step.
  const std::string dir = fresh_path("atomic");
  ::mkdir(dir.c_str(), 0777);
  const std::string path = dir + "/f.json";
  ASSERT_TRUE(write_file_atomic(path, "old"));
  ASSERT_TRUE(write_file_atomic(path, "new"));
  EXPECT_EQ(read_file(path).value_or(""), "new");
}

// ---------------------------------------------------------------------------
// Service over a real socket

struct DaemonFixture {
  std::string store_dir;
  std::string sock;
  CampaignService service;
  SocketServer server;

  explicit DaemonFixture(ServiceOptions svc_opt, const std::string& leaf)
      : store_dir(svc_opt.store_dir),
        sock(fresh_path(leaf + ".sock")),
        service(std::move(svc_opt)),
        server(service, [this] {
          ServerOptions opt;
          opt.unix_path = sock;
          return opt;
        }()) {
    std::string error;
    EXPECT_TRUE(server.start(&error)) << error;
  }

  ~DaemonFixture() {
    server.stop();
    service.stop_hard();
  }

  Client connect() {
    Client client;
    std::string error;
    EXPECT_TRUE(client.connect_unix(sock, &error)) << error;
    return client;
  }
};

TEST(ServiceSocket, ProtocolRoundTripOverUnixSocket) {
  DaemonFixture daemon(small_service(fresh_path("proto-store")), "proto");
  Client client = daemon.connect();

  // submit (with request_id echo)
  Request submit;
  submit.verb = Verb::kSubmit;
  submit.request_id = "req-1";
  submit.spec = synthetic_spec(3);
  const auto submitted = client.request(submit);
  ASSERT_TRUE(submitted.has_value());
  EXPECT_TRUE(submitted->find("ok")->as_bool());
  EXPECT_EQ(submitted->find("request_id")->as_string(), "req-1");
  const std::string id = submitted->find("id")->as_string();
  EXPECT_EQ(id, "j-000001");

  ASSERT_EQ(client.wait_done(id).value_or(""), "done");

  // status
  Request status;
  status.verb = Verb::kStatus;
  status.job_id = id;
  const auto st = client.request(status);
  ASSERT_TRUE(st.has_value());
  const JsonValue* job = st->find("job");
  ASSERT_NE(job, nullptr);
  EXPECT_EQ(job->find("state")->as_string(), "done");
  EXPECT_EQ(job->find("trials_done")->as_u64(), 3u);
  EXPECT_TRUE(job->find("all_expected")->as_bool());
  EXPECT_NE(job->find("fingerprint")->as_u64(), 0u);
  ASSERT_NE(job->find("metrics"), nullptr);

  // result carries the full campaign report
  Request result;
  result.verb = Verb::kResult;
  result.job_id = id;
  const auto res = client.request(result);
  ASSERT_TRUE(res.has_value());
  const JsonValue* report = res->find("report");
  ASSERT_NE(report, nullptr);
  EXPECT_EQ(report->find("options")->find("trials")->as_u64(), 3u);
  EXPECT_EQ(report->find("trials")->items.size(), 3u);

  // list
  Request list;
  list.verb = Verb::kList;
  const auto listed = client.request(list);
  ASSERT_TRUE(listed.has_value());
  EXPECT_EQ(listed->find("count")->as_u64(), 1u);
  EXPECT_EQ(listed->find("jobs")->items[0].find("id")->as_string(), id);

  // metrics
  Request metrics;
  metrics.verb = Verb::kMetrics;
  const auto snap = client.request(metrics);
  ASSERT_TRUE(snap.has_value());
  ASSERT_NE(snap->find("metrics"), nullptr);

  // error paths: malformed line, unknown job, cancel of a finished job
  const auto malformed = client.request_raw("this is not json");
  ASSERT_TRUE(malformed.has_value());
  EXPECT_FALSE(malformed->find("ok")->as_bool());
  EXPECT_EQ(malformed->find("code")->as_u64(), 400u);

  Request missing;
  missing.verb = Verb::kStatus;
  missing.job_id = "j-999999";
  const auto not_found = client.request(missing);
  ASSERT_TRUE(not_found.has_value());
  EXPECT_EQ(not_found->find("code")->as_u64(), 404u);

  Request cancel;
  cancel.verb = Verb::kCancel;
  cancel.job_id = id;
  const auto conflict = client.request(cancel);
  ASSERT_TRUE(conflict.has_value());
  EXPECT_EQ(conflict->find("code")->as_u64(), 409u);

  // shutdown (drain) stops the reactor; the embedder drains the service
  Request shutdown;
  shutdown.verb = Verb::kShutdown;
  const auto ack = client.request(shutdown);
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(ack->find("ok")->as_bool());
  daemon.server.wait();
  EXPECT_TRUE(daemon.server.shutdown_requested());
  EXPECT_TRUE(daemon.server.shutdown_drain());
  daemon.service.drain();
  EXPECT_FALSE(daemon.service.accepting());
}

TEST(ServiceSocket, TcpListenerServesTheSameProtocol) {
  ServiceOptions svc_opt = small_service(fresh_path("tcp-store"));
  CampaignService service(svc_opt);
  ServerOptions srv_opt;
  srv_opt.tcp = true;
  srv_opt.tcp_port = 0;  // ephemeral
  SocketServer server(service, srv_opt);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_NE(server.tcp_port(), 0);

  Client client;
  ASSERT_TRUE(client.connect_tcp(server.tcp_port(), &error)) << error;
  const auto id = client.submit(synthetic_spec(2));
  ASSERT_TRUE(id.has_value());
  EXPECT_EQ(client.wait_done(*id).value_or(""), "done");
  server.stop();
  service.stop_hard();
}

TEST(ServiceSocket, PipelinedRequestsAnswerInOrder) {
  DaemonFixture daemon(small_service(fresh_path("pipe-store")), "pipe");
  Client client = daemon.connect();
  const auto id = client.submit(synthetic_spec(2));
  ASSERT_TRUE(id.has_value());
  ASSERT_EQ(client.wait_done(*id).value_or(""), "done");

  // Two pipelined lines in one write; responses come back in order with
  // their request_ids echoed.
  const auto first = client.request_raw("{\"verb\":\"status\",\"request_id\":\"p1\",\"id\":\"" +
                                        *id + "\"}\n{\"verb\":\"list\",\"request_id\":\"p2\"}");
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->find("request_id")->as_string(), "p1");
  Request list;  // read the second buffered response through a normal call
  list.verb = Verb::kList;
  list.request_id = "p3";
  const auto second = client.request(list);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->find("request_id")->as_string(), "p2");
}

TEST(ServiceSocket, BackpressureRejectsWithRetryAfterUnderSaturation) {
  ServiceOptions svc_opt = small_service(fresh_path("bp-store"));
  svc_opt.limits.per_tenant_capacity = 2;
  svc_opt.limits.total_capacity = 4;
  DaemonFixture daemon(std::move(svc_opt), "bp");
  Client client = daemon.connect();

  // Slow jobs: the first occupies the single worker, the rest queue.
  const JobSpec slow = synthetic_spec(4, 50, "alpha");
  std::vector<std::string> accepted;
  int code = 0;
  size_t retry_after = 0;
  for (int i = 0; i < 8 && code == 0; ++i) {
    if (const auto id = client.submit(slow, &code, nullptr, &retry_after)) {
      accepted.push_back(*id);
      code = 0;
    }
  }
  EXPECT_EQ(code, 429);
  EXPECT_GT(retry_after, 0u) << "a 429 must carry an honest retry hint";
  EXPECT_GE(accepted.size(), 3u);  // 1 running + 2 queued

  // Per-tenant isolation: alpha being full must not block beta.
  JobSpec other = synthetic_spec(2, 0, "beta");
  int beta_code = 0;
  const auto beta_id = client.submit(other, &beta_code);
  EXPECT_TRUE(beta_id.has_value()) << "code " << beta_code;

  for (const std::string& id : accepted) EXPECT_EQ(client.wait_done(id).value_or(""), "done");
  const auto stats = daemon.service.stats();
  EXPECT_GE(stats.rejected, 1u);
}

TEST(ServiceSocket, CancelStopsARunningJob) {
  DaemonFixture daemon(small_service(fresh_path("cancel-store")), "cancel");
  Client client = daemon.connect();
  const auto id = client.submit(synthetic_spec(200, 10));
  ASSERT_TRUE(id.has_value());

  // Wait until it is actually running with some progress.
  Request status;
  status.verb = Verb::kStatus;
  status.job_id = *id;
  for (int i = 0; i < 2000; ++i) {
    const auto st = client.request(status);
    ASSERT_TRUE(st.has_value());
    const JsonValue* job = st->find("job");
    if (job->find("state")->as_string() == "running" && job->find("trials_done")->as_u64() >= 2) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  Request cancel;
  cancel.verb = Verb::kCancel;
  cancel.job_id = *id;
  const auto ack = client.request(cancel);
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(ack->find("ok")->as_bool());

  EXPECT_EQ(client.wait_done(*id).value_or(""), "cancelled");
  const auto view = daemon.service.status(*id);
  ASSERT_TRUE(view.has_value());
  EXPECT_LT(view->trials_done, 200u);
  EXPECT_GT(view->cancelled_trials, 0u);
  EXPECT_EQ(view->trials_done + view->cancelled_trials, 200u);
  // A cancelled job still has a (partial) report.
  EXPECT_TRUE(daemon.service.result_json(*id).has_value());
}

TEST(ServiceSocket, CancelQueuedJobNeverRuns) {
  ServiceOptions svc_opt = small_service(fresh_path("cq-store"));
  DaemonFixture daemon(std::move(svc_opt), "cq");
  Client client = daemon.connect();
  const auto blocker = client.submit(synthetic_spec(30, 20));  // occupies the worker
  const auto queued = client.submit(synthetic_spec(30, 20));
  ASSERT_TRUE(blocker.has_value());
  ASSERT_TRUE(queued.has_value());

  Request cancel;
  cancel.verb = Verb::kCancel;
  cancel.job_id = *queued;
  const auto ack = client.request(cancel);
  ASSERT_TRUE(ack.has_value());
  EXPECT_TRUE(ack->find("ok")->as_bool());
  EXPECT_EQ(ack->find("state")->as_string(), "cancelled");

  const JobView view = wait_terminal(daemon.service, *queued);
  EXPECT_EQ(view.state, JobState::kCancelled);
  EXPECT_EQ(view.trials_done, 0u);
  EXPECT_EQ(view.cancelled_trials, 30u);
  EXPECT_EQ(client.wait_done(*blocker).value_or(""), "done");
}

TEST(JobStore, TortureSweepEveryKillPointYieldsOldOrNewNeverCorrupt) {
  // Crash-recovery torture: simulate the process dying at randomized points
  // of a record rewrite.  The write protocol is write-temp + rename, so the
  // only on-disk states a kill can leave are (a) old record + partial .tmp
  // (killed before rename) and (b) the new record whole (killed after).  A
  // restart must load exactly the old or the new record — never a blend,
  // never a parse crash — and sweep the debris.
  const std::string dir = fresh_path("torture");
  const JobStore store(dir);
  JobRecord old_rec = sample_record("j-000042", 42);
  JobRecord new_rec = old_rec;
  new_rec.state = JobState::kRunning;
  new_rec.trials_done = 9;
  const std::string new_json = job_record_to_json(new_rec);
  const std::string tmp_path = store.job_path(new_rec.id) + ".tmp";

  Rng rng(0x70a7u);
  for (int i = 0; i < 24; ++i) {
    ASSERT_TRUE(store.save(old_rec));
    const size_t cut = rng.next_u64() % new_json.size();
    ASSERT_TRUE(write_file(tmp_path, new_json.substr(0, cut)));
    const JobStore::Loaded loaded = store.load_all();
    EXPECT_EQ(loaded.corrupt, 0u) << "kill point " << cut;
    ASSERT_EQ(loaded.jobs.size(), 1u) << "kill point " << cut;
    EXPECT_EQ(loaded.jobs[0].trials_done, old_rec.trials_done) << "kill point " << cut;
    EXPECT_EQ(loaded.jobs[0].state, JobState::kQueued) << "kill point " << cut;
    struct stat st {};
    EXPECT_NE(::stat(tmp_path.c_str(), &st), 0) << "tmp debris must be swept";
  }

  // Killed after the rename: the new record, whole.
  ASSERT_TRUE(store.save(new_rec));
  const JobStore::Loaded after = store.load_all();
  EXPECT_EQ(after.corrupt, 0u);
  ASSERT_EQ(after.jobs.size(), 1u);
  EXPECT_EQ(after.jobs[0].trials_done, 9u);
  EXPECT_EQ(after.jobs[0].state, JobState::kRunning);

  // Torn destination files (disk corruption — no kill point of the atomic
  // protocol produces this) are skipped and counted, never half-parsed.
  for (int i = 0; i < 16; ++i) {
    const size_t cut = 1 + rng.next_u64() % (new_json.size() - 1);
    ASSERT_TRUE(write_file(store.job_path(new_rec.id), new_json.substr(0, cut)));
    const JobStore::Loaded loaded = store.load_all();
    EXPECT_EQ(loaded.corrupt, 1u) << "cut " << cut;
    EXPECT_TRUE(loaded.jobs.empty()) << "cut " << cut;
  }
}

// ---------------------------------------------------------------------------
// Wall-clock deadlines

TEST(ServiceDeadline, JobExceedingItsBudgetFinalizesAsDeadlineExceeded) {
  const std::string store_dir = fresh_path("dl-store");
  std::string job_id;
  {
    DaemonFixture daemon(small_service(store_dir), "dl");
    Client client = daemon.connect();
    JobSpec spec = synthetic_spec(500, 10);
    spec.options.deadline_seconds = 0.05;  // a few trials, then over budget
    const auto id = client.submit(spec);
    ASSERT_TRUE(id.has_value());
    job_id = *id;

    const JobView view = wait_terminal(daemon.service, job_id);
    EXPECT_EQ(view.state, JobState::kDeadline);
    EXPECT_EQ(view.failure, "deadline_exceeded");
    EXPECT_GT(view.trials_done, 0u);
    EXPECT_LT(view.trials_done, 500u);

    // The wire protocol reports the distinct terminal state...
    Request status;
    status.verb = Verb::kStatus;
    status.job_id = job_id;
    const auto st = client.request(status);
    ASSERT_TRUE(st.has_value());
    EXPECT_EQ(st->find("job")->find("state")->as_string(), "deadline_exceeded");
    EXPECT_EQ(st->find("job")->find("failure")->as_string(), "deadline_exceeded");
    EXPECT_EQ(client.wait_done(job_id).value_or(""), "deadline_exceeded");

    // ...a late cancel is a 409 like any finished job...
    Request cancel;
    cancel.verb = Verb::kCancel;
    cancel.job_id = job_id;
    const auto conflict = client.request(cancel);
    ASSERT_TRUE(conflict.has_value());
    EXPECT_EQ(conflict->find("code")->as_u64(), 409u);
    EXPECT_EQ(conflict->find("error")->as_string(), "already_finished");

    // ...the partial report survives, and the stats ledger is distinct from
    // tenant cancels.
    EXPECT_TRUE(daemon.service.result_json(job_id).has_value());
    const auto stats = daemon.service.stats();
    EXPECT_EQ(stats.deadline, 1u);
    EXPECT_EQ(stats.cancelled, 0u);
  }

  // A deadline-terminated job is finished, not interrupted: a daemon restart
  // over the same store must not resurrect it as queued.
  CampaignService revived(small_service(store_dir));
  EXPECT_EQ(revived.stats().resumed_jobs, 0u);
  const auto view = revived.status(job_id);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->state, JobState::kDeadline);
  revived.drain();
}

TEST(ServiceDeadline, GenerousBudgetNeverFires) {
  DaemonFixture daemon(small_service(fresh_path("dlok-store")), "dlok");
  Client client = daemon.connect();
  JobSpec spec = synthetic_spec(3);
  spec.options.deadline_seconds = 3600;
  const auto id = client.submit(spec);
  ASSERT_TRUE(id.has_value());
  const JobView view = wait_terminal(daemon.service, *id);
  EXPECT_EQ(view.state, JobState::kDone);
  EXPECT_EQ(view.trials_done, 3u);
  EXPECT_EQ(daemon.service.stats().deadline, 0u);
}

// ---------------------------------------------------------------------------
// Restart / resume

TEST(ServiceRestart, InterruptedJobResumesWithIdenticalFingerprint) {
  const JobSpec spec = synthetic_spec(60, 5);

  // Reference: uninterrupted run on a single-threaded daemon.
  u64 reference_fp = 0;
  {
    ServiceOptions opt = small_service(fresh_path("ref-store"), /*workers=*/1);
    opt.pool_threads = 1;
    CampaignService service(opt);
    const auto submitted = service.submit(spec);
    ASSERT_TRUE(submitted.ok) << submitted.error;
    const JobView done = wait_terminal(service, submitted.id);
    ASSERT_EQ(done.state, JobState::kDone);
    reference_fp = done.fingerprint;
    ASSERT_NE(reference_fp, 0u);
    service.drain();
  }

  // Interrupted: same spec on a daemon with an 8-thread pool, hard-stopped
  // mid-run (the crash-shaped shutdown), then a fresh daemon over the same
  // store resumes and finishes.
  const std::string store_dir = fresh_path("resume-store");
  std::string job_id;
  size_t done_at_kill = 0;
  {
    ServiceOptions opt = small_service(store_dir, /*workers=*/1);
    opt.pool_threads = 8;
    CampaignService service(opt);
    const auto submitted = service.submit(spec);
    ASSERT_TRUE(submitted.ok) << submitted.error;
    job_id = submitted.id;
    for (int i = 0; i < 2000; ++i) {
      const auto view = service.status(job_id);
      ASSERT_TRUE(view.has_value());
      if (view->trials_done >= 10) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    service.stop_hard();
    const auto view = service.status(job_id);
    ASSERT_TRUE(view.has_value());
    done_at_kill = view->trials_done;
    EXPECT_LT(done_at_kill, 60u) << "the kill must interrupt the job mid-run";
  }
  {
    ServiceOptions opt = small_service(store_dir, /*workers=*/1);
    opt.pool_threads = 8;
    CampaignService service(opt);
    EXPECT_EQ(service.stats().resumed_jobs, 1u);
    const JobView done = wait_terminal(service, job_id);
    EXPECT_EQ(done.state, JobState::kDone);
    EXPECT_EQ(done.trials_done, 60u);
    EXPECT_GE(done.resumed_trials, std::min<size_t>(done_at_kill, 1));
    // The headline contract: resumed fingerprint == uninterrupted
    // fingerprint, across different pool sizes (1 vs 8 threads).
    EXPECT_EQ(done.fingerprint, reference_fp);
    service.drain();
  }
}

TEST(ServiceRestart, QueuedJobsSurviveRestartInOrder) {
  const std::string store_dir = fresh_path("queue-store");
  std::vector<std::string> ids;
  {
    ServiceOptions opt = small_service(store_dir);
    CampaignService service(opt);
    // One long job holds the worker; the rest never start.
    const auto blocker = service.submit(synthetic_spec(100, 20, "a"));
    ASSERT_TRUE(blocker.ok);
    ids.push_back(blocker.id);
    for (int i = 0; i < 3; ++i) {
      const auto s = service.submit(synthetic_spec(2, 0, "b"));
      ASSERT_TRUE(s.ok);
      ids.push_back(s.id);
    }
    service.stop_hard();
  }
  {
    ServiceOptions opt = small_service(store_dir);
    CampaignService service(opt);
    EXPECT_EQ(service.stats().resumed_jobs, 4u);
    for (const std::string& id : ids) {
      const JobView view = wait_terminal(service, id);
      EXPECT_EQ(view.state, JobState::kDone) << id;
    }
    service.drain();
  }
}

// ---------------------------------------------------------------------------
// Metrics parity

TEST(ServiceMetricsParity, PerJobBlockEqualsReportMetricsMember) {
  const obs::Mode saved = obs::mode();
  obs::set_mode(obs::Mode::kMetrics);
  DaemonFixture daemon(small_service(fresh_path("mp-store")), "mp");
  Client client = daemon.connect();
  const auto id = client.submit(synthetic_spec(5));
  ASSERT_TRUE(id.has_value());
  ASSERT_EQ(client.wait_done(*id).value_or(""), "done");

  Request status;
  status.verb = Verb::kStatus;
  status.job_id = *id;
  const auto st = client.request(status);
  ASSERT_TRUE(st.has_value());
  const JsonValue* status_metrics = st->find("job")->find("metrics");
  ASSERT_NE(status_metrics, nullptr);

  Request result;
  result.verb = Verb::kResult;
  result.job_id = *id;
  const auto res = client.request(result);
  ASSERT_TRUE(res.has_value());
  const JsonValue* report_metrics = res->find("report")->find("metrics");
  ASSERT_NE(report_metrics, nullptr);

  // The daemon's per-job metrics block IS the campaign report's "metrics"
  // member — same writer, byte-identical schema and values.
  EXPECT_EQ(status_metrics->dump(), report_metrics->dump());

  // The process-wide metrics verb returns the same snapshot the CLI's
  // --metrics-out flag writes: obs::MetricsRegistry::global().
  Request metrics;
  metrics.verb = Verb::kMetrics;
  const auto snap = client.request(metrics);
  ASSERT_TRUE(snap.has_value());
  const JsonValue* remote = snap->find("metrics");
  ASSERT_NE(remote, nullptr);
  const auto local = parse_json(obs::MetricsRegistry::global().snapshot().to_json());
  ASSERT_TRUE(local.has_value());
  std::set<std::string> remote_keys;
  std::set<std::string> local_keys;
  for (const auto& [k, v] : remote->members) remote_keys.insert(k);
  for (const auto& [k, v] : local->members) local_keys.insert(k);
  EXPECT_EQ(remote_keys, local_keys);
  // Our submissions showed up in the registry the verb serves.
  const JsonValue* counters = remote->find("counters");
  ASSERT_NE(counters, nullptr);
  bool saw_submitted = false;
  for (const auto& [k, v] : counters->members) saw_submitted |= k == "service.jobs_submitted";
  EXPECT_TRUE(saw_submitted);
  obs::set_mode(saved);
}

TEST(ServiceMetricsParity, LiveBlockSharesTheFinalSchema) {
  DaemonFixture daemon(small_service(fresh_path("live-store")), "live");
  Client client = daemon.connect();
  const auto id = client.submit(synthetic_spec(80, 10));
  ASSERT_TRUE(id.has_value());

  Request status;
  status.verb = Verb::kStatus;
  status.job_id = *id;
  std::optional<std::string> live_keys;
  for (int i = 0; i < 2000 && !live_keys; ++i) {
    const auto st = client.request(status);
    ASSERT_TRUE(st.has_value());
    const JsonValue* job = st->find("job");
    if (job->find("state")->as_string() == "running") {
      const JsonValue* m = job->find("metrics");
      ASSERT_NE(m, nullptr);
      std::string keys;
      for (const auto& [k, v] : m->members) keys += k + ",";
      live_keys = keys;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_TRUE(live_keys.has_value()) << "never observed the job running";

  ASSERT_EQ(client.wait_done(*id).value_or(""), "done");
  const auto st = client.request(status);
  const JsonValue* final_metrics = st->find("job")->find("metrics");
  ASSERT_NE(final_metrics, nullptr);
  std::string final_keys;
  for (const auto& [k, v] : final_metrics->members) final_keys += k + ",";
  // Streaming and final blocks expose the identical canonical schema.
  EXPECT_EQ(*live_keys, final_keys);
}

}  // namespace
}  // namespace sbm::service
