// The campaign daemon's core: a persistent, multi-tenant attack-job service
// (DESIGN.md §4h).  Transport-free — the socket server (service/server.h)
// and the tests drive this same object.
//
// Lifecycle of a job:
//
//   submit ──► queued ──► running ──► done
//                │           │   └──► failed     (pipeline threw)
//                └───────────┴──────► cancelled  (tenant asked)
//
// plus the restart edge: a daemon killed at any instant reloads its job
// store on the next start, maps queued/running jobs back to queued, and
// re-runs them with campaign resume pointed at their per-job checkpoint —
// trials finished before the kill are answered from disk, so the final
// fingerprint is identical to an uninterrupted run (enforced by
// tests/test_service.cpp).
//
// Execution: one shared runtime::ThreadPool serves every job's trial
// fan-out (each trial runs on one pool thread); `workers` job slots pull
// from the per-tenant weighted fair scheduler, so one giant campaign cannot
// starve other tenants and the daemon's concurrency is bounded regardless of
// how many jobs are queued.
#pragma once

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.h"
#include "service/job_store.h"
#include "service/scheduler.h"

namespace sbm::runtime {
class ThreadPool;
}

namespace sbm::service {

struct ServiceOptions {
  /// Job store directory (created if missing).  Required.
  std::string store_dir;
  /// Concurrent job slots.
  size_t workers = 1;
  /// Threads in the shared trial pool; 0 = hardware concurrency.
  unsigned pool_threads = 0;
  SchedulerLimits limits{};
  bool verbose = false;
};

/// Point-in-time snapshot of one job, safe to hold without locks.
struct JobView {
  std::string id;
  std::string tenant;
  JobMode mode = JobMode::kAttack;
  JobState state = JobState::kQueued;
  u64 seq = 0;
  size_t trials_total = 0;
  size_t trials_done = 0;
  size_t resumed_trials = 0;
  size_t cancelled_trials = 0;
  bool all_expected = false;
  u64 fingerprint = 0;
  std::string failure;
  /// The canonical per-job metrics block (campaign report "metrics" schema):
  /// live running totals while the job executes, the final block once done.
  std::string metrics_json;
};

void write_job_view(JsonWriter& w, const JobView& view, bool include_metrics);

class CampaignService {
 public:
  explicit CampaignService(ServiceOptions options);
  /// Equivalent to stop_hard(): in-flight jobs stay resumable in the store.
  ~CampaignService();

  CampaignService(const CampaignService&) = delete;
  CampaignService& operator=(const CampaignService&) = delete;

  struct Submitted {
    bool ok = false;
    std::string id;          // valid when ok
    int code = 0;            // 429 / 503 / 500 when !ok
    std::string error;
    size_t retry_after_ms = 0;
    size_t queue_depth = 0;  // scheduler backlog after the submit
  };
  Submitted submit(JobSpec spec);

  std::optional<JobView> status(const std::string& id) const;
  /// Full campaign report JSON once the job produced one (done, cancelled,
  /// or failed-with-partial-report); nullopt otherwise.
  std::optional<std::string> result_json(const std::string& id) const;
  /// Snapshot of every job (filtered by tenant when non-empty), seq order.
  std::vector<JobView> list(const std::string& tenant = std::string()) const;
  /// Cancels: a queued job finalizes immediately (kCancelled); a running
  /// one stops after its in-flight trials (state transitions when the
  /// orchestrator notices).  Returns the state observed after the request,
  /// nullopt for unknown ids.
  std::optional<JobState> cancel(const std::string& id);
  /// Process-wide obs metrics snapshot — the same JSON the CLI's
  /// --metrics-out flag writes.
  std::string metrics_json() const;

  struct Stats {
    size_t submitted = 0;
    size_t rejected = 0;
    size_t completed = 0;
    size_t failed = 0;
    size_t cancelled = 0;
    /// Jobs terminated for exceeding their wall-clock deadline.
    size_t deadline = 0;
    size_t resumed_jobs = 0;   // jobs rescheduled from the store on start
    size_t corrupt_records = 0;
    size_t queued = 0;
    size_t running = 0;
  };
  Stats stats() const;

  /// Graceful shutdown: stop intake, finish every queued job, join workers.
  void drain();
  /// Crash-flavoured shutdown: stop intake, ask running jobs to stop after
  /// their in-flight trials, join workers.  Interrupted jobs are persisted
  /// as queued and resume on the next start.
  void stop_hard();

  bool accepting() const { return scheduler_.accepting(); }
  const JobStore& store() const { return store_; }
  FairScheduler& scheduler() { return scheduler_; }

 private:
  struct Job {
    std::mutex mu;
    JobRecord record;
    /// Running aggregate of freshly-finished trials (streamed metrics).
    campaign::CampaignReport live;
    /// Final metrics block, set at completion or recovered from the stored
    /// report on restart; empty while the job is live.
    std::string final_metrics_json;
    std::atomic<bool> cancel{false};       // orchestrator stop flag
    std::atomic<bool> user_cancel{false};  // tenant cancel vs daemon stop
    /// The wall-clock deadline fired: the run was stopped via `cancel` and
    /// finalizes as kDeadline instead of kCancelled.
    std::atomic<bool> deadline_exceeded{false};
  };

  std::shared_ptr<Job> find(const std::string& id) const;
  JobView view_of(Job& job) const;
  void worker_loop();
  void run_job(const std::shared_ptr<Job>& job);
  void finalize(Job& job, JobState state, const campaign::CampaignReport& report,
                const std::string& failure);
  void refresh_queue_gauge();
  void join_workers();

  const ServiceOptions options_;
  JobStore store_;
  FairScheduler scheduler_;
  std::unique_ptr<runtime::ThreadPool> pool_;

  mutable std::mutex mu_;
  std::map<std::string, std::shared_ptr<Job>> jobs_;
  u64 next_seq_ = 1;
  Stats stats_;
  bool stopping_ = false;
  bool joined_ = false;

  std::vector<std::thread> workers_;
};

}  // namespace sbm::service
