// Per-tenant weighted fair queuing with bounded queues and backpressure
// (DESIGN.md §4h).
//
// Start-time fair queuing over tenants: each queued job gets a virtual
// finish tag `max(V, tenant.last_tag) + cost / weight` at push time, where V
// is the scheduler's virtual clock (advanced to the tag of each job it
// dispatches); pop_wait() always dispatches the job with the smallest head
// tag (ties broken by tenant name, then submission order — fully
// deterministic).  A tenant with weight 2 therefore accrues tags at half
// the rate and receives twice the throughput of a weight-1 tenant under
// saturation, while an idle tenant's first job starts at V (no banked
// credit for past idleness).
//
// Bounded queues: a tenant over its per-tenant cap — or the scheduler over
// its global cap — gets a 429-style Rejection carrying a retry_after_ms
// hint derived from an EWMA of recent job durations and the current
// backlog, so well-behaved clients can back off honestly instead of
// hammering.
//
// Shutdown comes in two flavours: drain_close() stops intake but lets
// pop_wait() hand out the backlog until empty, hard_close() stops intake
// and wakes every popper immediately (queued jobs stay in the job store for
// the next daemon start).
#pragma once

#include <condition_variable>
#include <deque>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "common/bits.h"

namespace sbm::service {

struct SchedulerLimits {
  size_t per_tenant_capacity = 64;
  size_t total_capacity = 1024;
  /// Concurrent job slots the hint math assumes (the service's workers).
  size_t workers = 1;
};

class FairScheduler {
 public:
  explicit FairScheduler(SchedulerLimits limits);

  struct Rejection {
    int code = 429;
    const char* reason = "queue_full";
    size_t retry_after_ms = 0;
  };

  /// Enqueues job_id for `tenant`.  `cost` is the job's size proxy (the
  /// campaign's trial count); `weight` > 0 updates the tenant's WFQ weight.
  /// nullopt = accepted; a Rejection means the caller must not enqueue.
  std::optional<Rejection> push(const std::string& tenant, double weight, double cost,
                                std::string job_id);
  /// Blocks until a job can be dispatched.  nullopt once the scheduler is
  /// closed (immediately for hard_close, after the backlog drains for
  /// drain_close).
  std::optional<std::string> pop_wait();
  /// Non-blocking pop; nullopt when nothing is queued.
  std::optional<std::string> try_pop();
  /// Removes a still-queued job (cancellation).  False when not queued.
  bool erase(const std::string& job_id);

  /// Duration sample for the retry_after_ms hint (EWMA, alpha 1/4).
  void note_job_ms(double ms);

  size_t queued() const;
  bool accepting() const;

  void drain_close();
  void hard_close();

 private:
  struct Item {
    std::string job_id;
    double tag = 0;
  };
  struct Tenant {
    std::deque<Item> q;
    double weight = 1.0;
    double last_tag = 0;
  };

  std::optional<std::string> pop_locked();
  size_t hint_locked() const;

  const SchedulerLimits limits_;
  mutable std::mutex mu_;
  std::condition_variable ready_;
  std::map<std::string, Tenant> tenants_;
  double vclock_ = 0;
  size_t queued_ = 0;
  double ewma_job_ms_ = 0;  // 0 = no sample yet (a default is substituted)
  bool accepting_ = true;
  bool hard_closed_ = false;
};

}  // namespace sbm::service
