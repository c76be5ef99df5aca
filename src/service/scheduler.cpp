#include "service/scheduler.h"

#include <algorithm>

namespace sbm::service {

namespace {

/// Before any job has finished, rejections assume this per-job cost.
constexpr double kDefaultJobMs = 100;
constexpr size_t kMinRetryMs = 25;
constexpr size_t kMaxRetryMs = 30'000;

}  // namespace

FairScheduler::FairScheduler(SchedulerLimits limits) : limits_(limits) {}

std::optional<FairScheduler::Rejection> FairScheduler::push(const std::string& tenant,
                                                            double weight, double cost,
                                                            std::string job_id) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!accepting_) {
    return Rejection{503, "shutting_down", hint_locked()};
  }
  if (queued_ >= limits_.total_capacity) {
    return Rejection{429, "queue_full", hint_locked()};
  }
  Tenant& t = tenants_[tenant];
  if (weight > 0) t.weight = weight;
  if (t.q.size() >= limits_.per_tenant_capacity) {
    return Rejection{429, "tenant_queue_full", hint_locked()};
  }
  // Start-time fair queuing: tags accrue from the virtual clock, per tenant,
  // at a rate inversely proportional to its weight.
  const double tag = std::max(vclock_, t.last_tag) + std::max(cost, 1.0) / t.weight;
  t.last_tag = tag;
  t.q.push_back(Item{std::move(job_id), tag});
  ++queued_;
  ready_.notify_one();
  return std::nullopt;
}

std::optional<std::string> FairScheduler::pop_locked() {
  const Tenant* best = nullptr;
  const std::string* best_name = nullptr;
  for (const auto& [name, t] : tenants_) {
    if (t.q.empty()) continue;
    // Smallest head tag wins; the map iteration order (tenant name) breaks
    // ties deterministically.
    if (best == nullptr || t.q.front().tag < best->q.front().tag) {
      best = &t;
      best_name = &name;
    }
  }
  if (best == nullptr) return std::nullopt;
  Tenant& t = tenants_[*best_name];
  Item item = std::move(t.q.front());
  t.q.pop_front();
  --queued_;
  vclock_ = std::max(vclock_, item.tag);
  return std::move(item.job_id);
}

std::optional<std::string> FairScheduler::pop_wait() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    if (hard_closed_) return std::nullopt;
    if (auto id = pop_locked()) return id;
    if (!accepting_) return std::nullopt;  // drained
    ready_.wait(lock);
  }
}

std::optional<std::string> FairScheduler::try_pop() {
  const std::lock_guard<std::mutex> lock(mu_);
  if (hard_closed_) return std::nullopt;
  return pop_locked();
}

bool FairScheduler::erase(const std::string& job_id) {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, t] : tenants_) {
    for (auto it = t.q.begin(); it != t.q.end(); ++it) {
      if (it->job_id == job_id) {
        t.q.erase(it);
        --queued_;
        return true;
      }
    }
  }
  return false;
}

void FairScheduler::note_job_ms(double ms) {
  const std::lock_guard<std::mutex> lock(mu_);
  ewma_job_ms_ = ewma_job_ms_ == 0 ? ms : ewma_job_ms_ * 0.75 + ms * 0.25;
}

size_t FairScheduler::hint_locked() const {
  const double per_job = ewma_job_ms_ == 0 ? kDefaultJobMs : ewma_job_ms_;
  const double backlog = static_cast<double>(queued_ + 1);
  const double workers = static_cast<double>(std::max<size_t>(limits_.workers, 1));
  const double hint = per_job * backlog / workers;
  return static_cast<size_t>(
      std::clamp(hint, static_cast<double>(kMinRetryMs), static_cast<double>(kMaxRetryMs)));
}

size_t FairScheduler::queued() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return queued_;
}

bool FairScheduler::accepting() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return accepting_;
}

void FairScheduler::drain_close() {
  const std::lock_guard<std::mutex> lock(mu_);
  accepting_ = false;
  ready_.notify_all();
}

void FairScheduler::hard_close() {
  const std::lock_guard<std::mutex> lock(mu_);
  accepting_ = false;
  hard_closed_ = true;
  ready_.notify_all();
}

}  // namespace sbm::service
