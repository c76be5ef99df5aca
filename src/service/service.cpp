#include "service/service.h"

#include <chrono>
#include <cstdio>

#include "campaign/checkpoint.h"
#include "campaign/orchestrator.h"
#include "common/json.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"

namespace sbm::service {

namespace {

/// Deterministic stand-in trial for kSynthetic jobs: the same (seed, index)
/// seed derivation and protected-variant cadence as run_trial, with outcome
/// counters drawn from the trial seed instead of a real attack.  It obeys
/// the purity rule of Orchestrator::TrialFn, so the whole determinism
/// contract — fingerprint stability across thread counts and across
/// checkpoint/resume — is exercised at load-test rates.
campaign::TrialOutcome synthetic_trial(const campaign::CampaignOptions& options, size_t index,
                                       u32 sleep_ms) {
  campaign::TrialOutcome out;
  out.index = index;
  out.trial_seed = campaign::trial_seed(options, index);
  out.protected_variant = campaign::is_protected_trial(options, index);
  out.attack_success = !out.protected_variant;
  out.key_match = out.attack_success;
  out.expected = true;
  out.oracle_runs = 40 + out.trial_seed % 25;
  out.cache_hits = out.trial_seed % 7;
  out.probe_calls = out.oracle_runs + out.cache_hits;
  out.lut_sites = 1000 + out.trial_seed % 128;
  out.phase_runs = {{"synthetic.scan", out.oracle_runs - out.oracle_runs / 3},
                    {"synthetic.verify", out.oracle_runs / 3}};
  out.physical_runs = out.oracle_runs;
  if (sleep_ms != 0) std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  out.wall_seconds = sleep_ms / 1000.0;
  return out;
}

/// The "metrics" member of a stored campaign report, re-rendered compactly;
/// empty when absent (failed jobs have no report).
std::string extract_metrics(const std::string& report_json) {
  if (report_json.empty()) return {};
  const std::optional<JsonValue> doc = parse_json(report_json);
  if (!doc || !doc->is_object()) return {};
  const JsonValue* metrics = doc->find("metrics");
  return metrics == nullptr ? std::string() : metrics->dump();
}

struct ServiceMetrics {
  obs::Counter& submitted;
  obs::Counter& rejected;
  obs::Counter& completed;
  obs::Counter& failed;
  obs::Counter& cancelled;
  obs::Counter& deadline;
  obs::Counter& resumed_jobs;
  obs::Counter& trials_completed;
  obs::Gauge& queue_depth;
  obs::Histogram& job_ms;

  static ServiceMetrics& get() {
    static ServiceMetrics m{obs::MetricsRegistry::global().counter("service.jobs_submitted"),
                            obs::MetricsRegistry::global().counter("service.jobs_rejected"),
                            obs::MetricsRegistry::global().counter("service.jobs_completed"),
                            obs::MetricsRegistry::global().counter("service.jobs_failed"),
                            obs::MetricsRegistry::global().counter("service.jobs_cancelled"),
                            obs::MetricsRegistry::global().counter("service.jobs_deadline"),
                            obs::MetricsRegistry::global().counter("service.jobs_resumed"),
                            obs::MetricsRegistry::global().counter("service.trials_completed"),
                            obs::MetricsRegistry::global().gauge("service.queue_depth"),
                            obs::MetricsRegistry::global().histogram("service.job_ms")};
    return m;
  }
};

std::string job_id_of(u64 seq) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "j-%06llu", static_cast<unsigned long long>(seq));
  return buf;
}

double job_cost(const JobSpec& spec) {
  return static_cast<double>(std::max<size_t>(spec.options.trials, 1));
}

}  // namespace

void write_job_view(JsonWriter& w, const JobView& view, bool include_metrics) {
  w.begin_object();
  w.field("id", view.id)
      .field("tenant", view.tenant)
      .field("mode", std::string(to_string(view.mode)))
      .field("state", std::string(to_string(view.state)))
      .field("seq", view.seq)
      .field("trials", view.trials_total)
      .field("trials_done", view.trials_done)
      .field("resumed_trials", view.resumed_trials)
      .field("cancelled_trials", view.cancelled_trials)
      .field("all_expected", view.all_expected)
      .field("fingerprint", view.fingerprint)
      .field("failure", view.failure);
  if (include_metrics && !view.metrics_json.empty()) {
    w.key("metrics").raw_value(view.metrics_json);
  }
  w.end_object();
}

CampaignService::CampaignService(ServiceOptions options)
    : options_(std::move(options)),
      store_(options_.store_dir),
      scheduler_([this] {
        SchedulerLimits limits = options_.limits;
        limits.workers = std::max<size_t>(options_.workers, 1);
        return limits;
      }()),
      pool_(std::make_unique<runtime::ThreadPool>(options_.pool_threads)) {
  const JobStore::Loaded loaded = store_.load_all();
  stats_.corrupt_records = loaded.corrupt;
  for (const JobRecord& rec : loaded.jobs) {
    auto job = std::make_shared<Job>();
    job->record = rec;
    next_seq_ = std::max(next_seq_, rec.seq + 1);
    const bool in_flight = rec.state == JobState::kQueued || rec.state == JobState::kRunning;
    if (!in_flight) {
      job->final_metrics_json = extract_metrics(rec.report_json);
    } else {
      // A job interrupted mid-run goes back to queued; its finished trials
      // live in the checkpoint and will be resumed, not re-run.
      job->record.state = JobState::kQueued;
      if (const auto cp =
              campaign::load_checkpoint(store_.checkpoint_path(rec.id), rec.spec.options)) {
        std::vector<bool> seen(rec.spec.options.trials, false);
        for (const auto& t : cp->completed) {
          if (t.index < seen.size()) seen[t.index] = true;
        }
        size_t done = 0;
        for (const bool s : seen) done += s ? 1 : 0;
        job->record.trials_done = done;
      }
      store_.save(job->record);
      scheduler_.push(rec.spec.tenant, rec.spec.weight, job_cost(rec.spec), rec.id);
      ++stats_.resumed_jobs;
      ServiceMetrics::get().resumed_jobs.add();
      if (options_.verbose) {
        std::fprintf(stderr, "[service] resuming %s (%zu/%zu trials done)\n", rec.id.c_str(),
                     job->record.trials_done, rec.spec.options.trials);
      }
    }
    jobs_.emplace(rec.id, std::move(job));
  }
  const size_t workers = std::max<size_t>(options_.workers, 1);
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

CampaignService::~CampaignService() { stop_hard(); }

CampaignService::Submitted CampaignService::submit(JobSpec spec) {
  Submitted out;
  ServiceMetrics& m = ServiceMetrics::get();
  auto job = std::make_shared<Job>();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      ++stats_.rejected;
      m.rejected.add();
      out.code = 503;
      out.error = "shutting_down";
      return out;
    }
    job->record.seq = next_seq_++;
  }
  job->record.id = job_id_of(job->record.seq);
  job->record.state = JobState::kQueued;
  job->record.spec = std::move(spec);
  {
    const std::lock_guard<std::mutex> lock(mu_);
    jobs_[job->record.id] = job;
  }
  // Persist before enqueueing: once the scheduler can hand the id to a
  // worker, the record must already be durable.
  if (!store_.save(job->record)) {
    const std::lock_guard<std::mutex> lock(mu_);
    jobs_.erase(job->record.id);
    ++stats_.rejected;
    m.rejected.add();
    out.code = 500;
    out.error = "store_write_failed";
    return out;
  }
  if (const auto rej = scheduler_.push(job->record.spec.tenant, job->record.spec.weight,
                                       job_cost(job->record.spec), job->record.id)) {
    {
      const std::lock_guard<std::mutex> lock(mu_);
      jobs_.erase(job->record.id);
      ++stats_.rejected;
    }
    m.rejected.add();
    std::remove(store_.job_path(job->record.id).c_str());
    out.code = rej->code;
    out.error = rej->reason;
    out.retry_after_ms = rej->retry_after_ms;
    return out;
  }
  {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.submitted;
  }
  m.submitted.add();
  out.ok = true;
  out.id = job->record.id;
  out.queue_depth = scheduler_.queued();
  m.queue_depth.set(out.queue_depth);
  return out;
}

std::shared_ptr<CampaignService::Job> CampaignService::find(const std::string& id) const {
  const std::lock_guard<std::mutex> lock(mu_);
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second;
}

JobView CampaignService::view_of(Job& job) const {
  const std::lock_guard<std::mutex> lock(job.mu);
  JobView v;
  v.id = job.record.id;
  v.tenant = job.record.spec.tenant;
  v.mode = job.record.spec.mode;
  v.state = job.record.state;
  v.seq = job.record.seq;
  v.trials_total = job.record.spec.options.trials;
  v.trials_done = job.record.trials_done;
  v.resumed_trials = job.record.resumed_trials;
  v.cancelled_trials = job.record.cancelled_trials;
  v.all_expected = job.record.all_expected;
  v.fingerprint = job.record.fingerprint;
  v.failure = job.record.failure;
  if (!job.final_metrics_json.empty()) {
    v.metrics_json = job.final_metrics_json;
  } else {
    JsonWriter w;
    job.live.write_metrics(w);
    v.metrics_json = w.str();
  }
  return v;
}

std::optional<JobView> CampaignService::status(const std::string& id) const {
  const std::shared_ptr<Job> job = find(id);
  if (!job) return std::nullopt;
  return view_of(*job);
}

std::optional<std::string> CampaignService::result_json(const std::string& id) const {
  const std::shared_ptr<Job> job = find(id);
  if (!job) return std::nullopt;
  const std::lock_guard<std::mutex> lock(job->mu);
  if (job->record.report_json.empty()) return std::nullopt;
  return job->record.report_json;
}

std::vector<JobView> CampaignService::list(const std::string& tenant) const {
  std::vector<std::shared_ptr<Job>> jobs;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    jobs.reserve(jobs_.size());
    for (const auto& [id, job] : jobs_) jobs.push_back(job);
  }
  std::vector<JobView> out;
  out.reserve(jobs.size());
  for (const auto& job : jobs) {
    JobView v = view_of(*job);
    if (!tenant.empty() && v.tenant != tenant) continue;
    out.push_back(std::move(v));
  }
  std::sort(out.begin(), out.end(),
            [](const JobView& a, const JobView& b) { return a.seq < b.seq; });
  return out;
}

std::optional<JobState> CampaignService::cancel(const std::string& id) {
  const std::shared_ptr<Job> job = find(id);
  if (!job) return std::nullopt;
  if (scheduler_.erase(id)) {
    // Still queued: finalize immediately; no trials will run.
    {
      const std::lock_guard<std::mutex> lock(job->mu);
      job->record.state = JobState::kCancelled;
      job->record.cancelled_trials =
          job->record.spec.options.trials - job->record.trials_done;
      store_.save(job->record);
      store_.remove_checkpoint(id);
    }
    {
      const std::lock_guard<std::mutex> lock(mu_);
      ++stats_.cancelled;
    }
    ServiceMetrics::get().cancelled.add();
    refresh_queue_gauge();
    return JobState::kCancelled;
  }
  const std::lock_guard<std::mutex> lock(job->mu);
  switch (job->record.state) {
    case JobState::kQueued:   // popped but not yet running: worker will notice
    case JobState::kRunning:  // stops after its in-flight trials
      job->user_cancel.store(true);
      job->cancel.store(true);
      return job->record.state;
    default:
      return job->record.state;  // terminal; the protocol layer answers 409
  }
}

void CampaignService::refresh_queue_gauge() {
  ServiceMetrics::get().queue_depth.set(scheduler_.queued());
}

std::string CampaignService::metrics_json() const {
  return obs::MetricsRegistry::global().snapshot().to_json();
}

CampaignService::Stats CampaignService::stats() const {
  Stats out;
  std::vector<std::shared_ptr<Job>> jobs;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    out = stats_;
    jobs.reserve(jobs_.size());
    for (const auto& [id, job] : jobs_) jobs.push_back(job);
  }
  for (const auto& job : jobs) {
    const std::lock_guard<std::mutex> lock(job->mu);
    if (job->record.state == JobState::kQueued) ++out.queued;
    if (job->record.state == JobState::kRunning) ++out.running;
  }
  return out;
}

void CampaignService::worker_loop() {
  while (const auto id = scheduler_.pop_wait()) {
    const std::shared_ptr<Job> job = find(*id);
    refresh_queue_gauge();
    if (!job) continue;
    const auto start = std::chrono::steady_clock::now();
    run_job(job);
    const double ms =
        std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - start)
            .count();
    scheduler_.note_job_ms(ms);
    ServiceMetrics::get().job_ms.observe(static_cast<u64>(ms));
  }
}

void CampaignService::run_job(const std::shared_ptr<Job>& job) {
  JobSpec spec;
  {
    const std::lock_guard<std::mutex> lock(job->mu);
    if (job->user_cancel.load()) {
      // Cancelled between pop and start; nothing ran.
      job->record.state = JobState::kCancelled;
      job->record.cancelled_trials =
          job->record.spec.options.trials - job->record.trials_done;
      store_.save(job->record);
      store_.remove_checkpoint(job->record.id);
    } else {
      job->record.state = JobState::kRunning;
      store_.save(job->record);
      spec = job->record.spec;
    }
  }
  if (job->user_cancel.load()) {
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.cancelled;
    ServiceMetrics::get().cancelled.add();
    return;
  }

  campaign::CampaignOptions opt = spec.options;
  opt.checkpoint_path = store_.checkpoint_path(job->record.id);
  opt.resume = true;  // answers pre-restart trials from the checkpoint
  opt.verbose = false;

  campaign::Orchestrator orch(pool_.get());
  campaign::Orchestrator::Hooks hooks;
  hooks.cancel = &job->cancel;
  // Wall-clock deadline: checked after every finished trial (the trial
  // granularity is the service's cancellation granularity throughout), and
  // enforced through the same cancel flag a tenant cancel uses — the
  // deadline_exceeded latch is what finalizes the job as kDeadline instead
  // of kCancelled.
  const double deadline_seconds = spec.options.deadline_seconds;
  const auto job_start = std::chrono::steady_clock::now();
  hooks.on_trial = [this, job, deadline_seconds, job_start](const campaign::TrialOutcome& t,
                                                           size_t completed, size_t total) {
    (void)total;
    {
      const std::lock_guard<std::mutex> lock(job->mu);
      job->record.trials_done = completed;
      job->live.accumulate(t);
    }
    ServiceMetrics::get().trials_completed.add();
    if (deadline_seconds > 0) {
      const double elapsed =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - job_start).count();
      if (elapsed > deadline_seconds && !job->deadline_exceeded.exchange(true)) {
        job->cancel.store(true);
      }
    }
  };
  if (spec.mode == JobMode::kSynthetic) {
    const u32 sleep_ms = spec.synthetic_trial_ms;
    hooks.trial_fn = [sleep_ms](const campaign::CampaignOptions& o, size_t i) {
      return synthetic_trial(o, i, sleep_ms);
    };
  }

  campaign::CampaignReport report;
  std::string failure;
  try {
    report = orch.run(opt, hooks);
  } catch (const std::exception& e) {
    failure = e.what();
  }

  if (!failure.empty()) {
    {
      const std::lock_guard<std::mutex> lock(job->mu);
      job->record.state = JobState::kFailed;
      job->record.failure = failure;
      store_.save(job->record);
    }
    const std::lock_guard<std::mutex> lock(mu_);
    ++stats_.failed;
    ServiceMetrics::get().failed.add();
    return;
  }

  if (job->deadline_exceeded.load()) {
    // Checked before the hard-stop parking below: a deadline also raises
    // the cancel flag, but the job is finished (over budget), not
    // interrupted — parking it would re-run it forever on every restart.
    finalize(*job, JobState::kDeadline, report, "deadline_exceeded");
    return;
  }

  if (job->cancel.load() && !job->user_cancel.load()) {
    // Daemon hard stop, not a tenant cancel: the job is interrupted, not
    // finished.  Park it as queued with its progress persisted — the trials
    // it completed are in the checkpoint, and the next start resumes it.
    const std::lock_guard<std::mutex> lock(job->mu);
    job->record.state = JobState::kQueued;
    job->record.trials_done = report.trials.size();
    store_.save(job->record);
    return;
  }

  const bool cancelled = job->user_cancel.load() && report.cancelled_trials > 0;
  finalize(*job, cancelled ? JobState::kCancelled : JobState::kDone, report, std::string());
}

void CampaignService::finalize(Job& job, JobState state, const campaign::CampaignReport& report,
                               const std::string& failure) {
  JsonWriter metrics;
  report.write_metrics(metrics);
  // The stats ledger is bumped *before* the terminal state becomes visible
  // through status(): a client that polls to a terminal state and then reads
  // stats must find the corresponding counter already incremented.
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (state == JobState::kDone) {
      ++stats_.completed;
      ServiceMetrics::get().completed.add();
    } else if (state == JobState::kDeadline) {
      ++stats_.deadline;
      ServiceMetrics::get().deadline.add();
    } else {
      ++stats_.cancelled;
      ServiceMetrics::get().cancelled.add();
    }
  }
  const std::lock_guard<std::mutex> lock(job.mu);
  job.record.state = state;
  job.record.failure = failure;
  job.record.trials_done = report.trials.size();
  job.record.fingerprint = report.fingerprint();
  job.record.all_expected = report.all_expected();
  job.record.resumed_trials = report.resumed_trials;
  job.record.cancelled_trials = report.cancelled_trials;
  job.record.report_json = report.to_json();
  job.final_metrics_json = metrics.str();
  store_.save(job.record);
  store_.remove_checkpoint(job.record.id);
}

void CampaignService::drain() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  scheduler_.drain_close();
  join_workers();
}

void CampaignService::stop_hard() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  scheduler_.hard_close();
  std::vector<std::shared_ptr<Job>> jobs;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    jobs.reserve(jobs_.size());
    for (const auto& [id, job] : jobs_) jobs.push_back(job);
  }
  // Running jobs stop after their in-flight trials; queued ones were never
  // popped (the scheduler is hard-closed) and stay kQueued in the store.
  for (const auto& job : jobs) job->cancel.store(true);
  join_workers();
}

void CampaignService::join_workers() {
  std::vector<std::thread> workers;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (joined_) return;
    joined_ = true;
    workers.swap(workers_);
  }
  for (std::thread& t : workers) t.join();
}

}  // namespace sbm::service
