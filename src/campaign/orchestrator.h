// Reusable campaign orchestration: the trial fan-out, checkpoint/resume and
// aggregation machinery behind run_campaign, factored out so both the
// one-shot CLI (examples/campaign.cpp) and the long-running campaign daemon
// (src/service/) drive campaigns through the same code path.
//
// Differences from the bare run_campaign entry point:
//   * an Orchestrator may be constructed over an *external* ThreadPool, so a
//     daemon can share one pool across many concurrent jobs instead of
//     spinning one up per campaign (options.threads is then ignored);
//   * a run is cancellable: Hooks::cancel is polled before each not-yet-run
//     trial, and a cancelled run returns a report carrying only the trials
//     that finished (cancelled_trials counts the ones skipped);
//   * per-trial progress streams through Hooks::on_trial — the daemon uses
//     it to persist job progress and publish live per-job metrics;
//   * the trial body itself is pluggable through Hooks::trial_fn, which is
//     how the service's synthetic calibration jobs (load tests that exercise
//     scheduling and persistence without paying a full attack per trial) run
//     through the identical orchestration/checkpoint path.
//
// The determinism contract of campaign.h is unchanged: for a given
// CampaignOptions, an uncancelled run produces the same fingerprint for any
// pool size, batch width, and across checkpoint/resume.
#pragma once

#include <atomic>
#include <functional>

#include "campaign/campaign.h"

namespace sbm::runtime {
class ThreadPool;
}

namespace sbm::campaign {

class Orchestrator {
 public:
  /// Replacement trial body; the default is run_trial.  Must obey the same
  /// purity rule: the outcome derives from (options, index) only.
  using TrialFn = std::function<TrialOutcome(const CampaignOptions&, size_t index)>;

  struct Hooks {
    /// Polled before each not-yet-run trial; once true, remaining trials are
    /// skipped (in-flight ones finish).  Null = never cancelled.
    const std::atomic<bool>* cancel = nullptr;
    /// Called after each freshly-run trial has been recorded (checkpoint
    /// saved), serialized under the orchestrator's record lock.  `completed`
    /// counts resumed + finished trials so far, `total` is options.trials.
    std::function<void(const TrialOutcome&, size_t completed, size_t total)> on_trial;
    /// Override the trial body (synthetic jobs); empty = run_trial.
    TrialFn trial_fn;
  };

  /// Owns a fresh pool of options.threads for every run (CLI behaviour).
  Orchestrator() = default;
  /// Shares `pool` across runs; options.threads is ignored.  `pool` may be
  /// null (serial) and must outlive the orchestrator.
  explicit Orchestrator(runtime::ThreadPool* pool) : pool_(pool), external_pool_(true) {}

  CampaignReport run(const CampaignOptions& options) const { return run(options, Hooks()); }
  CampaignReport run(const CampaignOptions& options, const Hooks& hooks) const;

 private:
  runtime::ThreadPool* pool_ = nullptr;
  bool external_pool_ = false;
};

}  // namespace sbm::campaign
