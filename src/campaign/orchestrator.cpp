#include "campaign/orchestrator.h"

#include <chrono>
#include <cstdio>
#include <mutex>
#include <optional>

#include "attack/scan.h"
#include "attack/scan_engine.h"
#include "campaign/checkpoint.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"

namespace sbm::campaign {

CampaignReport Orchestrator::run(const CampaignOptions& options, const Hooks& hooks) const {
  const auto start = std::chrono::steady_clock::now();
  obs::Span span("campaign", "run_campaign", "trials", options.trials);
  CampaignReport report;
  report.options = options;

  // Resume: trials the checkpoint file already covers are answered from it
  // verbatim instead of being re-run.  The signature check rejects files
  // from a different campaign (other seed, trial count, noise, ...).
  std::vector<TrialOutcome> resumed(options.trials);
  std::vector<char> have(options.trials, 0);
  std::vector<TrialOutcome> saved;  // checkpoint contents, under record_mutex
  if (options.resume && !options.checkpoint_path.empty()) {
    if (auto cp = load_checkpoint(options.checkpoint_path, options)) {
      for (TrialOutcome& t : cp->completed) {
        if (t.index < options.trials && !have[t.index]) {
          have[t.index] = 1;
          resumed[t.index] = t;
          saved.push_back(std::move(t));
          ++report.resumed_trials;
        }
      }
      if (options.verbose) {
        std::printf("[campaign] resumed %zu/%zu trials from %s\n", report.resumed_trials,
                    options.trials, options.checkpoint_path.c_str());
      }
    }
  }

  // CLI-style runs own a pool sized by options.threads; daemon-style runs
  // share the externally supplied one (which may be null = serial).
  std::optional<runtime::ThreadPool> owned;
  runtime::ThreadPool* pool = pool_;
  if (!external_pool_) {
    owned.emplace(options.threads);
    pool = &*owned;
  }
  report.threads_used = pool != nullptr ? pool->concurrency() : 1;

  // Compile the shared pattern indexes of the standard scan families once,
  // up front: trials fanning out below hit the cache instead of racing to
  // build identical indexes on first use.
  attack::warm_scan_indexes();

  const TrialFn trial = hooks.trial_fn ? hooks.trial_fn : TrialFn(&run_trial);
  std::mutex record_mutex;
  size_t completed = report.resumed_trials;
  auto record = [&](const TrialOutcome& out) {
    const std::lock_guard<std::mutex> lock(record_mutex);
    if (!options.checkpoint_path.empty()) {
      saved.push_back(out);
      save_checkpoint(options.checkpoint_path, options, saved);
    }
    ++completed;
    if (hooks.on_trial) hooks.on_trial(out, completed, options.trials);
  };

  // Trial-level fan-out, the only one: each trial runs on one pool thread.
  // parallel_map keeps the outcomes in trial order.
  // `ran[i]` clears when trial i was skipped by cancellation — those slots
  // are compacted out below so a cancelled report carries only real trials.
  std::vector<char> ran(options.trials, 1);
  report.trials = runtime::parallel_map(
      pool, options.trials,
      [&](size_t i) {
        if (have[i]) return resumed[i];
        if (hooks.cancel != nullptr && hooks.cancel->load(std::memory_order_relaxed)) {
          ran[i] = 0;
          return TrialOutcome{};
        }
        TrialOutcome out = trial(options, i);
        record(out);
        if (options.verbose) {
          std::printf("[campaign] trial %zu/%zu: %s%s (%zu oracle runs, %zu cache hits, %.1fs)\n",
                      i + 1, options.trials, out.protected_variant ? "protected, " : "",
                      out.expected ? "as expected" : "UNEXPECTED", out.oracle_runs,
                      out.cache_hits, out.wall_seconds);
        }
        return out;
      });

  size_t kept = 0;
  for (size_t i = 0; i < report.trials.size(); ++i) {
    if (ran[i]) {
      if (kept != i) report.trials[kept] = std::move(report.trials[i]);
      ++kept;
    }
  }
  report.cancelled_trials = report.trials.size() - kept;
  report.trials.resize(kept);

  for (const TrialOutcome& t : report.trials) report.accumulate(t);
  report.scan_index_cache_entries = attack::pattern_index_cache_size();
  report.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  if (report.resumed_trials != 0) {
    obs::MetricsRegistry::global().counter("campaign.trials_resumed").add(report.resumed_trials);
  }
  span.arg("resumed", report.resumed_trials);
  return report;
}

}  // namespace sbm::campaign
