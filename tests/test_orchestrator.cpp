// campaign::Orchestrator: the reusable trial fan-out behind run_campaign and
// the service daemon — hooks (progress streaming, cancellation, pluggable
// trial body), external-pool sharing, and checkpoint/resume interplay.
//
// Trials here use a deterministic stand-in body (Hooks::trial_fn), so these
// tests exercise orchestration semantics at microsecond cost; the real
// attack path through the same machinery is covered by test_campaign.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <string>
#include <vector>

#include "campaign/checkpoint.h"
#include "campaign/orchestrator.h"
#include "runtime/thread_pool.h"

namespace sbm::campaign {
namespace {

/// Pure function of (options, index) — the TrialFn contract.
TrialOutcome fake_trial(const CampaignOptions& options, size_t index) {
  TrialOutcome t;
  t.index = index;
  t.trial_seed = options.seed * 1000003ull + index * 7919;
  t.protected_variant = options.protected_every != 0 &&
                        index % options.protected_every == options.protected_every - 1;
  t.attack_success = !t.protected_variant;
  t.key_match = t.attack_success;
  t.expected = true;
  t.oracle_runs = 10 + index;
  t.cache_hits = index % 3;
  t.probe_calls = t.oracle_runs + t.cache_hits;
  t.phase_runs = {{"fake.scan", index + 1}, {"fake.verify", 2}};
  return t;
}

CampaignOptions base_options(size_t trials) {
  CampaignOptions options;
  options.trials = trials;
  options.threads = 1;
  options.seed = 0xfeedbee5;
  options.protected_every = 4;
  return options;
}

Orchestrator::Hooks fake_hooks() {
  Orchestrator::Hooks hooks;
  hooks.trial_fn = fake_trial;
  return hooks;
}

TEST(Orchestrator, OnTrialStreamsMonotonicProgress) {
  CampaignOptions options = base_options(8);
  Orchestrator::Hooks hooks = fake_hooks();
  std::vector<size_t> completed_seq;
  hooks.on_trial = [&](const TrialOutcome&, size_t completed, size_t total) {
    EXPECT_EQ(total, 8u);
    completed_seq.push_back(completed);
  };
  const CampaignReport report = Orchestrator().run(options, hooks);
  ASSERT_EQ(completed_seq.size(), 8u);
  for (size_t i = 0; i < completed_seq.size(); ++i) EXPECT_EQ(completed_seq[i], i + 1);
  EXPECT_EQ(report.trials.size(), 8u);
  EXPECT_EQ(report.cancelled_trials, 0u);
  EXPECT_TRUE(report.all_expected());
}

TEST(Orchestrator, AggregateMatchesAccumulatePerTrial) {
  const CampaignOptions options = base_options(6);
  const CampaignReport report = Orchestrator().run(options, fake_hooks());
  CampaignReport manual;
  for (const TrialOutcome& t : report.trials) manual.accumulate(t);
  EXPECT_EQ(manual.totals.oracle_runs, report.totals.oracle_runs);
  EXPECT_EQ(manual.totals.probe_calls, report.totals.probe_calls);
  EXPECT_EQ(manual.unprotected_successes, report.unprotected_successes);
  EXPECT_EQ(manual.protected_resisted, report.protected_resisted);
  EXPECT_EQ(manual.phase_run_totals, report.phase_run_totals);
}

TEST(Orchestrator, CancelSkipsRemainingTrials) {
  CampaignOptions options = base_options(8);
  std::atomic<bool> cancel{false};
  Orchestrator::Hooks hooks = fake_hooks();
  hooks.cancel = &cancel;
  hooks.on_trial = [&](const TrialOutcome&, size_t completed, size_t) {
    if (completed == 3) cancel.store(true);
  };
  const CampaignReport report = Orchestrator().run(options, hooks);
  EXPECT_EQ(report.trials.size(), 3u);
  EXPECT_EQ(report.cancelled_trials, 5u);
  // The finished prefix is still coherently aggregated.
  size_t oracle = 0;
  for (const TrialOutcome& t : report.trials) oracle += t.oracle_runs;
  EXPECT_EQ(report.totals.oracle_runs, oracle);
}

TEST(Orchestrator, CancelledRunResumesToIdenticalFingerprint) {
  const std::string path = ::testing::TempDir() + "sbm_orch_cancel_resume.json";
  std::remove(path.c_str());

  CampaignOptions options = base_options(10);
  const CampaignReport straight = Orchestrator().run(options, fake_hooks());

  options.checkpoint_path = path;
  std::atomic<bool> cancel{false};
  Orchestrator::Hooks hooks = fake_hooks();
  hooks.cancel = &cancel;
  hooks.on_trial = [&](const TrialOutcome&, size_t completed, size_t) {
    if (completed == 4) cancel.store(true);
  };
  const CampaignReport interrupted = Orchestrator().run(options, hooks);
  EXPECT_EQ(interrupted.trials.size(), 4u);
  EXPECT_NE(interrupted.fingerprint(), straight.fingerprint());

  options.resume = true;
  const CampaignReport resumed = Orchestrator().run(options, fake_hooks());
  EXPECT_EQ(resumed.trials.size(), 10u);
  EXPECT_EQ(resumed.resumed_trials, 4u);
  EXPECT_EQ(resumed.fingerprint(), straight.fingerprint());
  std::remove(path.c_str());
}

TEST(Orchestrator, ExternalPoolAndThreadCountInvariance) {
  CampaignOptions options = base_options(12);
  const u64 serial_fp = Orchestrator(nullptr).run(options, fake_hooks()).fingerprint();

  runtime::ThreadPool pool(8);
  const Orchestrator shared(&pool);
  EXPECT_EQ(shared.run(options, fake_hooks()).fingerprint(), serial_fp);
  // The same orchestrator serves several runs off one pool (daemon usage).
  EXPECT_EQ(shared.run(options, fake_hooks()).fingerprint(), serial_fp);

  options.threads = 8;
  EXPECT_EQ(Orchestrator().run(options, fake_hooks()).fingerprint(), serial_fp);
}

TEST(Orchestrator, RunCampaignRoutesThroughDefaultTrialBody) {
  // No trial_fn: the orchestrator must run the real attack trial.  One tiny
  // trial keeps this cheap; full campaign behaviour lives in test_campaign.
  CampaignOptions options;
  options.trials = 1;
  options.threads = 1;
  options.seed = 0x7e57;
  const CampaignReport direct = Orchestrator().run(options);
  const CampaignReport via_run_campaign = run_campaign(options);
  EXPECT_EQ(direct.fingerprint(), via_run_campaign.fingerprint());
  EXPECT_EQ(direct.trials.size(), 1u);
  EXPECT_TRUE(direct.trials[0].attack_success);
}

}  // namespace
}  // namespace sbm::campaign
