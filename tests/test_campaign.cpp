// Campaign subsystem tests + the runtime determinism contract on the real
// attack workloads: scan_family and the full pipeline must produce
// byte-identical results for 1 and 8 threads, and a campaign report must be
// identical (minus wall-clock) for any thread count.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "attack/pipeline.h"
#include "attack/scan.h"
#include "campaign/campaign.h"
#include "common/json.h"
#include "campaign/checkpoint.h"
#include "fpga/system.h"
#include "runtime/probe_cache.h"
#include "runtime/thread_pool.h"

namespace sbm {
namespace {

constexpr snow3g::Iv kHostIv = {0xea024714, 0xad5c4d84, 0xdf1f9b25, 0x1c0bf45f};

const fpga::System& shared_system() {
  static const fpga::System sys = fpga::build_system();
  return sys;
}

TEST(RuntimeDeterminism, ScanFamilyIsThreadCountInvariant) {
  const fpga::System& sys = shared_system();
  attack::FindLutOptions serial_opt;  // pool == nullptr
  const auto serial =
      attack::scan_family(sys.golden.bytes, attack::attack_family(), serial_opt);

  for (const unsigned threads : {1u, 8u}) {
    runtime::ThreadPool pool(threads);
    attack::FindLutOptions opt;
    opt.pool = &pool;
    opt.shard_grain = 1 << 10;  // force real sharding even on this bitstream
    const auto parallel =
        attack::scan_family(sys.golden.bytes, attack::attack_family(), opt);
    ASSERT_EQ(parallel.size(), serial.size()) << threads << " threads";
    for (size_t c = 0; c < serial.size(); ++c) {
      EXPECT_EQ(parallel[c].matches, serial[c].matches)
          << "candidate " << serial[c].candidate.name << ", " << threads << " threads";
    }
  }
}

TEST(RuntimeDeterminism, FindLutShardingMatchesSerial) {
  const fpga::System& sys = shared_system();
  const logic::TruthTable6 f = attack::attack_family().front().function;
  const auto serial = attack::find_lut(sys.golden.bytes, f);
  runtime::ThreadPool pool(8);
  attack::FindLutOptions opt;
  opt.pool = &pool;
  opt.shard_grain = 1;  // as many shards as the pool will take
  EXPECT_EQ(attack::find_lut(sys.golden.bytes, f, opt), serial);
}

TEST(RuntimeDeterminism, FullAttackIsThreadCountInvariant) {
  // The ISSUE's core acceptance test: Attack::execute() with 1 and with 8
  // threads (probe cache on) produces byte-identical results.
  const fpga::System& sys = shared_system();
  std::vector<attack::AttackResult> results;
  for (const unsigned threads : {1u, 8u}) {
    runtime::ThreadPool pool(threads);
    runtime::ProbeCache cache;
    attack::DeviceOracle oracle(sys, kHostIv);
    attack::PipelineConfig cfg;
    cfg.iv = kHostIv;
    cfg.find.pool = &pool;
    cfg.cache = &cache;
    attack::Attack attack(oracle, sys.golden.bytes, cfg);
    results.push_back(attack.execute());
    ASSERT_TRUE(results.back().success) << results.back().failure;
  }
  const attack::AttackResult& a = results[0];
  const attack::AttackResult& b = results[1];
  EXPECT_EQ(a.secrets.key, b.secrets.key);
  EXPECT_EQ(a.secrets.iv, b.secrets.iv);
  EXPECT_EQ(a.faulty_keystream, b.faulty_keystream);
  EXPECT_EQ(a.recovered_state, b.recovered_state);
  EXPECT_EQ(a.oracle_runs, b.oracle_runs);
  EXPECT_EQ(a.cache_hits, b.cache_hits);
  EXPECT_EQ(a.probe_calls, b.probe_calls);
  EXPECT_EQ(a.phase_runs, b.phase_runs);
  EXPECT_EQ(a.mux_patches, b.mux_patches);
  EXPECT_EQ(a.log, b.log);
  ASSERT_EQ(a.lut1.size(), b.lut1.size());
  for (size_t i = 0; i < a.lut1.size(); ++i) {
    EXPECT_EQ(a.lut1[i].match, b.lut1[i].match);
    EXPECT_EQ(a.lut1[i].bit, b.lut1[i].bit);
    EXPECT_EQ(a.lut1[i].trio, b.lut1[i].trio);
    EXPECT_EQ(a.lut1[i].s0_var, b.lut1[i].s0_var);
  }
  ASSERT_EQ(a.feedback.size(), b.feedback.size());
  for (size_t i = 0; i < a.feedback.size(); ++i) {
    EXPECT_EQ(a.feedback[i].byte_index, b.feedback[i].byte_index);
    EXPECT_EQ(a.feedback[i].half, b.feedback[i].half);
    EXPECT_EQ(a.feedback[i].zero_all, b.feedback[i].zero_all);
    EXPECT_EQ(a.feedback[i].zero_vars, b.feedback[i].zero_vars);
    EXPECT_EQ(a.feedback[i].bit, b.feedback[i].bit);
  }
  // The recovered key is the planted one, and the cache never inflates the
  // paper's cost metric: true oracle runs + hits account for every probe.
  EXPECT_EQ(a.secrets.key, sys.options.key);
  EXPECT_EQ(a.oracle_runs + a.cache_hits, a.probe_calls);
}

TEST(Campaign, TrialIsSelfContainedAndSeeded) {
  campaign::CampaignOptions opt;
  opt.trials = 1;
  opt.seed = 0x1234;
  const campaign::TrialOutcome once = campaign::run_trial(opt, 0, nullptr);
  const campaign::TrialOutcome again = campaign::run_trial(opt, 0, nullptr);
  EXPECT_EQ(once.trial_seed, again.trial_seed);
  EXPECT_EQ(once.attack_success, again.attack_success);
  EXPECT_EQ(once.oracle_runs, again.oracle_runs);
  EXPECT_EQ(once.cache_hits, again.cache_hits);
  EXPECT_TRUE(once.expected) << once.failure;
  EXPECT_TRUE(once.key_match);

  // A different trial index yields a different victim.
  const campaign::TrialOutcome other = campaign::run_trial(opt, 1, nullptr);
  EXPECT_NE(once.trial_seed, other.trial_seed);
}

TEST(Campaign, ProtectedScheduleAndExpectations) {
  campaign::CampaignOptions opt;
  opt.trials = 2;
  opt.protected_every = 2;  // trial 1 (0-based) is protected
  opt.threads = 2;
  opt.seed = 0xcafe;
  const campaign::CampaignReport report = campaign::run_campaign(opt);
  ASSERT_EQ(report.trials.size(), 2u);
  EXPECT_FALSE(report.trials[0].protected_variant);
  EXPECT_TRUE(report.trials[1].protected_variant);
  EXPECT_EQ(report.unprotected_trials, 1u);
  EXPECT_EQ(report.protected_trials, 1u);
  // Paper behaviour: unprotected key recovered, protected resists.
  EXPECT_EQ(report.unprotected_successes, 1u);
  EXPECT_EQ(report.protected_resisted, 1u);
  EXPECT_TRUE(report.all_expected());
  EXPECT_FALSE(report.trials[1].attack_success);
  EXPECT_FALSE(report.trials[1].failure.empty());

  // Aggregates tie out with the per-trial rows.
  size_t runs = 0;
  for (const auto& t : report.trials) runs += t.oracle_runs;
  EXPECT_EQ(runs, report.total_oracle_runs);

  // JSON report carries the machine-readable essentials.
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"aggregate\""), std::string::npos);
  EXPECT_NE(json.find("\"fingerprint\""), std::string::npos);
  EXPECT_NE(json.find("\"trials\":["), std::string::npos);
  EXPECT_NE(json.find("\"protected\":true"), std::string::npos);
}

TEST(Campaign, ReportCarriesACanonicalMetricsBlock) {
  // The JSON report's `metrics` object is the machine-readable entry point
  // for dashboards; the historical aggregate total_* fields stay as aliases
  // and the two views must agree field for field.
  campaign::CampaignOptions opt;
  opt.trials = 2;
  opt.protected_every = 2;
  opt.threads = 2;
  opt.seed = 0xcafe;
  const campaign::CampaignReport report = campaign::run_campaign(opt);

  const auto doc = parse_json(report.to_json());
  ASSERT_TRUE(doc.has_value());
  const JsonValue* metrics = doc->find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_TRUE(metrics->is_object());
  EXPECT_EQ(metrics->find("oracle_runs")->as_u64(), report.total_oracle_runs);
  EXPECT_EQ(metrics->find("cache_hits")->as_u64(), report.total_cache_hits);
  EXPECT_EQ(metrics->find("probe_calls")->as_u64(), report.total_probe_calls);
  EXPECT_EQ(metrics->find("physical_runs")->as_u64(), report.total_physical_runs);
  EXPECT_EQ(metrics->find("retry_runs")->as_u64(), report.total_retry_runs);
  EXPECT_EQ(metrics->find("vote_runs")->as_u64(), report.total_vote_runs);
  // Device work counters: present, summed over trials, and informational
  // only — the fingerprint ignores them.
  EXPECT_EQ(metrics->find("sites_decoded")->as_u64(), report.total_sites_decoded);
  EXPECT_EQ(metrics->find("parent_promotions")->as_u64(), report.total_parent_promotions);
  EXPECT_EQ(metrics->find("parent_hits")->as_u64(), report.total_parent_hits);
  EXPECT_GT(report.total_sites_decoded, 0u);
  EXPECT_GT(report.total_parent_promotions, 0u);
  EXPECT_GT(report.total_parent_hits, 0u);
  campaign::CampaignReport perturbed = report;
  perturbed.trials[0].sites_decoded += 1;
  perturbed.trials[0].parent_promotions += 1;
  perturbed.trials[0].parent_hits += 1;
  EXPECT_EQ(perturbed.fingerprint(), report.fingerprint());

  const JsonValue* phases = metrics->find("phase_oracle_runs");
  ASSERT_NE(phases, nullptr);
  ASSERT_EQ(phases->members.size(), report.phase_run_totals.size());
  for (const auto& [phase, runs] : report.phase_run_totals) {
    const JsonValue* v = phases->find(phase);
    ASSERT_NE(v, nullptr) << phase;
    EXPECT_EQ(v->as_u64(), runs) << phase;
  }

  // The aggregate aliases are still present for existing consumers.
  const JsonValue* aggregate = doc->find("aggregate");
  ASSERT_NE(aggregate, nullptr);
  EXPECT_EQ(aggregate->find("total_oracle_runs")->as_u64(), report.total_oracle_runs);
}

TEST(Campaign, FingerprintIsThreadCountInvariant) {
  campaign::CampaignOptions opt;
  opt.trials = 2;
  opt.protected_every = 2;  // one real attack + one cheap protected trial
  opt.seed = 0xd15ea5e;
  opt.threads = 1;
  const campaign::CampaignReport serial = campaign::run_campaign(opt);
  opt.threads = 8;
  const campaign::CampaignReport parallel = campaign::run_campaign(opt);
  EXPECT_EQ(serial.fingerprint(), parallel.fingerprint());
  EXPECT_EQ(serial.trials.size(), parallel.trials.size());
  for (size_t i = 0; i < serial.trials.size(); ++i) {
    EXPECT_EQ(serial.trials[i].oracle_runs, parallel.trials[i].oracle_runs) << "trial " << i;
    EXPECT_EQ(serial.trials[i].phase_runs, parallel.trials[i].phase_runs) << "trial " << i;
  }
}

TEST(CampaignCheckpoint, TrialOutcomeRoundTripsThroughTheCheckpointFile) {
  campaign::CampaignOptions opt;
  opt.trials = 2;
  opt.protected_every = 1;  // protected trial: cheap, fails fast
  opt.seed = 0x0ddba11;
  const campaign::TrialOutcome t = campaign::run_trial(opt, 0, nullptr);

  const std::string path = ::testing::TempDir() + "sbm_trial_roundtrip.json";
  ASSERT_TRUE(campaign::save_checkpoint(path, opt, {t}));
  const auto cp = campaign::load_checkpoint(path, opt);
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->signature, campaign::options_signature(opt));
  ASSERT_EQ(cp->completed.size(), 1u);
  const campaign::TrialOutcome& back = cp->completed[0];
  EXPECT_EQ(back.index, t.index);
  EXPECT_EQ(back.trial_seed, t.trial_seed);
  EXPECT_EQ(back.protected_variant, t.protected_variant);
  EXPECT_EQ(back.attack_success, t.attack_success);
  EXPECT_EQ(back.key_match, t.key_match);
  EXPECT_EQ(back.expected, t.expected);
  EXPECT_EQ(back.failure, t.failure);
  EXPECT_EQ(back.oracle_runs, t.oracle_runs);
  EXPECT_EQ(back.cache_hits, t.cache_hits);
  EXPECT_EQ(back.probe_calls, t.probe_calls);
  EXPECT_EQ(back.lut_sites, t.lut_sites);
  EXPECT_EQ(back.phase_runs, t.phase_runs);
  EXPECT_EQ(back.physical_runs, t.physical_runs);
  std::remove(path.c_str());
}

TEST(CampaignCheckpoint, ResumeAfterKillYieldsIdenticalFingerprint) {
  // The acceptance scenario: a campaign killed after trial k, resumed from
  // its checkpoint file, reports the same fingerprint as an uninterrupted
  // run — for 1 and for 8 worker threads.
  campaign::CampaignOptions opt;
  opt.trials = 4;
  opt.protected_every = 2;  // trials 1 and 3 are cheap protected trials
  opt.seed = 0xc4ec;
  opt.threads = 1;
  const campaign::CampaignReport reference = campaign::run_campaign(opt);
  ASSERT_TRUE(reference.all_expected());

  // The "killed" campaign completed trials 0 and 1 before dying.
  std::vector<campaign::TrialOutcome> done;
  done.push_back(campaign::run_trial(opt, 0, nullptr));
  done.push_back(campaign::run_trial(opt, 1, nullptr));

  const std::string path = ::testing::TempDir() + "sbm_campaign_resume.json";
  for (const unsigned threads : {1u, 8u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    ASSERT_TRUE(campaign::save_checkpoint(path, opt, done));

    campaign::CampaignOptions ropt = opt;
    ropt.threads = threads;
    ropt.checkpoint_path = path;
    ropt.resume = true;
    const campaign::CampaignReport resumed = campaign::run_campaign(ropt);
    EXPECT_EQ(resumed.resumed_trials, 2u);
    EXPECT_EQ(resumed.fingerprint(), reference.fingerprint());
    EXPECT_EQ(resumed.total_oracle_runs, reference.total_oracle_runs);
    EXPECT_EQ(resumed.total_cache_hits, reference.total_cache_hits);
    EXPECT_TRUE(resumed.all_expected());

    // The rewritten checkpoint now covers the whole campaign; a second
    // resume re-runs nothing and still reports the same fingerprint.
    campaign::CampaignReport replay = campaign::run_campaign(ropt);
    EXPECT_EQ(replay.resumed_trials, opt.trials);
    EXPECT_EQ(replay.fingerprint(), reference.fingerprint());
  }
  std::remove(path.c_str());
}

TEST(CampaignCheckpoint, MismatchedSignatureIsIgnored) {
  campaign::CampaignOptions opt;
  opt.trials = 1;
  opt.protected_every = 1;  // single cheap protected trial
  opt.seed = 0x5119;
  const std::string path = ::testing::TempDir() + "sbm_campaign_mismatch.json";
  ASSERT_TRUE(campaign::save_checkpoint(path, opt, {campaign::run_trial(opt, 0, nullptr)}));

  campaign::CampaignOptions other = opt;
  other.seed = 0x5120;  // different campaign: the file must not be trusted
  other.checkpoint_path = path;
  other.resume = true;
  other.threads = 1;
  const campaign::CampaignReport report = campaign::run_campaign(other);
  EXPECT_EQ(report.resumed_trials, 0u);
  ASSERT_EQ(report.trials.size(), 1u);
  EXPECT_EQ(report.trials[0].trial_seed,
            campaign::run_trial(other, 0, nullptr).trial_seed);

  // Scheduling knobs are deliberately outside the signature: resuming under
  // a different thread count or batch width is legal.
  campaign::CampaignOptions rescheduled = opt;
  rescheduled.threads = 8;
  rescheduled.batch_width = 1;
  rescheduled.scan_parallel = false;
  EXPECT_EQ(campaign::options_signature(rescheduled), campaign::options_signature(opt));
  campaign::CampaignOptions renoised = opt;
  renoised.noise = faultsim::NoiseProfile::mild();
  EXPECT_NE(campaign::options_signature(renoised), campaign::options_signature(opt));
  std::remove(path.c_str());
}

TEST(CampaignCheckpoint, NoisyCampaignTrialKeepsLogicalMetricsAndFingerprint) {
  // One noisy trial: same victim and logical decisions as its clean twin,
  // with the physical overhead reported on the side.
  campaign::CampaignOptions clean_opt;
  clean_opt.trials = 1;
  clean_opt.seed = 0xfeedc0de;
  clean_opt.threads = 1;
  campaign::CampaignOptions noisy_opt = clean_opt;
  noisy_opt.noise = faultsim::NoiseProfile::mild();

  const campaign::CampaignReport clean = campaign::run_campaign(clean_opt);
  const campaign::CampaignReport noisy = campaign::run_campaign(noisy_opt);
  ASSERT_TRUE(clean.all_expected());
  ASSERT_TRUE(noisy.all_expected());
  ASSERT_EQ(noisy.trials.size(), 1u);
  const campaign::TrialOutcome& t = noisy.trials[0];
  EXPECT_TRUE(t.key_match);
  EXPECT_EQ(t.oracle_runs, clean.trials[0].oracle_runs);
  EXPECT_EQ(t.phase_runs, clean.trials[0].phase_runs);
  EXPECT_EQ(t.physical_runs, t.oracle_runs + t.retry_runs + t.vote_runs);
  EXPECT_GT(t.vote_runs, 0u);
  // The fingerprint digests logical fields only, so noise cannot move it.
  EXPECT_EQ(noisy.fingerprint(), clean.fingerprint());
  EXPECT_LE(t.physical_runs, 3 * clean.trials[0].probe_calls);
}

}  // namespace
}  // namespace sbm
