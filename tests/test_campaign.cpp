// Campaign subsystem tests + the runtime determinism contract on the real
// attack workloads: a campaign report must be identical (minus wall-clock)
// for any thread count, and so must each trial's device work, since the
// pool fans out trials and nothing inside them.
#include <gtest/gtest.h>

#include <cstdio>
#include <iterator>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "campaign/campaign.h"
#include "common/json.h"
#include "campaign/checkpoint.h"
#include "service/protocol.h"
#include "simd/backend.h"

namespace sbm {
namespace {

TEST(Campaign, TrialIsSelfContainedAndSeeded) {
  campaign::CampaignOptions opt;
  opt.trials = 1;
  opt.seed = 0x1234;
  const campaign::TrialOutcome once = campaign::run_trial(opt, 0);
  const campaign::TrialOutcome again = campaign::run_trial(opt, 0);
  EXPECT_EQ(once.trial_seed, again.trial_seed);
  EXPECT_EQ(once.attack_success, again.attack_success);
  EXPECT_EQ(once.oracle_runs, again.oracle_runs);
  EXPECT_EQ(once.cache_hits, again.cache_hits);
  EXPECT_TRUE(once.expected) << once.failure;
  EXPECT_TRUE(once.key_match);

  // A different trial index yields a different victim.
  const campaign::TrialOutcome other = campaign::run_trial(opt, 1);
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
  EXPECT_EQ(runs, report.totals.oracle_runs);

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
  EXPECT_EQ(metrics->find("oracle_runs")->as_u64(), report.totals.oracle_runs);
  EXPECT_EQ(metrics->find("cache_hits")->as_u64(), report.totals.cache_hits);
  EXPECT_EQ(metrics->find("probe_calls")->as_u64(), report.totals.probe_calls);
  EXPECT_EQ(metrics->find("physical_runs")->as_u64(), report.totals.physical_runs);
  EXPECT_EQ(metrics->find("retry_runs")->as_u64(), report.totals.retry_runs);
  EXPECT_EQ(metrics->find("vote_runs")->as_u64(), report.totals.vote_runs);
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
  EXPECT_EQ(aggregate->find("total_oracle_runs")->as_u64(), report.totals.oracle_runs);
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
    // A trial runs on one pool thread, so its device work is exact too.
    EXPECT_EQ(serial.trials[i].sites_decoded, parallel.trials[i].sites_decoded) << "trial " << i;
    EXPECT_EQ(serial.trials[i].parent_promotions, parallel.trials[i].parent_promotions)
        << "trial " << i;
    EXPECT_EQ(serial.trials[i].parent_hits, parallel.trials[i].parent_hits) << "trial " << i;
  }
}

TEST(CampaignCheckpoint, TrialOutcomeRoundTripsThroughTheCheckpointFile) {
  campaign::CampaignOptions opt;
  opt.trials = 2;
  opt.protected_every = 1;  // protected trial: cheap, fails fast
  opt.seed = 0x0ddba11;
  const campaign::TrialOutcome t = campaign::run_trial(opt, 0);

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
  done.push_back(campaign::run_trial(opt, 0));
  done.push_back(campaign::run_trial(opt, 1));

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
    EXPECT_EQ(resumed.totals.oracle_runs, reference.totals.oracle_runs);
    EXPECT_EQ(resumed.totals.cache_hits, reference.totals.cache_hits);
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
  ASSERT_TRUE(campaign::save_checkpoint(path, opt, {campaign::run_trial(opt, 0)}));

  campaign::CampaignOptions other = opt;
  other.seed = 0x5120;  // different campaign: the file must not be trusted
  other.checkpoint_path = path;
  other.resume = true;
  other.threads = 1;
  const campaign::CampaignReport report = campaign::run_campaign(other);
  EXPECT_EQ(report.resumed_trials, 0u);
  ASSERT_EQ(report.trials.size(), 1u);
  EXPECT_EQ(report.trials[0].trial_seed,
            campaign::run_trial(other, 0).trial_seed);

  // Scheduling knobs are deliberately outside the signature: resuming under
  // a different thread count or batch width is legal.
  campaign::CampaignOptions rescheduled = opt;
  rescheduled.threads = 8;
  rescheduled.batch_width = 1;
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

// Trial 3 of campaign seed 36: keystream bit 18 is 0 in all 16 golden words,
// so the alpha probe (table = 0) on its LUT1 changes nothing.  Sticking the
// silent matches at 1 instead recovers the bit, and with it the key.
TEST(Campaign, KeystreamBitZeroInEveryWordIsStillFound) {
  campaign::CampaignOptions opt;
  opt.seed = 36;
  const campaign::TrialOutcome t = campaign::run_trial(opt, 3);
  EXPECT_TRUE(t.key_match) << t.failure;
  EXPECT_TRUE(t.expected);
}

// Every entry point — the CLI, options_from_json and the service's job spec
// — applies the one range check, so none accepts what another refuses.
TEST(CampaignOptions, OneValidatorRejectsEveryOutOfRangeOption) {
  EXPECT_EQ(campaign::options_error({}), "");
  campaign::CampaignOptions edge;
  edge.batch_width = campaign::kMaxBatchWidth;
  edge.fleet_noise_factors = {0.0, 2.0};
  edge.kind = "crack";
  EXPECT_EQ(campaign::options_error(edge), "");
  edge.batch_width = 1;
  EXPECT_EQ(campaign::options_error(edge), "");
  // The upper bounds are inclusive.  Validators only: nothing here runs a
  // campaign or sizes per-trial state with these counts.
  edge.trials = campaign::kMaxTrials;
  edge.words = campaign::kMaxWords;
  edge.threads = campaign::kMaxThreads;
  EXPECT_EQ(campaign::options_error(edge), "");

  // Job records, reports and checkpoints written when the widest device had
  // 512 lanes store that width: they still load.  The oracle clamps it to
  // the device's lanes like any other (Widths/BatchCampaignWidth's w512
  // case runs one).
  static_assert(campaign::kMaxBatchWidth > simd::kMaxLanes);
  const auto stored = parse_json(R"({"batch_width":512})");
  ASSERT_TRUE(stored.has_value());
  const auto loaded = campaign::options_from_json(*stored);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->batch_width, 512u);
  const auto stored_job = parse_json(R"({"mode":"attack","options":{"batch_width":512}})");
  ASSERT_TRUE(stored_job.has_value());
  const auto job = service::job_spec_from_json(*stored_job);
  ASSERT_TRUE(job.has_value());
  EXPECT_EQ(job->options.batch_width, 512u);

  struct Case {
    const char* json;  // the same option as a job's "options" object
    void (*set)(campaign::CampaignOptions&);
  };
  const Case cases[] = {
      {R"({"trials":0})", [](campaign::CampaignOptions& o) { o.trials = 0; }},
      {R"({"trials":1048577})",
       [](campaign::CampaignOptions& o) { o.trials = campaign::kMaxTrials + 1; }},
      // What `--trials -1` used to wrap to.
      {R"({"trials":18446744073709551615})",
       [](campaign::CampaignOptions& o) { o.trials = ~size_t{0}; }},
      {R"({"words":0})", [](campaign::CampaignOptions& o) { o.words = 0; }},
      {R"({"words":1025})",
       [](campaign::CampaignOptions& o) { o.words = campaign::kMaxWords + 1; }},
      {R"({"threads":1025})",
       [](campaign::CampaignOptions& o) { o.threads = campaign::kMaxThreads + 1; }},
      {R"({"batch_width":0})", [](campaign::CampaignOptions& o) { o.batch_width = 0; }},
      {R"({"batch_width":513})",
       [](campaign::CampaignOptions& o) { o.batch_width = campaign::kMaxBatchWidth + 1; }},
      {R"({"fleet_size":0})", [](campaign::CampaignOptions& o) { o.fleet_size = 0; }},
      {R"({"fleet_noise_factors":[1,-1]})",
       [](campaign::CampaignOptions& o) { o.fleet_noise_factors = {1.0, -1.0}; }},
      {R"({"fleet_noise_factors":["x"]})",
       [](campaign::CampaignOptions& o) { o.fleet_noise_factors = {-1.0}; }},
      {R"({"kind":"bogus"})", [](campaign::CampaignOptions& o) { o.kind = "bogus"; }},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.json);
    campaign::CampaignOptions o;
    c.set(o);
    EXPECT_NE(campaign::options_error(o), "");
    const auto doc = parse_json(c.json);
    ASSERT_TRUE(doc.has_value());
    EXPECT_FALSE(campaign::options_from_json(*doc).has_value());
    const auto job = parse_json(std::string(R"({"mode":"attack","options":)") + c.json + "}");
    ASSERT_TRUE(job.has_value());
    EXPECT_FALSE(service::job_spec_from_json(*job).has_value());
  }

  // Counts no field can hold: negative, fractional, or wider than the field.
  // They used to wrap (-1 -> 2^64 - 1) or truncate (a fleet of 2^32 + 2
  // boards read as 2) into an option that looked valid.
  for (const char* json :
       {R"({"trials":-1})", R"({"trials":1.5})", R"({"words":-1})", R"({"threads":-1})",
        R"({"threads":4294967296})", R"({"batch_width":4294967297})",
        R"({"fleet_size":4294967298})", R"({"protected_every":-1})",
        R"({"trials":18446744073709551616})"}) {
    SCOPED_TRACE(json);
    const auto doc = parse_json(json);
    ASSERT_TRUE(doc.has_value());
    EXPECT_FALSE(campaign::options_from_json(*doc).has_value());
    const auto job = parse_json(std::string(R"({"mode":"attack","options":)") + json + "}");
    ASSERT_TRUE(job.has_value());
    EXPECT_FALSE(service::job_spec_from_json(*job).has_value());
  }
}

// ---------------------------------------------------------------------------
// The run ledger: one field list drives every record of it.

using Fields = std::vector<std::pair<std::string, size_t>>;

Fields fields_of(const runtime::RunLedger& ledger) {
  Fields out;
  runtime::for_each_field(ledger, [&](const char* name, size_t v) { out.emplace_back(name, v); });
  return out;
}

/// A ledger whose fields hold first, first + 1, ... in declaration order.
runtime::RunLedger counting_ledger(size_t first) {
  runtime::RunLedger ledger;
  runtime::for_each_field(ledger, [&](const char*, size_t& v) { v = first++; });
  return ledger;
}

/// Every scalar of a JSON object, keyed by its member path.
void flatten(const JsonValue& v, const std::string& path, std::map<std::string, std::string>& out) {
  if (v.is_object()) {
    for (const auto& [name, member] : v.members) flatten(member, path + "." + name, out);
  } else if (v.kind == JsonValue::Kind::kBool) {
    out[path] = v.as_bool() ? "true" : "false";
  } else {
    out[path] = v.kind == JsonValue::Kind::kString ? v.string : v.number;
  }
}

TEST(RunLedger, EveryFieldSurvivesTheTrialRecord) {
  campaign::TrialOutcome t;
  t.index = 5;
  t.trial_seed = 0x77;
  static_cast<runtime::RunLedger&>(t) = counting_ledger(10);
  for (const bool crack : {false, true}) {
    t.crack = crack;
    JsonWriter w;
    campaign::write_trial(w, t);
    const auto doc = parse_json(w.str());
    ASSERT_TRUE(doc.has_value());
    const auto back = campaign::trial_from_json(*doc);
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(fields_of(*back), fields_of(t)) << (crack ? "crack" : "attack");
  }
}

TEST(RunLedger, AccumulateSumsEveryField) {
  campaign::CampaignReport report;
  campaign::TrialOutcome a;
  campaign::TrialOutcome b;
  static_cast<runtime::RunLedger&>(a) = counting_ledger(1);
  static_cast<runtime::RunLedger&>(b) = counting_ledger(100);
  report.accumulate(a);
  report.accumulate(b);
  size_t i = 0;
  runtime::for_each_field(report.totals, [&](const char* name, size_t v) {
    EXPECT_EQ(v, 101 + 2 * i) << name;
    ++i;
  });
  EXPECT_EQ(i, std::size(runtime::kRunLedgerFields));
  EXPECT_EQ(report.totals.transient_rejections, (1 + 8) + (100 + 8));

  // Both report views carry every total: the metrics block under the field
  // names, the aggregate under total_<name>.
  const auto doc = parse_json(report.to_json());
  ASSERT_TRUE(doc.has_value());
  const JsonValue* metrics = doc->find("metrics");
  const JsonValue* aggregate = doc->find("aggregate");
  ASSERT_NE(metrics, nullptr);
  ASSERT_NE(aggregate, nullptr);
  runtime::for_each_field(report.totals, [&](const char* name, size_t v) {
    const JsonValue* m = metrics->find(name);
    const JsonValue* t = aggregate->find(std::string("total_") + name);
    ASSERT_NE(m, nullptr) << name;
    ASSERT_NE(t, nullptr) << name;
    EXPECT_EQ(m->as_u64(), v) << name;
    EXPECT_EQ(t->as_u64(), v) << name;
  });
}

// A crack trial record in the key order of earlier v4 writers (lut_sites
// between probe_calls and physical_runs), every ledger field distinct.
constexpr std::string_view kEarlierCrackRecord =
    R"({"index":4,"trial_seed":99,"protected":true,"attack_success":true,"key_match":false,)"
    R"("expected":true,"partial":false,"failure":"","oracle_runs":583,"cache_hits":1,)"
    R"("probe_calls":584,"lut_sites":657,"physical_runs":600,"retry_runs":5,"vote_runs":7,)"
    R"("migration_runs":5,"corruption_detections":3,"transient_rejections":2,)"
    R"("sites_decoded":3053,"parent_promotions":1,"parent_hits":267,"wall_seconds":0.5,)"
    R"("crack":true,"crack_unique":true,"crack_proven_ambiguous":false,"crack_candidates":315,)"
    R"("adaptive_probes_to_unique":583,"log2_static_bound":140.5,"log2_hypotheses_final":0,)"
    R"("phase_runs":{}})";

TEST(RunLedger, EarlierKeyOrderParsesToTheSameTrial) {
  const auto doc = parse_json(kEarlierCrackRecord);
  ASSERT_TRUE(doc.has_value());
  const auto t = campaign::trial_from_json(*doc);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(fields_of(*t), (Fields{{"oracle_runs", 583},
                                   {"cache_hits", 1},
                                   {"probe_calls", 584},
                                   {"physical_runs", 600},
                                   {"retry_runs", 5},
                                   {"vote_runs", 7},
                                   {"migration_runs", 5},
                                   {"corruption_detections", 3},
                                   {"transient_rejections", 2}}));
  EXPECT_EQ(t->index, 4u);
  EXPECT_EQ(t->lut_sites, 657u);
  EXPECT_EQ(t->sites_decoded, 3053u);
  EXPECT_TRUE(t->crack);
  EXPECT_TRUE(t->crack_unique);
  EXPECT_EQ(t->crack_candidates, 315u);
  EXPECT_DOUBLE_EQ(t->log2_static_bound, 140.5);

  // Written back, the record has the same members with the same values.
  JsonWriter w;
  campaign::write_trial(w, *t);
  const auto again = parse_json(w.str());
  ASSERT_TRUE(again.has_value());
  std::map<std::string, std::string> before;
  std::map<std::string, std::string> after;
  flatten(*doc, "", before);
  flatten(*again, "", after);
  EXPECT_EQ(after, before);
}

// Checkpoints written by the previous writer, which kept the ledger fields
// in per-struct copies (campaign --seed 0x1ed9e --checkpoint FILE, with
// --trials 2 --protected-every 2 and with --crack --trials 1).  Resuming
// from them must reproduce that writer's fingerprints.
constexpr std::string_view kEarlierAttackCheckpoint =
    R"({"version":4,"options_signature":8926017432348255170,"trials_total":2,"completed":[)"
    R"({"index":0,"trial_seed":6096231661922305585,"protected":false,"attack_success":true,)"
    R"("key_match":true,"expected":true,"partial":false,"failure":"","oracle_runs":7209,)"
    R"("cache_hits":7433,"probe_calls":14642,"lut_sites":648,"physical_runs":7209,)"
    R"("retry_runs":0,"vote_runs":0,"migration_runs":0,"corruption_detections":0,)"
    R"("transient_rejections":0,"sites_decoded":7828,"parent_promotions":3,"parent_hits":164,)"
    R"("wall_seconds":0.57326672499999998,"phase_runs":{"setup":2,"z-path":35,"beta":1,)"
    R"("feedback":7168,"alpha2":2,"extract":1}},)"
    R"({"index":1,"trial_seed":13193320559467878510,"protected":true,"attack_success":false,)"
    R"("key_match":false,"expected":true,"partial":false,)"
    R"("failure":"could not identify all 32 z-path LUTs","oracle_runs":11,"cache_hits":0,)"
    R"("probe_calls":11,"lut_sites":657,"physical_runs":11,"retry_runs":0,"vote_runs":0,)"
    R"("migration_runs":0,"corruption_detections":0,"transient_rejections":0,)"
    R"("sites_decoded":12,"parent_promotions":0,"parent_hits":10,)"
    R"("wall_seconds":0.032253587,"phase_runs":{"setup":2,"z-path":9}}]})";
constexpr std::string_view kEarlierCrackCheckpoint =
    R"({"version":4,"options_signature":4956863083881513633,"trials_total":1,"completed":[)"
    R"({"index":0,"trial_seed":6096231661922305585,"protected":true,"attack_success":true,)"
    R"("key_match":false,"expected":true,"partial":false,"failure":"","oracle_runs":583,)"
    R"("cache_hits":1,"probe_calls":584,"lut_sites":657,"physical_runs":583,"retry_runs":0,)"
    R"("vote_runs":0,"migration_runs":0,"corruption_detections":0,"transient_rejections":0,)"
    R"("sites_decoded":3053,"parent_promotions":1,"parent_hits":267,)"
    R"("wall_seconds":0.53842884199999996,"crack":true,"crack_unique":true,)"
    R"("crack_proven_ambiguous":false,"crack_candidates":315,"adaptive_probes_to_unique":583,)"
    R"("log2_static_bound":140.33784890293296,"log2_hypotheses_final":0,"phase_runs":{}}]})";

TEST(RunLedger, ResumeFromAnEarlierCheckpointKeepsItsFingerprint) {
  struct Case {
    const char* kind;
    size_t trials;
    size_t protected_every;
    std::string_view checkpoint;
    u64 fingerprint;
  };
  for (const Case& c : {Case{"attack", 2, 2, kEarlierAttackCheckpoint, 11471133374113525078ull},
                        Case{"crack", 1, 0, kEarlierCrackCheckpoint, 12519335533118932521ull}}) {
    SCOPED_TRACE(c.kind);
    campaign::CampaignOptions opt;
    opt.kind = c.kind;
    opt.trials = c.trials;
    opt.protected_every = c.protected_every;
    opt.seed = 0x1ed9e;
    opt.threads = 1;
    const std::string path = ::testing::TempDir() + "sbm_earlier_" + c.kind + ".json";
    {
      std::FILE* f = std::fopen(path.c_str(), "wb");
      ASSERT_NE(f, nullptr);
      std::fwrite(c.checkpoint.data(), 1, c.checkpoint.size(), f);
      std::fclose(f);
    }
    campaign::CampaignOptions ropt = opt;
    ropt.checkpoint_path = path;
    ropt.resume = true;
    const campaign::CampaignReport resumed = campaign::run_campaign(ropt);
    EXPECT_EQ(resumed.resumed_trials, c.trials);
    EXPECT_EQ(resumed.fingerprint(), c.fingerprint);
    // A fresh run recomputes the same trials.
    EXPECT_EQ(campaign::run_campaign(opt).fingerprint(), c.fingerprint);
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace sbm
