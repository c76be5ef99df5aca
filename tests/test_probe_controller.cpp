// Probe-controller acceptance tests (DESIGN.md §4j): the adaptive
// sequential test must hold its configured wrong-accept bound on synthetic
// noisy read streams, never misdeclare a sound-but-noisy board dead, and —
// threaded through the full pipeline — reproduce the static controller's
// logical attack (same key, same oracle_runs, same phase ledger) while
// spending strictly fewer physical runs.  Every assertion here is
// deterministic: controllers are a pure function of the absorbed read
// sequence, and the e2e runs pin the default mild noise stream.
#include <gtest/gtest.h>

#include <vector>

#include "attack/pipeline.h"
#include "campaign/campaign.h"
#include "campaign/checkpoint.h"
#include "common/json.h"
#include "common/rng.h"
#include "faultsim/faulty_oracle.h"
#include "faultsim/noise.h"
#include "fpga/system.h"
#include "runtime/probe_cache.h"
#include "runtime/probe_controller.h"

namespace sbm {
namespace {

using runtime::AdaptiveConfig;
using runtime::ControllerKind;
using runtime::ProbeController;
using runtime::ProbeError;
using runtime::ProbeOutcome;
using runtime::RunLedger;

constexpr snow3g::Iv kHostIv = {0xea024714, 0xad5c4d84, 0xdf1f9b25, 0x1c0bf45f};

std::vector<u32> value(u32 tag) { return {tag, 0xc0ffee00u}; }

/// Drives a fresh one-slot session to settlement with a scripted read
/// sequence and returns the outcome.
ProbeOutcome settle(ProbeController& ctl, const std::vector<ProbeOutcome>& reads) {
  RunLedger ledger;
  ctl.begin(1);
  for (const ProbeOutcome& r : reads) {
    EXPECT_FALSE(ctl.settled(0)) << "settled before the script ran out";
    EXPECT_GE(ctl.reads_wanted(0), 1u);
    ctl.absorb(0, r, ledger);
  }
  EXPECT_TRUE(ctl.settled(0)) << "script exhausted without settling";
  EXPECT_EQ(ctl.reads_wanted(0), 0u);
  return ctl.take(0);
}

/// A near-clean config: the prior rests on so much weight that the UCB sits
/// at the point estimate and the depth floor governs.
AdaptiveConfig clean_config() {
  AdaptiveConfig cfg;
  cfg.prior_corrupt = 0.01;
  cfg.prior_weight = 1e6;
  return cfg;
}

TEST(AdaptiveController, CleanBoardSettlesAtTheDepthFloor) {
  auto ctl = runtime::make_adaptive_controller(clean_config());
  const ProbeOutcome out = settle(*ctl, {value(7), value(7)});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, value(7));
}

TEST(AdaptiveController, NoisyPriorDemandsDeeperAgreement) {
  AdaptiveConfig cfg;
  cfg.prior_corrupt = 0.55;
  cfg.prior_weight = 1e6;  // pin the estimate: this test is about the depth
  auto ctl = runtime::make_adaptive_controller(cfg);
  // At p=0.55 two agreeing reads leave wrong odds ~1.8e-3 > the 1e-3 bound
  // — the target is 3, so two identical reads must not settle.
  const ProbeOutcome out = settle(*ctl, {value(9), value(9), value(9)});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, value(9));
}

TEST(AdaptiveController, DisagreementNeverSettlesBelowTheFloor) {
  auto ctl = runtime::make_adaptive_controller(clean_config());
  const ProbeOutcome out = settle(*ctl, {value(1), value(2), value(2)});
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(*out, value(2)) << "the first value to reach the target wins";
}

TEST(AdaptiveController, EagerBundleDemandsExactlyTheRemainingDepth) {
  AdaptiveConfig cfg;
  cfg.prior_corrupt = 0.55;  // target depth 3 (see above)
  cfg.prior_weight = 1e6;
  auto ctl = runtime::make_adaptive_controller(cfg);
  RunLedger ledger;
  ctl->begin(1);
  EXPECT_EQ(ctl->reads_wanted(0), 3u) << "fresh slot demands the full depth";
  ctl->absorb(0, value(4), ledger);
  EXPECT_EQ(ctl->reads_wanted(0), 2u) << "one vote in, two to go";
  ctl->absorb(0, ProbeOutcome(ProbeError::kTimeout), ledger);
  EXPECT_EQ(ctl->reads_wanted(0), 1u) << "after an error, probe the board alone";
  EXPECT_TRUE(ctl->retrying(0));
}

TEST(AdaptiveController, PersistentRejectionIsTheGenuineAnswer) {
  AdaptiveConfig cfg = clean_config();
  auto ctl = runtime::make_adaptive_controller(cfg);
  const std::vector<ProbeOutcome> rejects(cfg.max_attempts,
                                          ProbeOutcome(ProbeError::kRejected));
  const ProbeOutcome out = settle(*ctl, rejects);
  EXPECT_EQ(out.error(), ProbeError::kRejected);
}

TEST(AdaptiveController, SoundButNoisyBoardIsNeverDeclaredDead) {
  // Transient errors keep arriving, but never max_attempts in a row: every
  // value read resets the error budget, so the slot must settle on a value.
  AdaptiveConfig cfg = clean_config();
  auto ctl = runtime::make_adaptive_controller(cfg);
  std::vector<ProbeOutcome> reads;
  for (unsigned burst = 0; burst < 4; ++burst) {
    for (unsigned e = 0; e + 1 < cfg.max_attempts; ++e) {
      reads.emplace_back(burst % 2 == 0 ? ProbeError::kTimeout : ProbeError::kCorrupt);
    }
    reads.push_back(value(burst == 3 ? 42 : burst));  // disagreeing values
  }
  reads.push_back(value(42));
  const ProbeOutcome out = settle(*ctl, reads);
  ASSERT_TRUE(out.ok()) << "a board that keeps answering is alive";
  EXPECT_EQ(*out, value(42));
}

TEST(AdaptiveController, ExhaustedErrorBudgetSettlesDead) {
  AdaptiveConfig cfg = clean_config();
  auto ctl = runtime::make_adaptive_controller(cfg);
  std::vector<ProbeOutcome> reads;
  reads.push_back(value(1));  // board seen alive once
  for (unsigned e = 0; e < cfg.max_attempts; ++e) {
    reads.emplace_back(ProbeError::kTimeout);
  }
  const ProbeOutcome out = settle(*ctl, reads);
  EXPECT_EQ(out.error(), ProbeError::kDead);
}

TEST(StaticController, MatchesTheRetryPolicyVoteAndDemandsSingleReads) {
  auto ctl = runtime::make_static_controller(runtime::RetryPolicy::voting(3));
  RunLedger ledger;
  ctl->begin(1);
  EXPECT_EQ(ctl->reads_wanted(0), 1u) << "the reference controller never bundles";
  ctl->absorb(0, value(5), ledger);
  ctl->absorb(0, value(5), ledger);
  EXPECT_FALSE(ctl->settled(0)) << "3-vote needs three identical reads";
  EXPECT_EQ(ctl->reads_wanted(0), 1u);
  ctl->absorb(0, value(5), ledger);
  ASSERT_TRUE(ctl->settled(0));
  EXPECT_EQ(*ctl->take(0), value(5));
}

// ---------------------------------------------------------------------------
// Wrong-accept bound (randomized property)

/// Simulates probes against a synthetic noisy board: each read is corrupted
/// with probability `p`, and a corrupted read lands on one of `collisions`
/// equally likely wrong values — so two corrupted reads agree with
/// probability 1/collisions, matching the config's collision_odds exactly.
/// Returns {wrong accepts, total reads} over `probes` settled probes.
std::pair<size_t, size_t> run_synthetic(ProbeController& ctl, double p, u32 collisions,
                                        size_t probes, u64 seed) {
  Rng rng(seed);
  RunLedger ledger;
  size_t wrong = 0;
  size_t reads = 0;
  for (size_t i = 0; i < probes; ++i) {
    const std::vector<u32> truth = value(static_cast<u32>(i));
    ctl.begin(1);
    while (!ctl.settled(0)) {
      ++reads;
      const bool corrupt =
          static_cast<double>(rng.next_u32()) / 4294967296.0 < p;
      if (corrupt) {
        std::vector<u32> bad = truth;
        const u32 bit = rng.next_u32() % collisions;  // collisions <= 64
        bad[bit / 32] ^= u32{1} << (bit % 32);
        ctl.absorb(0, ProbeOutcome(std::move(bad)), ledger);
      } else {
        ctl.absorb(0, ProbeOutcome(truth), ledger);
      }
    }
    const ProbeOutcome out = ctl.take(0);
    if (!out.ok() || *out != truth) ++wrong;
  }
  return {wrong, reads};
}

TEST(AdaptiveController, WrongAcceptRateStaysUnderTheConfiguredBound) {
  constexpr size_t kProbes = 30000;
  constexpr double kP = 0.1;
  constexpr u32 kCollisions = 64;
  AdaptiveConfig cfg;
  cfg.collision_odds = 1.0 / kCollisions;
  cfg.prior_corrupt = kP;
  cfg.prior_weight = 1e6;  // pin the estimate at the true rate
  auto ctl = runtime::make_adaptive_controller(cfg);
  const auto [wrong, reads] = run_synthetic(*ctl, kP, kCollisions, kProbes, 0x5eed01);
  // At p=0.1 with 1/64 collisions the stopping depth is 2, so acceptance is
  // genuinely cheap...
  const double mean_reads = static_cast<double>(reads) / kProbes;
  EXPECT_LT(mean_reads, 3.0) << "depth-2 stopping never engaged";
  // ...and the realized wrong-accept rate (~5 expected here: p^2/64 per
  // probe) must honor the bound; 1.5x slack over the bound covers the
  // binomial spread of a fixed seed.
  EXPECT_GT(wrong, 0u) << "parameters too benign to exercise the bound";
  EXPECT_LE(static_cast<double>(wrong), 1.5 * cfg.accept_error * kProbes)
      << wrong << " wrong accepts in " << kProbes << " probes";
}

TEST(AdaptiveController, TighterBoundBuysDeeperAgreementAndFewerWrongAccepts) {
  constexpr size_t kProbes = 30000;
  constexpr double kP = 0.1;
  constexpr u32 kCollisions = 64;
  AdaptiveConfig cfg;
  cfg.accept_error = 1e-6;
  cfg.collision_odds = 1.0 / kCollisions;
  cfg.prior_corrupt = kP;
  cfg.prior_weight = 1e6;
  auto ctl = runtime::make_adaptive_controller(cfg);
  const auto [wrong, reads] = run_synthetic(*ctl, kP, kCollisions, kProbes, 0x5eed01);
  EXPECT_EQ(wrong, 0u) << "1e-6 bound leaves ~0.007 expected wrong accepts";
  EXPECT_GT(static_cast<double>(reads) / kProbes, 3.0) << "the tighter bound must cost depth";
}

TEST(AdaptiveController, OnlineEstimateConvergesWithoutAPrior) {
  // Default config: uninformative 0.5 prior on light weight.  On a mildly
  // noisy synthetic board the estimator must learn its way down to the
  // cheap 2-read stopping depth after a conservative warmup — mean reads
  // well under the 3+ a pinned-high estimate would keep demanding — while
  // keeping the bound.
  constexpr size_t kProbes = 20000;
  constexpr double kP = 0.1;
  AdaptiveConfig cfg;
  cfg.collision_odds = 1.0 / 64;
  auto ctl = runtime::make_adaptive_controller(cfg);
  const auto [wrong, reads] = run_synthetic(*ctl, kP, 64, kProbes, 0x5eed02);
  EXPECT_LT(static_cast<double>(reads) / kProbes, 3.0);
  EXPECT_LE(static_cast<double>(wrong), 1.5 * cfg.accept_error * kProbes);
}

// ---------------------------------------------------------------------------
// Full-pipeline differential and determinism

const fpga::System& shared_system() {
  static const fpga::System sys = fpga::build_system();
  return sys;
}

attack::AttackResult run_noisy_attack(ControllerKind kind) {
  const fpga::System& sys = shared_system();
  const faultsim::NoiseProfile mild = faultsim::NoiseProfile::mild();
  attack::DeviceOracle device(sys, kHostIv, nullptr, 64);
  faultsim::FaultyOracle oracle(device, mild);
  runtime::ProbeCache cache;
  attack::PipelineConfig cfg;
  cfg.iv = kHostIv;
  cfg.cache = &cache;
  cfg.retry = runtime::RetryPolicy::voting(3);
  cfg.controller = kind;
  if (kind == ControllerKind::kAdaptive) {
    cfg.adaptive = faultsim::adaptive_config_for(mild, cfg.words);
  }
  attack::Attack attack(oracle, sys.golden.bytes, cfg);
  return attack.execute();
}

TEST(AdaptivePipeline, DifferentialAgainstStaticOnTheSameNoisyBoard) {
  const attack::AttackResult stat = run_noisy_attack(ControllerKind::kStatic);
  const attack::AttackResult adap = run_noisy_attack(ControllerKind::kAdaptive);
  ASSERT_TRUE(stat.success);
  ASSERT_TRUE(adap.success);
  // The paper metric and the whole logical ledger are controller-invariant.
  EXPECT_EQ(adap.secrets.key, stat.secrets.key);
  EXPECT_EQ(adap.faulty_keystream, stat.faulty_keystream);
  EXPECT_EQ(adap.oracle_runs, stat.oracle_runs);
  EXPECT_EQ(adap.probe_calls, stat.probe_calls);
  EXPECT_EQ(adap.cache_hits, stat.cache_hits);
  EXPECT_EQ(adap.phase_runs, stat.phase_runs);
  // The physical ledger is where the controllers differ — and both must
  // balance exactly.
  EXPECT_EQ(stat.physical_runs, stat.oracle_runs + stat.retry_runs + stat.vote_runs);
  EXPECT_EQ(adap.physical_runs, adap.oracle_runs + adap.retry_runs + adap.vote_runs);
  EXPECT_LT(adap.physical_runs, stat.physical_runs);
}

TEST(AdaptivePipeline, ReplayOfTheSameNoiseStreamIsBitIdentical) {
  const attack::AttackResult a = run_noisy_attack(ControllerKind::kAdaptive);
  const attack::AttackResult b = run_noisy_attack(ControllerKind::kAdaptive);
  EXPECT_EQ(a.secrets.key, b.secrets.key);
  EXPECT_EQ(a.faulty_keystream, b.faulty_keystream);
  EXPECT_EQ(a.oracle_runs, b.oracle_runs);
  EXPECT_EQ(a.physical_runs, b.physical_runs);
  EXPECT_EQ(a.retry_runs, b.retry_runs);
  EXPECT_EQ(a.vote_runs, b.vote_runs);
  EXPECT_EQ(a.corruption_detections, b.corruption_detections);
  EXPECT_EQ(a.phase_runs, b.phase_runs);
}

TEST(AdaptiveCampaign, FingerprintIsThreadCountInvariant) {
  campaign::CampaignOptions opt;
  opt.trials = 2;
  opt.seed = 0xfeedc0de;
  opt.noise = faultsim::NoiseProfile::mild();
  opt.controller = ControllerKind::kAdaptive;
  opt.threads = 1;
  const campaign::CampaignReport serial = campaign::run_campaign(opt);
  opt.threads = 8;
  const campaign::CampaignReport parallel = campaign::run_campaign(opt);
  ASSERT_TRUE(serial.all_expected());
  EXPECT_EQ(serial.fingerprint(), parallel.fingerprint());
  ASSERT_EQ(serial.trials.size(), parallel.trials.size());
  for (size_t i = 0; i < serial.trials.size(); ++i) {
    // Physical accounting is not part of the fingerprint, but each trial's
    // noise stream is seeded per trial, so it replays exactly too.
    EXPECT_EQ(serial.trials[i].physical_runs, parallel.trials[i].physical_runs) << i;
    EXPECT_EQ(serial.trials[i].oracle_runs, parallel.trials[i].oracle_runs) << i;
  }
}

// ---------------------------------------------------------------------------
// Configuration plumbing

TEST(ControllerConfig, KindNamesRoundTripAndRejectUnknowns) {
  EXPECT_STREQ(runtime::controller_kind_name(ControllerKind::kStatic), "static");
  EXPECT_STREQ(runtime::controller_kind_name(ControllerKind::kAdaptive), "adaptive");
  EXPECT_EQ(runtime::parse_controller_kind("static"), ControllerKind::kStatic);
  EXPECT_EQ(runtime::parse_controller_kind("adaptive"), ControllerKind::kAdaptive);
  EXPECT_FALSE(runtime::parse_controller_kind("turbo").has_value());
  EXPECT_FALSE(runtime::parse_controller_kind("").has_value());
}

TEST(ControllerConfig, CampaignOptionsRoundTripThroughCheckpointJson) {
  campaign::CampaignOptions opt;
  opt.controller = ControllerKind::kAdaptive;
  JsonWriter w;
  campaign::write_options(w, opt);
  const auto doc = parse_json(w.str());
  ASSERT_TRUE(doc.has_value());
  const auto parsed = campaign::options_from_json(*doc);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->controller, ControllerKind::kAdaptive);
  // The controller kind is part of the resume signature: splicing static
  // trials into an adaptive campaign would mix physical ledgers.
  campaign::CampaignOptions other = opt;
  other.controller = ControllerKind::kStatic;
  EXPECT_NE(campaign::options_signature(opt), campaign::options_signature(other));
}

TEST(ControllerConfig, UnknownControllerInOptionsJsonIsRejected) {
  const auto doc = parse_json(R"({"trials":2,"controller":"frobnicate"})");
  ASSERT_TRUE(doc.has_value());
  EXPECT_FALSE(campaign::options_from_json(*doc).has_value())
      << "the service maps this nullopt to a 400 spec error";
}

TEST(ControllerConfig, AdaptiveConfigForSizesTheReadBudgetToTheNoise) {
  // Mild noise (~40% corrupt reads at 16 words) stays near the default
  // budget...
  const AdaptiveConfig mild =
      faultsim::adaptive_config_for(faultsim::NoiseProfile::mild(), 16);
  EXPECT_GE(mild.max_reads, AdaptiveConfig{}.max_reads);
  EXPECT_LE(mild.max_reads, 32u);
  EXPECT_NEAR(mild.prior_corrupt, 0.40, 0.02);
  // ...while doubled flip rates (~64% corrupt) must grow it: 24 reads hold
  // three clean agreeing captures too rarely, and an exhausted budget reads
  // as a lost board.
  const AdaptiveConfig doubled =
      faultsim::adaptive_config_for(faultsim::NoiseProfile::mild().scaled(2.0), 16);
  EXPECT_GT(doubled.max_reads, mild.max_reads);
  EXPECT_LE(doubled.max_reads, 128u);
}

}  // namespace
}  // namespace sbm
