// Fleet failover acceptance tests (DESIGN.md §4k).  A health-tracked board
// pool must be logically transparent: a quiet fleet answers bit-identically
// to a single board, a board death mid-phase migrates the unanswered probes
// to a spare with the paper's oracle_runs metric untouched, a degrading
// board is quarantined before its reads poison votes, hedged probes rescue
// straggler timeouts, and every logical result is invariant under board
// scheduling rotation, campaign thread count, and checkpoint signature
// rules for the fleet knobs.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "attack/pipeline.h"
#include "campaign/campaign.h"
#include "campaign/checkpoint.h"
#include "common/json.h"
#include "faultsim/noise.h"
#include "fleet/fleet.h"
#include "fpga/system.h"
#include "runtime/probe_cache.h"
#include "runtime/retry.h"

namespace sbm {
namespace {

using faultsim::NoiseProfile;
using fleet::BoardState;
using fleet::FleetOptions;
using fleet::FleetOracle;
using runtime::ProbeError;

constexpr snow3g::Iv kHostIv = {0xea024714, 0xad5c4d84, 0xdf1f9b25, 0x1c0bf45f};

const fpga::System& shared_system() {
  static const fpga::System sys = fpga::build_system();
  return sys;
}

/// Clean single-board cached reference (the attack is deterministic, so one
/// run baselines every fleet comparison below).
const attack::AttackResult& clean_reference() {
  static const attack::AttackResult res = [] {
    const fpga::System& sys = shared_system();
    attack::DeviceOracle oracle(sys, kHostIv, nullptr, 64);
    runtime::ProbeCache cache;
    attack::PipelineConfig cfg;
    cfg.iv = kHostIv;
    cfg.cache = &cache;
    attack::Attack attack(oracle, sys.golden.bytes, cfg);
    return attack.execute();
  }();
  return res;
}

/// Fleet whose board 0 dies on its very first run while the spares stay
/// quiet: base profile carries only a death rate, board 0 scales it to 1.0
/// (clamped) and every other board scales it to zero.
FleetOptions board0_dies(unsigned boards) {
  FleetOptions opt;
  opt.boards = boards;
  opt.noise.death = 1e-4;
  opt.noise.seed = 0xf1ee7;
  opt.noise_factors.assign(boards, 0.0);
  opt.noise_factors[0] = 1e9;
  return opt;
}

TEST(FleetOracleTest, QuietFleetIsBitIdenticalToASingleBoard) {
  const fpga::System& sys = shared_system();

  std::vector<std::vector<u8>> probes;
  probes.push_back(sys.golden.bytes);
  std::vector<u8> patched = sys.golden.bytes;
  patched[patched.size() / 2] ^= 0x5a;  // arbitrary mid-fabric damage
  probes.push_back(std::move(patched));

  attack::DeviceOracle single(sys, kHostIv, nullptr, 64);
  const auto want = single.run_batch(probes, 8);

  FleetOptions opt;
  opt.boards = 4;  // default (quiet) noise profile on every board
  FleetOracle fleetd(sys, kHostIv, opt, 64);
  const auto got = fleetd.run_batch(probes, 8);

  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) EXPECT_EQ(got[i], want[i]) << "probe " << i;
  EXPECT_EQ(got[0], fleetd.run(probes[0], 8));  // scalar path agrees too

  // No failover machinery fired, and only the preferred board served.
  EXPECT_EQ(fleetd.migrations(), 0u);
  EXPECT_EQ(fleetd.quarantines(), 0u);
  EXPECT_EQ(fleetd.hedged_wins(), 0u);
  EXPECT_EQ(fleetd.migration_runs(), 0u);
  EXPECT_EQ(fleetd.lost_probes(), 0u);
  EXPECT_EQ(fleetd.alive_boards(), 4u);
  EXPECT_EQ(fleetd.board_runs(0), fleetd.runs());
  EXPECT_EQ(fleetd.board_runs(1), 0u);
}

// The tentpole acceptance test: a noise profile that kills the serving
// board — fatal to a single-board attack — is survived by a 4-board fleet
// with the paper metric bit-identical to the clean run and the physical
// ledger balanced to the run.
TEST(FleetOracleTest, BoardDeathMigratesMidPhaseWithBalancedLedger) {
  const attack::AttackResult& clean = clean_reference();
  ASSERT_TRUE(clean.success) << clean.failure;
  const fpga::System& sys = shared_system();

  // The same profile on one board aborts the attack outright.
  {
    FleetOracle lone(sys, kHostIv, board0_dies(1), 64);
    runtime::ProbeCache cache;
    attack::PipelineConfig cfg;
    cfg.iv = kHostIv;
    cfg.cache = &cache;
    cfg.retry = runtime::RetryPolicy::voting(1);
    attack::Attack doomed(lone, sys.golden.bytes, cfg);
    const attack::AttackResult res = doomed.execute();
    EXPECT_FALSE(res.success);
    EXPECT_TRUE(res.partial);
    EXPECT_EQ(res.abort_error, ProbeError::kDead);
  }

  FleetOracle fleetd(sys, kHostIv, board0_dies(4), 64);
  runtime::ProbeCache cache;
  attack::PipelineConfig cfg;
  cfg.iv = kHostIv;
  cfg.cache = &cache;
  // voting(1): single confirmation, but a retry budget — migration needs the
  // attack layer to re-demand a timed-out probe instead of latching fatal.
  cfg.retry = runtime::RetryPolicy::voting(1);
  attack::Attack attack(fleetd, sys.golden.bytes, cfg);
  const attack::AttackResult res = attack.execute();

  ASSERT_TRUE(res.success) << res.failure;
  EXPECT_TRUE(res.key_confirmed);
  EXPECT_EQ(res.secrets.key, sys.options.key);
  EXPECT_EQ(res.faulty_keystream, clean.faulty_keystream);

  // The paper's cost metric is unchanged by the board loss...
  EXPECT_EQ(res.oracle_runs, clean.oracle_runs);
  EXPECT_EQ(res.cache_hits, clean.cache_hits);
  EXPECT_EQ(res.probe_calls, clean.probe_calls);
  EXPECT_EQ(res.phase_runs, clean.phase_runs);

  // ...the failover actually happened and no probe was lost...
  EXPECT_GE(fleetd.migrations(), 1u);
  EXPECT_EQ(fleetd.lost_probes(), 0u);
  EXPECT_EQ(fleetd.board_health(0).state, BoardState::kDead);
  EXPECT_NE(fleetd.board_health(0).died_at, static_cast<size_t>(-1));
  EXPECT_EQ(fleetd.alive_boards(), 3u);

  // ...and the physical ledger balances exactly, board by board.
  EXPECT_EQ(res.migration_runs, fleetd.migration_runs());
  EXPECT_GT(res.migration_runs, 0u);
  EXPECT_EQ(res.physical_runs,
            res.oracle_runs + res.retry_runs + res.vote_runs + res.migration_runs);
  EXPECT_EQ(res.physical_runs, fleetd.runs());
  size_t per_board = 0;
  for (unsigned i = 0; i < fleetd.boards(); ++i) per_board += fleetd.board_runs(i);
  EXPECT_EQ(per_board, fleetd.runs());
}

TEST(FleetOracleTest, AllBoardsDeadEscalatesLikeASingleDeadBoard) {
  const fpga::System& sys = shared_system();
  FleetOptions opt;
  opt.boards = 2;
  opt.noise.death = 1e-4;
  opt.noise.seed = 0xdead2;
  opt.noise_factors = {1e9, 1e9};  // both boards die on their first run

  FleetOracle fleetd(sys, kHostIv, opt, 64);

  // One batch wide enough to cross the presumed-dead threshold on both
  // boards: board 0 times out the whole chunk and is presumed dead, the
  // migration replays onto board 1, which does the same.
  std::vector<std::vector<u8>> batch(8, sys.golden.bytes);
  for (const auto& out : fleetd.run_batch(batch, 8)) {
    EXPECT_EQ(out.error(), ProbeError::kTimeout);
  }
  EXPECT_EQ(fleetd.alive_boards(), 0u);
  EXPECT_EQ(fleetd.migrations(), 1u);
  EXPECT_EQ(fleetd.lost_probes(), 0u);  // the replay target was still alive

  const size_t runs_before_attack = fleetd.runs();
  runtime::ProbeCache cache;
  attack::PipelineConfig cfg;
  cfg.iv = kHostIv;
  cfg.cache = &cache;
  cfg.retry = runtime::RetryPolicy::voting(1);
  attack::Attack attack(fleetd, sys.golden.bytes, cfg);
  const attack::AttackResult res = attack.execute();

  // Contained exactly like the single-board death: a partial result with a
  // checkpoint, never a crash and never a wrong key — and every probe the
  // dead fleet ate is accounted as lost.
  EXPECT_FALSE(res.success);
  EXPECT_TRUE(res.partial);
  EXPECT_EQ(res.abort_error, ProbeError::kDead);
  EXPECT_GT(fleetd.lost_probes(), 0u);
  EXPECT_EQ(res.physical_runs,
            res.oracle_runs + res.retry_runs + res.vote_runs + res.migration_runs);
  EXPECT_EQ(res.physical_runs, fleetd.runs() - runs_before_attack);
}

TEST(FleetOracleTest, DegradedBoardIsQuarantinedAndStopsServing) {
  const fpga::System& sys = shared_system();
  FleetOptions opt;
  opt.boards = 2;
  opt.noise.truncate = 0.3;
  opt.noise.seed = 0x9a41;
  opt.noise_factors = {2.0, 0.0};  // board 0 truncates 60% of reads

  FleetOracle fleetd(sys, kHostIv, opt, 64);
  std::vector<std::vector<u8>> batch(64, sys.golden.bytes);

  // Batch 1 lands on board 0; by its last observation the board has the
  // kMinHealthSamples the EWMA needs and an error rate far above the
  // quarantine threshold, so it is benched in favour of the clean spare.
  (void)fleetd.run_batch(batch, 8);
  EXPECT_EQ(fleetd.quarantines(), 1u);
  EXPECT_EQ(fleetd.board_health(0).state, BoardState::kQuarantined);
  EXPECT_GT(fleetd.board_health(0).ewma_error, 0.25);
  const size_t board0_runs = fleetd.board_runs(0);
  EXPECT_EQ(board0_runs, 64u);

  (void)fleetd.run_batch(batch, 8);
  (void)fleetd.run_batch(batch, 8);
  EXPECT_EQ(fleetd.board_runs(0), board0_runs);  // benched: no further serves
  EXPECT_EQ(fleetd.board_runs(1), 128u);
  EXPECT_EQ(fleetd.board_health(1).state, BoardState::kHealthy);
  EXPECT_EQ(fleetd.migrations(), 0u);  // quarantine is not a migration
  EXPECT_EQ(fleetd.alive_boards(), 2u);
}

TEST(FleetOracleTest, HedgedProbesRescueStragglerTimeouts) {
  const fpga::System& sys = shared_system();
  FleetOptions opt;
  opt.boards = 2;
  opt.hedge = true;
  opt.noise.timeout = 0.45;
  opt.noise.seed = 0x8ed9e;
  opt.noise_factors = {2.0, 0.0};  // board 0 times out 90% of reads

  FleetOracle fleetd(sys, kHostIv, opt, 64);
  for (int i = 0; i < 12; ++i) {
    // Single probes are ragged tails by definition, so each one is hedged on
    // the quiet spare; the merge must always surface a usable answer.
    const auto out = fleetd.run(sys.golden.bytes, 8);
    EXPECT_TRUE(out.ok()) << "probe " << i << " error " << static_cast<int>(out.error());
  }
  EXPECT_GE(fleetd.hedged_wins(), 1u);
  // Every hedge duplicate is accounted as fleet-internal physical work.
  EXPECT_GE(fleetd.migration_runs(), fleetd.hedged_wins());
  EXPECT_EQ(fleetd.lost_probes(), 0u);
}

TEST(FleetOracleTest, LogicalResultIsInvariantUnderSchedulingRotation) {
  const attack::AttackResult& clean = clean_reference();
  const fpga::System& sys = shared_system();

  // Boards serve in index order, so which board is doomed decides whether
  // the fleet ever serves it.
  auto run_with_doomed = [&](unsigned doomed) {
    FleetOptions opt = board0_dies(4);
    std::swap(opt.noise_factors[0], opt.noise_factors[doomed]);
    FleetOracle fleetd(sys, kHostIv, opt, 64);
    runtime::ProbeCache cache;
    attack::PipelineConfig cfg;
    cfg.iv = kHostIv;
    cfg.cache = &cache;
    cfg.retry = runtime::RetryPolicy::voting(1);
    attack::Attack attack(fleetd, sys.golden.bytes, cfg);
    return attack.execute();
  };

  // A doomed board 0 is served first and must migrate; a doomed board 1 is
  // never touched.  The logical result is identical, only the physical
  // migration ledger differs.
  const attack::AttackResult doomed_first = run_with_doomed(0);
  const attack::AttackResult doomed_skipped = run_with_doomed(1);

  ASSERT_TRUE(doomed_first.success) << doomed_first.failure;
  ASSERT_TRUE(doomed_skipped.success) << doomed_skipped.failure;
  EXPECT_EQ(doomed_first.secrets.key, doomed_skipped.secrets.key);
  EXPECT_EQ(doomed_first.faulty_keystream, doomed_skipped.faulty_keystream);
  EXPECT_EQ(doomed_first.oracle_runs, doomed_skipped.oracle_runs);
  EXPECT_EQ(doomed_first.oracle_runs, clean.oracle_runs);
  EXPECT_EQ(doomed_first.phase_runs, doomed_skipped.phase_runs);
  EXPECT_GT(doomed_first.migration_runs, 0u);
  EXPECT_EQ(doomed_skipped.migration_runs, 0u);
}

TEST(FleetCampaign, FingerprintIsThreadCountInvariantUnderBoardDeath) {
  campaign::CampaignOptions opt;
  opt.trials = 2;
  opt.protected_every = 2;  // one real attack + one cheap protected trial
  opt.seed = 0xf1ee70;
  opt.fleet_size = 3;
  opt.noise.death = 1e-4;
  opt.noise.seed = 0xf1ee71;
  opt.fleet_noise_factors = {1e9, 0.0, 0.0};  // board 0 dies in every trial

  opt.threads = 1;
  const campaign::CampaignReport serial = campaign::run_campaign(opt);
  opt.threads = 4;
  const campaign::CampaignReport parallel = campaign::run_campaign(opt);

  EXPECT_TRUE(serial.all_expected());
  EXPECT_EQ(serial.fingerprint(), parallel.fingerprint());
  ASSERT_EQ(serial.trials.size(), parallel.trials.size());
  for (size_t i = 0; i < serial.trials.size(); ++i) {
    EXPECT_EQ(serial.trials[i].oracle_runs, parallel.trials[i].oracle_runs) << "trial " << i;
    EXPECT_EQ(serial.trials[i].phase_runs, parallel.trials[i].phase_runs) << "trial " << i;
  }
  // The board death was real, survived, and reported.
  EXPECT_GT(serial.totals.migration_runs, 0u);
  EXPECT_EQ(serial.trials[0].physical_runs,
            serial.trials[0].oracle_runs + serial.trials[0].retry_runs +
                serial.trials[0].vote_runs + serial.trials[0].migration_runs);
}

TEST(FleetCampaign, CheckpointSignatureCoversFleetKnobsButNotDeadline) {
  campaign::CampaignOptions opt;
  const u64 base = campaign::options_signature(opt);

  campaign::CampaignOptions fleet_opt = opt;
  fleet_opt.fleet_size = 4;
  EXPECT_NE(campaign::options_signature(fleet_opt), base);

  campaign::CampaignOptions hedged = fleet_opt;
  hedged.fleet_hedge = true;
  EXPECT_NE(campaign::options_signature(hedged), campaign::options_signature(fleet_opt));

  campaign::CampaignOptions factored = fleet_opt;
  factored.fleet_noise_factors = {1.0, 0.5};
  EXPECT_NE(campaign::options_signature(factored), campaign::options_signature(fleet_opt));

  // The deadline changes when a run stops, never what it computes: a job
  // resumed with a different budget must still match its checkpoint.
  campaign::CampaignOptions deadlined = fleet_opt;
  deadlined.deadline_seconds = 30;
  EXPECT_EQ(campaign::options_signature(deadlined), campaign::options_signature(fleet_opt));
}

TEST(FleetCampaign, OptionsJsonRoundTripsFleetAndDeadlineFields) {
  campaign::CampaignOptions opt;
  opt.fleet_size = 4;
  opt.fleet_hedge = true;
  opt.fleet_noise_factors = {1e9, 0.0, 1.5};
  opt.deadline_seconds = 12.5;

  JsonWriter w;
  campaign::write_options(w, opt);
  const auto doc = parse_json(w.str());
  ASSERT_TRUE(doc.has_value());
  const auto back = campaign::options_from_json(*doc);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->fleet_size, 4u);
  EXPECT_TRUE(back->fleet_hedge);
  EXPECT_EQ(back->fleet_noise_factors, opt.fleet_noise_factors);
  EXPECT_EQ(back->deadline_seconds, 12.5);
  EXPECT_EQ(campaign::options_signature(*back), campaign::options_signature(opt));

  // Malformed fleet/deadline specs are rejected, not defaulted.
  EXPECT_FALSE(campaign::options_from_json(*parse_json("{\"fleet_size\":0}")).has_value());
  EXPECT_FALSE(
      campaign::options_from_json(*parse_json("{\"deadline_seconds\":0}")).has_value());
  EXPECT_FALSE(
      campaign::options_from_json(*parse_json("{\"deadline_seconds\":-3}")).has_value());
  EXPECT_FALSE(
      campaign::options_from_json(*parse_json("{\"fleet_noise_factors\":[-1]}")).has_value());
}

}  // namespace
}  // namespace sbm
