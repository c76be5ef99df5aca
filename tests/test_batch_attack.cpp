// Batch-oracle invariance: the full Section VI attack, the campaign
// fingerprint and raw run_batch calls must produce results bit-identical to
// the scalar reference path for every batch width and thread count — the
// 64-lane bit-sliced backend is a pure wall-clock optimization, never a
// behavioral one.  Cost accounting must stay intact: every lane is one
// paper-cost reconfiguration, and probe_calls = oracle_runs + cache_hits.
#include <gtest/gtest.h>

#include <map>

#include "attack/pipeline.h"
#include "bitstream/patcher.h"
#include "campaign/campaign.h"
#include "common/rng.h"
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

attack::AttackResult run_attack(unsigned batch_width, runtime::ThreadPool* pool) {
  const fpga::System& sys = shared_system();
  attack::DeviceOracle oracle(sys, kHostIv, pool, batch_width);
  runtime::ProbeCache cache;
  attack::PipelineConfig cfg;
  cfg.iv = kHostIv;
  cfg.cache = &cache;
  cfg.find.pool = pool;
  attack::Attack attack(oracle, sys.golden.bytes, cfg);
  return attack.execute();
}

TEST(BatchAttack, FullAttackInvariantAcrossWidthsAndThreads) {
  const attack::AttackResult ref = run_attack(/*batch_width=*/1, /*pool=*/nullptr);
  ASSERT_TRUE(ref.success) << ref.failure;
  ASSERT_TRUE(ref.key_confirmed);
  EXPECT_EQ(ref.probe_calls, ref.oracle_runs + ref.cache_hits);
  // The paper's cost metric on the default victim, pinned absolutely.
  EXPECT_EQ(ref.oracle_runs, 8350u);
  EXPECT_EQ(ref.cache_hits, 8402u);
  EXPECT_EQ(ref.probe_calls, 16752u);
  const std::vector<std::pair<std::string, size_t>> phases = {
      {"setup", 2}, {"z-path", 36}, {"beta", 1}, {"feedback", 8308}, {"alpha2", 2}, {"extract", 1}};
  EXPECT_EQ(ref.phase_runs, phases);

  runtime::ThreadPool pool(8);
  struct Config {
    unsigned width;
    runtime::ThreadPool* pool;
  };
  // Widths beyond 64 engage the wide SIMD backends when compiled in; the
  // oracle clamps them to the active backend's lane count, and the results
  // must stay bit-identical either way.
  const Config configs[] = {{7, nullptr}, {7, &pool}, {64, nullptr}, {64, &pool},
                            {256, &pool}, {512, nullptr}, {512, &pool}};
  for (const Config& c : configs) {
    SCOPED_TRACE("width " + std::to_string(c.width) + (c.pool ? ", 8 threads" : ", serial"));
    const attack::AttackResult res = run_attack(c.width, c.pool);
    ASSERT_TRUE(res.success) << res.failure;
    EXPECT_EQ(res.faulty_keystream, ref.faulty_keystream);
    EXPECT_EQ(res.secrets.key, ref.secrets.key);
    EXPECT_EQ(res.secrets.iv, ref.secrets.iv);
    EXPECT_EQ(res.recovered_state, ref.recovered_state);
    EXPECT_EQ(res.oracle_runs, ref.oracle_runs);
    EXPECT_EQ(res.cache_hits, ref.cache_hits);
    EXPECT_EQ(res.probe_calls, ref.probe_calls);
    EXPECT_EQ(res.phase_runs, ref.phase_runs);
    EXPECT_EQ(res.log, ref.log);
    EXPECT_EQ(res.feedback.size(), ref.feedback.size());
    EXPECT_EQ(res.lut1.size(), ref.lut1.size());
    EXPECT_EQ(res.probe_calls, res.oracle_runs + res.cache_hits);
  }
}

TEST(BatchAttack, CampaignFingerprintInvariantAcrossWidthsAndThreads) {
  campaign::CampaignOptions opt;
  opt.trials = 2;
  opt.seed = 0xfeedba7c;
  opt.threads = 1;
  opt.batch_width = 1;
  const campaign::CampaignReport ref = campaign::run_campaign(opt);
  ASSERT_TRUE(ref.all_expected());
  EXPECT_EQ(ref.fingerprint(), 0x53f8116bc28dac43ull);

  struct Config {
    unsigned width;
    unsigned threads;
  };
  for (const Config c : {Config{7, 8}, Config{64, 1}, Config{64, 8}, Config{512, 8}}) {
    SCOPED_TRACE("width " + std::to_string(c.width) + ", " + std::to_string(c.threads) +
                 " threads");
    campaign::CampaignOptions vopt = opt;
    vopt.batch_width = c.width;
    vopt.threads = c.threads;
    const campaign::CampaignReport rep = campaign::run_campaign(vopt);
    EXPECT_EQ(rep.fingerprint(), ref.fingerprint());
    EXPECT_EQ(rep.totals.oracle_runs, ref.totals.oracle_runs);
    EXPECT_EQ(rep.totals.cache_hits, ref.totals.cache_hits);
  }
}

/// Forwards to a serial DeviceOracle and records the victim snapshot's
/// sites-decoded total after every call, keyed by the runs so far, so the
/// device's decode work splits along the attack's phase run counts.
class DecodeLedgerOracle : public attack::Oracle {
 public:
  explicit DecodeLedgerOracle(const fpga::System& sys) : sys_(sys), device_(sys, kHostIv) {}
  runtime::ProbeOutcome run(std::span<const u8> bitstream, size_t words) override {
    auto z = device_.run(bitstream, words);
    note(1);
    return z;
  }
  std::vector<runtime::ProbeOutcome> run_batch(std::span<const std::vector<u8>> bitstreams,
                                               size_t words) override {
    auto out = device_.run_batch(bitstreams, words);
    note(bitstreams.size());
    return out;
  }
  unsigned batch_lanes() const override { return device_.batch_lanes(); }

  std::map<size_t, u64> sites_at{{0, 0}};

 private:
  void note(size_t n) {
    runs_ += n;
    sites_at[runs_] = sys_.snapshot->stats().sites_decoded;
  }
  const fpga::System& sys_;
  attack::DeviceOracle device_;
};

TEST(BatchAttack, FeedbackProbesDecodeAFewSitesEach) {
  // Every feedback probe is the beta-patched image plus one rewritten LUT.
  // Diffed against a parent near that image instead of the golden one, a
  // probe re-decodes its own site and the parent's, not the ~272 beta sites.
  const fpga::System sys = fpga::build_system();  // fresh parent cache
  DecodeLedgerOracle oracle(sys);
  runtime::ProbeCache cache;
  attack::PipelineConfig cfg;
  cfg.iv = kHostIv;
  cfg.cache = &cache;
  attack::Attack attack(oracle, sys.golden.bytes, cfg);
  const attack::AttackResult res = attack.execute();
  ASSERT_TRUE(res.success) << res.failure;

  size_t begin = 0;
  size_t feedback = 0;
  for (const auto& [phase, runs] : res.phase_runs) {
    if (phase == "feedback") {
      feedback = runs;
      break;
    }
    begin += runs;
  }
  ASSERT_GT(feedback, 1000u);
  ASSERT_TRUE(oracle.sites_at.count(begin));
  ASSERT_TRUE(oracle.sites_at.count(begin + feedback));
  const double per_probe =
      static_cast<double>(oracle.sites_at[begin + feedback] - oracle.sites_at[begin]) /
      static_cast<double>(feedback);
  EXPECT_LE(per_probe, 4.0);
  EXPECT_GE(sys.snapshot->stats().parent_promotions, 1u);
}

TEST(BatchOracle, RunBatchMatchesScalarRunsOnRaggedBatches) {
  const fpga::System& sys = shared_system();
  Rng rng(0xba7c41);
  std::vector<u8> nocrc = sys.golden.bytes;
  bitstream::disable_crc(nocrc);
  auto make_probe = [&](size_t i) {
    if (i % 13 == 5) {  // sprinkle rejected candidates through the batch
      std::vector<u8> bad = sys.golden.bytes;
      bad[sys.golden.layout.fdri_byte_offset + i] ^= 0x5a;
      return bad;
    }
    std::vector<u8> bytes = nocrc;
    const size_t site = rng.next_u64() % sys.placed.phys.size();
    bitstream::write_lut_init(bytes, sys.golden.layout.site_byte_index(site),
                              bitstream::Layout::chunk_stride(),
                              bitstream::chunk_order(sys.placed.slice_of(site)),
                              rng.next_u64());
    return bytes;
  };

  runtime::ThreadPool pool(8);
  // 7 = one ragged chunk; 65 = one full chunk + a single-lane (scalar) tail.
  for (const size_t n : {size_t{7}, size_t{65}}) {
    SCOPED_TRACE(std::to_string(n) + " probes");
    std::vector<std::vector<u8>> probes;
    for (size_t i = 0; i < n; ++i) probes.push_back(make_probe(i));

    attack::DeviceOracle batched(sys, kHostIv, &pool, 64);
    const auto batch_results = batched.run_batch(probes, 4);
    EXPECT_EQ(batched.runs(), n);  // every lane is one reconfiguration

    attack::DeviceOracle scalar(sys, kHostIv, nullptr, 1);
    ASSERT_EQ(batch_results.size(), n);
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(batch_results[i], scalar.run(probes[i], 4)) << "probe " << i;
    }
    EXPECT_EQ(scalar.runs(), n);
  }
}

TEST(BatchOracle, BaseClassDefaultLoopsOverRun) {
  // A non-device oracle (no snapshot, no batch override) must still answer
  // run_batch through the default serial loop.
  class CountingOracle : public attack::Oracle {
   public:
    runtime::ProbeOutcome run(std::span<const u8> bitstream, size_t words) override {
      ++runs_;
      return std::vector<u32>(words, static_cast<u32>(bitstream.size()));
    }
  };
  CountingOracle oracle;
  const std::vector<std::vector<u8>> probes = {{1}, {2, 2}, {3, 3, 3}};
  const auto results = oracle.run_batch(probes, 2);
  ASSERT_EQ(results.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(results[i].has_value());
    EXPECT_EQ(*results[i], std::vector<u32>(2, static_cast<u32>(i + 1)));
  }
  EXPECT_EQ(oracle.runs(), 3u);
}

}  // namespace
}  // namespace sbm
