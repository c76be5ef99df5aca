// Batch-oracle invariance: the full Section VI attack, the campaign
// fingerprint and raw run_batch calls must produce results bit-identical to
// the scalar reference path for every batch width and thread count — the
// 64-lane bit-sliced backend is a pure wall-clock optimization, never a
// behavioral one.  Cost accounting must stay intact: every lane is one
// paper-cost reconfiguration, and probe_calls = oracle_runs + cache_hits.
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <ostream>
#include <string_view>
#include <type_traits>

#include "attack/pipeline.h"
#include "bitstream/patcher.h"
#include "campaign/campaign.h"
#include "common/rng.h"
#include "fpga/system.h"
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
  attack::PipelineConfig cfg;
  cfg.iv = kHostIv;
  attack::Attack attack(oracle, sys.golden.bytes, cfg);
  return attack.execute();
}

/// Order-sensitive digest of a sequence of words or strings, so a case can
/// compare a long output against a value pinned from the scalar reference.
template <class Range>
u64 digest(const Range& items) {
  u64 h = 0x243f6a8885a308d3ull;
  auto fold = [&h](u64 v) { h = mix64(h ^ (v + 0x9e3779b97f4a7c15ull)); };
  for (const auto& item : items) {
    if constexpr (std::is_convertible_v<decltype(item), std::string_view>) {
      fold(item.size());
      for (const char c : item) fold(static_cast<unsigned char>(c));
    } else {
      fold(item);
    }
  }
  return h;
}

/// One batch width and pool size.  Width 1 on one thread is the scalar
/// reference: one reconfiguration per oracle call, no bit-slicing.  The
/// width alone picks the device: up to 64 runs the u64 kernel, 65-256 the
/// AVX2 device where it runs, and the oracle clamps anything wider (512) to
/// the device's lane count.  The results must stay bit-identical either way.  Each configuration is its own case, so
/// ctest runs them in parallel, and each asserts the reference's values.
struct WidthConfig {
  unsigned width;
  unsigned threads;  // the attack runs without a pool at 0
};

// Names each case (and so its ctest entry) "w<width>_t<threads>".
void PrintTo(const WidthConfig& c, std::ostream* os) {
  *os << "w" << c.width << "_t" << c.threads;
}

class BatchAttackWidth : public ::testing::TestWithParam<WidthConfig> {};
class BatchCampaignWidth : public ::testing::TestWithParam<WidthConfig> {};

TEST_P(BatchAttackWidth, FullAttackMatchesTheScalarReference) {
  const WidthConfig c = GetParam();
  std::optional<runtime::ThreadPool> pool;
  if (c.threads != 0) pool.emplace(c.threads);
  const attack::AttackResult res = run_attack(c.width, pool ? &*pool : nullptr);
  ASSERT_TRUE(res.success) << res.failure;
  ASSERT_TRUE(res.key_confirmed);
  // The paper's cost metric on the default victim, pinned absolutely.
  EXPECT_EQ(res.oracle_runs, 8350u);
  EXPECT_EQ(res.cache_hits, 8402u);
  EXPECT_EQ(res.probe_calls, 16752u);
  const std::vector<std::pair<std::string, size_t>> phases = {
      {"setup", 2}, {"z-path", 36}, {"beta", 1}, {"feedback", 8308}, {"alpha2", 2}, {"extract", 1}};
  EXPECT_EQ(res.phase_runs, phases);
  // Everything else the attack derives, as the scalar reference gives it.
  EXPECT_EQ(res.secrets.key, shared_system().options.key);
  EXPECT_EQ(res.secrets.iv, kHostIv);
  EXPECT_EQ(digest(res.recovered_state), 4609057394887111215ull);
  EXPECT_EQ(digest(res.faulty_keystream), 3459138405543755284ull);
  EXPECT_EQ(digest(res.log), 2332186145533179498ull);
  EXPECT_EQ(res.feedback.size(), 94u);
  EXPECT_EQ(res.lut1.size(), 32u);
}

INSTANTIATE_TEST_SUITE_P(Widths, BatchAttackWidth,
                         ::testing::Values(WidthConfig{1, 0}, WidthConfig{7, 0},
                                           WidthConfig{7, 8}, WidthConfig{64, 0},
                                           WidthConfig{64, 8}, WidthConfig{256, 0},
                                           WidthConfig{256, 8}, WidthConfig{512, 0},
                                           WidthConfig{512, 8}));

TEST_P(BatchCampaignWidth, FingerprintMatchesTheScalarReference) {
  const WidthConfig c = GetParam();
  campaign::CampaignOptions opt;
  opt.trials = 2;
  opt.seed = 0xfeedba7c;
  opt.batch_width = c.width;
  opt.threads = c.threads;
  const campaign::CampaignReport rep = campaign::run_campaign(opt);
  ASSERT_TRUE(rep.all_expected());
  EXPECT_EQ(rep.fingerprint(), 0x53f8116bc28dac43ull);
  EXPECT_EQ(rep.totals.oracle_runs, 15987u);
  EXPECT_EQ(rep.totals.cache_hits, 16028u);
}

INSTANTIATE_TEST_SUITE_P(Widths, BatchCampaignWidth,
                         ::testing::Values(WidthConfig{1, 1}, WidthConfig{7, 8},
                                           WidthConfig{64, 1}, WidthConfig{64, 8},
                                           WidthConfig{512, 8}));

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
