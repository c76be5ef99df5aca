// End-to-end attack tests: the full Section VI pipeline against the
// simulated victim, plus the Section VII demonstration that the protected
// implementation resists it.
#include <gtest/gtest.h>

#include "attack/pipeline.h"
#include "bitstream/secure.h"
#include "common/rng.h"
#include "fpga/system.h"
#include "runtime/parallel.h"

namespace sbm::attack {
namespace {

constexpr snow3g::Iv kHostIv = {0xea024714, 0xad5c4d84, 0xdf1f9b25, 0x1c0bf45f};

PipelineConfig config_for(const snow3g::Iv& iv) {
  PipelineConfig cfg;
  cfg.iv = iv;
  return cfg;
}

TEST(AttackE2E, RecoversThePaperKey) {
  const fpga::System sys = fpga::build_system();
  DeviceOracle oracle(sys, kHostIv);
  Attack attack(oracle, sys.golden.bytes, config_for(kHostIv));
  const AttackResult res = attack.execute();
  ASSERT_TRUE(res.success) << res.failure;
  EXPECT_EQ(res.secrets.key, sys.options.key);
  EXPECT_TRUE(res.key_confirmed);
  EXPECT_EQ(res.lut1.size(), 32u);
  EXPECT_GE(res.feedback.size(), 32u);
  EXPECT_GT(res.mux_patches, 200u);
  // Every LUT1 resolved its s0 input via the two alpha2 runs.
  for (const auto& lut : res.lut1) EXPECT_GE(lut.s0_var, 0);
}

TEST(AttackE2E, RecoversARandomKey) {
  Rng rng(0xfeedface);
  fpga::SystemOptions opt;
  opt.key = {rng.next_u32(), rng.next_u32(), rng.next_u32(), rng.next_u32()};
  const fpga::System sys = fpga::build_system(opt);
  const snow3g::Iv iv = {rng.next_u32(), rng.next_u32(), rng.next_u32(), rng.next_u32()};
  DeviceOracle oracle(sys, iv);
  Attack attack(oracle, sys.golden.bytes, config_for(iv));
  const AttackResult res = attack.execute();
  ASSERT_TRUE(res.success) << res.failure;
  EXPECT_EQ(res.secrets.key, opt.key);
  EXPECT_EQ(res.secrets.iv, iv);
}

TEST(AttackE2E, FaultyKeystreamIsTheLfsrState) {
  // The final faulty keystream must equal the software model's Table IV
  // analog for the same key/IV.
  const fpga::System sys = fpga::build_system();
  DeviceOracle oracle(sys, kHostIv);
  Attack attack(oracle, sys.golden.bytes, config_for(kHostIv));
  const AttackResult res = attack.execute();
  ASSERT_TRUE(res.success) << res.failure;
  snow3g::Snow3g model(sys.options.key, kHostIv, snow3g::FaultConfig::full_attack());
  EXPECT_EQ(res.faulty_keystream, model.keystream(res.faulty_keystream.size()));
}

TEST(AttackE2E, WorksWithCrcRecomputation) {
  // Section V-B's other option: recompute and replace the CRC for every
  // modified bitstream instead of disabling the check.  The device keeps
  // verifying the CRC on every load.
  const fpga::System sys = fpga::build_system();
  DeviceOracle oracle(sys, kHostIv);
  PipelineConfig cfg = config_for(kHostIv);
  cfg.crc = CrcHandling::kRecompute;
  Attack attack(oracle, sys.golden.bytes, cfg);
  const AttackResult res = attack.execute();
  ASSERT_TRUE(res.success) << res.failure;
  EXPECT_EQ(res.secrets.key, sys.options.key);
}

TEST(AttackE2E, PhaseRunAccounting) {
  const fpga::System sys = fpga::build_system();
  DeviceOracle oracle(sys, kHostIv);
  Attack attack(oracle, sys.golden.bytes, config_for(kHostIv));
  const AttackResult res = attack.execute();
  ASSERT_TRUE(res.success) << res.failure;
  size_t total = 0;
  for (const auto& [phase, runs] : res.phase_runs) total += runs;
  EXPECT_EQ(total, res.oracle_runs);
  ASSERT_EQ(res.phase_runs.size(), 6u);  // setup + 5 phases
  EXPECT_EQ(res.phase_runs[3].first, "feedback");
  // The two alpha2 keystream computations of Section VI-D.1.
  EXPECT_EQ(res.phase_runs[4].first, "alpha2");
  EXPECT_EQ(res.phase_runs[4].second, 2u);
  // No caller cache: the session's own record still answers every repeated
  // probe, so the paper's metric is the pinned 8,350 reflashes, and
  // probe_calls is what a run that reflashed every request would pay.
  EXPECT_EQ(res.oracle_runs, 8350u);
  EXPECT_EQ(res.cache_hits, 8402u);
  EXPECT_EQ(res.probe_calls, 16752u);
  const std::vector<std::pair<std::string, size_t>> split = {
      {"setup", 2}, {"z-path", 36}, {"beta", 1}, {"feedback", 8308}, {"alpha2", 2}, {"extract", 1}};
  EXPECT_EQ(res.phase_runs, split);
}

TEST(AttackE2E, ProtectedImplementationResists) {
  fpga::SystemOptions opt;
  opt.protected_variant = true;
  const fpga::System sys = fpga::build_system(opt);
  DeviceOracle oracle(sys, kHostIv);
  PipelineConfig cfg = config_for(kHostIv);
  Attack attack(oracle, sys.golden.bytes, cfg);
  const AttackResult res = attack.execute();
  EXPECT_FALSE(res.success);
  EXPECT_FALSE(res.failure.empty());
}

TEST(AttackE2E, WorksThroughTheEncryptedEnvelope) {
  // Fig. 1 flow: the attacker holds K_E (side channel), strips the
  // MAC-then-encrypt envelope, attacks the plain bitstream, and re-protects
  // the faulty image so the device accepts it.
  const fpga::System sys = fpga::build_system();
  crypto::Aes256Key ke{};
  ke[13] = 0x5c;
  bitstream::AuthKey ka{};
  ka[2] = 0x77;
  const auto envelope = bitstream::protect_bitstream(sys.golden.bytes, ke, ka, {});

  // Device only accepts encrypted images now: the attacker re-protects each
  // probe with the recovered K_A, the device opens the envelope (decrypt,
  // verify the MAC) and configures the batched lanes from the plain images.
  class EncryptedOracle : public Oracle {
   public:
    EncryptedOracle(const fpga::System& sys, crypto::Aes256Key ke, bitstream::AuthKey ka,
                    snow3g::Iv iv, runtime::ThreadPool* pool)
        : device_(sys, iv, pool), ke_(ke), ka_(ka), pool_(pool) {}
    runtime::ProbeOutcome run(std::span<const u8> bitstream, size_t words) override {
      const std::vector<u8> one(bitstream.begin(), bitstream.end());
      return run_batch(std::span<const std::vector<u8>>(&one, 1), words)[0];
    }
    std::vector<runtime::ProbeOutcome> run_batch(std::span<const std::vector<u8>> bitstreams,
                                                 size_t words) override {
      runs_ += bitstreams.size();
      std::vector<bitstream::UnprotectResult> opened(bitstreams.size());
      runtime::parallel_for(pool_, bitstreams.size(), [&](size_t i) {
        opened[i] = bitstream::unprotect_bitstream(
            bitstream::protect_bitstream(bitstreams[i], ke_, ka_, {}), ke_);
      });
      std::vector<std::vector<u8>> plains;
      plains.reserve(opened.size());
      for (auto& res : opened) {
        envelope_failures += !res.ok;
        // An envelope that fails to open configures nothing: the lane rejects.
        plains.push_back(res.ok ? std::move(res.plain) : std::vector<u8>{});
      }
      auto out = device_.run_batch(plains, words);
      for (const auto& z : out) rejections += !z;
      return out;
    }
    unsigned batch_lanes() const override { return device_.batch_lanes(); }

    size_t envelope_failures = 0;
    size_t rejections = 0;

   private:
    DeviceOracle device_;
    crypto::Aes256Key ke_;
    bitstream::AuthKey ka_;
    runtime::ThreadPool* pool_;
  };

  const auto stolen = bitstream::unprotect_bitstream(envelope, ke);
  ASSERT_TRUE(stolen.ok) << stolen.error;
  EXPECT_EQ(stolen.k_a, ka);  // K_A read out of the decrypted image

  runtime::ThreadPool pool(4);
  EncryptedOracle oracle(sys, ke, stolen.k_a, kHostIv, &pool);
  Attack attack(oracle, stolen.plain, config_for(kHostIv));
  const AttackResult res = attack.execute();
  ASSERT_TRUE(res.success) << res.failure;
  EXPECT_EQ(res.secrets.key, sys.options.key);
  // Every re-MAC'd, re-encrypted probe opened and configured.
  EXPECT_GT(oracle.runs(), 0u);
  EXPECT_EQ(oracle.envelope_failures, 0u);
  EXPECT_EQ(oracle.rejections, 0u);
}

}  // namespace
}  // namespace sbm::attack
