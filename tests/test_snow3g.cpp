// SNOW 3G reference-model tests: spec components, the paper's exact
// keystream tables (III/IV/V), LFSR reversal and key extraction, and the
// UEA2/UIA2 wrappers.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <utility>
#include <vector>

#include "common/hex.h"
#include "common/rng.h"
#include "snow3g/f8f9.h"
#include "snow3g/gf.h"
#include "snow3g/reverse.h"
#include "snow3g/sbox.h"
#include "snow3g/snow3g.h"

namespace sbm::snow3g {
namespace {

// The test-vector secrets recovered in the paper's Table V.
constexpr Key kPaperKey = {0x2bd6459f, 0x82c5b300, 0x952c4910, 0x4881ff48};
constexpr Iv kPaperIv = {0xea024714, 0xad5c4d84, 0xdf1f9b25, 0x1c0bf45f};

TEST(Gf, MulxMatchesSpecDefinition) {
  EXPECT_EQ(mulx(0x01, 0xA9), 0x02);
  EXPECT_EQ(mulx(0x80, 0xA9), 0xA9);
  EXPECT_EQ(mulx(0xFF, 0xA9), static_cast<u8>((0xFF << 1) ^ 0xA9));
}

TEST(Gf, MulxPowIsIteratedMulx) {
  u8 v = 0x57;
  for (int i = 0; i <= 16; ++i) {
    EXPECT_EQ(mulx_pow(0x57, i, 0xA9), v);
    v = mulx(v, 0xA9);
  }
}

TEST(Gf, AlphaTablesAreGf2Linear) {
  Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    const u8 a = static_cast<u8>(rng.next_u64());
    const u8 b = static_cast<u8>(rng.next_u64());
    EXPECT_EQ(mul_alpha(a) ^ mul_alpha(b), mul_alpha(a ^ b));
    EXPECT_EQ(div_alpha(a) ^ div_alpha(b), div_alpha(a ^ b));
  }
}

TEST(Gf, AlphaDivInvertsAlphaTimes) {
  Rng rng(2);
  for (int trial = 0; trial < 1000; ++trial) {
    const u32 w = rng.next_u32();
    EXPECT_EQ(alpha_div(alpha_times(w)), w);
    EXPECT_EQ(alpha_times(alpha_div(w)), w);
  }
}

TEST(Gf, LinearMapColumnsReconstructTable) {
  const auto cols = linear_map_columns(&mul_alpha);
  Rng rng(3);
  for (int trial = 0; trial < 256; ++trial) {
    const u8 c = static_cast<u8>(trial);
    u32 expect = 0;
    for (unsigned j = 0; j < 8; ++j) {
      if (bit_of(c, j)) expect ^= cols[j];
    }
    EXPECT_EQ(expect, mul_alpha(c));
  }
}

TEST(Sbox, SrIsRijndael) {
  const auto& sr = table_sr();
  EXPECT_EQ(sr[0x00], 0x63);
  EXPECT_EQ(sr[0x01], 0x7c);
  EXPECT_EQ(sr[0xc9], 0xdd);
}

TEST(Sbox, SqMatchesSpecPrefix) {
  // First 16 entries of the SQ table from the SNOW 3G specification; our
  // table is derived from the Dickson polynomial D49 = D7 o D7.
  const std::array<u8, 16> expect = {0x25, 0x24, 0x73, 0x67, 0xD7, 0xAE, 0x5C, 0x30,
                                     0xA4, 0xEE, 0x6E, 0xCB, 0x7D, 0xB5, 0x82, 0xDB};
  const auto& sq = table_sq();
  for (size_t i = 0; i < expect.size(); ++i) EXPECT_EQ(sq[i], expect[i]) << i;
}

TEST(Sbox, SqIsAPermutation) {
  std::array<bool, 256> seen{};
  for (u8 v : table_sq()) seen[v] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Sbox, S1S2WordValues) {
  // circ(2,1,1,3) over equal bytes collapses to the byte itself.
  EXPECT_EQ(s1(0x00000000u), 0x63636363u);
  EXPECT_EQ(s2(0x00000000u), 0x25252525u);
}

TEST(Gamma, MatchesSectionIIIDefinition) {
  const LfsrState s = gamma(kPaperKey, kPaperIv);
  EXPECT_EQ(s[4], kPaperKey[0]);
  EXPECT_EQ(s[5], kPaperKey[1]);
  EXPECT_EQ(s[6], kPaperKey[2]);
  EXPECT_EQ(s[7], kPaperKey[3]);
  EXPECT_EQ(s[0], ~kPaperKey[0]);
  EXPECT_EQ(s[8], ~kPaperKey[0]);
  EXPECT_EQ(s[15], kPaperKey[3] ^ kPaperIv[0]);
  EXPECT_EQ(s[12], kPaperKey[0] ^ kPaperIv[1]);
  EXPECT_EQ(s[10], kPaperKey[2] ^ 0xffffffffu ^ kPaperIv[2]);
  EXPECT_EQ(s[9], kPaperKey[1] ^ 0xffffffffu ^ kPaperIv[3]);
}

TEST(Keystream, KnownTestVector) {
  // First keystream words for the standard test-vector key/IV.
  Snow3g cipher(kPaperKey, kPaperIv);
  EXPECT_EQ(hex32(cipher.next()), "abee9704");
  EXPECT_EQ(hex32(cipher.next()), "7ac31373");
}

// Table-driven golden keystream vectors.
//
// The "3gpp" rows are from the UEA2/UIA2 design-conformance test data
// (implementers' test sets for the SNOW 3G keystream generator); the long
// set pins the first two words and word 2500, which the document lists
// explicitly.  The "pin" rows are reference-model regression vectors: their
// expected words were produced by this implementation (after it passed the
// 3GPP sets) and exist to catch unintended keystream changes on randomized
// keys, not to certify conformance.
struct GoldenVector {
  const char* name;
  Key key;
  Iv iv;
  std::vector<std::pair<size_t, u32>> expect;  // (1-based word index, z_index)
};

// Print a vector as its name.  gtest's fallback dumps the raw object bytes,
// which include the address of `name`, so the listed test name would change
// from one run to the next; the discovered ctest name is built from this
// printout ("Vectors/KeystreamGolden.MatchesExpectedWords/3gpp_set1").
void PrintTo(const GoldenVector& v, std::ostream* os) { *os << v.name; }

class KeystreamGolden : public ::testing::TestWithParam<GoldenVector> {};

TEST_P(KeystreamGolden, MatchesExpectedWords) {
  const GoldenVector& v = GetParam();
  size_t last = 0;
  for (const auto& [index, value] : v.expect) last = std::max(last, index);
  Snow3g cipher(v.key, v.iv);
  const std::vector<u32> z = cipher.keystream(last);
  for (const auto& [index, value] : v.expect) {
    EXPECT_EQ(hex32(z[index - 1]), hex32(value)) << v.name << " z" << index;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Vectors, KeystreamGolden,
    ::testing::Values(
        GoldenVector{"3gpp_set1",
                     {0x2bd6459f, 0x82c5b300, 0x952c4910, 0x4881ff48},
                     {0xea024714, 0xad5c4d84, 0xdf1f9b25, 0x1c0bf45f},
                     {{1, 0xabee9704}, {2, 0x7ac31373}}},
        GoldenVector{"3gpp_set4_long",
                     {0x0ded7263, 0x109cf92e, 0x3352255a, 0x140e0f76},
                     {0x6b68079a, 0x41a7c4c9, 0x1befd79f, 0x7fdcc233},
                     {{1, 0xd712c05c}, {2, 0xa937c2a6}, {2500, 0x9c0db3aa}}},
        GoldenVector{"pin_seed101",
                     {0x05bfd51f, 0xc93c8ec8, 0x8d2dfe5d, 0xdfb06248},
                     {0x53048c0e, 0xf8600b02, 0xcb190927, 0x80cfd01b},
                     {{1, 0x7ef6aa5b}, {2, 0xc42f2c28}, {3, 0xe6489816}, {4, 0x02a0d0bc}}},
        GoldenVector{"pin_seed202",
                     {0xc5d901a7, 0xb074aa23, 0xfac2e4fb, 0xf2293c55},
                     {0x2c471ff4, 0xdfe849ce, 0xd67495f5, 0xd32d55f0},
                     {{1, 0x032914b4}, {2, 0x6fdbebf5}, {3, 0x1d13c65d}, {4, 0xecca2da7}}},
        GoldenVector{"pin_seed303",
                     {0x007c8e6a, 0x2c423dd6, 0x67564cfb, 0xc184453e},
                     {0xd845207d, 0x1f54c64a, 0xa40e3a8e, 0xf5a22799},
                     {{1, 0x715dcf99}, {2, 0x40333c59}, {3, 0x4e36df2e}, {4, 0xbad5c4c5}}}));

TEST(Keystream, PaperTable3KeyIndependent) {
  const std::array<const char*, 16> expect = {
      "a1fb4788", "e4382f8e", "3b72471c", "33ebb59a", "32ac43c7", "5eebfd82",
      "3a325fd4", "1e1d7001", "b7f15767", "3282c5b0", "103da78f", "e42761e4",
      "c6ded1bb", "089fa36c", "01c7c690", "bf921256"};
  // Key/IV must be irrelevant under the beta fault; try two different keys.
  for (u64 seed : {0ull, 99ull}) {
    Rng rng(seed);
    const Key k = {rng.next_u32(), rng.next_u32(), rng.next_u32(), rng.next_u32()};
    const Iv iv = {rng.next_u32(), rng.next_u32(), rng.next_u32(), rng.next_u32()};
    Snow3g cipher(k, iv, FaultConfig::key_independent());
    for (const char* e : expect) EXPECT_EQ(hex32(cipher.next()), e);
  }
}

TEST(Keystream, PaperTable4FaultyKeystream) {
  const std::array<const char*, 16> expect = {
      "3ffe4851", "35d1c393", "5914acef", "e98446cc", "689782d9", "8abdb7fc",
      "a11b0377", "5a2dd294", "5deb29fa", "c2c6009a", "a82ee62f", "925268ed",
      "d04e2c33", "3890311b", "e8d27b84", "a70aeeaa"};
  Snow3g cipher(kPaperKey, kPaperIv, FaultConfig::full_attack());
  for (const char* e : expect) EXPECT_EQ(hex32(cipher.next()), e);
}

TEST(Reverse, PaperTable5RecoveredState) {
  Snow3g cipher(kPaperKey, kPaperIv, FaultConfig::full_attack());
  const std::vector<u32> z = cipher.keystream(16);
  const LfsrState s0 = state_from_faulty_keystream(z);
  const std::array<const char*, 16> expect = {
      "d429ba60", "7d3a4cff", "6ad3b6ef", "b77e00b7", "2bd6459f", "82c5b300",
      "952c4910", "4881ff48", "d429ba60", "6131b8a0", "b5cc2dca", "b77e00b7",
      "868a081b", "82c5b300", "952c4910", "a283b85c"};
  for (size_t i = 0; i < 16; ++i) EXPECT_EQ(hex32(s0[i]), expect[i]) << "s" << i;
}

TEST(Reverse, BackwardInvertsForward) {
  Rng rng(4);
  for (int trial = 0; trial < 200; ++trial) {
    LfsrState s{};
    for (auto& w : s) w = rng.next_u32();
    EXPECT_EQ(lfsr_backward(lfsr_forward(s)), s);
    EXPECT_EQ(lfsr_forward(lfsr_backward(s)), s);
  }
}

TEST(Reverse, RecoversPaperKeyAndIv) {
  Snow3g cipher(kPaperKey, kPaperIv, FaultConfig::full_attack());
  const auto secrets = recover_from_keystream(cipher.keystream(16));
  ASSERT_TRUE(secrets.has_value());
  EXPECT_EQ(secrets->key, kPaperKey);
  EXPECT_EQ(secrets->iv, kPaperIv);
}

class ReverseRandomKeys : public ::testing::TestWithParam<u64> {};

TEST_P(ReverseRandomKeys, FullAttackPipelineRecoversKey) {
  Rng rng(GetParam());
  const Key k = {rng.next_u32(), rng.next_u32(), rng.next_u32(), rng.next_u32()};
  const Iv iv = {rng.next_u32(), rng.next_u32(), rng.next_u32(), rng.next_u32()};
  Snow3g cipher(k, iv, FaultConfig::full_attack());
  const auto secrets = recover_from_keystream(cipher.keystream(16));
  ASSERT_TRUE(secrets.has_value());
  EXPECT_EQ(secrets->key, k);
  EXPECT_EQ(secrets->iv, iv);
}

INSTANTIATE_TEST_SUITE_P(Sweep, ReverseRandomKeys,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
                                           16, 17, 18, 19, 20));

TEST(Reverse, RejectsInconsistentState) {
  // A random "keystream" almost surely violates the gamma redundancies.
  Rng rng(5);
  std::vector<u32> z;
  for (int i = 0; i < 16; ++i) z.push_back(rng.next_u32());
  EXPECT_FALSE(recover_from_keystream(z).has_value());
}

TEST(Reverse, NeedsSixteenWords) {
  std::vector<u32> z(15, 0);
  EXPECT_THROW(state_from_faulty_keystream(z), std::invalid_argument);
}

TEST(Faults, PartialMaskOnlyCutsSelectedBits) {
  // Cutting all 32 bits one at a time differs from cutting none.
  Snow3g none(kPaperKey, kPaperIv, FaultConfig::none());
  Snow3g bit0(kPaperKey, kPaperIv, FaultConfig{1u, false, false});
  EXPECT_NE(none.keystream(8), bit0.keystream(8));
}

TEST(Faults, OutputCutMakesKeystreamTheLfsrStream) {
  // With only the output cut, z_t = s0 of the (normally initialized) LFSR.
  Snow3g faulted(kPaperKey, kPaperIv, FaultConfig{0, true, false});
  Snow3g shadow(kPaperKey, kPaperIv, FaultConfig{0, false, false});
  for (int t = 0; t < 8; ++t) {
    const u32 s0 = shadow.lfsr()[0];
    EXPECT_EQ(faulted.next(), s0);
    (void)shadow.next();
  }
}

TEST(Faults, Alpha2ZeroTestCannotMisfire) {
  // The attack's alpha2 phase zeroes one pair of each LUT1's XOR trio
  // (s0, s15 + R1, R2) on the key-independent configuration and takes the
  // pair as the FSM pair when the bit reads 0 in all w = 16 words.  There the
  // LFSR is all zero, so the FSM pair leaves the s0 column, which is 0; a
  // wrong pair leaves the column of s15 + R1 or of R2.  Those columns do not
  // depend on the key, so one model run shows for every bit that neither
  // wrong pair can pass the test.
  Snow3g model({}, {}, FaultConfig::key_independent());
  u32 sum_seen = 0;  // OR over the words of s15 + R1
  u32 r2_seen = 0;   // OR over the words of R2
  for (int t = 0; t < 16; ++t) {
    const u32 s0 = model.lfsr()[0];
    const u32 sum = model.lfsr()[15] + model.r1();
    const u32 r2 = model.r2();
    EXPECT_EQ(s0, 0u);
    EXPECT_EQ(model.next(), s0 ^ sum ^ r2);
    sum_seen |= sum;
    r2_seen |= r2;
  }
  EXPECT_EQ(sum_seen, 0xffffffffu);
  EXPECT_EQ(r2_seen, 0xffffffffu);
}

TEST(F8, EncryptDecryptRoundTrip) {
  Key128 ck{};
  for (size_t i = 0; i < 16; ++i) ck[i] = static_cast<u8>(i * 17);
  std::vector<u8> data(123);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i);
  const std::vector<u8> original = data;
  f8(ck, 0x12345678, 0x0c, 1, data, data.size() * 8);
  EXPECT_NE(data, original);
  f8(ck, 0x12345678, 0x0c, 1, data, data.size() * 8);
  EXPECT_EQ(data, original);
}

TEST(F8, PartialBitLengthLeavesTailUntouched) {
  Key128 ck{};
  std::vector<u8> data(8, 0xff);
  f8(ck, 1, 1, 0, data, 20);  // only 20 bits encrypted
  // Bits 20..63 must be untouched: last 5 bytes intact except high nibble
  // boundary within byte 2.
  EXPECT_EQ(data[3], 0xff);
  EXPECT_EQ(data[7], 0xff);
  EXPECT_EQ(data[2] & 0x0f, 0x0f);
}

TEST(F8, CountChangesKeystream) {
  Key128 ck{};
  std::vector<u8> a(16, 0), b(16, 0);
  f8(ck, 1, 0, 0, a, 128);
  f8(ck, 2, 0, 0, b, 128);
  EXPECT_NE(a, b);
}

TEST(F9, DeterministicAndSensitive) {
  Key128 ik{};
  for (size_t i = 0; i < 16; ++i) ik[i] = static_cast<u8>(255 - i);
  std::vector<u8> msg(40);
  for (size_t i = 0; i < msg.size(); ++i) msg[i] = static_cast<u8>(i * 3);
  const u32 mac = f9(ik, 5, 6, 0, msg, msg.size() * 8);
  EXPECT_EQ(f9(ik, 5, 6, 0, msg, msg.size() * 8), mac);
  // Any single-bit change must change the MAC.
  msg[10] ^= 0x40;
  EXPECT_NE(f9(ik, 5, 6, 0, msg, msg.size() * 8), mac);
  msg[10] ^= 0x40;
  EXPECT_NE(f9(ik, 5, 6, 1, msg, msg.size() * 8), mac);   // direction
  EXPECT_NE(f9(ik, 6, 6, 0, msg, msg.size() * 8), mac);   // count
  EXPECT_NE(f9(ik, 5, 7, 0, msg, msg.size() * 8), mac);   // fresh
  EXPECT_NE(f9(ik, 5, 6, 0, msg, msg.size() * 8 - 8), mac);  // length
}

TEST(F9, LengthBeyondBufferRejected) {
  Key128 ik{};
  std::vector<u8> msg(4);
  EXPECT_THROW(f9(ik, 0, 0, 0, msg, 64), std::invalid_argument);
  std::vector<u8> data(4);
  EXPECT_THROW(f8(ik, 0, 0, 0, data, 64), std::invalid_argument);
}

TEST(WordKey, LoadingConvention) {
  Key128 ck{};
  ck[0] = 0x2b;
  ck[1] = 0xd6;
  ck[2] = 0x45;
  ck[3] = 0x9f;
  const Key k = to_word_key(ck);
  EXPECT_EQ(k[3], 0x2bd6459fu);  // first bytes land in k3
}

}  // namespace
}  // namespace sbm::snow3g
