// Bitstream format tests: Table I coding, packet assembly/parsing, CRC
// handling, LUT patching and the MAC-then-encrypt wrapper.
#include <gtest/gtest.h>

#include <functional>
#include <string>

#include "bitstream/assembler.h"
#include "bitstream/lut_coding.h"
#include "bitstream/parser.h"
#include "bitstream/patcher.h"
#include "bitstream/secure.h"
#include "common/rng.h"
#include "fpga/system.h"
#include "obs/metrics.h"
#include "runtime/thread_pool.h"

namespace sbm::bitstream {
namespace {

TEST(LutCoding, XiIsAPermutation) {
  std::array<bool, 64> seen{};
  for (const u8 p : xi_table()) {
    EXPECT_LT(p, 64);
    EXPECT_FALSE(seen[p]);
    seen[p] = true;
  }
}

TEST(LutCoding, XiMatchesTable1SpotRows) {
  // Rows of the paper's Table I: F[i] -> B[xi(i)].
  const auto& xi = xi_table();
  EXPECT_EQ(xi[0], 63);   // a6..a1 = 000000
  EXPECT_EQ(xi[1], 47);   // 000001
  EXPECT_EQ(xi[8], 15);   // 001000
  EXPECT_EQ(xi[31], 24);  // 011111
  EXPECT_EQ(xi[32], 55);  // 100000
  EXPECT_EQ(xi[62], 0);   // 111110
  EXPECT_EQ(xi[63], 16);  // 111111
}

TEST(LutCoding, XiRoundTrip) {
  Rng rng(1);
  for (int trial = 0; trial < 200; ++trial) {
    const u64 f = rng.next_u64();
    EXPECT_EQ(xi_inverse(xi_permute(f)), f);
    EXPECT_EQ(xi_permute(xi_inverse(f)), f);
  }
}

TEST(LutCoding, SubVectorOrders) {
  EXPECT_EQ(chunk_order(mapper::SliceType::kSliceL), (std::array<u8, 4>{0, 1, 2, 3}));
  EXPECT_EQ(chunk_order(mapper::SliceType::kSliceM), (std::array<u8, 4>{3, 2, 0, 1}));
}

TEST(LutCoding, EncodeDecodeRoundTrip) {
  Rng rng(2);
  for (const auto& order : device_chunk_orders()) {
    for (int trial = 0; trial < 100; ++trial) {
      const u64 init = rng.next_u64();
      EXPECT_EQ(decode_lut(encode_lut(init, order), order), init);
    }
  }
}

TEST(LutCoding, OrdersProduceDifferentLayouts) {
  const u64 init = 0x0123456789abcdefull;
  const auto l = encode_lut(init, chunk_order(mapper::SliceType::kSliceL));
  const auto m = encode_lut(init, chunk_order(mapper::SliceType::kSliceM));
  EXPECT_NE(l, m);
}

TEST(Format, PaperHeaderWords) {
  EXPECT_EQ(type1_write(Reg::kFdri, 0), 0x30004000u);
  EXPECT_EQ(type1_write(Reg::kCrc, 1), 0x30000001u);
  EXPECT_EQ(type1_write(Reg::kCmd, 1), 0x30008001u);
  EXPECT_EQ(type2_write(2432080), 0x50251C50u);  // the paper's example
}

TEST(Format, ConfigCrcResetsAndAccumulates) {
  ConfigCrc a, b;
  a.feed(Reg::kFdri, 0x12345678);
  b.feed(Reg::kFdri, 0x12345678);
  EXPECT_EQ(a.value(), b.value());
  a.feed(Reg::kFdri, 1);
  EXPECT_NE(a.value(), b.value());
  a.reset();
  b.reset();
  EXPECT_EQ(a.value(), b.value());
  // Register address participates in the CRC.
  a.feed(Reg::kFdri, 7);
  b.feed(Reg::kCmd, 7);
  EXPECT_NE(a.value(), b.value());
}

class AssembledSystem : public ::testing::Test {
 protected:
  static void SetUpTestSuite() { system_ = new fpga::System(fpga::build_system()); }
  static void TearDownTestSuite() {
    delete system_;
    system_ = nullptr;
  }
  static fpga::System* system_;
};
fpga::System* AssembledSystem::system_ = nullptr;

TEST_F(AssembledSystem, ParsesCleanly) {
  const ParseResult res = parse_bitstream(system_->golden.bytes);
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.crc_checked);
  EXPECT_TRUE(res.desynced);
  ASSERT_TRUE(res.idcode.has_value());
  EXPECT_EQ(*res.idcode, kDeviceIdCode);
  EXPECT_EQ(res.fdri_byte_offset, system_->golden.layout.fdri_byte_offset);
  EXPECT_EQ(res.frame_data.size(), system_->golden.layout.frame_count * kFrameBytes);
}

TEST_F(AssembledSystem, LutInitsRoundTripThroughTheBitstream) {
  const auto& layout = system_->golden.layout;
  for (size_t site = 0; site < system_->placed.phys.size(); ++site) {
    const u64 expect = system_->placed.init_of(site);
    const auto order = chunk_order(system_->placed.slice_of(site));
    const u64 got = read_lut_init(system_->golden.bytes, layout.site_byte_index(site),
                                  Layout::chunk_stride(), order);
    ASSERT_EQ(got, expect) << "site " << site;
  }
}

TEST_F(AssembledSystem, KeyIsEmbeddedAtTheKeyFrame) {
  const auto& layout = system_->golden.layout;
  const u8* p = system_->golden.bytes.data() + layout.key_byte_index();
  for (int w = 0; w < 4; ++w) {
    EXPECT_EQ(load_be32(p + 4 * w), system_->options.key[static_cast<size_t>(w)]);
  }
}

TEST_F(AssembledSystem, CorruptionIsDetectedByCrc) {
  auto bytes = system_->golden.bytes;
  bytes[system_->golden.layout.fdri_byte_offset + 17] ^= 0x01;
  const ParseResult res = parse_bitstream(bytes);
  EXPECT_FALSE(res.ok);
  EXPECT_NE(res.error.find("CRC"), std::string::npos);
}

TEST_F(AssembledSystem, DisableCrcSkipsTheCheck) {
  auto bytes = system_->golden.bytes;
  bytes[system_->golden.layout.fdri_byte_offset + 17] ^= 0x01;
  EXPECT_EQ(disable_crc(bytes), 1u);
  const ParseResult res = parse_bitstream(bytes);
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_FALSE(res.crc_checked);
}

TEST_F(AssembledSystem, RecomputeCrcRepairsAModifiedStream) {
  auto bytes = system_->golden.bytes;
  bytes[system_->golden.layout.fdri_byte_offset + 17] ^= 0x01;
  EXPECT_TRUE(recompute_crc(bytes));
  const ParseResult res = parse_bitstream(bytes);
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.crc_checked);
}

TEST_F(AssembledSystem, WriteLutInitPatchesExactlyOneSite) {
  auto bytes = system_->golden.bytes;
  const auto& layout = system_->golden.layout;
  const auto order = chunk_order(system_->placed.slice_of(0));
  const size_t l = layout.site_byte_index(0);
  write_lut_init(bytes, l, Layout::chunk_stride(), order, 0xdeadbeefcafef00dull);
  EXPECT_EQ(read_lut_init(bytes, l, Layout::chunk_stride(), order), 0xdeadbeefcafef00dull);
  // All other sites untouched.
  for (size_t site = 1; site < std::min<size_t>(system_->placed.phys.size(), 50); ++site) {
    const auto o = chunk_order(system_->placed.slice_of(site));
    EXPECT_EQ(read_lut_init(bytes, layout.site_byte_index(site), Layout::chunk_stride(), o),
              system_->placed.init_of(site));
  }
}

TEST(Layout, SlotOffsetsSkipTheReservedWord) {
  for (size_t slot = 0; slot < kSlotsPerGroup; ++slot) {
    const size_t off = Layout::slot_offset(slot);
    EXPECT_LT(off + 1, kFrameBytes);
    EXPECT_FALSE(off >= 200 && off < 204) << "slot " << slot << " hits the HCLK word";
  }
  EXPECT_THROW(Layout::slot_offset(kSlotsPerGroup), std::out_of_range);
}

TEST(Parser, RejectsGarbage) {
  const std::vector<u8> none(64, 0x00);
  EXPECT_FALSE(parse_bitstream(none).ok);
  std::vector<u8> misaligned(13, 0xff);
  EXPECT_FALSE(parse_bitstream(misaligned).ok);
}

TEST(Parser, RejectsWrongIdcode) {
  std::vector<u8> b;
  append_word(b, kDummyWord);
  append_word(b, kSyncWord);
  append_word(b, type1_write(Reg::kIdcode, 1));
  append_word(b, 0x11111111);
  EXPECT_FALSE(parse_bitstream(b).ok);
}

TEST(Parser, RejectsTruncatedPacket) {
  std::vector<u8> b;
  append_word(b, kSyncWord);
  append_word(b, type1_write(Reg::kCmd, 5));  // promises 5 words, provides 0
  EXPECT_FALSE(parse_bitstream(b).ok);
}

TEST(Secure, ProtectUnprotectRoundTrip) {
  crypto::Aes256Key ke{};
  ke[5] = 0xab;
  AuthKey ka{};
  ka[0] = 0x11;
  ka[31] = 0x99;
  crypto::AesBlock iv{};
  iv[3] = 7;
  std::vector<u8> plain(777);
  Rng rng(3);
  for (auto& b : plain) b = static_cast<u8>(rng.next_u64());

  const std::vector<u8> enc = protect_bitstream(plain, ke, ka, iv);
  const UnprotectResult res = unprotect_bitstream(enc, ke);
  ASSERT_TRUE(res.ok) << res.error;
  EXPECT_EQ(res.plain, plain);
  EXPECT_EQ(res.k_a, ka);
}

TEST(Secure, WrongKeFails) {
  crypto::Aes256Key ke{}, wrong{};
  wrong[0] = 1;
  const std::vector<u8> enc = protect_bitstream(std::vector<u8>(100, 0x42), ke, {}, {});
  EXPECT_FALSE(unprotect_bitstream(enc, wrong).ok);
}

TEST(Secure, TamperingBreaksHmac) {
  crypto::Aes256Key ke{};
  std::vector<u8> enc = protect_bitstream(std::vector<u8>(100, 0x42), ke, {}, {});
  enc[60] ^= 0x80;  // flip a ciphertext bit inside the payload
  const UnprotectResult res = unprotect_bitstream(enc, ke);
  EXPECT_FALSE(res.ok);
}

TEST(Secure, AttackerCanReMacAfterPatching) {
  // The full Fig. 1 attack flow: decrypt with the side-channel-recovered
  // K_E, read K_A, patch, re-MAC, re-encrypt; the device must accept it.
  crypto::Aes256Key ke{};
  ke[1] = 0x77;
  AuthKey ka{};
  ka[8] = 0x33;
  std::vector<u8> plain(256, 0x5a);
  const std::vector<u8> enc = protect_bitstream(plain, ke, ka, {});

  UnprotectResult stolen = unprotect_bitstream(enc, ke);
  ASSERT_TRUE(stolen.ok);
  stolen.plain[100] ^= 0xff;  // malicious modification
  const std::vector<u8> reenc = protect_bitstream(stolen.plain, ke, stolen.k_a, {});
  const UnprotectResult accepted = unprotect_bitstream(reenc, ke);
  ASSERT_TRUE(accepted.ok);
  EXPECT_EQ(accepted.plain[100], static_cast<u8>(0x5a ^ 0xff));
}

// ---- incremental envelope vs the uncached composition ----

// AES-256-CTR from single blocks, with the 32-bit counter in bytes 12..15
// incremented byte by byte, independently of crypto::ctr_block.
std::vector<u8> reference_ctr(const crypto::Aes256Key& k_e, const crypto::AesBlock& iv,
                              std::vector<u8> data) {
  const crypto::Aes256 aes(k_e);
  crypto::AesBlock counter = iv;
  for (size_t off = 0; off < data.size(); off += 16) {
    crypto::AesBlock ks = counter;
    aes.encrypt_block(ks);
    for (size_t i = 0; i < 16 && off + i < data.size(); ++i) data[off + i] ^= ks[i];
    for (size_t i = 16; i-- > 12;) {
      if (++counter[i] != 0) break;
    }
  }
  return data;
}

std::vector<u8> reference_protect(std::span<const u8> plain, const crypto::Aes256Key& k_e,
                                  const AuthKey& k_a, const crypto::AesBlock& iv) {
  std::vector<u8> blob(k_a.begin(), k_a.end());
  blob.insert(blob.end(), plain.begin(), plain.end());
  blob.insert(blob.end(), k_a.begin(), k_a.end());
  const crypto::Sha256Digest mac = crypto::hmac_sha256(k_a, blob);
  blob.insert(blob.end(), mac.begin(), mac.end());
  blob = reference_ctr(k_e, iv, std::move(blob));
  std::vector<u8> out(SecureHeader::kMagic.begin(), SecureHeader::kMagic.end());
  out.insert(out.end(), iv.begin(), iv.end());
  out.insert(out.end(), blob.begin(), blob.end());
  return out;
}

UnprotectResult reference_unprotect(std::span<const u8> enc, const crypto::Aes256Key& k_e) {
  UnprotectResult res;
  if (enc.size() < 24 + 96) {
    res.error = "too short";
    return res;
  }
  if (!std::equal(SecureHeader::kMagic.begin(), SecureHeader::kMagic.end(), enc.begin())) {
    res.error = "bad magic";
    return res;
  }
  crypto::AesBlock iv{};
  std::copy(enc.begin() + 8, enc.begin() + 24, iv.begin());
  const std::vector<u8> blob = reference_ctr(k_e, iv, std::vector<u8>(enc.begin() + 24, enc.end()));
  const size_t n = blob.size() - 96;
  std::copy(blob.begin(), blob.begin() + 32, res.k_a.begin());
  if (!std::equal(res.k_a.begin(), res.k_a.end(), blob.begin() + 32 + static_cast<long>(n))) {
    res.error = "K_A copies disagree (wrong K_E?)";
    return res;
  }
  const crypto::Sha256Digest mac =
      crypto::hmac_sha256(res.k_a, std::span<const u8>(blob.data(), blob.size() - 32));
  if (!std::equal(mac.begin(), mac.end(), blob.end() - 32)) {
    res.error = "HMAC mismatch (reported in BOOTSTS)";
    return res;
  }
  res.plain.assign(blob.begin() + 32, blob.begin() + 32 + static_cast<long>(n));
  res.ok = true;
  return res;
}

template <size_t N>
std::array<u8, N> random_bytes(Rng& rng) {
  std::array<u8, N> a{};
  for (auto& b : a) b = static_cast<u8>(rng.next_u64());
  return a;
}

/// Protects and opens `iterations` seeded cases through both paths and
/// returns the first disagreement, or "" when there is none.  Six K_E, six
/// IVs and three K_A interleave, more than either cache holds; a third of
/// the IVs sit a few blocks below the 2^32 counter wrap.  Images keep their
/// length per K_A and take small edits, so the caches resume mid-message.
std::string envelope_differential(u64 seed, int iterations) {
  Rng rng(seed);
  std::vector<crypto::Aes256Key> k_es;
  std::vector<crypto::AesBlock> ivs;
  std::vector<AuthKey> k_as;
  for (int i = 0; i < 6; ++i) {
    k_es.push_back(random_bytes<32>(rng));
    ivs.push_back(random_bytes<16>(rng));
    if (i % 3 == 0) store_be32(ivs.back().data() + 12, 0xffffffffu - static_cast<u32>(i));
  }
  for (int i = 0; i < 3; ++i) k_as.push_back(random_bytes<32>(rng));
  const size_t lengths[] = {0, 1, 15, 31, 33, 63, 64, 65, 127, 200, 1000, 6952, 8200, 9001};
  std::vector<std::vector<u8>> images(k_as.size());

  for (int it = 0; it < iterations; ++it) {
    const size_t a = rng.next_below(k_as.size());
    const crypto::Aes256Key& k_e = k_es[rng.next_below(k_es.size())];
    const crypto::AesBlock& iv = ivs[rng.next_below(ivs.size())];
    std::vector<u8>& image = images[a];
    if (image.empty() || rng.next_below(16) == 0) {
      image.resize(lengths[rng.next_below(std::size(lengths))]);
      for (auto& b : image) b = static_cast<u8>(rng.next_u64());
    }
    std::vector<u8> plain = image;
    if (!plain.empty()) {
      switch (rng.next_below(4)) {
        case 0: plain[rng.next_below(std::min<size_t>(plain.size(), 64))] ^= 0x01; break;
        case 1: plain[plain.size() - 1 - rng.next_below(std::min<size_t>(plain.size(), 64))] ^= 0x80; break;
        case 2: plain[rng.next_below(plain.size())] = static_cast<u8>(rng.next_u64()); break;
        default: break;
      }
    }
    const std::string at = "iteration " + std::to_string(it) + ", " +
                           std::to_string(plain.size()) + " bytes: ";
    std::vector<u8> enc = protect_bitstream(plain, k_e, k_as[a], iv);
    if (enc != reference_protect(plain, k_e, k_as[a], iv)) return at + "protect bytes differ";

    crypto::Aes256Key open_key = k_e;
    const size_t n = plain.size();
    const auto flip = [&](size_t from, size_t len) {
      if (len > 0) enc[from + rng.next_below(len)] ^= static_cast<u8>(1u << rng.next_below(8));
    };
    switch (rng.next_below(9)) {
      case 0: enc.resize(rng.next_below(enc.size())); break;
      case 1: flip(0, 8); break;            // magic
      case 2: flip(8, 16); break;           // IV
      case 3: flip(24, 32); break;          // K_A
      case 4: flip(56 + n, 32); break;      // K_A copy
      case 5: flip(88 + n, 32); break;      // MAC
      case 6: flip(56, n); break;           // body
      case 7: open_key = k_es[rng.next_below(k_es.size())]; break;
      default: break;
    }
    const UnprotectResult got = unprotect_bitstream(enc, open_key);
    const UnprotectResult want = reference_unprotect(enc, open_key);
    if (got.ok != want.ok || got.error != want.error || got.plain != want.plain ||
        got.k_a != want.k_a) {
      return at + "open differs (got \"" + got.error + "\", want \"" + want.error + "\")";
    }
  }
  return "";
}

TEST(Secure, IncrementalEnvelopeMatchesReference) {
  EXPECT_EQ(envelope_differential(0x5ec0de, 800), "");

  // Each pool thread owns its caches; four run the differential at once.
  runtime::ThreadPool pool(4);
  std::vector<std::string> found(4);
  std::vector<std::function<void()>> tasks;
  for (size_t t = 0; t < found.size(); ++t) {
    tasks.push_back([&found, t] { found[t] = envelope_differential(0xa11ce + t, 200); });
  }
  pool.run_batch(std::move(tasks));
  for (size_t t = 0; t < found.size(); ++t) EXPECT_EQ(found[t], "") << "thread task " << t;
}

TEST(Secure, WarmEditedPairRecomputesOnlyTheLastBlock) {
  const obs::Mode saved = obs::mode();
  obs::set_mode(obs::Mode::kMetrics);
  const obs::Counter& aes = obs::MetricsRegistry::global().counter("crypto.aes_blocks");
  const obs::Counter& sha = obs::MetricsRegistry::global().counter("crypto.sha_blocks");
  const auto pair_cost = [&](std::span<const u8> image, const crypto::Aes256Key& k_e,
                             const AuthKey& k_a, const crypto::AesBlock& iv) {
    const u64 aes0 = aes.value(), sha0 = sha.value();
    const UnprotectResult opened = unprotect_bitstream(protect_bitstream(image, k_e, k_a, iv), k_e);
    EXPECT_TRUE(opened.ok) << opened.error;
    return std::pair<u64, u64>{aes.value() - aes0, sha.value() - sha0};
  };

  // Fresh keys, so nothing is cached yet.  The 6,952-byte golden image
  // makes a 7,048-byte encrypted blob (441 AES blocks) and a 7,016-byte MAC
  // message (113 SHA-256 blocks with ipad, opad and padding).  The uncached
  // composition spent 882 and 226 on the pair; the device's open of the
  // attacker's fresh envelope now reuses both.
  Rng rng(0x90dde7);
  const auto k_e = random_bytes<32>(rng);
  const auto k_a = random_bytes<32>(rng);
  const auto iv = random_bytes<16>(rng);
  std::vector<u8> golden(6952);
  for (auto& b : golden) b = static_cast<u8>(rng.next_u64());
  EXPECT_EQ(pair_cost(golden, k_e, k_a, iv), (std::pair<u64, u64>{441, 115}));

  std::vector<u8> probe = golden;
  probe.back() ^= 0x01;
  const auto [warm_aes, warm_sha] = pair_cost(probe, k_e, k_a, iv);
  EXPECT_EQ(warm_aes, 0u);
  EXPECT_LE(warm_sha, 8u);
  obs::set_mode(saved);
}

}  // namespace
}  // namespace sbm::bitstream
