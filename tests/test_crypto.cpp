// Known-answer and property tests for the crypto substrate (CRC-32,
// SHA-256, HMAC-SHA-256, AES-256-CTR).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string_view>
#include <utility>

#include "common/hex.h"
#include "crypto/aes256.h"
#include "crypto/crc32.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace sbm::crypto {
namespace {

std::vector<u8> bytes_of(std::string_view s) {
  return std::vector<u8>(s.begin(), s.end());
}

TEST(Crc32, CheckString) {
  // The universal CRC check value for "123456789".
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xCBF43926u);
}

TEST(Crc32, CastagnoliCheckString) {
  EXPECT_EQ(crc32c(bytes_of("123456789")), 0xE3069283u);
}

TEST(Crc32, EmptyInput) {
  EXPECT_EQ(crc32({}), 0u);
  EXPECT_EQ(crc32c({}), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const auto data = bytes_of("the quick brown fox jumps over the lazy dog");
  Crc32Engine e(0xEDB88320u);
  for (u8 b : data) e.update_byte(b);
  EXPECT_EQ(e.value(), crc32(data));
}

TEST(Crc32, SensitiveToSingleBitFlip) {
  auto data = bytes_of("bitstream");
  const u32 before = crc32c(data);
  data[3] ^= 0x10;
  EXPECT_NE(crc32c(data), before);
}

TEST(Sha256, EmptyString) {
  EXPECT_EQ(hex_bytes(sha256({})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, Abc) {
  EXPECT_EQ(hex_bytes(sha256(bytes_of("abc"))),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, TwoBlockMessage) {
  EXPECT_EQ(hex_bytes(sha256(bytes_of(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"))),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, IncrementalSplitsMatchOneShot) {
  const auto data = bytes_of("incremental hashing across arbitrary split points!");
  const Sha256Digest expect = sha256(data);
  for (size_t split = 0; split <= data.size(); ++split) {
    Sha256 h;
    h.update(std::span<const u8>(data.data(), split));
    h.update(std::span<const u8>(data.data() + split, data.size() - split));
    EXPECT_EQ(h.finish(), expect) << "split=" << split;
  }
}

TEST(Sha256, MillionAs) {
  Sha256 h;
  const std::vector<u8> chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.update(chunk);
  EXPECT_EQ(hex_bytes(h.finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

// Lengths on both sides of the padding boundaries: 55 bytes leave exactly
// room for 0x80 and the length, 56..63 spill the length into a second
// block, 64 and 120 start or end a block.  Values from Python's hashlib.
TEST(Sha256, PaddingBoundaryLengths) {
  const std::pair<size_t, std::string_view> kats[] = {
      {55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"},
      {56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"},
      {63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34"},
      {64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"},
      {119, "31eba51c313a5c08226adf18d4a359cfdfd8d2e816b13f4af952f7ea6584dcfb"},
      {120, "2f3d335432c70b580af0e8e1b3674a7c020d683aa5f73aaaedfdc55af904c21c"},
  };
  for (const auto& [len, hex] : kats) {
    EXPECT_EQ(hex_bytes(sha256(std::vector<u8>(len, 'a'))), hex) << "length " << len;
  }
}

TEST(Sha256, ResumeAtBlockBoundaryMatchesOneShot) {
  std::vector<u8> data(300);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i * 13 + 5);
  const Sha256Digest expect = sha256(data);
  for (size_t cut = 0; cut <= data.size(); cut += 64) {
    Sha256 head;
    head.update(std::span<const u8>(data.data(), cut));
    Sha256 resumed(head.state(), cut);
    resumed.update(std::span<const u8>(data.data() + cut, data.size() - cut));
    EXPECT_EQ(resumed.finish(), expect) << "cut=" << cut;
  }
  EXPECT_THROW(Sha256(Sha256State{}, 63), std::invalid_argument);
}

// RFC 4231 test cases for HMAC-SHA-256.
TEST(Hmac, Rfc4231Case1) {
  const std::vector<u8> key(20, 0x0b);
  EXPECT_EQ(hex_bytes(hmac_sha256(key, bytes_of("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(Hmac, Rfc4231Case2) {
  EXPECT_EQ(hex_bytes(hmac_sha256(bytes_of("Jefe"), bytes_of("what do ya want for nothing?"))),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(Hmac, Rfc4231Case3) {
  const std::vector<u8> key(20, 0xaa);
  const std::vector<u8> data(50, 0xdd);
  EXPECT_EQ(hex_bytes(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(Hmac, Rfc4231LongKey) {
  const std::vector<u8> key(131, 0xaa);
  EXPECT_EQ(hex_bytes(hmac_sha256(
                key, bytes_of("Test Using Larger Than Block-Size Key - Hash Key First"))),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, DigestEqualConstantTimeSemantics) {
  Sha256Digest a{}, b{};
  EXPECT_TRUE(digest_equal(a, b));
  b[31] = 1;
  EXPECT_FALSE(digest_equal(a, b));
}

TEST(Aes256, SboxKnownValues) {
  const auto& sbox = aes_sbox();
  EXPECT_EQ(sbox[0x00], 0x63);
  EXPECT_EQ(sbox[0x01], 0x7c);
  EXPECT_EQ(sbox[0x53], 0xed);
  EXPECT_EQ(sbox[0xff], 0x16);
  // The S-box is a permutation of 0..255.
  std::array<bool, 256> seen{};
  for (u8 v : sbox) seen[v] = true;
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Aes256, Fips197Vector) {
  // FIPS-197 Appendix C.3: AES-256 with key 00..1f.
  Aes256Key key{};
  for (size_t i = 0; i < 32; ++i) key[i] = static_cast<u8>(i);
  AesBlock block;
  const auto pt = parse_hex_bytes("00112233445566778899aabbccddeeff");
  std::copy(pt.begin(), pt.end(), block.begin());
  Aes256(key).encrypt_block(block);
  EXPECT_EQ(hex_bytes(block), "8ea2b7ca516745bfeafc49904b496089");
}

TEST(Aes256, CtrSp80038aF55) {
  // NIST SP 800-38A F.5.5, CTR-AES256.Encrypt; also what
  // `openssl enc -aes-256-ctr` gives for this key, IV and plaintext.
  Aes256Key key{};
  const auto k = parse_hex_bytes("603deb1015ca71be2b73aef0857d77811f352c073b6108d72d9810a30914dff4");
  std::copy(k.begin(), k.end(), key.begin());
  AesBlock iv{};
  const auto counter = parse_hex_bytes("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff");
  std::copy(counter.begin(), counter.end(), iv.begin());
  std::vector<u8> data = parse_hex_bytes(
      "6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51"
      "30c81c46a35ce411e5fbc1191a0a52eff69f2445df4f9b17ad2b417be66c3710");
  aes256_ctr_xor(key, iv, data);
  EXPECT_EQ(hex_bytes(data),
            "601ec313775789a5b7a7f504bbf3d228f443e3ca4d62b59aca84e990cacaf5c5"
            "2b0930daa23de94ce87017ba2d84988ddfc9c58db67aada613c2dd08457941a6");
}

TEST(Aes256, CtrCounterWrapsInItsLastFourBytes) {
  AesBlock iv{};
  iv.fill(0xff);
  iv[11] = 0x42;
  EXPECT_EQ(hex_bytes(ctr_block(iv, 0)), "ffffffffffffffffffffff42ffffffff");
  EXPECT_EQ(hex_bytes(ctr_block(iv, 1)), "ffffffffffffffffffffff4200000000");
  EXPECT_EQ(hex_bytes(ctr_block(iv, 0x100000001ull)), "ffffffffffffffffffffff4200000000");
}

TEST(Aes256, CtrIsInvolution) {
  Aes256Key key{};
  key[0] = 0x42;
  AesBlock iv{};
  iv[15] = 1;
  std::vector<u8> data(1000);
  for (size_t i = 0; i < data.size(); ++i) data[i] = static_cast<u8>(i * 7);
  const std::vector<u8> original = data;
  aes256_ctr_xor(key, iv, data);
  EXPECT_NE(data, original);
  aes256_ctr_xor(key, iv, data);
  EXPECT_EQ(data, original);
}

TEST(Aes256, CtrKeystreamDependsOnIv) {
  Aes256Key key{};
  std::vector<u8> a(64, 0), b(64, 0);
  AesBlock iv1{}, iv2{};
  iv2[0] = 1;
  aes256_ctr_xor(key, iv1, a);
  aes256_ctr_xor(key, iv2, b);
  EXPECT_NE(a, b);
}

TEST(Aes256, CtrCounterAdvancesAcrossBlocks) {
  // Two encryptions of a 32-byte buffer must produce distinct 16-byte
  // keystream blocks (counter increments).
  Aes256Key key{};
  AesBlock iv{};
  std::vector<u8> data(32, 0);
  aes256_ctr_xor(key, iv, data);
  EXPECT_NE(std::vector<u8>(data.begin(), data.begin() + 16),
            std::vector<u8>(data.begin() + 16, data.end()));
}

}  // namespace
}  // namespace sbm::crypto
