// AES-256 block cipher and CTR mode (FIPS 197 / SP 800-38A).
//
// Two roles in this project:
//   * The bitstream-encryption layer (Xilinx 7-series style AES-256) that the
//     attack must strip/reapply when operating on encrypted bitstreams.
//   * The Rijndael S-box, which doubles as the SNOW 3G S1 table SR (the
//     SNOW 3G spec reuses the AES S-box verbatim).
//
// Tables are derived at first use from GF(2^8) arithmetic rather than being
// transcribed, and are locked in by known-answer tests.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "common/bits.h"

namespace sbm::crypto {

using Aes256Key = std::array<u8, 32>;
using AesBlock = std::array<u8, 16>;

/// The Rijndael forward S-box (identical to the SNOW 3G table SR).
const std::array<u8, 256>& aes_sbox();

/// AES-256 with a fixed key schedule; encrypt-only (CTR needs no decryptor).
class Aes256 {
 public:
  explicit Aes256(const Aes256Key& key);

  /// Encrypts one 16-byte block in place.
  void encrypt_block(AesBlock& block) const;

 private:
  // 15 round keys of 16 bytes each (Nr = 14).
  std::array<std::array<u8, 16>, 15> round_keys_{};
};

/// The CTR counter block of keystream block `j`: `iv` with its last 4 bytes,
/// read big-endian, advanced by j mod 2^32 (no carry into byte 11).
AesBlock ctr_block(const AesBlock& iv, u64 j);

/// AES-256-CTR keystream XOR: encrypts or decrypts `data` in place (CTR is
/// an involution).  The 16-byte IV provides the initial counter block; the
/// counter occupies the last 4 bytes, big-endian.
void aes256_ctr_xor(const Aes256Key& key, const AesBlock& iv, std::span<u8> data);

}  // namespace sbm::crypto
