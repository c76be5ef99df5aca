// HMAC-SHA-256 (RFC 2104 / FIPS 198-1).
//
// The paper's target devices authenticate bitstreams with a 256-bit HMAC
// whose key K_A is itself stored inside the (encrypted) bitstream.  The
// bitstream layer uses this module to implement that MAC-then-encrypt
// scheme, including re-MACing after a malicious modification.
#pragma once

#include <span>

#include "crypto/sha256.h"

namespace sbm::crypto {

/// The SHA-256 chaining values after HMAC's ipad and opad blocks of `key`
/// (any length): HMAC(key, m) = SHA-256 resumed from `opad` at byte 64 over
/// the digest of SHA-256 resumed from `ipad` at byte 64 over m.
struct HmacKeyStates {
  Sha256State ipad{};
  Sha256State opad{};
};
HmacKeyStates hmac_key_states(std::span<const u8> key);

/// Computes HMAC-SHA-256 over `data` with `key` (any length).
Sha256Digest hmac_sha256(std::span<const u8> key, std::span<const u8> data);

/// Constant-time digest comparison.
bool digest_equal(const Sha256Digest& a, const Sha256Digest& b);

}  // namespace sbm::crypto
