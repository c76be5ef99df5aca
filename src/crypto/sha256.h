// SHA-256 (FIPS 180-4).
//
// Substrate for the HMAC that authenticates bitstreams in the
// MAC-then-encrypt scheme described in the paper (Fig. 1).
#pragma once

#include <array>
#include <cstdint>
#include <span>

#include "common/bits.h"

namespace sbm::crypto {

using Sha256Digest = std::array<u8, 32>;
/// The eight-word chaining value between 64-byte blocks.
using Sha256State = std::array<u32, 8>;

/// Incremental SHA-256.
class Sha256 {
 public:
  Sha256() { reset(); }
  /// Resumes a hash whose first `bytes` bytes (a multiple of 64) left the
  /// chaining value `state`, as read by state() at that point.
  Sha256(const Sha256State& state, u64 bytes);

  void reset();
  /// The chaining value; a resume point once the bytes fed so far are a
  /// multiple of 64.
  const Sha256State& state() const { return h_; }
  void update(std::span<const u8> data);
  /// Finalizes and returns the digest.  The object must be reset() before
  /// further use.
  Sha256Digest finish();

 private:
  void process_block(const u8* block);

  Sha256State h_{};
  std::array<u8, 64> buf_{};
  size_t buf_len_ = 0;
  u64 total_len_ = 0;
};

/// One-shot SHA-256.
Sha256Digest sha256(std::span<const u8> data);

}  // namespace sbm::crypto
