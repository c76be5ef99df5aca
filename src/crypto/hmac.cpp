#include "crypto/hmac.h"

#include <array>

namespace sbm::crypto {

HmacKeyStates hmac_key_states(std::span<const u8> key) {
  std::array<u8, 64> k_block{};
  if (key.size() > k_block.size()) {
    const Sha256Digest kd = sha256(key);
    std::copy(kd.begin(), kd.end(), k_block.begin());
  } else {
    std::copy(key.begin(), key.end(), k_block.begin());
  }

  std::array<u8, 64> ipad{};
  std::array<u8, 64> opad{};
  for (size_t i = 0; i < 64; ++i) {
    ipad[i] = static_cast<u8>(k_block[i] ^ 0x36);
    opad[i] = static_cast<u8>(k_block[i] ^ 0x5c);
  }
  Sha256 inner;
  inner.update(ipad);
  Sha256 outer;
  outer.update(opad);
  return {inner.state(), outer.state()};
}

Sha256Digest hmac_sha256(std::span<const u8> key, std::span<const u8> data) {
  const HmacKeyStates pads = hmac_key_states(key);
  Sha256 inner(pads.ipad, 64);
  inner.update(data);
  Sha256 outer(pads.opad, 64);
  outer.update(inner.finish());
  return outer.finish();
}

bool digest_equal(const Sha256Digest& a, const Sha256Digest& b) {
  u8 acc = 0;
  for (size_t i = 0; i < a.size(); ++i) acc = static_cast<u8>(acc | (a[i] ^ b[i]));
  return acc == 0;
}

}  // namespace sbm::crypto
