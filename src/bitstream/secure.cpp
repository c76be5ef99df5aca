#include "bitstream/secure.h"

#include <algorithm>
#include <cstring>

#include "obs/metrics.h"

namespace sbm::bitstream {
namespace {

constexpr size_t kHeader = 8 + 16;          // magic + CTR IV
constexpr size_t kOverhead = 32 + 32 + 32;  // K_A + K_A copy + HMAC

// Envelope delta caches (DESIGN.md §4m).  An attacker who holds K_E
// re-protects every probe under one (K_E, IV, K_A), and the device opens it
// again under the same keys, while a probe differs from its neighbours in a
// few bytes.  Each thread keeps the CTR keystream of its last (K_E, IV) and,
// for its last K_A, the last message hashed with the SHA-256 chaining value
// after each of its full blocks, so a call runs AES and SHA-256 only over
// what the cache does not cover.
// Keys and messages are compared byte for byte; the cache changes how much
// is computed, never a result.  It holds at most kCachedBytes of keystream
// and of message, so a thread's state stays near 20 KiB whatever it is
// asked to protect.
constexpr size_t kCachedBytes = 8192;

class EnvelopeCaches {
 public:
  /// XORs the AES-256-CTR keystream of (key, iv) into `data`; returns the
  /// AES blocks computed.
  u64 ctr_xor(const crypto::Aes256Key& key, const crypto::AesBlock& iv, std::span<u8> data) {
    if (key != ks_key_ || iv != ks_iv_) {
      ks_key_ = key;
      ks_iv_ = iv;
      stream_.clear();
    }
    // Grow the cached keystream (whole blocks) to cover `data`.
    const size_t have = stream_.size();
    const size_t want = std::min((data.size() + 15) / 16 * 16, kCachedBytes);
    u64 computed = 0;
    if (have < want) {
      stream_.resize(want);  // zero bytes: their XOR with the keystream is the keystream
      crypto::aes256_ctr_xor(key, crypto::ctr_block(iv, have / 16),
                             std::span<u8>(stream_).subspan(have));
      computed += (want - have) / 16;
    }
    const size_t cached = std::min(data.size(), stream_.size());
    // Through local pointers: a u8 store may alias stream_'s own pointer,
    // which would keep the loop from vectorizing.
    u8* out = data.data();
    const u8* ks = stream_.data();
    for (size_t i = 0; i < cached; ++i) out[i] ^= ks[i];
    if (cached < data.size()) {  // past the cached prefix: computed and dropped
      crypto::aes256_ctr_xor(key, crypto::ctr_block(iv, cached / 16), data.subspan(cached));
      computed += (data.size() - cached + 15) / 16;
    }
    return computed;
  }

  /// HMAC-SHA-256 of `m` under `k_a`; adds the SHA-256 blocks computed to
  /// `compressions`.
  crypto::Sha256Digest hmac(const AuthKey& k_a, std::span<const u8> m, u64& compressions) {
    if (!mac_keyed_ || k_a != mac_key_) {
      pads_ = crypto::hmac_key_states(k_a);
      compressions += 2;
      mac_key_ = k_a;
      mac_keyed_ = true;
      message_.clear();
      states_.clear();
    }
    // Resume after the leading full blocks `m` shares with the last message.
    const size_t n = std::min(m.size(), message_.size()) / 64;
    size_t resume = 0;
    while (resume < n && std::memcmp(&m[64 * resume], &message_[64 * resume], 64) == 0) ++resume;
    states_.resize(resume);
    const size_t full = m.size() / 64;
    const size_t keep = std::min(full, kCachedBytes / 64);
    crypto::Sha256 inner(resume == 0 ? pads_.ipad : states_[resume - 1], 64 * (resume + 1));
    for (size_t i = resume; i < full; ++i) {
      inner.update(m.subspan(64 * i, 64));
      if (i < keep) states_.push_back(inner.state());
    }
    inner.update(m.subspan(64 * full));
    message_.assign(m.begin(), m.begin() + static_cast<long>(64 * keep));
    const crypto::Sha256Digest inner_digest = inner.finish();

    crypto::Sha256 outer(pads_.opad, 64);
    outer.update(inner_digest);
    // The inner finish pads in one block, or two when fewer than 9 bytes of
    // its last block are free; the outer hash is one block.
    compressions += (full - resume) + (m.size() % 64 < 56 ? 1 : 2) + 1;
    return outer.finish();
  }

 private:
  crypto::Aes256Key ks_key_{};
  crypto::AesBlock ks_iv_{};
  std::vector<u8> stream_;  // keystream blocks 0.. of (ks_key_, ks_iv_)

  AuthKey mac_key_{};
  bool mac_keyed_ = false;
  crypto::HmacKeyStates pads_{};
  std::vector<u8> message_;                  // the last message's first full blocks
  std::vector<crypto::Sha256State> states_;  // states_[i]: inner hash after block i
};

EnvelopeCaches& caches() {
  thread_local EnvelopeCaches c;
  return c;
}

void count_work(u64 aes_blocks, u64 sha_blocks) {
  static obs::Counter& aes = obs::MetricsRegistry::global().counter("crypto.aes_blocks");
  static obs::Counter& sha = obs::MetricsRegistry::global().counter("crypto.sha_blocks");
  aes.add(aes_blocks);
  sha.add(sha_blocks);
}

}  // namespace

std::vector<u8> protect_bitstream(std::span<const u8> plain, const crypto::Aes256Key& k_e,
                                  const AuthKey& k_a, const crypto::AesBlock& ctr_iv) {
  std::vector<u8> out(kHeader + plain.size() + kOverhead);
  auto at = std::copy(SecureHeader::kMagic.begin(), SecureHeader::kMagic.end(), out.begin());
  at = std::copy(ctr_iv.begin(), ctr_iv.end(), at);
  at = std::copy(k_a.begin(), k_a.end(), at);
  at = std::copy(plain.begin(), plain.end(), at);
  std::copy(k_a.begin(), k_a.end(), at);

  EnvelopeCaches& c = caches();
  const std::span<u8> blob(out.data() + kHeader, out.size() - kHeader);
  u64 sha_blocks = 0;
  const crypto::Sha256Digest mac = c.hmac(k_a, blob.first(blob.size() - 32), sha_blocks);
  std::copy(mac.begin(), mac.end(), blob.end() - 32);
  const u64 aes_blocks = c.ctr_xor(k_e, ctr_iv, blob);
  count_work(aes_blocks, sha_blocks);
  return out;
}

UnprotectResult unprotect_bitstream(std::span<const u8> enc, const crypto::Aes256Key& k_e) {
  UnprotectResult res;
  if (enc.size() < kHeader + kOverhead) {
    res.error = "too short";
    return res;
  }
  if (!std::equal(SecureHeader::kMagic.begin(), SecureHeader::kMagic.end(), enc.begin())) {
    res.error = "bad magic";
    return res;
  }
  crypto::AesBlock iv{};
  std::copy(enc.begin() + 8, enc.begin() + kHeader, iv.begin());

  EnvelopeCaches& c = caches();
  std::vector<u8> blob(enc.begin() + kHeader, enc.end());
  const u64 aes_blocks = c.ctr_xor(k_e, iv, blob);

  // K_A is stored in two places (Fig. 1); both copies must agree.
  std::copy(blob.begin(), blob.begin() + 32, res.k_a.begin());
  const size_t plain_len = blob.size() - kOverhead;
  if (!std::equal(res.k_a.begin(), res.k_a.end(), blob.begin() + 32 + static_cast<long>(plain_len))) {
    count_work(aes_blocks, 0);
    res.error = "K_A copies disagree (wrong K_E?)";
    return res;
  }

  crypto::Sha256Digest stored{};
  std::copy(blob.end() - 32, blob.end(), stored.begin());
  u64 sha_blocks = 0;
  const crypto::Sha256Digest computed =
      c.hmac(res.k_a, std::span<const u8>(blob.data(), blob.size() - 32), sha_blocks);
  count_work(aes_blocks, sha_blocks);
  if (!crypto::digest_equal(stored, computed)) {
    res.error = "HMAC mismatch (reported in BOOTSTS)";
    return res;
  }

  // The inner bitstream moves to the front of the decrypted blob, which
  // becomes the result without a second allocation.
  blob.erase(blob.begin(), blob.begin() + 32);
  blob.resize(plain_len);
  res.plain = std::move(blob);
  res.ok = true;
  return res;
}

}  // namespace sbm::bitstream
