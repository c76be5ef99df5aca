#include "crypto/sha256.h"

#include <bit>
#include <cstring>
#include <stdexcept>

namespace sbm::crypto {
namespace {

constexpr std::array<u32, 64> kK = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr u32 rotr(u32 x, int n) { return std::rotr(x, n); }

}  // namespace

Sha256::Sha256(const Sha256State& state, u64 bytes) : h_(state), total_len_(bytes) {
  if (bytes % 64 != 0) throw std::invalid_argument("Sha256: resume point is not a block boundary");
}

void Sha256::reset() {
  h_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
        0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  buf_len_ = 0;
  total_len_ = 0;
}

void Sha256::process_block(const u8* block) {
  u32 w[64];
  for (int i = 0; i < 16; ++i) w[i] = load_be32(block + 4 * i);
  for (int i = 16; i < 64; ++i) {
    const u32 s0 = rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
    const u32 s1 = rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }
  u32 a = h_[0], b = h_[1], c = h_[2], d = h_[3];
  u32 e = h_[4], f = h_[5], g = h_[6], h = h_[7];
  for (int i = 0; i < 64; ++i) {
    const u32 s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
    const u32 ch = (e & f) ^ (~e & g);
    const u32 t1 = h + s1 + ch + kK[static_cast<size_t>(i)] + w[i];
    const u32 s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
    const u32 maj = (a & b) ^ (a & c) ^ (b & c);
    const u32 t2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + t1;
    d = c;
    c = b;
    b = a;
    a = t1 + t2;
  }
  h_[0] += a;
  h_[1] += b;
  h_[2] += c;
  h_[3] += d;
  h_[4] += e;
  h_[5] += f;
  h_[6] += g;
  h_[7] += h;
}

void Sha256::update(std::span<const u8> data) {
  total_len_ += data.size();
  size_t off = 0;
  if (buf_len_ > 0) {
    const size_t take = std::min(data.size(), buf_.size() - buf_len_);
    std::memcpy(buf_.data() + buf_len_, data.data(), take);
    buf_len_ += take;
    off = take;
    if (buf_len_ == buf_.size()) {
      process_block(buf_.data());
      buf_len_ = 0;
    }
  }
  while (data.size() - off >= 64) {
    process_block(data.data() + off);
    off += 64;
  }
  if (off < data.size()) {
    std::memcpy(buf_.data(), data.data() + off, data.size() - off);
    buf_len_ = data.size() - off;
  }
}

Sha256Digest Sha256::finish() {
  // Padding: 0x80, zeros up to byte 56 of a block, then the bit length.
  buf_[buf_len_++] = 0x80;
  if (buf_len_ > 56) {
    std::memset(buf_.data() + buf_len_, 0, buf_.size() - buf_len_);
    process_block(buf_.data());
    buf_len_ = 0;
  }
  std::memset(buf_.data() + buf_len_, 0, 56 - buf_len_);
  store_be64(buf_.data() + 56, total_len_ * 8);
  process_block(buf_.data());
  Sha256Digest out{};
  for (int i = 0; i < 8; ++i) store_be32(out.data() + 4 * i, h_[static_cast<size_t>(i)]);
  return out;
}

Sha256Digest sha256(std::span<const u8> data) {
  Sha256 s;
  s.update(data);
  return s.finish();
}

}  // namespace sbm::crypto
