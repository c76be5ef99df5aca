#include "crypto/aes256.h"

namespace sbm::crypto {
namespace {

// GF(2^8) with the AES reduction polynomial x^8 + x^4 + x^3 + x + 1.
// Branch-free: -(a >> 7) is all-ones exactly when the top bit is set.
constexpr u8 xtime(u8 a) { return static_cast<u8>((a << 1) ^ (0x1b & -(a >> 7))); }

std::array<u8, 256> make_sbox() {
  // Build the multiplicative inverse table via the generator 3, then apply
  // the AES affine transform.
  std::array<u8, 256> exp3{};
  std::array<u8, 256> log3{};
  u8 x = 1;
  for (int i = 0; i < 255; ++i) {
    exp3[static_cast<size_t>(i)] = x;
    log3[x] = static_cast<u8>(i);
    x = static_cast<u8>(x ^ xtime(x));  // x * 3
  }
  std::array<u8, 256> sbox{};
  for (int i = 0; i < 256; ++i) {
    const u8 inv = (i == 0) ? 0 : exp3[static_cast<size_t>((255 - log3[static_cast<size_t>(i)]) % 255)];
    u8 s = inv;
    u8 r = inv;
    for (int k = 0; k < 4; ++k) {
      r = static_cast<u8>((r << 1) | (r >> 7));
      s = static_cast<u8>(s ^ r);
    }
    sbox[static_cast<size_t>(i)] = static_cast<u8>(s ^ 0x63);
  }
  return sbox;
}

const std::array<u8, 256>& sbox_table() {
  static const std::array<u8, 256> table = make_sbox();
  return table;
}

constexpr std::array<u8, 10> kRcon = {0x01, 0x02, 0x04, 0x08, 0x10,
                                      0x20, 0x40, 0x80, 0x1b, 0x36};

}  // namespace

const std::array<u8, 256>& aes_sbox() { return sbox_table(); }

Aes256::Aes256(const Aes256Key& key) {
  const auto& sbox = sbox_table();
  // Key expansion for Nk = 8, Nr = 14: 60 32-bit words.
  std::array<std::array<u8, 4>, 60> w{};
  for (size_t i = 0; i < 8; ++i) {
    for (size_t j = 0; j < 4; ++j) w[i][j] = key[4 * i + j];
  }
  for (size_t i = 8; i < 60; ++i) {
    std::array<u8, 4> temp = w[i - 1];
    if (i % 8 == 0) {
      const u8 t0 = temp[0];
      temp[0] = static_cast<u8>(sbox[temp[1]] ^ kRcon[i / 8 - 1]);
      temp[1] = sbox[temp[2]];
      temp[2] = sbox[temp[3]];
      temp[3] = sbox[t0];
    } else if (i % 8 == 4) {
      for (auto& b : temp) b = sbox[b];
    }
    for (size_t j = 0; j < 4; ++j) w[i][j] = static_cast<u8>(w[i - 8][j] ^ temp[j]);
  }
  for (size_t r = 0; r < 15; ++r) {
    for (size_t c = 0; c < 4; ++c) {
      for (size_t j = 0; j < 4; ++j) round_keys_[r][4 * c + j] = w[4 * r + c][j];
    }
  }
}

void Aes256::encrypt_block(AesBlock& block) const {
  const auto& sbox = sbox_table();
  auto add_round_key = [&](size_t r) {
    for (size_t i = 0; i < 16; ++i) block[i] = static_cast<u8>(block[i] ^ round_keys_[r][i]);
  };
  auto sub_bytes = [&] {
    for (auto& b : block) b = sbox[b];
  };
  auto shift_rows = [&] {
    // State is column-major: byte (row, col) lives at block[4*col + row].
    AesBlock t = block;
    for (size_t row = 1; row < 4; ++row) {
      for (size_t col = 0; col < 4; ++col) {
        block[4 * col + row] = t[4 * ((col + row) % 4) + row];
      }
    }
  };
  auto mix_columns = [&] {
    // 2a ^ 3b ^ c ^ d == a ^ (a ^ b ^ c ^ d) ^ xtime(a ^ b), so a column
    // costs four xtimes and no general GF(2^8) multiply.
    for (size_t col = 0; col < 4; ++col) {
      u8* c = block.data() + 4 * col;
      const u8 a0 = c[0], a1 = c[1], a2 = c[2], a3 = c[3];
      const u8 t = static_cast<u8>(a0 ^ a1 ^ a2 ^ a3);
      c[0] = static_cast<u8>(a0 ^ t ^ xtime(static_cast<u8>(a0 ^ a1)));
      c[1] = static_cast<u8>(a1 ^ t ^ xtime(static_cast<u8>(a1 ^ a2)));
      c[2] = static_cast<u8>(a2 ^ t ^ xtime(static_cast<u8>(a2 ^ a3)));
      c[3] = static_cast<u8>(a3 ^ t ^ xtime(static_cast<u8>(a3 ^ a0)));
    }
  };

  add_round_key(0);
  for (size_t round = 1; round < 14; ++round) {
    sub_bytes();
    shift_rows();
    mix_columns();
    add_round_key(round);
  }
  sub_bytes();
  shift_rows();
  add_round_key(14);
}

AesBlock ctr_block(const AesBlock& iv, u64 j) {
  AesBlock block = iv;
  store_be32(block.data() + 12, load_be32(iv.data() + 12) + static_cast<u32>(j));
  return block;
}

void aes256_ctr_xor(const Aes256Key& key, const AesBlock& iv, std::span<u8> data) {
  const Aes256 aes(key);
  for (size_t off = 0; off < data.size(); off += 16) {
    AesBlock ks = ctr_block(iv, off / 16);
    aes.encrypt_block(ks);
    const size_t take = std::min<size_t>(16, data.size() - off);
    for (size_t i = 0; i < take; ++i) data[off + i] = static_cast<u8>(data[off + i] ^ ks[i]);
  }
}

}  // namespace sbm::crypto
