// Bit- and word-level helpers shared across the library.
//
// Everything here is constexpr-friendly and allocation-free; these utilities
// are used in hot loops (bitstream scanning, LUT evaluation) as well as in
// tests.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstddef>

namespace sbm {

using u8 = std::uint8_t;
using u16 = std::uint16_t;
using u32 = std::uint32_t;
using u64 = std::uint64_t;

/// Extracts bit `i` (0 = LSB) of `w`.
constexpr u32 bit_of(u64 w, unsigned i) { return static_cast<u32>((w >> i) & 1u); }

/// Returns `w` with bit `i` set to `v` (v must be 0 or 1).
constexpr u64 with_bit(u64 w, unsigned i, u32 v) {
  return (w & ~(u64{1} << i)) | (u64{v & 1u} << i);
}

/// Rotate-left of a 32-bit word.
constexpr u32 rotl32(u32 w, unsigned s) { return std::rotl(w, static_cast<int>(s)); }

/// Byte `i` of a 32-bit word, with byte 0 the most significant one.  This is
/// the byte ordering used throughout the SNOW 3G specification (w = w0 || w1
/// || w2 || w3 with w0 the MSB).
constexpr u8 msb_byte(u32 w, unsigned i) { return static_cast<u8>(w >> (24 - 8 * i)); }

/// Assembles a 32-bit word from four bytes, b0 most significant.
constexpr u32 from_msb_bytes(u8 b0, u8 b1, u8 b2, u8 b3) {
  return (u32{b0} << 24) | (u32{b1} << 16) | (u32{b2} << 8) | u32{b3};
}

/// Parity (XOR-fold) of a 32-bit word.
constexpr u32 parity32(u32 w) { return static_cast<u32>(std::popcount(w) & 1); }

/// Reads a big-endian 32-bit word from 4 bytes.
constexpr u32 load_be32(const u8* p) {
  return (u32{p[0]} << 24) | (u32{p[1]} << 16) | (u32{p[2]} << 8) | u32{p[3]};
}

/// Writes a big-endian 32-bit word into 4 bytes.
constexpr void store_be32(u8* p, u32 w) {
  p[0] = static_cast<u8>(w >> 24);
  p[1] = static_cast<u8>(w >> 16);
  p[2] = static_cast<u8>(w >> 8);
  p[3] = static_cast<u8>(w);
}

/// SplitMix64 finalizer: a fast invertible mixer whose low bits depend on
/// every input bit.  Used wherever a u64 feeds a power-of-two-masked hash
/// table (std::hash<u64> is the identity in libstdc++, which clusters).
constexpr u64 mix64(u64 x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x;
}

/// Reads a big-endian 64-bit word from 8 bytes.
constexpr u64 load_be64(const u8* p) {
  return (u64{load_be32(p)} << 32) | u64{load_be32(p + 4)};
}

/// Writes a big-endian 64-bit word into 8 bytes.
constexpr void store_be64(u8* p, u64 w) {
  store_be32(p, static_cast<u32>(w >> 32));
  store_be32(p + 4, static_cast<u32>(w));
}

}  // namespace sbm
