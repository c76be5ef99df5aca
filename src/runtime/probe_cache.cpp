#include "runtime/probe_cache.h"

#include <bit>
#include <cstring>

namespace sbm::runtime {

namespace {

// Reads an 8-byte little-endian chunk.  One memcpy (a plain load on every
// target this builds for) instead of eight byte shifts — make_probe_key runs
// once per logical probe over the whole bitstream (6,952 bytes for the
// default victim), so this loop is hot.
u64 load_chunk(const u8* p) {
  if constexpr (std::endian::native == std::endian::little) {
    u64 chunk;
    std::memcpy(&chunk, p, 8);
    return chunk;
  } else {
    u64 chunk = 0;
    for (unsigned b = 0; b < 8; ++b) chunk |= u64{p[b]} << (8 * b);
    return chunk;
  }
}

}  // namespace

ProbeKey make_probe_key(std::span<const u8> bitstream, size_t words) {
  // Two independently-seeded 64-bit lanes over 8-byte chunks; 128 bits keep
  // the birthday bound far beyond any campaign's probe count.
  u64 h0 = 0x6a09e667f3bcc908ull ^ mix64(bitstream.size());
  u64 h1 = 0xbb67ae8584caa73bull ^ mix64(words);
  size_t i = 0;
  for (; i + 8 <= bitstream.size(); i += 8) {
    const u64 chunk = load_chunk(bitstream.data() + i);
    h0 = mix64(h0 ^ chunk);
    h1 = mix64(h1 + chunk * 0x2545f4914f6cdd1dull);
  }
  u64 tail = 0;
  for (unsigned b = 0; i < bitstream.size(); ++i, ++b) tail |= u64{bitstream[i]} << (8 * b);
  h0 = mix64(h0 ^ tail);
  h1 = mix64(h1 + tail * 0x2545f4914f6cdd1dull);
  return {h0, h1, words};
}

}  // namespace sbm::runtime
