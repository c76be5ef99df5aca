// Configuration packet format of our 7-series-like bitstream (Section V,
// UG470-style).
//
// A bitstream is a byte sequence: a dummy/bus-width preamble, the sync word
// 0xAA995566, then 32-bit big-endian configuration packets:
//   Type 1:  001 | op(2) | addr(14) | reserved | word_count(11)
//   Type 2:  010 | op(2) | word_count(27)          (follows a Type 1)
// Frame data is written through FDRI in frames of 101 32-bit words.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "common/bits.h"
#include "crypto/crc32.h"

namespace sbm::bitstream {

inline constexpr u32 kSyncWord = 0xAA995566u;
inline constexpr u32 kDummyWord = 0xFFFFFFFFu;
inline constexpr u32 kBusWidthSync = 0x000000BBu;
inline constexpr u32 kBusWidthDetect = 0x11220044u;
inline constexpr u32 kNoop = 0x20000000u;
inline constexpr u32 kDeviceIdCode = 0x0362D093u;  // Artix-7 XC7A100T

inline constexpr unsigned kFrameWords = 101;
inline constexpr unsigned kFrameBytes = kFrameWords * 4;  // 404

/// Configuration register addresses.
enum class Reg : u32 {
  kCrc = 0x00,
  kFar = 0x01,
  kFdri = 0x02,
  kCmd = 0x04,
  kIdcode = 0x0C,
  kAxss = 0x0D,  // user-access register: we park the cipher key here
};

/// CMD register values.
enum class Cmd : u32 {
  kNull = 0x0,
  kRcrc = 0x7,    // reset CRC register
  kDesync = 0xD,  // end of configuration
};

constexpr u32 type1_write(Reg reg, u32 word_count) {
  return (0b001u << 29) | (0b10u << 27) | (static_cast<u32>(reg) << 13) | (word_count & 0x7FFu);
}
constexpr u32 type2_write(u32 word_count) {
  return (0b010u << 29) | (0b10u << 27) | (word_count & 0x07FFFFFFu);
}

// The header words quoted in the paper.
static_assert(type1_write(Reg::kFdri, 0) == 0x30004000u);
static_assert(type1_write(Reg::kCrc, 1) == 0x30000001u);
static_assert(type1_write(Reg::kCmd, 1) == 0x30008001u);

/// Streaming CRC over (data word, register address) pairs, the quantity the
/// configuration logic accumulates between RCRC and the CRC register write.
/// CRC-32C, as used by the 7-series configuration logic.
class ConfigCrc {
 public:
  ConfigCrc();
  void reset();
  void feed(Reg reg, u32 word);
  u32 value() const { return engine_.value(); }

 private:
  crypto::Crc32Engine engine_;
};

/// One configuration packet as the packet walker reads it.
struct Packet {
  size_t header = 0;   // word index of the header word
  bool type2 = false;  // Type 2: writes the register of the last Type 1
  Reg reg = Reg::kCrc;
  size_t payload = 0;  // word index of the first payload word
  u32 count = 0;       // payload words
  u32 crc = 0;         // CRC-32C the configuration logic holds at this packet
};

/// How a packet walk ended.
enum class WalkEnd {
  kEnd,        // ran out of words
  kDesync,     // after the packet that wrote DESYNC to CMD
  kStopped,    // the visitor returned false
  kNoSync,     // no sync word
  kBadHeader,  // a header that is neither a Type 1 nor a Type 2 write
  kTruncated,  // a packet's payload runs past the last word
};

/// The configuration logic's reading of a packet stream, the one place the
/// format's grammar lives.  Finds the sync word, decodes Type-1/Type-2
/// write headers (the register is sticky across Type 2 packets and starts
/// at CRC), skips 0/NOOP/dummy words, and hands each packet to `visit`
/// with the CRC due at that point.  The running CRC-32C is fed every
/// payload word of every non-CRC packet and reset after RCRC.  A trailing
/// partial word is ignored.  `visit` runs before the payload is read, so it
/// may rewrite a CRC packet's words in place; returning false stops the walk.
WalkEnd walk_packets(std::span<const u8> bytes,
                     const std::function<bool(const Packet&)>& visit);

/// 32-bit big-endian word access into a byte buffer.
u32 read_word(std::span<const u8> bytes, size_t word_index);
void write_word(std::span<u8> bytes, size_t word_index, u32 value);
void append_word(std::vector<u8>& bytes, u32 value);

}  // namespace sbm::bitstream
