#include "bitstream/format.h"

#include "crypto/crc32.h"

namespace sbm::bitstream {

ConfigCrc::ConfigCrc() : engine_(0x82F63B78u) {}

void ConfigCrc::reset() { engine_.reset(); }

void ConfigCrc::feed(Reg reg, u32 word) {
  u8 w[5];
  store_be32(w, word);
  w[4] = static_cast<u8>(static_cast<u32>(reg));
  engine_.update(std::span<const u8>(w, 5));
}

WalkEnd walk_packets(std::span<const u8> bytes,
                     const std::function<bool(const Packet&)>& visit) {
  constexpr u32 kWriteMask = 0b111u << 29 | 0b11u << 27;
  const size_t words = bytes.size() / 4;
  size_t w = 0;
  while (w < words && read_word(bytes, w) != kSyncWord) ++w;
  if (w == words) return WalkEnd::kNoSync;
  ++w;

  ConfigCrc crc;
  Reg reg = Reg::kCrc;
  while (w < words) {
    Packet p;
    p.header = w;
    const u32 header = read_word(bytes, w++);
    if (header == 0 || header == kNoop || header == kDummyWord) continue;
    if ((header & kWriteMask) == type1_write(Reg::kCrc, 0)) {
      reg = static_cast<Reg>((header >> 13) & 0x3FFFu);
      p.count = header & 0x7FFu;
    } else if ((header & kWriteMask) == type2_write(0)) {
      p.type2 = true;
      p.count = header & 0x07FFFFFFu;
    } else {
      return WalkEnd::kBadHeader;
    }
    if (w + p.count > words) return WalkEnd::kTruncated;
    p.reg = reg;
    p.payload = w;
    p.crc = crc.value();
    if (!visit(p)) return WalkEnd::kStopped;

    w += p.count;
    if (reg == Reg::kCrc) continue;  // the CRC write is not itself accumulated
    bool desync = false;
    for (size_t i = p.payload; i < w; ++i) {
      const u32 v = read_word(bytes, i);
      crc.feed(reg, v);
      if (reg == Reg::kCmd && v == static_cast<u32>(Cmd::kRcrc)) crc.reset();
      if (reg == Reg::kCmd && v == static_cast<u32>(Cmd::kDesync)) desync = true;
    }
    if (desync) return WalkEnd::kDesync;
  }
  return WalkEnd::kEnd;
}

u32 read_word(std::span<const u8> bytes, size_t word_index) {
  return load_be32(bytes.data() + word_index * 4);
}

void write_word(std::span<u8> bytes, size_t word_index, u32 value) {
  store_be32(bytes.data() + word_index * 4, value);
}

void append_word(std::vector<u8>& bytes, u32 value) {
  u8 w[4];
  store_be32(w, value);
  bytes.insert(bytes.end(), w, w + 4);
}

}  // namespace sbm::bitstream
