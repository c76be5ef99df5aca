#include "bitstream/patcher.h"

#include <stdexcept>

#include "bitstream/parser.h"

namespace sbm::bitstream {

LutSlots::LutSlots(std::span<const u8> bytes) {
  const ParseResult parsed = parse_bitstream(bytes);
  parsed_ = parsed.ok;
  fdri_byte_offset_ = parsed.fdri_byte_offset;
  frames_ = parsed.frame_data.size() / kFrameBytes;
}

std::vector<size_t> LutSlots::positions() const {
  std::vector<size_t> out;
  if (!parsed_) return out;
  for (size_t frame = 0; frame + 3 < frames_; frame += 4) {
    for (size_t off = 0; off + 1 < kFrameBytes; off += 2) {
      out.push_back(fdri_byte_offset_ + frame * kFrameBytes + off);
    }
  }
  return out;
}

std::vector<size_t> LutSlots::occupied(std::span<const u8> bytes, size_t d) const {
  std::vector<size_t> out;
  for (const size_t l : positions()) {
    if (read_lut_init(bytes, l, d, device_chunk_orders()[0]) != 0) out.push_back(l);
  }
  return out;
}

bool LutSlots::contains(size_t l) const {
  if (!parsed_ || fdri_byte_offset_ == 0) return true;
  if (l < fdri_byte_offset_) return false;
  const size_t rel = l - fdri_byte_offset_;
  return rel % 2 == 0 && (rel / kFrameBytes) % 4 == 0;
}

u64 read_lut_init(std::span<const u8> bytes, size_t l, size_t d, const std::array<u8, 4>& order) {
  if (l + 3 * d + kChunkBytes > bytes.size()) throw std::out_of_range("LUT index out of range");
  std::array<std::array<u8, kChunkBytes>, kSubVectors> chunks{};
  for (unsigned c = 0; c < kSubVectors; ++c) {
    chunks[c][0] = bytes[l + c * d];
    chunks[c][1] = bytes[l + c * d + 1];
  }
  return decode_lut(chunks, order);
}

void write_lut_init(std::span<u8> bytes, size_t l, size_t d, const std::array<u8, 4>& order,
                    u64 init) {
  if (l + 3 * d + kChunkBytes > bytes.size()) throw std::out_of_range("LUT index out of range");
  const auto chunks = encode_lut(init, order);
  for (unsigned c = 0; c < kSubVectors; ++c) {
    bytes[l + c * d] = chunks[c][0];
    bytes[l + c * d + 1] = chunks[c][1];
  }
}

size_t disable_crc(std::vector<u8>& bytes) {
  // Walk the packet stream (rather than grepping raw bytes, which could
  // collide with frame data that happens to contain 0x30000001) and zero
  // every Type-1 CRC write header together with its value words.
  size_t replaced = 0;
  walk_packets(bytes, [&](const Packet& p) {
    if (p.reg == Reg::kCrc && !p.type2 && p.count > 0) {
      for (size_t w = p.header; w < p.payload + p.count; ++w) write_word(bytes, w, 0);
      ++replaced;
    }
    return true;
  });
  return replaced;
}

bool recompute_crc(std::vector<u8>& bytes) {
  // Overwrite every CRC write, Type 1 or Type 2, with the CRC the device
  // accumulates up to it.
  bool patched = false;
  const WalkEnd end = walk_packets(bytes, [&](const Packet& p) {
    if (p.reg == Reg::kCrc) {
      for (size_t w = p.payload; w < p.payload + p.count; ++w) write_word(bytes, w, p.crc);
      patched = true;
    }
    return true;
  });
  return patched && (end == WalkEnd::kEnd || end == WalkEnd::kDesync);
}

}  // namespace sbm::bitstream
