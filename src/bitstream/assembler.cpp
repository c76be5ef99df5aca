#include "bitstream/assembler.h"

#include <stdexcept>

#include "bitstream/patcher.h"

namespace sbm::bitstream {

size_t Layout::slot_offset(size_t slot) {
  if (slot >= kSlotsPerGroup) throw std::out_of_range("LUT slot out of range");
  const size_t raw = slot * 2;
  // Skip the reserved HCLK word (bytes 200..203) in the middle of the frame.
  return raw < 200 ? raw : raw + 4;
}

size_t Layout::site_byte_index(size_t site) const {
  if (site >= site_count) throw std::out_of_range("site out of range");
  const size_t group = site / kSlotsPerGroup;
  const size_t slot = site % kSlotsPerGroup;
  return fdri_byte_offset + group * kFramesPerGroup * kFrameBytes + slot_offset(slot);
}

size_t Layout::key_byte_index() const {
  return fdri_byte_offset + (frame_count - 1) * kFrameBytes;
}

AssembledBitstream assemble(const mapper::PlacedDesign& placed, const snow3g::Key& key) {
  AssembledBitstream out;
  Layout& layout = out.layout;
  layout.site_count = placed.phys.size();
  // LUT frames plus one key frame.
  layout.frame_count = layout.groups() * kFramesPerGroup + 1;

  // ---- frame data -----------------------------------------------------------
  std::vector<u8> frames(layout.frame_count * kFrameBytes, 0);
  for (size_t site = 0; site < placed.phys.size(); ++site) {
    const u64 init = placed.init_of(site);
    const auto order = chunk_order(placed.slice_of(site));
    const auto chunks = encode_lut(init, order);
    const size_t group = site / kSlotsPerGroup;
    const size_t off = Layout::slot_offset(site % kSlotsPerGroup);
    for (unsigned c = 0; c < kSubVectors; ++c) {
      const size_t base = (group * kFramesPerGroup + c) * kFrameBytes + off;
      frames[base] = chunks[c][0];
      frames[base + 1] = chunks[c][1];
    }
  }
  // Key frame: k0..k3 big-endian in the first 16 bytes.
  const size_t key_frame = (layout.frame_count - 1) * kFrameBytes;
  for (int w = 0; w < 4; ++w) {
    store_be32(frames.data() + key_frame + 4 * static_cast<size_t>(w), key[static_cast<size_t>(w)]);
  }

  // ---- packet stream --------------------------------------------------------
  std::vector<u8>& b = out.bytes;
  auto emit_reg = [&](Reg reg, u32 word) {
    append_word(b, type1_write(reg, 1));
    append_word(b, word);
  };

  for (int i = 0; i < 4; ++i) append_word(b, kDummyWord);
  append_word(b, kBusWidthSync);
  append_word(b, kBusWidthDetect);
  append_word(b, kDummyWord);
  append_word(b, kSyncWord);
  append_word(b, kNoop);

  emit_reg(Reg::kCmd, static_cast<u32>(Cmd::kRcrc));
  emit_reg(Reg::kIdcode, kDeviceIdCode);

  // FDRI: Type 1 with word count 0, then Type 2 with the payload.
  append_word(b, type1_write(Reg::kFdri, 0));
  append_word(b, type2_write(static_cast<u32>(frames.size() / 4)));
  layout.fdri_byte_offset = b.size();
  b.insert(b.end(), frames.begin(), frames.end());

  // CRC check word, filled in by recompute_crc, then desync.
  emit_reg(Reg::kCrc, 0);
  emit_reg(Reg::kCmd, static_cast<u32>(Cmd::kDesync));
  append_word(b, kNoop);
  append_word(b, kNoop);
  recompute_crc(b);
  return out;
}

}  // namespace sbm::bitstream
