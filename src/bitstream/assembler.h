// Bitstream assembly: placed design -> configuration byte stream.
//
// Layout: physical LUT sites are grouped 200 to a "frame group" of four
// consecutive frames; the four 2-byte sub-vector chunks of one LUT live at
// the same intra-frame offset of the group's four frames, i.e. at byte
// distance d = 404 (one frame) from each other.  Word 50 of every frame is
// reserved (the HCLK row on real parts), so LUT offsets skip bytes 200..203.
// The cipher key (attack-model assumption 2: "the encryption key K is
// stored in the bitstream") occupies the first 16 bytes of a dedicated key
// frame appended after the LUT frames.
#pragma once

#include <vector>

#include "bitstream/format.h"
#include "bitstream/lut_coding.h"
#include "mapper/packing.h"
#include "snow3g/snow3g.h"

namespace sbm::bitstream {

inline constexpr unsigned kSlotsPerGroup = 200;
inline constexpr unsigned kFramesPerGroup = 4;

/// Static geometry shared by the assembler, the device model and the
/// ground-truth evaluation of the attack.
struct Layout {
  size_t fdri_byte_offset = 0;  // offset of the first frame-data byte
  size_t frame_count = 0;       // frames in the FDRI write (incl. key frame)
  size_t site_count = 0;        // physical LUT sites

  /// Intra-frame byte offset of LUT slot s (s < kSlotsPerGroup).
  static size_t slot_offset(size_t slot);

  /// Absolute byte index (FINDLUT's l) of the first chunk of site i.
  size_t site_byte_index(size_t site) const;

  /// Chunk stride d in bytes (one frame).
  static constexpr size_t chunk_stride() { return kFrameBytes; }

  /// Absolute byte index of the embedded key (16 bytes, k0..k3 big-endian).
  size_t key_byte_index() const;

  size_t groups() const { return (site_count + kSlotsPerGroup - 1) / kSlotsPerGroup; }
};

struct AssembledBitstream {
  std::vector<u8> bytes;
  Layout layout;
};

/// Emits the full (unencrypted) bitstream for a placed design with the key
/// embedded.  The CRC register write at the end carries the correct CRC-32C,
/// filled in by recompute_crc.
AssembledBitstream assemble(const mapper::PlacedDesign& placed, const snow3g::Key& key);

}  // namespace sbm::bitstream
