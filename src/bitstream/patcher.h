// Byte-level bitstream modification utilities — the attacker's toolbox.
//
// All functions operate directly on raw bitstream bytes, independent of the
// placement database: the attacker only knows byte indexes returned by
// FINDLUT, and the slot geometry (LutSlots) it learns by parsing.  CRC
// handling implements both options of Section V-B, each a visitor of
// walk_packets: disabling the check by zeroing the "write CRC" command
// pair, or recomputing the correct CRC-32C and replacing the stored value.
#pragma once

#include <array>
#include <vector>

#include "bitstream/lut_coding.h"
#include "bitstream/format.h"

namespace sbm::bitstream {

/// The attacker's LUT-slot geometry, learned by parsing the packet stream
/// once (the FDRI offset and the frame size are format knowledge, as in
/// Section V): a LUT's first chunk sits at a 2-byte-aligned offset in the
/// first frame of a 4-frame group.
class LutSlots {
 public:
  explicit LutSlots(std::span<const u8> bytes);

  /// Every slot of every complete 4-frame group, in stream order; none when
  /// the stream does not parse.
  std::vector<size_t> positions() const;

  /// The positions whose table (chunk stride d) is not all-zero.
  std::vector<size_t> occupied(std::span<const u8> bytes, size_t d) const;

  /// Whether byte index l is at a slot offset.  Not bounded by the frame
  /// count, and always true when the stream does not parse or carries no
  /// frame data (there is no geometry to filter by).
  bool contains(size_t l) const;

 private:
  bool parsed_ = false;
  size_t fdri_byte_offset_ = 0;
  size_t frames_ = 0;
};

/// Reads the 64-bit LUT INIT whose first sub-vector chunk is at byte index
/// `l`, with chunks at stride `d` and stored in `order`.
u64 read_lut_init(std::span<const u8> bytes, size_t l, size_t d, const std::array<u8, 4>& order);

/// Writes a 64-bit LUT INIT at byte index `l` (stride `d`, order `order`).
void write_lut_init(std::span<u8> bytes, size_t l, size_t d, const std::array<u8, 4>& order,
                    u64 init);

/// Disables the CRC check the way the paper does: the command
///   0x30000001 <crc value>
/// is replaced by two all-0 words wherever it appears (every Type-1 CRC
/// write with a payload; a Type-2 CRC write is left alone).  Returns the
/// number of replaced packets.
size_t disable_crc(std::vector<u8>& bytes);

/// Recomputes the configuration CRC of a (modified) bitstream and replaces
/// the stored value of every CRC write, Type 1 or Type 2.  Returns false if
/// no CRC write packet is present or the walk hits a bad header or a
/// truncated packet.
bool recompute_crc(std::vector<u8>& bytes);

}  // namespace sbm::bitstream
