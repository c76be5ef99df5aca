// Configuration-stream parser: what the device's configuration logic does.
//
// A visitor of walk_packets (format.h), which owns the packet grammar and
// the running CRC-32C: it collects FDRI frame data, checks IDCODE and
// compares each CRC register write with the CRC due there.  Following the paper's Section V-B, an attacker may disable the check by
// replacing the "write CRC" command and its value with all-0 words; all-0
// words are ignored by the packet engine, so a zeroed CRC write simply never
// triggers a comparison.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "bitstream/format.h"

namespace sbm::bitstream {

struct ParseResult {
  bool ok = false;
  std::string error;           // non-empty when !ok
  std::vector<u8> frame_data;  // FDRI payload
  size_t fdri_byte_offset = 0; // offset of frame data inside the bitstream
  bool crc_checked = false;    // a CRC register write was seen and matched
  bool desynced = false;
  std::optional<u32> idcode;
};

/// Parses an (unencrypted) bitstream.  CRC mismatch aborts configuration
/// with ok = false, mirroring INIT_B being pulled low.
ParseResult parse_bitstream(std::span<const u8> bytes);

}  // namespace sbm::bitstream
