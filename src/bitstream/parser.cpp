#include "bitstream/parser.h"

namespace sbm::bitstream {

ParseResult parse_bitstream(std::span<const u8> bytes) {
  ParseResult res;
  if (bytes.size() % 4 != 0) {
    res.error = "bitstream not word-aligned";
    return res;
  }
  const WalkEnd end = walk_packets(bytes, [&](const Packet& p) {
    switch (p.reg) {
      case Reg::kCrc:
        for (size_t w = p.payload; w < p.payload + p.count; ++w) {
          if (read_word(bytes, w) != p.crc) {
            res.error = "CRC mismatch: configuration aborted (INIT_B low)";
            return false;
          }
          res.crc_checked = true;
        }
        break;
      case Reg::kFdri:
        if (p.count > 0) {
          res.fdri_byte_offset = p.payload * 4;
          const auto data = bytes.subspan(p.payload * 4, size_t{p.count} * 4);
          res.frame_data.insert(res.frame_data.end(), data.begin(), data.end());
        }
        break;
      case Reg::kIdcode:
        for (size_t w = p.payload; w < p.payload + p.count; ++w) {
          const u32 v = read_word(bytes, w);
          if (v != kDeviceIdCode) {
            res.error = "IDCODE mismatch";
            return false;
          }
          res.idcode = v;
        }
        break;
      default:
        break;
    }
    return true;
  });

  switch (end) {
    case WalkEnd::kNoSync:
      res.error = "no sync word";
      return res;
    case WalkEnd::kBadHeader:
      res.error = "unknown packet header";
      return res;
    case WalkEnd::kTruncated:
      res.error = "truncated packet";
      return res;
    case WalkEnd::kStopped:
      return res;
    case WalkEnd::kDesync:
      res.desynced = true;
      break;
    case WalkEnd::kEnd:
      break;
  }
  res.ok = true;
  return res;
}

}  // namespace sbm::bitstream
