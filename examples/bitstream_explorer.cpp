// Bitstream explorer — a prjxray-style inspection tool for the 7-series-like
// format this library emits, and the reverse-engineering aid the paper's
// FINDLUT tool grew out of.
//
//   bitstream_explorer            build the demo system and explore it
//   bitstream_explorer <file>     explore a bitstream file from disk
//
// Prints one line per configuration packet (header word, type, register and
// word count, as bitstream::walk_packets reads them), the frame geometry,
// and the LUT occupancy census with the most frequent LUT functions up to P
// equivalence (attack::evaluate_resistance's) — the "distinct structure"
// the countermeasure of Section VII deliberately destroys.
#include <cstdio>
#include <fstream>
#include <vector>

#include "attack/resistance.h"
#include "bitstream/parser.h"
#include "fpga/system.h"
#include "logic/truth_table.h"

using namespace sbm;

namespace {

const char* reg_name(bitstream::Reg reg) {
  switch (reg) {
    case bitstream::Reg::kCrc: return "CRC";
    case bitstream::Reg::kFar: return "FAR";
    case bitstream::Reg::kFdri: return "FDRI";
    case bitstream::Reg::kCmd: return "CMD";
    case bitstream::Reg::kIdcode: return "IDCODE";
    case bitstream::Reg::kAxss: return "AXSS";
  }
  return "?";
}

void explore(std::span<const u8> bytes) {
  std::printf("bitstream: %zu bytes\n", bytes.size());

  // --- packet walk -----------------------------------------------------------
  bitstream::walk_packets(bytes, [&](const bitstream::Packet& p) {
    std::printf("  byte %5zu  %08x  type %d write %-6s %u word(s)\n", p.header * 4,
                bitstream::read_word(bytes, p.header), p.type2 ? 2 : 1, reg_name(p.reg),
                p.count);
    return true;
  });
  const bitstream::ParseResult parsed = bitstream::parse_bitstream(bytes);
  if (!parsed.ok) {
    std::printf("parse error: %s\n", parsed.error.c_str());
    return;
  }
  std::printf("packets parsed OK: idcode=%08x crc_checked=%d desync=%d\n",
              parsed.idcode.value_or(0), parsed.crc_checked, parsed.desynced);
  std::printf("FDRI frame data: %zu bytes (%zu frames of %u bytes) at offset %zu\n",
              parsed.frame_data.size(), parsed.frame_data.size() / bitstream::kFrameBytes,
              bitstream::kFrameBytes, parsed.fdri_byte_offset);

  // --- LUT census --------------------------------------------------------------
  const attack::ResistanceReport census = attack::evaluate_resistance(bytes);
  std::printf("LUT slots: %zu occupied, %zu empty\n", census.occupied_luts, census.empty_slots);

  std::printf("most frequent LUT functions (canonical P-class, SLICEL reading):\n");
  const auto& top = census.top_classes;
  for (size_t i = 0; i < std::min<size_t>(top.size(), 12); ++i) {
    const logic::TruthTable6 f(top[i].second);
    std::printf("  %4zu x %s  (support %u)\n", top[i].first, f.to_string().c_str(),
                f.support_size());
  }
  std::printf("distinct P classes: %zu — the richer this histogram, the easier the\n",
              census.p_class_histogram.size());
  std::printf("reverse engineering; Section VII's countermeasure flattens it.\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1) {
    std::ifstream in(argv[1], std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", argv[1]);
      return 1;
    }
    std::vector<u8> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
    explore(bytes);
    return 0;
  }
  std::printf("no file given: building the demo SNOW 3G system...\n\n");
  const fpga::System sys = fpga::build_system();
  explore(sys.golden.bytes);
  return 0;
}
