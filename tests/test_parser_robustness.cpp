// Robustness of the configuration parser and the device model against
// corrupted bitstreams: random mutations must never crash, and the device
// must either configure cleanly or reject with a diagnostic — exactly the
// property a fielded configuration engine needs when an attacker is
// flipping bytes.  On every mutated input the two CRC tools must also keep
// their contract with the parser (expect_crc_tools_contract).
#include <gtest/gtest.h>

#include <algorithm>

#include "bitstream/parser.h"
#include "bitstream/patcher.h"
#include "common/hex.h"
#include "common/rng.h"
#include "crypto/sha256.h"
#include "fpga/system.h"

namespace sbm::bitstream {
namespace {

const fpga::System& system_instance() {
  static const fpga::System sys = fpga::build_system();
  return sys;
}

constexpr const char* kCrcMismatch = "CRC mismatch: configuration aborted (INIT_B low)";

/// The CRC packets of `bytes` as [header word, end word) ranges, and
/// whether one of them is a Type-2 write with a payload.
struct CrcPackets {
  std::vector<std::pair<size_t, size_t>> ranges;
  bool type2_write = false;
};

CrcPackets crc_packets(std::span<const u8> bytes) {
  CrcPackets out;
  walk_packets(bytes, [&](const Packet& p) {
    if (p.reg == Reg::kCrc) {
      out.ranges.emplace_back(p.header, p.payload + p.count);
      out.type2_write |= p.type2 && p.count > 0;
    }
    return true;
  });
  return out;
}

::testing::AssertionResult changed_only_crc_packets(const std::vector<u8>& before,
                                                    const std::vector<u8>& after,
                                                    const CrcPackets& crc) {
  if (after.size() != before.size()) return ::testing::AssertionFailure() << "size changed";
  for (size_t i = 0; i < before.size(); ++i) {
    if (after[i] == before[i]) continue;
    const size_t w = i / 4;
    const bool inside = std::any_of(crc.ranges.begin(), crc.ranges.end(),
                                    [&](const auto& r) { return r.first <= w && w < r.second; });
    if (!inside) return ::testing::AssertionFailure() << "byte " << i << " outside CRC packets";
  }
  return ::testing::AssertionSuccess();
}

/// The contract of disable_crc and recompute_crc with the parser, on any
/// input: a recomputed stream never fails its CRC check; a disabled one is
/// never checked, unless it carries its CRC in a Type-2 write, which only
/// recompute_crc rewrites; neither tool touches a byte outside CRC packets.
void expect_crc_tools_contract(std::span<const u8> input) {
  const std::vector<u8> original(input.begin(), input.end());
  const CrcPackets crc = crc_packets(original);

  std::vector<u8> recomputed = original;
  if (recompute_crc(recomputed)) {
    EXPECT_NE(parse_bitstream(recomputed).error, kCrcMismatch);
  }
  EXPECT_TRUE(changed_only_crc_packets(original, recomputed, crc));

  std::vector<u8> disabled = original;
  disable_crc(disabled);
  if (!crc_packets(disabled).type2_write) {
    const ParseResult res = parse_bitstream(disabled);
    EXPECT_NE(res.error, kCrcMismatch);
    EXPECT_FALSE(res.crc_checked);
  }
  EXPECT_TRUE(changed_only_crc_packets(original, disabled, crc));
}

class MutatedBitstream : public ::testing::TestWithParam<u64> {};

TEST_P(MutatedBitstream, ParserNeverCrashesOnByteFlips) {
  const fpga::System& sys = system_instance();
  Rng rng(GetParam());
  auto bytes = sys.golden.bytes;
  const size_t flips = 1 + rng.next_below(16);
  for (size_t i = 0; i < flips; ++i) {
    bytes[rng.next_below(bytes.size())] ^= static_cast<u8>(1 + rng.next_below(255));
  }
  const ParseResult res = parse_bitstream(bytes);
  if (!res.ok) {
    EXPECT_FALSE(res.error.empty());
  }
  expect_crc_tools_contract(bytes);
}

TEST_P(MutatedBitstream, DeviceRejectsOrRunsDeterministically) {
  const fpga::System& sys = system_instance();
  Rng rng(GetParam() + 500);
  auto bytes = sys.golden.bytes;
  // Flip bytes only inside frame data so the packet structure stays valid;
  // the CRC must catch every such corruption unless disabled.
  const size_t fdri = sys.golden.layout.fdri_byte_offset;
  const size_t span = sys.golden.layout.frame_count * kFrameBytes;
  bytes[fdri + rng.next_below(span)] ^= static_cast<u8>(1 + rng.next_below(255));

  fpga::Device dev = sys.make_device();
  EXPECT_FALSE(dev.configure(bytes));  // CRC catches it

  disable_crc(bytes);
  fpga::Device dev2 = sys.make_device();
  ASSERT_TRUE(dev2.configure(bytes)) << dev2.error();
  // Faulted devices are still deterministic oracles.
  const snow3g::Iv iv = {1, 2, 3, 4};
  EXPECT_EQ(dev2.keystream(iv, 6), dev2.keystream(iv, 6));
}

INSTANTIATE_TEST_SUITE_P(Sweep, MutatedBitstream,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88, 99, 110));

TEST(ParserRobustness, RandomGarbageBuffers) {
  Rng rng(0xdead);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<u8> garbage(4 * (1 + rng.next_below(512)));
    for (auto& b : garbage) b = static_cast<u8>(rng.next_u64());
    const ParseResult res = parse_bitstream(garbage);  // must not crash
    if (!res.ok) {
      EXPECT_FALSE(res.error.empty());
    }
    expect_crc_tools_contract(garbage);
  }
}

TEST(ParserRobustness, TruncatedGoldenPrefixes) {
  const fpga::System& sys = system_instance();
  const auto& bytes = sys.golden.bytes;
  for (size_t cut = 0; cut < bytes.size(); cut += 97) {
    const std::span<const u8> prefix(bytes.data(), cut & ~size_t{3});
    const ParseResult res = parse_bitstream(prefix);  // must not crash
    if (res.ok) {
      // A prefix that parses cleanly must at least have reached the frames.
      EXPECT_LE(res.frame_data.size(), bytes.size());
    }
    expect_crc_tools_contract(prefix);
  }
}

TEST(ParserRobustness, ExhaustiveHeaderTruncationSweep) {
  // Every prefix length through the entire header region (sync word,
  // command packets, up to and a little past the start of frame data),
  // including unaligned lengths: neither the parser nor the configuration
  // engine may crash, and a rejection must carry a diagnostic.
  const fpga::System& sys = system_instance();
  const auto& bytes = sys.golden.bytes;
  const size_t header_end =
      std::min(bytes.size(), sys.golden.layout.fdri_byte_offset + 64);
  for (size_t cut = 0; cut <= header_end; ++cut) {
    const std::span<const u8> prefix(bytes.data(), cut);
    const ParseResult res = parse_bitstream(prefix);
    if (!res.ok) {
      EXPECT_FALSE(res.error.empty()) << "cut " << cut;
    }
    expect_crc_tools_contract(prefix);
    fpga::Device dev = sys.make_device();
    if (!dev.configure(prefix)) {
      EXPECT_FALSE(dev.error().empty()) << "cut " << cut;
    }
  }
}

TEST(ParserRobustness, TenThousandSeededByteFlips) {
  // 10k single-byte corruptions anywhere in the image — header, packet
  // stream and frame data alike.  parse_bitstream and Device::configure
  // must never crash; whether they accept or reject, the outcome must be a
  // clean diagnosis, not undefined behavior.
  const fpga::System& sys = system_instance();
  std::vector<u8> bytes = sys.golden.bytes;
  Rng rng(0xf1195eed);
  for (int trial = 0; trial < 10000; ++trial) {
    const size_t pos = rng.next_below(bytes.size());
    const u8 mask = static_cast<u8>(1 + rng.next_below(255));
    bytes[pos] ^= mask;
    const ParseResult res = parse_bitstream(bytes);
    if (!res.ok) {
      ASSERT_FALSE(res.error.empty()) << "trial " << trial << " pos " << pos;
    }
    expect_crc_tools_contract(bytes);
    fpga::Device dev = sys.make_device();
    if (!dev.configure(bytes)) {
      ASSERT_FALSE(dev.error().empty()) << "trial " << trial << " pos " << pos;
    }
    bytes[pos] ^= mask;  // restore the golden image for the next trial
  }
  EXPECT_EQ(bytes, sys.golden.bytes);
}

TEST(ParserRobustness, RecomputeCrcIsIdempotent) {
  const fpga::System& sys = system_instance();
  auto a = sys.golden.bytes;
  EXPECT_TRUE(recompute_crc(a));
  EXPECT_EQ(a, sys.golden.bytes);  // already correct
  a[sys.golden.layout.fdri_byte_offset] ^= 1;
  EXPECT_TRUE(recompute_crc(a));
  auto b = a;
  EXPECT_TRUE(recompute_crc(b));
  EXPECT_EQ(a, b);
}

TEST(ParserRobustness, OnlyRecomputeRewritesAType2CrcWrite) {
  // sync, a Type-2 write before any Type 1 (the register starts at CRC),
  // RCRC, a Type-1 CRC write of 0 words and a Type-2 write, DESYNC; both
  // Type-2 writes carry a wrong CRC word.
  std::vector<u8> b;
  append_word(b, kSyncWord);
  append_word(b, type2_write(1));
  append_word(b, 0x12345678u);
  append_word(b, type1_write(Reg::kCmd, 1));
  append_word(b, static_cast<u32>(Cmd::kRcrc));
  append_word(b, type1_write(Reg::kCrc, 0));
  append_word(b, type2_write(1));
  append_word(b, 0x12345678u);
  append_word(b, type1_write(Reg::kCmd, 1));
  append_word(b, static_cast<u32>(Cmd::kDesync));
  EXPECT_EQ(parse_bitstream(b).error, kCrcMismatch);

  std::vector<u8> disabled = b;
  EXPECT_EQ(disable_crc(disabled), 0u);
  EXPECT_EQ(disabled, b);

  std::vector<u8> recomputed = b;
  ASSERT_TRUE(recompute_crc(recomputed));
  EXPECT_NE(read_word(recomputed, 2), 0x12345678u);
  EXPECT_NE(read_word(recomputed, 7), 0x12345678u);
  const ParseResult res = parse_bitstream(recomputed);
  EXPECT_TRUE(res.ok) << res.error;
  EXPECT_TRUE(res.crc_checked);
  EXPECT_TRUE(res.desynced);
  EXPECT_TRUE(res.frame_data.empty());
}

TEST(ParserRobustness, AssembledGoldenBytesArePinned) {
  // Assembly, with its CRC word, byte for byte as first pinned; the
  // protected and equalized victims differ from the default in their
  // placed design only.
  const auto digest = [](bool protected_variant, bool equalized) {
    fpga::SystemOptions o;
    o.protected_variant = protected_variant;
    o.equalized = equalized;
    return hex_bytes(crypto::sha256(fpga::build_system(o).golden.bytes));
  };
  EXPECT_EQ(digest(false, false),
            "cbb0f6a99f4a6a42ce6e31f44a5c2165fc1575cb51f557f77762f90cf3da3145");
  EXPECT_EQ(digest(true, false),
            "d6959691385e04779553f00df762267d12677aaba690dd7b3f5703e6aa67e257");
  EXPECT_EQ(digest(true, true),
            "62bd4190e50fdb78c165cf81ebb5daff15cdda8a143bd68177f197eceab1f3fb");
}

TEST(ParserRobustness, OutcomesOnMutatedPacketStreamsArePinned) {
  // Two thousand inputs mutated where the packet grammar lives: 1-3 byte
  // flips, three in four of them in the packet stream around the frame
  // data, on the golden or the CRC-disabled image, a quarter of them then
  // truncated.  Every field the parser reports and every word the two CRC
  // tools write is folded into one digest, first taken from the
  // per-function packet loops the walker replaced.
  const fpga::System& sys = system_instance();
  const size_t frames_begin = sys.golden.layout.fdri_byte_offset;
  const size_t frames_end = frames_begin + sys.golden.layout.frame_count * kFrameBytes;
  std::vector<u8> nocrc = sys.golden.bytes;
  disable_crc(nocrc);

  crypto::Sha256 h;
  const auto fold = [&](u64 v) {
    u8 w[8];
    for (int i = 0; i < 8; ++i) w[i] = static_cast<u8>(v >> (8 * i));
    h.update(std::span<const u8>(w, 8));
  };
  const auto fold_edits = [&](const std::vector<u8>& before, const std::vector<u8>& after) {
    for (size_t i = 0; i < before.size(); ++i) {
      if (after[i] != before[i]) fold(i << 8 | after[i]);
    }
  };
  Rng rng(0x9acc3715);
  size_t parsed = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<u8> bytes = trial % 2 == 0 ? sys.golden.bytes : nocrc;
    const size_t flips = 1 + rng.next_below(3);
    for (size_t i = 0; i < flips; ++i) {
      size_t pos = rng.next_below(bytes.size());
      if (rng.next_below(4) != 0) {
        const size_t head = frames_begin, tail = bytes.size() - frames_end;
        const size_t k = rng.next_below(head + tail);
        pos = k < head ? k : frames_end + (k - head);
      }
      bytes[pos] ^= static_cast<u8>(1 + rng.next_below(255));
    }
    if (rng.next_below(4) == 0) bytes.resize(rng.next_below(bytes.size() + 1));
    expect_crc_tools_contract(bytes);

    const ParseResult res = parse_bitstream(bytes);
    parsed += res.ok;
    fold(res.ok | res.crc_checked << 1 | res.desynced << 2 | u64{res.idcode.has_value()} << 3);
    fold(res.idcode.value_or(0));
    fold(res.fdri_byte_offset);
    fold(res.frame_data.size());
    h.update(std::span<const u8>(reinterpret_cast<const u8*>(res.error.data()), res.error.size()));
    std::vector<u8> disabled = bytes;
    fold(disable_crc(disabled));
    fold_edits(bytes, disabled);
    std::vector<u8> recomputed = bytes;
    fold(recompute_crc(recomputed));
    fold_edits(bytes, recomputed);
  }
  EXPECT_GT(parsed, 200u);
  EXPECT_LT(parsed, 1800u);
  EXPECT_EQ(hex_bytes(h.finish()),
            "0907abd29b9bc0ae6bc581488735f10b77c0aa7b7065fdc356005572fe6be5da");
}

}  // namespace
}  // namespace sbm::bitstream
