// Lane-exactness of the bit-sliced simulators: every lane of
// BatchLutSimulator / BatchDevice must equal the scalar mapper::Simulator /
// full-parse Device run with that lane's stimulus and configuration — on
// thousands of random key/IV/patch vectors, for full and ragged lane counts,
// and through the batch devices' incremental-configure fast path (including
// rejected bitstreams) against every kind of parent image the snapshot can
// diff a candidate against, with parents promoted and evicted by concurrent
// chunks.
#include <gtest/gtest.h>

#include <set>

#include "bitstream/patcher.h"
#include "common/rng.h"
#include "fpga/batch_device.h"
#include "fpga/system.h"
#include "harness.h"
#include "mapper/batch_lut_sim.h"
#include "mapper/lut_network.h"
#include "runtime/parallel.h"
#include "runtime/thread_pool.h"
#include "simd/wide.h"

namespace sbm {
namespace {

const fpga::System& shared_system() {
  static const fpga::System sys = fpga::build_system();
  return sys;
}

struct LaneVector {
  snow3g::Key key{};
  snow3g::Iv iv{};
  size_t lut = 0;  // mapped-LUT index whose table this lane overrides
  u64 bits = 0;    // override function bits
};

/// Runs `lanes.size()` probes through one BatchLutSimulator and checks every
/// lane against a scalar Simulator configured and driven identically.
void check_lut_batch(const fpga::System& sys, const std::vector<LaneVector>& lanes,
                     size_t words) {
  mapper::BatchLutSimulator batch(sys.snapshot->tape);
  batch.set_tables(sys.snapshot->golden_parent->tables);
  for (size_t l = 0; l < lanes.size(); ++l) {
    batch.set_lut_table(lanes[l].lut, static_cast<unsigned>(l), lanes[l].bits);
  }
  for (size_t i = 0; i < 4; ++i) {
    for (size_t l = 0; l < lanes.size(); ++l) {
      batch.set_input_word_lane(sys.design.key[i], static_cast<unsigned>(l), lanes[l].key[i]);
      batch.set_input_word_lane(sys.design.iv[i], static_cast<unsigned>(l), lanes[l].iv[i]);
    }
  }
  std::vector<std::vector<u32>> z(lanes.size());
  netlist::drive_keystream(sys.design, batch, words, [&] {
    for (size_t l = 0; l < lanes.size(); ++l) {
      z[l].push_back(batch.read_word_lane(sys.design.z, static_cast<unsigned>(l)));
    }
  });

  for (size_t l = 0; l < lanes.size(); ++l) {
    std::vector<logic::TruthTable6> functions = sys.snapshot->golden_parent->functions;
    functions[lanes[l].lut] = logic::TruthTable6(lanes[l].bits);
    mapper::Simulator scalar(sys.design.net, sys.placed.mapped, functions);
    const std::vector<u32> expect =
        testing::run_design(sys.design, scalar, lanes[l].key, lanes[l].iv, words);
    ASSERT_EQ(z[l], expect) << "lane " << l << " of " << lanes.size();
  }
}

std::vector<LaneVector> random_lanes(Rng& rng, size_t count, size_t lut_count) {
  std::vector<LaneVector> lanes(count);
  for (LaneVector& l : lanes) {
    l.key = {rng.next_u32(), rng.next_u32(), rng.next_u32(), rng.next_u32()};
    l.iv = {rng.next_u32(), rng.next_u32(), rng.next_u32(), rng.next_u32()};
    l.lut = rng.next_u64() % lut_count;
    l.bits = rng.next_u64();
  }
  return lanes;
}

TEST(BatchLutSim, MatchesScalarOnTenThousandRandomVectors) {
  const fpga::System& sys = shared_system();
  Rng rng(0xba7c4);
  constexpr size_t kBatches = 157;  // 157 * 64 = 10048 random probe vectors
  for (size_t b = 0; b < kBatches; ++b) {
    check_lut_batch(sys, random_lanes(rng, 64, sys.snapshot->golden_parent->functions.size()),
                    /*words=*/2);
  }
}

TEST(BatchLutSim, RaggedLaneCountsMatchScalar) {
  const fpga::System& sys = shared_system();
  Rng rng(0x7a66ed);
  for (const size_t count : {size_t{1}, size_t{7}, size_t{63}}) {
    check_lut_batch(sys, random_lanes(rng, count, sys.snapshot->golden_parent->functions.size()),
                    /*words=*/3);
  }
}

/// Candidate bitstreams exercising every configure path: the golden bytes,
/// the CRC-disabled template (empty diff), LUT INIT patches, a key patch,
/// a frame edit under an armed CRC (rejected), and a truncation (rejected).
std::vector<std::vector<u8>> candidate_bitstreams(const fpga::System& sys, Rng& rng,
                                                  size_t patched) {
  std::vector<std::vector<u8>> out;
  out.push_back(sys.golden.bytes);
  std::vector<u8> nocrc = sys.golden.bytes;
  bitstream::disable_crc(nocrc);
  out.push_back(nocrc);
  for (size_t i = 0; i < patched; ++i) {
    std::vector<u8> bytes = nocrc;
    const size_t touches = 1 + rng.next_u64() % 3;
    for (size_t t = 0; t < touches; ++t) {
      const size_t site = rng.next_u64() % sys.placed.phys.size();
      bitstream::write_lut_init(bytes, sys.golden.layout.site_byte_index(site),
                                bitstream::Layout::chunk_stride(),
                                bitstream::chunk_order(sys.placed.slice_of(site)),
                                rng.next_u64());
    }
    out.push_back(std::move(bytes));
  }
  std::vector<u8> keyed = nocrc;
  for (size_t b = 0; b < 16; ++b) {
    keyed[sys.golden.layout.key_byte_index() + b] = static_cast<u8>(rng.next_u64());
  }
  out.push_back(std::move(keyed));
  std::vector<u8> armed = sys.golden.bytes;  // CRC still active: must reject
  armed[sys.golden.layout.fdri_byte_offset] ^= 0xff;
  out.push_back(std::move(armed));
  out.push_back(std::vector<u8>(sys.golden.bytes.begin(), sys.golden.bytes.end() - 7));
  return out;
}

TEST(BatchDevice, MatchesScalarDevicePerLaneIncludingRejections) {
  const fpga::System& sys = shared_system();
  Rng rng(0xd31c3);
  constexpr snow3g::Iv kIv = {0xea024714, 0xad5c4d84, 0xdf1f9b25, 0x1c0bf45f};
  const auto candidates = candidate_bitstreams(sys, rng, 12);
  ASSERT_LE(candidates.size(), fpga::BatchDevice::kLanes);

  fpga::BatchDevice batch = sys.make_batch_device();
  std::vector<bool> accepted;
  for (size_t l = 0; l < candidates.size(); ++l) {
    accepted.push_back(batch.configure_lane(static_cast<unsigned>(l), candidates[l]));
  }
  const auto z = batch.keystream(kIv, 8, static_cast<unsigned>(candidates.size()));

  for (size_t l = 0; l < candidates.size(); ++l) {
    fpga::Device device = sys.make_device();
    const bool ok = device.configure(candidates[l]);
    EXPECT_EQ(accepted[l], ok) << "lane " << l;
    if (ok) {
      ASSERT_TRUE(z[l].has_value()) << "lane " << l;
      EXPECT_EQ(*z[l], device.keystream(kIv, 8)) << "lane " << l;
    } else {
      EXPECT_FALSE(z[l].has_value()) << "lane " << l;
    }
  }
}

// ---------------------------------------------------------------------------
// Parent-rebased configuration (fpga/snapshot.h): a batch device diffs each
// candidate against a cached parent image instead of the golden one.  Tests
// that count promotions build a fresh system so its parent cache starts
// empty.

constexpr snow3g::Iv kRebaseIv = {0x5eed0001, 0x00c0ffee, 0x12345678, 0x9abcdef0};

std::vector<u8> nocrc_golden(const fpga::System& sys) {
  std::vector<u8> bytes = sys.golden.bytes;
  bitstream::disable_crc(bytes);
  return bytes;
}

/// `bytes` with `sites` random LUT sites rewritten to random INITs.
std::vector<u8> patch_sites(const fpga::System& sys, std::vector<u8> bytes, Rng& rng,
                            size_t sites) {
  for (size_t i = 0; i < sites; ++i) {
    const size_t site = rng.next_u64() % sys.placed.phys.size();
    bitstream::write_lut_init(bytes, sys.golden.layout.site_byte_index(site),
                              bitstream::Layout::chunk_stride(),
                              bitstream::chunk_order(sys.placed.slice_of(site)), rng.next_u64());
  }
  return bytes;
}

/// A CRC-disabled image with its own key, ~48 sites from golden and from any
/// other such image: further than kPromoteWords from every parent, so the
/// first device that sees it promotes it.
std::vector<u8> far_image(const fpga::System& sys, Rng& rng) {
  std::vector<u8> bytes = patch_sites(sys, nocrc_golden(sys), rng, 48);
  for (size_t b = 0; b < 16; ++b) {
    bytes[sys.golden.layout.key_byte_index() + b] = static_cast<u8>(rng.next_u64());
  }
  return bytes;
}

/// One random edit of `base` (a CRC-disabled image): a multi-site patch, a
/// key-region edit, the same frames under the armed-CRC golden header, a
/// truncation, a header-byte edit, or `base` itself.
std::vector<u8> random_edit(const fpga::System& sys, const std::vector<u8>& base, Rng& rng) {
  const bitstream::Layout& layout = sys.golden.layout;
  const size_t frame_end = layout.fdri_byte_offset + layout.frame_count * bitstream::kFrameBytes;
  switch (rng.next_u64() % 6) {
    case 0:
      return patch_sites(sys, base, rng, 1 + rng.next_u64() % 4);
    case 1: {
      std::vector<u8> bytes = patch_sites(sys, base, rng, rng.next_u64() % 2);
      const size_t b = layout.key_byte_index() + rng.next_u64() % 16;
      bytes[b] ^= static_cast<u8>(1 + rng.next_u64() % 255);
      return bytes;
    }
    case 2: {  // armed CRC: rejected unless the frames are golden's
      std::vector<u8> bytes = sys.golden.bytes;
      std::copy(base.begin() + static_cast<std::ptrdiff_t>(layout.fdri_byte_offset),
                base.begin() + static_cast<std::ptrdiff_t>(frame_end),
                bytes.begin() + static_cast<std::ptrdiff_t>(layout.fdri_byte_offset));
      return patch_sites(sys, std::move(bytes), rng, rng.next_u64() % 2);
    }
    case 3:
      return std::vector<u8>(base.data(), base.data() + rng.next_u64() % base.size());
    case 4: {
      std::vector<u8> bytes = base;
      const size_t outside = bytes.size() - (frame_end - layout.fdri_byte_offset);
      size_t i = rng.next_u64() % outside;
      if (i >= layout.fdri_byte_offset) i += frame_end - layout.fdri_byte_offset;
      bytes[i] ^= static_cast<u8>(1 + rng.next_u64() % 255);
      return bytes;
    }
    default:
      return base;
  }
}

/// What the full parser (the scalar Device) makes of a candidate.
struct FullParse {
  bool ok = false;
  std::vector<u32> z;
};

FullParse full_parse(const fpga::System& sys, std::span<const u8> bytes, size_t words) {
  fpga::Device slow = sys.make_device();
  FullParse r;
  r.ok = slow.configure(bytes);
  if (r.ok) r.z = slow.keystream(kRebaseIv, words);
  return r;
}

void expect_lane(const std::optional<std::vector<u32>>& z, const FullParse& ref, size_t index) {
  ASSERT_EQ(z.has_value(), ref.ok) << "candidate " << index;
  if (ref.ok) {
    EXPECT_EQ(*z, ref.z) << "candidate " << index;
  }
}

TEST(BatchDevice, FullParseLaneInARebasedDeviceDiffsAgainstTheParent) {
  const fpga::System sys = fpga::build_system();
  Rng rng(0xfa11);
  const std::vector<u8> far = far_image(sys, rng);
  // A recomputed CRC takes the full parser; its functions equal golden's
  // everywhere `far` differs from golden, so every such site needs a lane
  // write even though it matches the golden function.
  std::vector<u8> recomputed = patch_sites(sys, sys.golden.bytes, rng, 1);
  ASSERT_TRUE(bitstream::recompute_crc(recomputed));

  fpga::BatchDevice dev = sys.make_batch_device();
  ASSERT_TRUE(dev.configure_lane(0, far));
  ASSERT_EQ(sys.snapshot->stats().parent_promotions, 1u);  // lane 0 rebased the device
  ASSERT_TRUE(dev.configure_lane(1, recomputed));
  const auto z = dev.keystream(kRebaseIv, 8, 2);
  expect_lane(z[0], full_parse(sys, far, 8), 0);
  expect_lane(z[1], full_parse(sys, recomputed, 8), 1);
}

TEST(BatchDevice, PristineGoldenLaneInARebasedDeviceLoadsGolden) {
  const fpga::System sys = fpga::build_system();
  Rng rng(0x601d);
  const std::vector<u8> far = far_image(sys, rng);
  fpga::BatchDevice dev = sys.make_batch_device();
  ASSERT_TRUE(dev.configure_lane(0, far));
  ASSERT_EQ(sys.snapshot->stats().parent_promotions, 1u);
  ASSERT_TRUE(dev.configure_lane(1, sys.golden.bytes));  // CRC armed, frames untouched
  const auto z = dev.keystream(kRebaseIv, 8, 2);
  expect_lane(z[0], full_parse(sys, far, 8), 0);
  expect_lane(z[1], full_parse(sys, sys.golden.bytes, 8), 1);
}

TEST(DeviceSnapshot, RebasedFastPathMatchesFullParseOnRandomEdits) {
  const fpga::System sys = fpga::build_system();
  Rng rng(0xd1ff);
  constexpr size_t kWords = 4;
  const std::vector<u8> nocrc = nocrc_golden(sys);
  const std::vector<u8> parent_a = far_image(sys, rng);
  const std::vector<u8> parent_b = far_image(sys, rng);
  for (const std::vector<u8>* parent : {&parent_a, &parent_b}) {
    fpga::BatchDevice promote = sys.make_batch_device();  // its lane 0 picks the base
    ASSERT_TRUE(promote.configure_lane(0, *parent));
  }
  ASSERT_EQ(sys.snapshot->stats().parent_promotions, 2u);

  std::vector<std::vector<u8>> shared;
  for (const std::vector<u8>* base : {&nocrc, &parent_a, &parent_b}) {
    for (int i = 0; i < 24; ++i) shared.push_back(random_edit(sys, *base, rng));
  }
  shared.push_back(sys.golden.bytes);
  const auto shuffle = [&](std::vector<std::vector<u8>>& v, size_t from) {
    for (size_t i = v.size() - 1; i > from; --i) {
      std::swap(v[i], v[from + rng.next_u64() % (i - from + 1)]);
    }
  };
  shuffle(shared, 0);

  // The edits mix accepted and rejected candidates.
  std::vector<FullParse> shared_refs;
  size_t rejected = 0;
  for (const std::vector<u8>& bytes : shared) {
    shared_refs.push_back(full_parse(sys, bytes, kWords));
    rejected += !shared_refs.back().ok;
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_LT(rejected, shared.size());

  // Batched lanes at widths {1, 7, 64, 256}, each through the device the
  // oracle picks for that chunk width (256 only where the AVX2 device
  // runs).  Each pass leads with an image no parent is near, so its first
  // chunk configures against a just-promoted parent; later chunks hit
  // whichever parent their lane 0 is closest to (golden, A, B, or a
  // promoted one).
  const simd::Backend active = simd::active_backend();
  std::set<unsigned> done;
  for (const unsigned width : {1u, 7u, 64u, 256u}) {
    const unsigned lanes = std::min(width, simd::backend_lanes(active));
    if (!done.insert(lanes).second) continue;
    SCOPED_TRACE(std::to_string(lanes) + " lanes");
    const u64 promotions = sys.snapshot->stats().parent_promotions;
    std::vector<std::vector<u8>> pass;
    pass.push_back(far_image(sys, rng));
    for (int i = 0; i < 6; ++i) pass.push_back(random_edit(sys, pass[0], rng));
    shuffle(pass, 1);
    std::vector<FullParse> refs;
    for (const std::vector<u8>& bytes : pass) refs.push_back(full_parse(sys, bytes, kWords));
    pass.insert(pass.end(), shared.begin(), shared.end());
    refs.insert(refs.end(), shared_refs.begin(), shared_refs.end());
    for (size_t begin = 0; begin < pass.size(); begin += lanes) {
      const unsigned n = static_cast<unsigned>(std::min<size_t>(lanes, pass.size() - begin));
      std::vector<std::optional<std::vector<u32>>> z;
      if (lanes <= fpga::BatchDevice::kLanes) {
        fpga::BatchDevice dev = sys.make_batch_device();
        for (unsigned l = 0; l < n; ++l) dev.configure_lane(l, pass[begin + l]);
        z = dev.keystream(kRebaseIv, kWords, n);
      } else {
        auto dev = simd::make_wide_device(sys, simd::best_fit_backend(lanes, active));
        ASSERT_NE(dev, nullptr);
        for (unsigned l = 0; l < n; ++l) dev->configure_lane(l, pass[begin + l]);
        z = dev->keystream(kRebaseIv, kWords, n);
      }
      for (unsigned l = 0; l < n; ++l) {
        expect_lane(z[l], refs[begin + l], begin + l);
      }
    }
    EXPECT_GT(sys.snapshot->stats().parent_promotions, promotions);
  }
}

TEST(ParentCache, EightThreadsConfigureChunksWhileParentsChurn) {
  // Twice as many far-apart base images as the cache holds: chunks led by
  // different bases promote and evict parents while other threads diff
  // against them.  The base a chunk finds depends on scheduling; every
  // lane's keystream must not.
  const fpga::System sys = fpga::build_system();
  Rng rng(0xc4a5);
  constexpr size_t kBases = 2 * fpga::DeviceSnapshot::kParentCapacity;
  constexpr size_t kPerBase = 3;
  constexpr size_t kWords = 2;
  std::vector<std::vector<u8>> candidates;
  for (size_t b = 0; b < kBases; ++b) {
    const std::vector<u8> base = far_image(sys, rng);
    candidates.push_back(base);
    for (size_t i = 1; i < kPerBase; ++i) candidates.push_back(patch_sites(sys, base, rng, 1));
  }
  std::vector<FullParse> refs;
  for (const auto& c : candidates) refs.push_back(full_parse(sys, c, kWords));

  constexpr size_t kChunks = 64;
  constexpr unsigned kLanes = 8;
  std::vector<std::array<size_t, kLanes>> plan(kChunks);
  for (size_t c = 0; c < kChunks; ++c) {
    plan[c][0] = (c % kBases) * kPerBase + rng.next_u64() % kPerBase;  // lane 0 picks the base
    for (unsigned l = 1; l < kLanes; ++l) plan[c][l] = rng.next_u64() % candidates.size();
  }
  std::vector<std::vector<std::optional<std::vector<u32>>>> got(kChunks);
  runtime::ThreadPool pool(8);
  runtime::parallel_for(&pool, kChunks, [&](size_t c) {
    fpga::BatchDevice dev = sys.make_batch_device();
    for (unsigned l = 0; l < kLanes; ++l) dev.configure_lane(l, candidates[plan[c][l]]);
    got[c] = dev.keystream(kRebaseIv, kWords, kLanes);
  });
  for (size_t c = 0; c < kChunks; ++c) {
    for (unsigned l = 0; l < kLanes; ++l) expect_lane(got[c][l], refs[plan[c][l]], plan[c][l]);
  }
  // Every base was promoted at least once, so parents were evicted too.
  EXPECT_GE(sys.snapshot->stats().parent_promotions, kBases);
}

}  // namespace
}  // namespace sbm
