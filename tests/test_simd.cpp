// SIMD backend layer: lane counts and the per-chunk device rule, lane-vector
// algebra, the bit-matrix transpose used by the wide BRAM path, the flat-map
// layout of the hot lookup structures, and — the load-bearing contract —
// bit-exact equivalence of the AVX2 wide device with the portable scalar
// u64 reference, from lane-by-lane device differentials up through
// DeviceOracle batches at every width.  The full attack and the campaign
// fingerprint at each width are pinned in test_batch_attack.cpp.
//
// Only LaneVec<2> (128-bit, baseline SSE2 on x86-64) is instantiated here:
// the 256-lane vector is ODR-used exclusively inside the kernel TU carrying
// -mavx2, and this test reaches it through the type-erased
// simd::make_wide_device factory like every other client.
#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_map>

#include "attack/oracle.h"
#include "bitstream/patcher.h"
#include "common/flat_map.h"
#include "common/rng.h"
#include "fpga/batch_device.h"
#include "fpga/device.h"
#include "fpga/system.h"
#include "runtime/probe_cache.h"
#include "simd/backend.h"
#include "simd/lane_vec.h"
#include "simd/transpose.h"
#include "simd/wide.h"

namespace sbm {
namespace {

using simd::Backend;

constexpr snow3g::Iv kHostIv = {0xea024714, 0xad5c4d84, 0xdf1f9b25, 0x1c0bf45f};

const fpga::System& shared_system() {
  static const fpga::System sys = fpga::build_system();
  return sys;
}

/// True when this binary runs the AVX2 device (compiled in AND supported by
/// the host).  False on non-x86 hosts or compilers without -mavx2 — the wide
/// equivalence tests then pass vacuously, which is the intended degradation.
bool has_wide_device() { return simd::active_backend() == Backend::kAvx2; }

// ---------------------------------------------------------------------------
// Dispatch rules

TEST(SimdDispatch, BackendLanes) {
  EXPECT_EQ(simd::backend_lanes(Backend::kScalar), 64u);
  EXPECT_EQ(simd::backend_lanes(Backend::kAvx2), 256u);
  EXPECT_EQ(simd::kMaxLanes, 256u);
}

TEST(SimdDispatch, BestFitBackendNeverWidensAndCoversSmallChunks) {
  for (const Backend active : {Backend::kScalar, Backend::kAvx2}) {
    // Chunks a single u64 word can hold always take the scalar device.
    for (const unsigned lanes : {1u, 7u, 63u, 64u}) {
      EXPECT_EQ(simd::best_fit_backend(lanes, active), Backend::kScalar)
          << lanes << " lanes, active " << simd::backend_name(active);
    }
    // Anything wider keeps the active backend.
    for (const unsigned lanes : {65u, 100u, 256u}) {
      EXPECT_EQ(simd::best_fit_backend(lanes, active), active)
          << lanes << " lanes, active " << simd::backend_name(active);
    }
  }
}

TEST(SimdDispatch, WideFactoriesDeclineScalarBackend) {
  const fpga::System& sys = shared_system();
  EXPECT_EQ(simd::make_wide_device(sys, Backend::kScalar), nullptr);
  // The active backend always gets a device once a chunk outgrows u64.
#if defined(__x86_64__) || defined(__i386__)
  if (__builtin_cpu_supports("avx2") == 0) {
    EXPECT_EQ(simd::active_backend(), Backend::kScalar);
  }
#endif
  if (has_wide_device()) {
    const auto dev = simd::make_wide_device(sys, simd::active_backend());
    ASSERT_NE(dev, nullptr);
    EXPECT_EQ(dev->lanes(), simd::kMaxLanes);
  }
}

// ---------------------------------------------------------------------------
// Lane-vector algebra (LaneVec<2> only — see the header comment)

using LV2 = simd::LaneVec<2>;
using T2 = simd::lane_traits<LV2>;

LV2 make_lv2(u64 w0, u64 w1) {
  LV2 v = simd::zero<LV2>();
  T2::word(v, 0) = w0;
  T2::word(v, 1) = w1;
  return v;
}

TEST(SimdLaneVec, ZeroOnesBroadcast) {
  EXPECT_EQ(T2::word(simd::zero<LV2>(), 0), 0u);
  EXPECT_EQ(T2::word(simd::zero<LV2>(), 1), 0u);
  EXPECT_EQ(T2::word(simd::ones<LV2>(), 0), ~u64{0});
  EXPECT_EQ(T2::word(simd::ones<LV2>(), 1), ~u64{0});
  const LV2 b = simd::broadcast_word<LV2>(0x0123456789abcdefull);
  EXPECT_EQ(T2::word(b, 0), 0x0123456789abcdefull);
  EXPECT_EQ(T2::word(b, 1), 0x0123456789abcdefull);
}

TEST(SimdLaneVec, BitwiseOpsMatchPerWordU64) {
  Rng rng(0x1a2e);
  for (int i = 0; i < 200; ++i) {
    const u64 a0 = rng.next_u64(), a1 = rng.next_u64();
    const u64 b0 = rng.next_u64(), b1 = rng.next_u64();
    const u64 x0 = rng.next_u64(), x1 = rng.next_u64();
    const LV2 a = make_lv2(a0, a1), b = make_lv2(b0, b1), x = make_lv2(x0, x1);
    EXPECT_EQ(T2::word(a & b, 0), a0 & b0);
    EXPECT_EQ(T2::word(a & b, 1), a1 & b1);
    EXPECT_EQ(T2::word(a | b, 0), a0 | b0);
    EXPECT_EQ(T2::word(a | b, 1), a1 | b1);
    EXPECT_EQ(T2::word(a ^ b, 0), a0 ^ b0);
    EXPECT_EQ(T2::word(a ^ b, 1), a1 ^ b1);
    EXPECT_EQ(T2::word(~a, 0), ~a0);
    EXPECT_EQ(T2::word(~a, 1), ~a1);
    // mux picks b where x is set — the scalar u64 overload is the spec.
    EXPECT_EQ(T2::word(simd::mux(a, b, x), 0), simd::mux(a0, b0, x0));
    EXPECT_EQ(T2::word(simd::mux(a, b, x), 1), simd::mux(a1, b1, x1));
    // mux_word broadcasts two shared table words across the selector lanes.
    EXPECT_EQ(T2::word(simd::mux_word(a0, b0, x), 0), simd::mux(a0, b0, x0));
    EXPECT_EQ(T2::word(simd::mux_word(a0, b0, x), 1), simd::mux(a0, b0, x1));
  }
}

TEST(SimdLaneVec, LaneAccessors) {
  LV2 v = simd::zero<LV2>();
  simd::set_lane(v, 0, true);
  simd::set_lane(v, 70, true);
  EXPECT_TRUE(simd::get_lane(v, 0));
  EXPECT_TRUE(simd::get_lane(v, 70));
  EXPECT_FALSE(simd::get_lane(v, 1));
  EXPECT_FALSE(simd::get_lane(v, 69));
  simd::set_lane(v, 70, false);
  EXPECT_FALSE(simd::get_lane(v, 70));
  simd::or_lane(v, 127);
  EXPECT_TRUE(simd::get_lane(v, 127));
}

// ---------------------------------------------------------------------------
// Bit-matrix transpose (wide BRAM address gather/scatter)

TEST(SimdTranspose, Transpose32MatchesNaive) {
  Rng rng(0x7a05);
  for (int trial = 0; trial < 50; ++trial) {
    u32 a[32];
    for (u32& w : a) w = static_cast<u32>(rng.next_u64());
    u32 t[32];
    std::copy(std::begin(a), std::end(a), std::begin(t));
    simd::transpose32(t);
    for (unsigned i = 0; i < 32; ++i) {
      for (unsigned j = 0; j < 32; ++j) {
        EXPECT_EQ((t[i] >> j) & 1, (a[j] >> i) & 1) << "bit (" << i << "," << j << ")";
      }
    }
    // Transposing is an involution.
    simd::transpose32(t);
    for (unsigned i = 0; i < 32; ++i) EXPECT_EQ(t[i], a[i]);
  }
}

TEST(SimdTranspose, GatherScatterRoundTripAndNaive) {
  Rng rng(0x6a7e);
  for (int trial = 0; trial < 50; ++trial) {
    u64 in[32];
    for (u64& w : in) w = rng.next_u64();
    u32 addr[64];
    simd::gather_addresses(in, addr);
    // addr[lane] bit b == input vector b's bit for that lane.
    for (unsigned lane = 0; lane < 64; ++lane) {
      u32 expect = 0;
      for (unsigned b = 0; b < 32; ++b) expect |= static_cast<u32>((in[b] >> lane) & 1) << b;
      EXPECT_EQ(addr[lane], expect) << "lane " << lane;
    }
    u64 out[32];
    simd::scatter_outputs(addr, out);
    for (unsigned b = 0; b < 32; ++b) EXPECT_EQ(out[b], in[b]) << "vector " << b;
  }
}

// ---------------------------------------------------------------------------
// Flat-map layout

TEST(FlatMap, MatchesUnorderedMapOnRandomWorkload) {
  Rng rng(0xf1a7);
  FlatMap<u64, u32, U64MixHash> map;
  std::unordered_map<u64, u32> ref;
  for (int op = 0; op < 20000; ++op) {
    const u64 key = rng.next_u64() % 4096;  // force plenty of repeats
    if (rng.next_u64() % 2 == 0) {
      const u32 value = static_cast<u32>(rng.next_u64());
      const auto [slot, inserted] = map.try_emplace(key, value);
      const auto [it, ref_inserted] = ref.try_emplace(key, value);
      ASSERT_EQ(inserted, ref_inserted);
      ASSERT_EQ(*slot, it->second);
    } else {
      const u32* found = map.find(key);
      const auto it = ref.find(key);
      ASSERT_EQ(found != nullptr, it != ref.end());
      if (found != nullptr) {
        ASSERT_EQ(*found, it->second);
      }
    }
  }
  EXPECT_EQ(map.size(), ref.size());
  size_t visited = 0;
  map.for_each([&](u64 key, u32 value) {
    ++visited;
    const auto it = ref.find(key);
    ASSERT_NE(it, ref.end());
    EXPECT_EQ(value, it->second);
  });
  EXPECT_EQ(visited, ref.size());
}

TEST(FlatMap, ClearKeepsWorkingAndEmptyFindIsSafe) {
  FlatMap<u64, u32, U64MixHash> map;
  EXPECT_EQ(map.find(42), nullptr);  // no table allocated yet
  for (u64 k = 0; k < 100; ++k) map.try_emplace(k, static_cast<u32>(k));
  EXPECT_EQ(map.size(), 100u);
  map.clear();
  EXPECT_EQ(map.size(), 0u);
  EXPECT_TRUE(map.empty());
  EXPECT_EQ(map.find(5), nullptr);
  for (u64 k = 50; k < 80; ++k) map.try_emplace(k, static_cast<u32>(k * 3));
  EXPECT_EQ(map.size(), 30u);
  ASSERT_NE(map.find(60), nullptr);
  EXPECT_EQ(*map.find(60), 180u);
  EXPECT_EQ(map.find(10), nullptr);
}

TEST(FlatMap, SurvivesDegenerateHash) {
  // Everything lands in one bucket: linear probing must still find each key.
  struct OneBucket {
    size_t operator()(u64) const { return 7; }
  };
  FlatMap<u64, u64, OneBucket> map;
  for (u64 k = 0; k < 200; ++k) map.try_emplace(k, k + 1);
  for (u64 k = 0; k < 200; ++k) {
    ASSERT_NE(map.find(k), nullptr) << k;
    EXPECT_EQ(*map.find(k), k + 1);
  }
  EXPECT_EQ(map.find(777), nullptr);
}

TEST(ProbeCacheFlatMap, AccountingParityAgainstReferenceMap) {
  // Randomized lookup/store traffic mirroring the pipeline (lookup, then
  // store on miss), checked step by step against an unordered_map driven
  // with the very same KeyHash.  Every hit or miss, the size and every
  // returned outcome must agree exactly — the cache-hit accounting feeds
  // the paper's cost metric, so "roughly right" is not acceptable.
  Rng rng(0xcac4e);
  runtime::ProbeCache cache;
  std::unordered_map<runtime::ProbeKey, runtime::ProbeOutcome, runtime::ProbeCache::KeyHash> ref;
  size_t hits = 0;
  for (int op = 0; op < 5000; ++op) {
    std::vector<u8> bytes((rng.next_u64() % 96) + 1);
    // Small alphabet + small sizes: plenty of repeat probes, like replayed
    // verification patches.
    for (u8& b : bytes) b = static_cast<u8>(rng.next_u64() % 4);
    const size_t words = 1 + rng.next_u64() % 3;
    const runtime::ProbeKey key = runtime::make_probe_key(bytes, words);

    const runtime::ProbeOutcome* cached = cache.find(key);
    const auto it = ref.find(key);
    if (it == ref.end()) {
      ASSERT_EQ(cached, nullptr);
      runtime::ProbeOutcome outcome(runtime::ProbeError::kRejected);  // cache rejections too
      if (rng.next_u64() % 5 != 0) {
        outcome = std::vector<u32>(words, static_cast<u32>(rng.next_u64()));
      }
      cache.store(key, outcome);
      ref.emplace(key, std::move(outcome));
    } else {
      ++hits;
      ASSERT_NE(cached, nullptr);
      ASSERT_EQ(*cached, it->second);
    }
    ASSERT_EQ(cache.size(), ref.size());
  }
  EXPECT_GT(hits, 0u);
}

// ---------------------------------------------------------------------------
// Wide-device differentials against the scalar u64 reference

/// `count` CRC-disabled candidates, each with random key bytes and one
/// random LUT site rewritten to random INIT bits.
std::vector<std::vector<u8>> random_candidates(const fpga::System& sys, Rng& rng,
                                               size_t count) {
  std::vector<u8> nocrc = sys.golden.bytes;
  bitstream::disable_crc(nocrc);
  std::vector<std::vector<u8>> out;
  out.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    std::vector<u8> bytes = nocrc;
    for (size_t b = 0; b < 16; ++b) {
      bytes[sys.golden.layout.key_byte_index() + b] = static_cast<u8>(rng.next_u64());
    }
    const size_t site = rng.next_u64() % sys.placed.phys.size();
    bitstream::write_lut_init(bytes, sys.golden.layout.site_byte_index(site),
                              bitstream::Layout::chunk_stride(),
                              bitstream::chunk_order(sys.placed.slice_of(site)), rng.next_u64());
    out.push_back(std::move(bytes));
  }
  return out;
}

TEST(SimdWideEquivalence, DeviceMatchesU64ReferenceOnTenThousandVectors) {
  const fpga::System& sys = shared_system();
  if (!has_wide_device()) return;
  const Backend backend = Backend::kAvx2;
  const unsigned width = simd::backend_lanes(backend);
  Rng rng(0x10c0 + static_cast<u64>(backend));
  size_t vectors = 0;
  while (vectors < 10000) {
    const auto candidates = random_candidates(sys, rng, width);
    auto wide = simd::make_wide_device(sys, backend);
    ASSERT_NE(wide, nullptr);
    ASSERT_EQ(wide->lanes(), width);
    for (unsigned l = 0; l < width; ++l) {
      ASSERT_TRUE(wide->configure_lane(l, candidates[l])) << "lane " << l;
    }
    const auto got = wide->keystream(kHostIv, /*n=*/2, width);
    ASSERT_EQ(got.size(), width);
    for (unsigned base = 0; base < width; base += fpga::BatchDevice::kLanes) {
      fpga::BatchDevice ref = sys.make_batch_device();
      for (unsigned l = 0; l < fpga::BatchDevice::kLanes; ++l) {
        ASSERT_TRUE(ref.configure_lane(l, candidates[base + l])) << "lane " << base + l;
      }
      const auto expect = ref.keystream(kHostIv, /*n=*/2, fpga::BatchDevice::kLanes);
      for (unsigned l = 0; l < fpga::BatchDevice::kLanes; ++l) {
        ASSERT_EQ(got[base + l], expect[l]) << "lane " << base + l << " of " << width;
      }
    }
    vectors += width;
  }
}

TEST(SimdWideEquivalence, WideDeviceMatchesScalarDeviceIncludingRejections) {
  const fpga::System& sys = shared_system();
  if (!has_wide_device()) return;
  const Backend backend = Backend::kAvx2;
  const unsigned width = simd::backend_lanes(backend);
  Rng rng(0xd331 + static_cast<u64>(backend));
  std::vector<u8> nocrc = sys.golden.bytes;
  bitstream::disable_crc(nocrc);
  std::vector<std::vector<u8>> candidates;
  for (unsigned i = 0; i < width; ++i) {
    if (i % 17 == 3) {  // frame edit under an armed CRC: must reject
      std::vector<u8> bad = sys.golden.bytes;
      bad[sys.golden.layout.fdri_byte_offset + (i % 7)] ^= 0x5a;
      candidates.push_back(std::move(bad));
    } else if (i % 17 == 9) {
      candidates.push_back(sys.golden.bytes);  // pristine golden
    } else {
      std::vector<u8> bytes = nocrc;
      const size_t site = rng.next_u64() % sys.placed.phys.size();
      bitstream::write_lut_init(bytes, sys.golden.layout.site_byte_index(site),
                                bitstream::Layout::chunk_stride(),
                                bitstream::chunk_order(sys.placed.slice_of(site)),
                                rng.next_u64());
      candidates.push_back(std::move(bytes));
    }
  }
  auto dev = simd::make_wide_device(sys, backend);
  ASSERT_NE(dev, nullptr);
  ASSERT_EQ(dev->lanes(), width);
  std::vector<bool> accepted;
  for (unsigned l = 0; l < width; ++l) {
    accepted.push_back(dev->configure_lane(l, candidates[l]));
  }
  const auto z = dev->keystream(kHostIv, /*n=*/4, width);
  ASSERT_EQ(z.size(), width);
  for (unsigned l = 0; l < width; ++l) {
    fpga::Device scalar = sys.make_device();
    const bool ok = scalar.configure(candidates[l]);
    ASSERT_EQ(accepted[l], ok) << "lane " << l;
    if (ok) {
      ASSERT_TRUE(z[l].has_value()) << "lane " << l;
      EXPECT_EQ(*z[l], scalar.keystream(kHostIv, 4)) << "lane " << l;
    } else {
      EXPECT_FALSE(z[l].has_value()) << "lane " << l;
    }
  }
}

// ---------------------------------------------------------------------------
// Oracle batches: ragged widths, the device each width picks, exact run
// accounting

TEST(SimdOracle, RaggedWidthsBitIdenticalAcrossBackends) {
  const fpga::System& sys = shared_system();
  Rng rng(0x0dd5);
  std::vector<u8> nocrc = sys.golden.bytes;
  bitstream::disable_crc(nocrc);
  constexpr size_t kProbes = 259;  // one full 256 chunk + a 3-lane tail
  std::vector<std::vector<u8>> probes;
  probes.reserve(kProbes);
  for (size_t i = 0; i < kProbes; ++i) {
    if (i % 13 == 5) {  // sprinkle rejected candidates through the batch
      std::vector<u8> bad = sys.golden.bytes;
      bad[sys.golden.layout.fdri_byte_offset + (i % 11)] ^= 0x5a;
      probes.push_back(std::move(bad));
    } else {
      std::vector<u8> bytes = nocrc;
      const size_t site = rng.next_u64() % sys.placed.phys.size();
      bitstream::write_lut_init(bytes, sys.golden.layout.site_byte_index(site),
                                bitstream::Layout::chunk_stride(),
                                bitstream::chunk_order(sys.placed.slice_of(site)),
                                rng.next_u64());
      probes.push_back(std::move(bytes));
    }
  }

  // Reference: the scalar u64 device at its native width (itself proven
  // against one-at-a-time runs by test_batch_attack).
  std::vector<runtime::ProbeOutcome> ref;
  {
    attack::DeviceOracle oracle(sys, kHostIv, nullptr, 64);
    ref = oracle.run_batch(probes, /*words=*/4);
    EXPECT_EQ(oracle.runs(), kProbes);
  }

  // Widths up to 64 run the u64 device, 65-256 the active backend's; 512
  // pins the clamp to the device's lane count.
  for (const unsigned width : {1u, 7u, 63u, 64u, 65u, 255u, 256u, 512u}) {
    // Every width gets full and ragged chunks: n = width + 3 (clamped).
    const size_t n = std::min<size_t>(kProbes, width + 3);
    SCOPED_TRACE("width " + std::to_string(width) + ", " + std::to_string(n) + " probes");
    attack::DeviceOracle oracle(sys, kHostIv, nullptr, width);
    const auto got =
        oracle.run_batch(std::span<const std::vector<u8>>(probes).first(n), /*words=*/4);
    ASSERT_EQ(got.size(), n);
    EXPECT_EQ(oracle.runs(), n);  // every lane is one paper-cost reconfiguration
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], ref[i]) << "probe " << i;
    }
  }
}

}  // namespace
}  // namespace sbm
