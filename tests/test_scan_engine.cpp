// One-pass multi-pattern scan engine (attack/scan_engine.h) tests:
// randomized equivalence against the per-candidate reference scans, Mark(l)
// and bucket-collision semantics, thread invariance, and index caching.
#include <gtest/gtest.h>

#include <optional>
#include <set>

#include "attack/findlut.h"
#include "attack/pipeline.h"
#include "attack/scan.h"
#include "attack/scan_engine.h"
#include "bitstream/patcher.h"
#include "common/rng.h"
#include "faultsim/faulty_oracle.h"
#include "faultsim/noise.h"
#include "fpga/system.h"
#include "runtime/probe_cache.h"
#include "runtime/retry.h"
#include "runtime/thread_pool.h"

namespace sbm::attack {
namespace {

using logic::Candidate;
using logic::TruthTable6;

std::vector<Candidate> small_family() {
  std::vector<Candidate> family;
  for (const char* name : {"f2", "f8", "f12", "f19"}) {
    family.push_back(logic::table2_candidate(name));
  }
  return family;
}

std::vector<u8> random_buffer(size_t size, u64 seed) {
  Rng rng(seed);
  std::vector<u8> bytes(size);
  for (auto& b : bytes) b = static_cast<u8>(rng.next_u64());
  return bytes;
}

void expect_same_scan(const std::vector<FamilyCount>& engine,
                      const std::vector<FamilyCount>& legacy) {
  ASSERT_EQ(engine.size(), legacy.size());
  for (size_t c = 0; c < engine.size(); ++c) {
    EXPECT_EQ(engine[c].candidate.name, legacy[c].candidate.name);
    // Full structural identity: position, table, permutation and chunk
    // order, in the same ascending-l order.
    EXPECT_EQ(engine[c].matches, legacy[c].matches) << engine[c].candidate.name;
  }
}

TEST(ScanEngine, RandomizedEquivalenceAcrossOffsetsAndOrders) {
  const auto family = small_family();
  Rng seeds(99);
  for (const size_t offset_d : {16, 101, 404}) {
    for (const bool all_orders : {false, true}) {
      FindLutOptions opt;
      opt.offset_d = offset_d;
      opt.try_all_orders = all_orders;
      for (int trial = 0; trial < 3; ++trial) {
        auto bytes = random_buffer(4096, seeds.next_u64());
        // Plant every candidate once, at varying permutations and orders.
        for (size_t i = 0; i < family.size(); ++i) {
          const auto& order = all_orders ? all_chunk_orders()[(i * 7 + trial) % 24]
                                         : bitstream::device_chunk_orders()[i % 2];
          bitstream::write_lut_init(
              bytes, 100 + i * 800, offset_d, order,
              family[i].function.permuted(logic::all_permutations6()[(i * 97 + trial) % 720])
                  .bits());
        }
        const auto engine = scan_family(bytes, family, opt);
        const auto legacy = scan_family_legacy(bytes, family, opt);
        expect_same_scan(engine, legacy);
        for (size_t c = 0; c < family.size(); ++c) {
          EXPECT_GE(engine[c].count(), 1u) << family[c].name;
          // Per-candidate view must agree with the single-candidate engine
          // scan and (on byte positions) with the literal Algorithm 1.
          EXPECT_EQ(engine[c].matches, find_lut(bytes, family[c].function, opt));
          std::set<size_t> engine_l, naive_l;
          for (const auto& m : engine[c].matches) engine_l.insert(m.byte_index);
          for (const auto& m : find_lut_naive(bytes, family[c].function, opt)) {
            naive_l.insert(m.byte_index);
          }
          EXPECT_EQ(engine_l, naive_l) << family[c].name;
        }
      }
    }
  }
}

TEST(ScanEngine, OverlappingAndAdjacentMatches) {
  // Matches whose 4-chunk windows interleave (adjacent even byte positions
  // share no bytes at stride 64, but their windows overlap), plus two
  // candidates matching the *same* bytes at one position: candidate g is
  // derived so the image f2 stores under SLICEL decodes as g under SLICEM.
  auto family = small_family();
  FindLutOptions opt;
  opt.offset_d = 64;
  std::vector<u8> bytes(2048, 0);
  const auto& slicel = bitstream::device_chunk_orders()[0];
  const auto& slicem = bitstream::device_chunk_orders()[1];
  bitstream::write_lut_init(bytes, 300, opt.offset_d, slicel, family[0].function.bits());
  bitstream::write_lut_init(bytes, 302, opt.offset_d, slicel,
                            family[1].function.permuted(logic::all_permutations6()[10]).bits());
  bitstream::write_lut_init(bytes, 600, opt.offset_d, slicel, family[2].function.bits());
  bitstream::write_lut_init(bytes, 602, opt.offset_d, slicel, family[3].function.bits());
  Candidate overlay;
  overlay.name = "overlay";
  overlay.function =
      TruthTable6(bitstream::xi_inverse(bitstream::assemble_b(bytes, 300, opt.offset_d, slicem)));
  family.push_back(overlay);

  const auto engine = scan_family(bytes, family, opt);
  const auto legacy = scan_family_legacy(bytes, family, opt);
  expect_same_scan(engine, legacy);
  std::set<size_t> found;
  for (const auto& fc : engine) {
    for (const auto& m : fc.matches) found.insert(m.byte_index);
  }
  for (const size_t l : {size_t{300}, size_t{302}, size_t{600}, size_t{602}}) {
    EXPECT_TRUE(found.count(l)) << "planted position " << l << " missing";
  }
  // The overlay candidate shares its matched bytes with f2's instance.
  std::set<size_t> overlay_l;
  for (const auto& m : engine.back().matches) overlay_l.insert(m.byte_index);
  EXPECT_TRUE(overlay_l.count(300));
}

TEST(ScanEngine, FirstChunkBucketCollision) {
  // Two candidates engineered to share sub-vector 0: g's stored image under
  // SLICEL differs from f's only in the top chunk, so both compile into the
  // same 16-bit first-chunk bucket.  The full 64-bit confirm must keep their
  // match lists separate.
  const TruthTable6 f = logic::table2_candidate("f2").function;
  const TruthTable6 g(bitstream::xi_inverse(bitstream::xi_permute(f.bits()) ^ (u64{1} << 63)));
  ASSERT_NE(f, g);
  ASSERT_EQ(bitstream::xi_permute(f.bits()) & 0xffff, bitstream::xi_permute(g.bits()) & 0xffff);

  std::vector<Candidate> family(2);
  family[0].name = "f";
  family[0].function = f;
  family[1].name = "g";
  family[1].function = g;

  FindLutOptions opt;
  opt.offset_d = 101;
  std::vector<u8> bytes(4096, 0);
  const auto& slicel = bitstream::device_chunk_orders()[0];
  bitstream::write_lut_init(bytes, 50, opt.offset_d, slicel, f.bits());
  bitstream::write_lut_init(bytes, 2000, opt.offset_d, slicel, g.bits());

  const auto engine = scan_family(bytes, family, opt);
  const auto legacy = scan_family_legacy(bytes, family, opt);
  expect_same_scan(engine, legacy);

  auto positions = [](const FamilyCount& fc) {
    std::set<size_t> out;
    for (const auto& m : fc.matches) out.insert(m.byte_index);
    return out;
  };
  EXPECT_TRUE(positions(engine[0]).count(50));
  EXPECT_FALSE(positions(engine[0]).count(2000));
  EXPECT_TRUE(positions(engine[1]).count(2000));
  EXPECT_FALSE(positions(engine[1]).count(50));
}

TEST(ScanEngine, MarkSemanticsLowestOrderWins) {
  // A function symmetric enough to match under several chunk orders at the
  // same position: the engine must report the same single (order, perm) the
  // serial order loop settles on.
  const TruthTable6 x6(0x6996966996696996ull);  // XOR of 6 vars
  std::vector<Candidate> family(1);
  family[0].name = "xor6";
  family[0].function = x6;
  FindLutOptions opt;
  opt.offset_d = 32;
  opt.try_all_orders = true;
  std::vector<u8> bytes(512, 0);
  bitstream::write_lut_init(bytes, 16, opt.offset_d, all_chunk_orders()[13], x6.bits());

  const auto engine = scan_family(bytes, family, opt);
  const auto legacy = scan_family_legacy(bytes, family, opt);
  expect_same_scan(engine, legacy);
  std::set<size_t> idx;
  for (const auto& m : engine[0].matches) {
    EXPECT_TRUE(idx.insert(m.byte_index).second) << "duplicate index " << m.byte_index;
  }
}

TEST(ScanEngine, ThreadCountInvariance) {
  // 1-thread and 8-thread scans over the pool must be bit-identical, and
  // identical to the legacy scan under both pools.
  const auto family = small_family();
  auto bytes = random_buffer(1 << 16, 1234);
  for (size_t i = 0; i < family.size(); ++i) {
    bitstream::write_lut_init(bytes, 997 * (i + 1), 404, bitstream::device_chunk_orders()[i % 2],
                              family[i].function.bits());
  }
  FindLutOptions serial_opt;
  serial_opt.offset_d = 404;
  serial_opt.shard_grain = 1 << 10;  // force real sharding on a 64 KiB buffer
  const auto serial = scan_family(bytes, family, serial_opt);

  runtime::ThreadPool pool(8);
  FindLutOptions pooled_opt = serial_opt;
  pooled_opt.pool = &pool;
  expect_same_scan(scan_family(bytes, family, pooled_opt), serial);
  expect_same_scan(scan_family_legacy(bytes, family, pooled_opt), serial);
}

TEST(ScanEngine, IndexCacheReusesCompiledIndexes) {
  const auto family = small_family();
  const auto bytes = random_buffer(2048, 5);
  FindLutOptions opt;
  opt.offset_d = 101;

  pattern_index_cache_clear();
  ASSERT_EQ(pattern_index_cache_size(), 0u);
  scan_family(bytes, family, opt);
  EXPECT_EQ(pattern_index_cache_size(), 1u);
  scan_family(bytes, family, opt);
  EXPECT_EQ(pattern_index_cache_size(), 1u) << "repeat scan must reuse the compiled index";

  // The cache key covers (function set, offset d, order set): changing any
  // of them compiles a distinct index.
  FindLutOptions other_d = opt;
  other_d.offset_d = 404;
  scan_family(bytes, family, other_d);
  EXPECT_EQ(pattern_index_cache_size(), 2u);
  FindLutOptions all_orders = opt;
  all_orders.try_all_orders = true;
  scan_family(bytes, family, all_orders);
  EXPECT_EQ(pattern_index_cache_size(), 3u);
  pattern_index_cache_clear();
  EXPECT_EQ(pattern_index_cache_size(), 0u);
}

// The scan engine inside a noisy end-to-end attack — randomized victim
// placement, FaultyOracle noise, voting(3) retries — must produce the same
// logical AttackResult, and the same physical-run ledger, whether its
// FINDLUT scans run serially or sharded across 8 worker threads.
TEST(ScanEngine, NoisyVotingPipelineIdenticalAtOneAndEightScanThreads) {
  Rng rng(0xd1ff);
  fpga::SystemOptions sys_opt;
  sys_opt.key = {rng.next_u32(), rng.next_u32(), rng.next_u32(), rng.next_u32()};
  sys_opt.packing.placement_seed = rng.next_u64();
  const fpga::System sys = fpga::build_system(sys_opt);
  const snow3g::Iv iv = {rng.next_u32(), rng.next_u32(), rng.next_u32(), rng.next_u32()};

  faultsim::NoiseProfile noise = faultsim::NoiseProfile::mild();
  noise.seed = 0xfee1;

  std::optional<AttackResult> reference;
  for (const unsigned threads : {1u, 8u}) {
    SCOPED_TRACE(::testing::Message() << "threads=" << threads);
    runtime::ThreadPool pool(threads);
    runtime::ThreadPool* shared = threads > 1 ? &pool : nullptr;
    DeviceOracle device(sys, iv, shared, 64);
    faultsim::FaultyOracle faulty(device, noise);
    runtime::ProbeCache cache;
    PipelineConfig cfg;
    cfg.iv = iv;
    cfg.cache = &cache;
    cfg.retry = runtime::RetryPolicy::voting(3);
    cfg.find.pool = shared;
    Attack attack(faulty, sys.golden.bytes, cfg);
    const AttackResult res = attack.execute();

    ASSERT_TRUE(res.success) << res.failure;
    EXPECT_EQ(res.secrets.key, sys_opt.key);
    EXPECT_EQ(res.physical_runs, res.oracle_runs + res.retry_runs + res.vote_runs);
    if (!reference) {
      reference = res;
      continue;
    }
    // Logical record identical to the 1-thread reference run.
    EXPECT_EQ(res.oracle_runs, reference->oracle_runs);
    EXPECT_EQ(res.cache_hits, reference->cache_hits);
    EXPECT_EQ(res.probe_calls, reference->probe_calls);
    EXPECT_EQ(res.phase_runs, reference->phase_runs);
    EXPECT_EQ(res.faulty_keystream, reference->faulty_keystream);
    EXPECT_EQ(res.secrets.key, reference->secrets.key);
    EXPECT_EQ(res.secrets.iv, reference->secrets.iv);
    // The physical/noise layer is also a pure function of the probe order,
    // so even the overhead ledger matches.
    EXPECT_EQ(res.physical_runs, reference->physical_runs);
    EXPECT_EQ(res.retry_runs, reference->retry_runs);
    EXPECT_EQ(res.vote_runs, reference->vote_runs);
    EXPECT_EQ(res.corruption_detections, reference->corruption_detections);
    EXPECT_EQ(res.transient_rejections, reference->transient_rejections);
  }
}

TEST(ScanEngine, EmptyTinyAndDegenerateInputs) {
  const auto family = small_family();
  FindLutOptions opt;
  EXPECT_EQ(scan_family({}, family, opt).size(), family.size());
  for (const auto& fc : scan_family({}, family, opt)) EXPECT_EQ(fc.count(), 0u);
  const std::vector<u8> tiny(8, 0xff);
  for (const auto& fc : scan_family(tiny, family, opt)) EXPECT_EQ(fc.count(), 0u);
  // Empty family: a scan with nothing compiled must still be well-formed.
  EXPECT_TRUE(scan_family(random_buffer(1024, 3), {}, opt).empty());
}

}  // namespace
}  // namespace sbm::attack
