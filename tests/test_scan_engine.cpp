// One-pass multi-pattern scan engine (attack/scan_engine.h) tests:
// randomized equivalence against Algorithm 1 (find_lut_naive) and one-pass-
// per-candidate scans, the match-by-match output contract, Mark(l) and
// bucket-collision semantics, recall on a large buffer, and index caching.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <ostream>

#include "attack/findlut.h"
#include "attack/pipeline.h"
#include "attack/scan.h"
#include "attack/scan_engine.h"
#include "bitstream/patcher.h"
#include "common/rng.h"
#include "faultsim/faulty_oracle.h"
#include "faultsim/noise.h"
#include "findlut_contract.h"
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

/// Pins every field of a family scan without a second scan implementation:
/// each candidate's list satisfies the match-by-match contract and equals a
/// one-candidate engine pass; with `naive`, its byte positions are exactly
/// the ones Algorithm 1 marks (affordable on buffers of a few KiB only).
void expect_engine_output(std::span<const u8> bytes, const std::vector<Candidate>& family,
                          const std::vector<FamilyCount>& engine, const FindLutOptions& opt,
                          bool naive) {
  ASSERT_EQ(engine.size(), family.size());
  for (size_t c = 0; c < family.size(); ++c) {
    SCOPED_TRACE(family[c].name);
    EXPECT_EQ(engine[c].candidate.name, family[c].name);
    EXPECT_EQ(findlut_contract_violation(bytes, family[c].function, engine[c].matches, opt), "");
    EXPECT_EQ(engine[c].matches, find_lut(bytes, family[c].function, opt));
    if (naive) {
      EXPECT_EQ(match_positions(engine[c].matches),
                match_positions(find_lut_naive(bytes, family[c].function, opt)));
    }
  }
}

/// Expects fc's match at expected.byte_index to be exactly `expected`.
void expect_match(const FamilyCount& fc, const LutMatch& expected) {
  const auto it = std::find_if(fc.matches.begin(), fc.matches.end(), [&](const LutMatch& m) {
    return m.byte_index == expected.byte_index;
  });
  ASSERT_NE(it, fc.matches.end()) << fc.candidate.name << ": no match at " << expected.byte_index;
  EXPECT_EQ(*it, expected) << fc.candidate.name << " at " << expected.byte_index;
}

/// One (offset d, order set) case of the randomized equivalence check.  The
/// cases share one Rng(99) seed stream, three draws each, in `index` order.
struct EquivalenceCase {
  size_t offset_d;
  bool all_orders;
  unsigned index;
};

// Names each case (and so its ctest entry) "d<offset>_<order set>".
void PrintTo(const EquivalenceCase& c, std::ostream* os) {
  *os << "d" << c.offset_d << (c.all_orders ? "_all_orders" : "_device_orders");
}

class RandomizedEquivalence : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(RandomizedEquivalence, AcrossOffsetsAndOrders) {
  const EquivalenceCase c = GetParam();
  const auto family = small_family();
  Rng seeds(99);
  for (unsigned skip = 0; skip < 3 * c.index; ++skip) seeds.next_u64();
  FindLutOptions opt;
  opt.offset_d = c.offset_d;
  opt.try_all_orders = c.all_orders;
  for (int trial = 0; trial < 3; ++trial) {
    auto bytes = random_buffer(4096, seeds.next_u64());
    // Plant every candidate once, at varying permutations and orders.
    for (size_t i = 0; i < family.size(); ++i) {
      const auto& order = c.all_orders ? all_chunk_orders()[(i * 7 + trial) % 24]
                                       : bitstream::device_chunk_orders()[i % 2];
      bitstream::write_lut_init(
          bytes, 100 + i * 800, c.offset_d, order,
          family[i].function.permuted(logic::all_permutations6()[(i * 97 + trial) % 720])
              .bits());
    }
    const auto engine = scan_family(bytes, family, opt);
    expect_engine_output(bytes, family, engine, opt, /*naive=*/true);
    for (size_t f = 0; f < family.size(); ++f) {
      EXPECT_TRUE(match_positions(engine[f].matches).count(100 + f * 800)) << family[f].name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(ScanEngine, RandomizedEquivalence,
                         ::testing::Values(EquivalenceCase{16, false, 0},
                                           EquivalenceCase{16, true, 1},
                                           EquivalenceCase{101, false, 2},
                                           EquivalenceCase{101, true, 3},
                                           EquivalenceCase{404, false, 4},
                                           EquivalenceCase{404, true, 5}));

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
  expect_engine_output(bytes, family, engine, opt, /*naive=*/true);
  EXPECT_TRUE(match_positions(engine[2].matches).count(600));
  EXPECT_TRUE(match_positions(engine[3].matches).count(602));
  // The tie at l = 300: f2 and the overlay read the same bytes, each under
  // its own order.  f2 was stored unpermuted under SLICEL; the overlay is
  // by construction what SLICEM reads there, and SLICEL (tried first) puts
  // no member of its P class at 300.
  const auto& identity = logic::all_permutations6()[0];
  expect_match(engine[0], {300, family[0].function, identity, slicel});
  expect_match(engine.back(), {300, overlay.function, identity, slicem});
  // A permutation tie at l = 302: f8 was stored under permutation 10,
  // {0,1,3,5,2,4}, but permutation 7, {0,1,3,2,5,4}, gives the same table
  // and comes first in all_permutations6().
  expect_match(engine[1], {302, family[1].function.permuted(logic::all_permutations6()[10]),
                           {0, 1, 3, 2, 5, 4}, slicel});
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
  expect_engine_output(bytes, family, engine, opt, /*naive=*/true);
  EXPECT_TRUE(match_positions(engine[0].matches).count(50));
  EXPECT_FALSE(match_positions(engine[0].matches).count(2000));
  EXPECT_TRUE(match_positions(engine[1].matches).count(2000));
  EXPECT_FALSE(match_positions(engine[1].matches).count(50));
}

TEST(ScanEngine, MarkSemanticsLowestOrderWins) {
  // XOR of 6 variables is symmetric: every permutation gives the same table,
  // and its stored image reads the same under several chunk orders.  Mark(l)
  // reports one match at the planted position: the lowest matching order
  // index, and the first permutation (the identity).
  const TruthTable6 x6(0x6996966996696996ull);  // XOR of 6 vars
  std::vector<Candidate> family(1);
  family[0].name = "xor6";
  family[0].function = x6;
  FindLutOptions opt;
  opt.offset_d = 32;
  opt.try_all_orders = true;
  std::vector<u8> bytes(512, 0);
  bitstream::write_lut_init(bytes, 16, opt.offset_d, all_chunk_orders()[13], x6.bits());
  std::vector<size_t> tied;
  for (size_t o = 0; o < all_chunk_orders().size(); ++o) {
    const auto b = bitstream::assemble_b(bytes, 16, opt.offset_d, all_chunk_orders()[o]);
    if (b == bitstream::xi_permute(x6.bits())) tied.push_back(o);
  }
  // The planted order 13 ties with orders 2, 3 and 12; the lowest wins.
  EXPECT_EQ(tied, (std::vector<size_t>{2, 3, 12, 13}));

  const auto engine = scan_family(bytes, family, opt);
  expect_engine_output(bytes, family, engine, opt, /*naive=*/true);
  expect_match(engine[0], {16, x6, logic::all_permutations6()[0], all_chunk_orders()[2]});
}

TEST(ScanEngine, LargeBufferContractAndRecall) {
  // On a 64 KiB buffer the scan satisfies the contract and finds every
  // planted site.
  const auto family = small_family();
  auto bytes = random_buffer(1 << 16, 1234);
  for (size_t i = 0; i < family.size(); ++i) {
    bitstream::write_lut_init(bytes, 997 * (i + 1), 404, bitstream::device_chunk_orders()[i % 2],
                              family[i].function.bits());
  }
  FindLutOptions opt;
  opt.offset_d = 404;
  const auto engine = scan_family(bytes, family, opt);
  expect_engine_output(bytes, family, engine, opt, /*naive=*/false);
  for (size_t i = 0; i < family.size(); ++i) {
    EXPECT_TRUE(match_positions(engine[i].matches).count(997 * (i + 1))) << family[i].name;
  }
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
// oracle runs serially or shards its chunks across 8 worker threads.
TEST(ScanEngine, NoisyVotingPipelineIdenticalAtOneAndEightOracleThreads) {
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

TEST(ScanEngine, FirstAndLastValidPositions) {
  // The window at l spans bytes [l, l + 3d + 2): plant at l = 0 and at the
  // last l whose window still fits, so the scan's range ends are exercised.
  const auto family = small_family();
  FindLutOptions opt;
  opt.offset_d = 101;
  std::vector<u8> bytes(1024, 0);
  const size_t last = bytes.size() - 3 * opt.offset_d - bitstream::kChunkBytes;
  const auto& slicem = bitstream::device_chunk_orders()[1];
  bitstream::write_lut_init(bytes, 0, opt.offset_d, slicem, family[0].function.bits());
  bitstream::write_lut_init(bytes, last, opt.offset_d, slicem, family[1].function.bits());

  const auto engine = scan_family(bytes, family, opt);
  expect_engine_output(bytes, family, engine, opt, /*naive=*/true);
  EXPECT_TRUE(match_positions(engine[0].matches).count(0));
  EXPECT_TRUE(match_positions(engine[1].matches).count(last));
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
