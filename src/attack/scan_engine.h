// One-pass multi-pattern FINDLUT engine.
//
// Scanning candidate by candidate pays one full bitstream pass per candidate
// function.  Auditing a whole family — the paper's Table II candidates plus
// the generalized gated-XOR shapes, or a countermeasure decoy family — makes
// that the dominant cost on realistic multi-MB bitstreams.
//
// PatternIndex compiles the xi-permuted pattern sets of *all* candidates
// into one shared index keyed on the 16-bit first stored chunk:
//
//   * Every distinct pattern B = xi(F_pi) of every candidate, under every
//     sub-vector order the scan tries, is flattened to its *memory image*
//     (storage_image): the four 16-bit chunks in the order they appear in
//     the bitstream.  Matching "B under order o at position l" is then a
//     single 64-bit compare against the chunks read in memory order — no
//     per-order reassembly in the hot loop.
//   * The images are bucketed by their low 16 bits (the chunk stored at l
//     itself) into a 64K-entry CSR table.  A byte position does one 16-bit
//     load and one array index; only when the bucket is non-empty (rare on
//     random bytes) are the remaining three chunks gathered and the full
//     64-bit images compared.
//
// One pass over the bitstream therefore serves every candidate at once:
// O(positions + bucket hits) instead of O(candidates x positions x orders).
// Each candidate gets the byte positions Algorithm 1 (find_lut_naive) marks,
// in ascending-l order, and is bit-identical to a one-candidate pass
// (find_lut).  Where several (permutation, order) pairs store the same bytes
// at l, Mark(l) keeps the lowest order index, then the first permutation
// producing that table (entries are deduped per candidate in that order).
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "attack/findlut.h"

namespace sbm::attack {

class PatternIndex {
 public:
  /// Compiles the P classes of `functions` (one candidate per element, in
  /// order) against the device sub-vector orders, or all 24 orders when
  /// `try_all_orders` is set.  Immutable after construction: one instance is
  /// shared read-only by concurrent scans.
  PatternIndex(std::span<const logic::TruthTable6> functions, bool try_all_orders);

  size_t candidates() const { return num_candidates_; }
  bool try_all_orders() const { return try_all_orders_; }

  /// Scans every byte position valid for `offset_d` and appends candidate
  /// c's matches to out[c], ascending l.  out must have at least
  /// candidates() elements.  Equivalent to one pass per candidate.
  void scan(std::span<const u8> bitstream, size_t offset_d,
            std::vector<std::vector<LutMatch>>& out) const;

 private:
  struct Pattern {
    logic::TruthTable6 table;
    logic::InputPermutation perm;
  };
  struct Entry {
    u64 image;      // storage_image(B, order): the 4 chunks in memory order
    u32 pattern;    // index into patterns_
    u16 candidate;  // index into the constructor's function list
    u16 order;      // index into orders_
  };

  size_t num_candidates_ = 0;
  bool try_all_orders_ = false;
  std::vector<std::array<u8, 4>> orders_;
  std::vector<Pattern> patterns_;
  std::vector<Entry> entries_;      // sorted by (image & 0xffff, candidate, order)
  std::vector<u32> bucket_start_;   // 64K+1 CSR offsets into entries_
  std::vector<u64> bucket_nonempty_;  // 64K-bit bucket occupancy (8KB prefilter)
};

/// Scans the whole bitstream through `index` on the calling thread;
/// find_lut and scan_family both run here.  Element c of the result lists
/// candidate c's matches in ascending-l order.  options.try_all_orders must
/// match the index.
std::vector<std::vector<LutMatch>> scan_all(std::span<const u8> bitstream,
                                            const PatternIndex& index,
                                            const FindLutOptions& options);

/// Process-wide cache of compiled indexes, keyed on (function set, offset d,
/// order set).  The standard attack families are scanned once per pipeline
/// phase and once per campaign trial; the compile (720 permutations x
/// candidates, xi-mapped and bucketed) happens once and is shared across all
/// of them.  Thread-safe; concurrent first requests for the same key may
/// compile twice but store once.
std::shared_ptr<const PatternIndex> shared_pattern_index(
    std::span<const logic::TruthTable6> functions, const FindLutOptions& options);

/// Number of distinct compiled indexes currently cached (for tests/reports).
size_t pattern_index_cache_size();
void pattern_index_cache_clear();

}  // namespace sbm::attack
