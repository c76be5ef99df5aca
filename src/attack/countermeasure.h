// Countermeasure-side analysis (Section VII): half-table searching and the
// combinatorial security bound.
//
// When the target XOR is forced into a trivial cut, it lands in one half of
// a dual-output LUT.  A whole-table FINDLUT no longer sees it (Table VI), so
// the attacker must fall back to searching for "a 2-input XOR in one half of
// the truth table, anything in the other" — which explodes the candidate
// count and leads to the C(n, 32) exhaustive-search bound.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "attack/findlut.h"

namespace sbm::attack {

struct HalfMatch {
  size_t byte_index = 0;
  bool o5_half = false;            // which half matched (a6 = 0 half = O5)
  std::array<u8, 4> order{};       // sub-vector order assumed
  logic::InputPermutation perm{};  // 5-variable permutation (positions 0..4)
  u32 half_table = 0;              // the matched 32-bit half
};

/// Finds every LUT position whose O5 or O6 half implements the 5-variable
/// function `half_function` (given as a 32-bit table over a1..a5) under any
/// permutation of the five shared inputs.  `begin`/`end` limit the scan to
/// byte positions [begin, end) — the paper's frame-constrained search (203
/// of 481 hits).  The half scan is a serial per-position loop over the two
/// device chunk orders: it reads options.offset_d only, and ignores
/// options.try_all_orders.  At each position the first order with any half
/// match wins, and both halves are reported if both match under it.
std::vector<HalfMatch> find_lut_half(std::span<const u8> bitstream, u32 half_function,
                                     const FindLutOptions& options = {}, size_t begin = 0,
                                     size_t end = SIZE_MAX);

/// All half-matches where the half is a 2-input XOR of two of the five
/// shared inputs (the countermeasure search of Section VII-B).
std::vector<HalfMatch> find_xor2_halves(std::span<const u8> bitstream,
                                        const FindLutOptions& options = {}, size_t begin = 0,
                                        size_t end = SIZE_MAX);

/// Deduplicated physical candidate sites for the half-table fallback.
/// `find_xor2_halves` reports every (position, half, permutation) tuple, so
/// one placed XOR2 can appear many times: once per matching permutation,
/// once per half when the stored table is vacuous (lo == hi, a single-output
/// LUT replicated into both halves), and at unaligned byte offsets whose
/// windows overlap a real site.  Counting those duplicates inflates the
/// C(n, 32) resistance bound — decoy placements get counted with
/// replacement.  This helper collapses the raw matches to one entry per
/// physical (site, half): frame-aligned positions only, vacuous tables
/// folded to a single canonical half, first match kept (family order), so
/// the result is deterministic for a given bitstream.
///
/// `fold_vacuous = false` keeps both halves of a vacuous (lo == hi) table
/// as separate candidates.  Statically they are indistinguishable, but a
/// fault oracle tells them apart: a single-output LUT replicated into both
/// halves has one live half (the other zeroes to no effect), while two
/// identical XOR2s packed into one dual-output site are two independently
/// zeroable placements.  The cracker enumerates per-half so it never fuses
/// two co-located decoys into one hypothesis.
std::vector<HalfMatch> unique_xor2_half_sites(std::span<const u8> bitstream,
                                              const FindLutOptions& options = {},
                                              bool fold_vacuous = true);

/// Applies a 5-variable input permutation to a 32-bit half-table (position
/// 5 of the permutation is ignored).
u32 permute_half5(u32 half, const logic::InputPermutation& perm);

/// log2 of the binomial coefficient C(n, k) (Section VII-C: C(171, 32) ~
/// 2^115).
double log2_binomial(unsigned n, unsigned k);

/// The Lemma 1 lower bound on exhaustive-search operations: (e(m+r)/m)^m,
/// returned as log2.
double log2_lemma_bound(unsigned m, unsigned r);

/// Minimum decoy ratio x (r = m*x) for a 2^`bits` search complexity with m
/// targets: solves (e(1+x))^m >= 2^bits (Section VII-A: x >= 16/e - 1 ~ 4.9
/// for m = 32, bits = 128).
double min_decoy_ratio(unsigned m, double bits);

}  // namespace sbm::attack
