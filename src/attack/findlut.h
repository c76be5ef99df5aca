// FINDLUT (Algorithm 1): locate every k-LUT implementing a given Boolean
// function — and, implicitly, its whole P equivalence class — in a raw
// bitstream.
//
// Two implementations are provided:
//   * find_lut_naive: a literal transcription of the paper's pseudo-code
//     (outer loop over input permutations, inner scan over byte positions
//     and sub-vector orders).  Used for small inputs and as the reference
//     in differential tests.
//   * find_lut: the production version, a single-candidate view of the
//     one-pass multi-pattern engine (attack/scan_engine.h): patterns are
//     compiled once into a 16-bit first-chunk bucket index (cached across
//     calls) and each byte position does one bucket probe.  Same byte
//     positions, linear in |B|.
//
// The two agree on the set of byte positions and differ only in which
// representation they report where several (permutation, order) pairs
// store the same bytes at l.  find_lut_naive keeps the first permutation,
// then the first order; find_lut keeps the first order, then the first
// permutation producing that table.
#pragma once

#include <span>
#include <vector>

#include "bitstream/assembler.h"
#include "bitstream/lut_coding.h"
#include "logic/truth_table.h"

namespace sbm::attack {

struct FindLutOptions {
  /// Sub-vector offset d in bytes.  Defaults to this device family's frame
  /// stride; Algorithm 1 treats it as a free parameter.
  size_t offset_d = bitstream::Layout::chunk_stride();
  /// Sub-vector orders to try.  Default: the two orders the device family
  /// uses (SLICEL, SLICEM).  Setting try_all_orders explores all r! = 24
  /// permutations exactly as the pseudo-code allows.
  bool try_all_orders = false;
};

struct LutMatch {
  size_t byte_index = 0;             // the paper's l
  logic::TruthTable6 matched_table;  // truth table stored at l (= f permuted)
  logic::InputPermutation perm{};    // input order (i1..ik) that matched
  std::array<u8, 4> order{};         // sub-vector order that matched
  bool operator==(const LutMatch&) const = default;
};

std::vector<LutMatch> find_lut(std::span<const u8> bitstream, logic::TruthTable6 f,
                               const FindLutOptions& options = {});

std::vector<LutMatch> find_lut_naive(std::span<const u8> bitstream, logic::TruthTable6 f,
                                     const FindLutOptions& options = {});

/// All sub-vector orders (r! = 24) in a stable order.
const std::vector<std::array<u8, 4>>& all_chunk_orders();

}  // namespace sbm::attack
