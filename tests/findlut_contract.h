// The FINDLUT output contract, checked match by match: no second scan
// implementation, only the bytes each reported match points at.  Shared by
// tests/test_scan_engine.cpp and bench/bench_findlut_scaling.cpp.
#pragma once

#include <algorithm>
#include <set>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "attack/findlut.h"

namespace sbm::attack {

/// The byte positions l of a match list: what Algorithm 1 (find_lut_naive)
/// and the engine must agree on.
inline std::set<size_t> match_positions(const std::vector<LutMatch>& matches) {
  std::set<size_t> out;
  for (const auto& m : matches) out.insert(m.byte_index);
  return out;
}

/// Returns "" when every match of f's scan satisfies the contract, else a
/// description of the first violation:
///   1. the bytes at (l, d) under the match's order assemble to
///      xi(matched_table);
///   2. matched_table == f.permuted(perm), and perm is the first permutation
///      in all_permutations6() that gives that table;
///   3. no earlier order in the scanned order list puts f's P class at l;
///   4. the byte positions are ascending and unique.
/// With Algorithm 1's position set (find_lut_naive) this pins every field of
/// the engine's output.
inline std::string findlut_contract_violation(std::span<const u8> bytes, logic::TruthTable6 f,
                                              const std::vector<LutMatch>& matches,
                                              const FindLutOptions& options) {
  // f's P class: each distinct permuted table -> its first permutation.
  const auto& perms = logic::all_permutations6();
  std::unordered_map<u64, size_t> first_perm;
  for (size_t p = 0; p < perms.size(); ++p) first_perm.try_emplace(f.permuted(perms[p]).bits(), p);
  const std::span<const std::array<u8, 4>> orders =
      options.try_all_orders ? std::span<const std::array<u8, 4>>(all_chunk_orders())
                             : std::span<const std::array<u8, 4>>(bitstream::device_chunk_orders());
  const size_t d = options.offset_d;

  for (size_t i = 0; i < matches.size(); ++i) {
    const LutMatch& m = matches[i];
    const size_t l = m.byte_index;
    const std::string at = "match at l=" + std::to_string(l) + ": ";
    if (i > 0 && l <= matches[i - 1].byte_index) return at + "positions not ascending and unique";
    if (l + (bitstream::kSubVectors - 1) * d + bitstream::kChunkBytes > bytes.size()) {
      return at + "window runs past the bitstream";
    }
    const auto order = std::find(orders.begin(), orders.end(), m.order);
    if (order == orders.end()) return at + "order is not one the scan tries";
    const u64 stored = bitstream::assemble_b(bytes, l, d, m.order);
    if (stored != bitstream::xi_permute(m.matched_table.bits())) {
      return at + "stored bytes do not assemble to xi(matched_table)";
    }
    if (f.permuted(m.perm) != m.matched_table) {
      return at + "matched_table is not f permuted by perm";
    }
    if (m.perm != perms[first_perm.at(m.matched_table.bits())]) {
      return at + "perm is not the first permutation giving matched_table";
    }
    for (auto o = orders.begin(); o != order; ++o) {
      if (first_perm.count(bitstream::xi_inverse(bitstream::assemble_b(bytes, l, d, *o)))) {
        return at + "an earlier order already puts f's P class at l";
      }
    }
  }
  return "";
}

}  // namespace sbm::attack
