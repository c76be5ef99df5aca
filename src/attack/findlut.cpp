#include "attack/findlut.h"

#include <algorithm>

#include "attack/scan_engine.h"

namespace sbm::attack {

using bitstream::kChunkBytes;
using bitstream::kSubVectors;
using logic::TruthTable6;

const std::vector<std::array<u8, 4>>& all_chunk_orders() {
  static const std::vector<std::array<u8, 4>> orders = [] {
    std::vector<std::array<u8, 4>> out;
    std::array<u8, 4> p = {0, 1, 2, 3};
    do {
      out.push_back(p);
    } while (std::next_permutation(p.begin(), p.end()));
    return out;
  }();
  return orders;
}

namespace {

std::span<const std::array<u8, 4>> orders_for(const FindLutOptions& options) {
  if (options.try_all_orders) return all_chunk_orders();
  return bitstream::device_chunk_orders();
}

}  // namespace

std::vector<LutMatch> find_lut(std::span<const u8> bitstream, TruthTable6 f,
                               const FindLutOptions& options) {
  const auto index = shared_pattern_index({&f, 1}, options);
  auto per_candidate = scan_all(bitstream, *index, options);
  return std::move(per_candidate[0]);
}

std::vector<LutMatch> find_lut_naive(std::span<const u8> bitstream, TruthTable6 f,
                                     const FindLutOptions& options) {
  std::vector<LutMatch> matches;
  const size_t d = options.offset_d;
  if (bitstream.size() < (kSubVectors - 1) * d + kChunkBytes) return matches;
  const auto orders = orders_for(options);
  const size_t last = bitstream.size() - (kSubVectors - 1) * d - kChunkBytes;

  std::vector<bool> marked(bitstream.size(), false);
  // for each (i1..ik) in P_k:
  for (const auto& perm : logic::all_permutations6()) {
    const TruthTable6 table = f.permuted(perm);           // GETTRUTHTABLE
    const u64 b = bitstream::xi_permute(table.bits());    // B = xi(F)

    for (size_t l = 0; l <= last; ++l) {
      if (marked[l]) continue;
      for (const auto& order : orders) {
        if (bitstream::assemble_b(bitstream, l, d, order) != b) continue;
        matches.push_back({l, table, perm, order});
        marked[l] = true;  // Mark(l)
        break;
      }
    }
  }
  std::sort(matches.begin(), matches.end(),
            [](const LutMatch& a, const LutMatch& b) { return a.byte_index < b.byte_index; });
  return matches;
}

}  // namespace sbm::attack
