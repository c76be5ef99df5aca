#include "attack/countermeasure.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>
#include <unordered_map>

#include "bitstream/patcher.h"

namespace sbm::attack {

using bitstream::kChunkBytes;
using bitstream::kSubVectors;
using logic::InputPermutation;

namespace {

/// Bit positions of the a6 = 0 (low, O5) half of F inside B = xi(F).
u64 lo_half_mask() {
  static const u64 mask = bitstream::xi_permute(0x00000000ffffffffull);
  return mask;
}

struct HalfPattern {
  InputPermutation perm;
  u32 half;
};


/// All permutations of the first five variables (position 5 fixed).
const std::vector<InputPermutation>& perms5() {
  static const std::vector<InputPermutation> perms = [] {
    std::vector<InputPermutation> out;
    InputPermutation p = {0, 1, 2, 3, 4, 5};
    do {
      out.push_back(p);
    } while (std::next_permutation(p.begin(), p.begin() + 5));
    return out;
  }();
  return perms;
}

std::vector<HalfMatch> scan_halves(std::span<const u8> bitstream,
                                   const std::vector<HalfPattern>& patterns,
                                   const FindLutOptions& options, size_t begin, size_t end) {
  std::vector<HalfMatch> out;
  const size_t d = options.offset_d;
  if (bitstream.size() < (kSubVectors - 1) * d + kChunkBytes) return out;
  const size_t last =
      std::min<size_t>(end, bitstream.size() - (kSubVectors - 1) * d - kChunkBytes + 1);

  const u64 lo_mask = lo_half_mask();
  const u64 hi_mask = ~lo_mask;
  // Keyed by the masked B image of each candidate half.
  std::unordered_map<u64, const HalfPattern*> lo_keys, hi_keys;
  for (const HalfPattern& p : patterns) {
    lo_keys.try_emplace(bitstream::xi_permute(u64{p.half}), &p);
    hi_keys.try_emplace(bitstream::xi_permute(u64{p.half} << 32), &p);
  }

  const auto& orders = bitstream::device_chunk_orders();
  for (size_t l = begin; l < last; ++l) {
    for (const auto& order : orders) {
      const u64 b = bitstream::assemble_b(bitstream, l, d, order);
      bool hit = false;
      if (const auto it = lo_keys.find(b & lo_mask); it != lo_keys.end()) {
        out.push_back({l, true, order, it->second->perm, it->second->half});
        hit = true;
      }
      if (const auto it2 = hi_keys.find(b & hi_mask); it2 != hi_keys.end()) {
        out.push_back({l, false, order, it2->second->perm, it2->second->half});
        hit = true;
      }
      if (hit) break;  // Mark(l): both halves reported, other orders skipped
    }
  }
  return out;
}

}  // namespace

std::vector<HalfMatch> find_lut_half(std::span<const u8> bitstream, u32 half_function,
                                     const FindLutOptions& options, size_t begin, size_t end) {
  std::vector<HalfPattern> patterns;
  for (const auto& perm : perms5()) {
    const u32 t = permute_half5(half_function, perm);
    if (std::none_of(patterns.begin(), patterns.end(),
                     [t](const HalfPattern& p) { return p.half == t; })) {
      patterns.push_back({perm, t});
    }
  }
  return scan_halves(bitstream, patterns, options, begin, end);
}

std::vector<HalfMatch> find_xor2_halves(std::span<const u8> bitstream,
                                        const FindLutOptions& options, size_t begin, size_t end) {
  // One canonical XOR2 (a1 ^ a2); permutations generate every pair.
  constexpr u32 kXorA1A2 = 0xaaaaaaaau ^ 0xccccccccu;
  return find_lut_half(bitstream, kXorA1A2, options, begin, end);
}

std::vector<HalfMatch> unique_xor2_half_sites(std::span<const u8> bitstream,
                                              const FindLutOptions& options, bool fold_vacuous) {
  const bitstream::LutSlots slots(bitstream);
  std::map<std::pair<size_t, bool>, HalfMatch> unique;
  for (const HalfMatch& h : find_xor2_halves(bitstream, options)) {
    if (!slots.contains(h.byte_index)) continue;
    const u64 stored =
        bitstream::read_lut_init(bitstream, h.byte_index, options.offset_d, h.order);
    // A vacuous table (both halves identical) is a single-output LUT the
    // half scan reports twice; fold it to one canonical entry.
    const bool vacuous =
        fold_vacuous && static_cast<u32>(stored) == static_cast<u32>(stored >> 32);
    unique.emplace(std::make_pair(h.byte_index, vacuous ? true : h.o5_half), h);
  }
  std::vector<HalfMatch> sites;
  sites.reserve(unique.size());
  for (const auto& [key, h] : unique) sites.push_back(h);
  return sites;
}

u32 permute_half5(u32 half, const InputPermutation& perm) {
  u32 out = 0;
  for (unsigned i = 0; i < 32; ++i) {
    unsigned j = 0;
    for (unsigned k = 0; k < 5; ++k) j |= bit_of(i, perm[k]) << k;
    out |= bit_of(half, j) << i;
  }
  return out;
}

double log2_binomial(unsigned n, unsigned k) {
  if (k > n) return -std::numeric_limits<double>::infinity();
  double sum = 0;
  for (unsigned i = 1; i <= k; ++i) {
    sum += std::log2(static_cast<double>(n - k + i)) - std::log2(static_cast<double>(i));
  }
  return sum;
}

double log2_lemma_bound(unsigned m, unsigned r) {
  const double e = std::exp(1.0);
  return m * std::log2(e * (m + r) / m);
}

double min_decoy_ratio(unsigned m, double bits) {
  // (e(1+x))^m >= 2^bits  <=>  x >= 2^(bits/m)/e - 1.
  const double e = std::exp(1.0);
  return std::pow(2.0, bits / m) / e - 1.0;
}

}  // namespace sbm::attack
