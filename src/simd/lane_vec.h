// Lane-vector type for the bit-sliced simulators.
//
// A lane vector is W consecutive u64 words holding 64*W one-bit lanes: bit
// (l & 63) of word (l >> 6) is lane l.  `u64` itself is the W=1 case — the
// portable scalar reference the wider instantiations are equivalence-tested
// against — and `lane_traits` gives generic simulator code a uniform view of
// both, so BatchLutSimulatorT<LV> reads exactly like the original 64-lane code.
//
// Storage is a GCC/Clang native vector (vector_size attribute): the bitwise
// operators compile directly to full-width vector instructions in whichever
// TU instantiates them — no reliance on the autovectorizer, which produces
// poor code for small fixed-trip word loops.  There are deliberately no
// intrinsics and no feature #ifdefs: every translation unit sees the same
// tokens (ODR-clean), and the AVX2 kernel TU in src/simd/ compiles them
// with -mavx2 so the generic vector ops lower to VPAND / VPOR / VPXOR.  The
// wide instantiation LaneVec<4> is ODR-used *only* inside that kernel TU
// (everything else goes through the type-erased factory in simd/wide.h) —
// do not instantiate it in TUs compiled without -mavx2, or the linker may
// fold a scalar copy over the vectorized one.
//
// Per-lane accessors (get_lane/set_lane/or_lane) touch exactly one word, so
// lane-granular work — per-probe INIT patches, BRAM address gathers — costs
// the same per lane at any width.
#pragma once

#include <cstring>

#include "common/bits.h"

namespace sbm::simd {

template <unsigned W>
struct LaneVec {
  static_assert(W >= 2, "use plain u64 for the 64-lane case");
  static_assert((W & (W - 1)) == 0, "vector_size needs a power-of-two width");
  typedef u64 vec_type __attribute__((vector_size(8 * W)));
  vec_type v;
};

template <class LV>
struct lane_traits;

template <>
struct lane_traits<u64> {
  static constexpr unsigned kWords = 1;
  static constexpr unsigned kLanes = 64;
  static constexpr u64& word(u64& v, unsigned) { return v; }
  static constexpr const u64& word(const u64& v, unsigned) { return v; }
};

template <unsigned W>
struct lane_traits<LaneVec<W>> {
  static constexpr unsigned kWords = W;
  static constexpr unsigned kLanes = 64 * W;
  // Native vector subscripts are rvalues on older compilers; alias the
  // storage as words instead.  LaneVec is trivially-copyable plain storage,
  // so the cast is the supported way to address one element in place.
  static u64& word(LaneVec<W>& v, unsigned i) { return reinterpret_cast<u64*>(&v.v)[i]; }
  static const u64& word(const LaneVec<W>& v, unsigned i) {
    return reinterpret_cast<const u64*>(&v.v)[i];
  }
};

template <class LV>
inline constexpr unsigned lane_count = lane_traits<LV>::kLanes;

template <unsigned W>
inline LaneVec<W> operator&(const LaneVec<W>& a, const LaneVec<W>& b) {
  return LaneVec<W>{a.v & b.v};
}

template <unsigned W>
inline LaneVec<W> operator|(const LaneVec<W>& a, const LaneVec<W>& b) {
  return LaneVec<W>{a.v | b.v};
}

template <unsigned W>
inline LaneVec<W> operator^(const LaneVec<W>& a, const LaneVec<W>& b) {
  return LaneVec<W>{a.v ^ b.v};
}

template <unsigned W>
inline LaneVec<W> operator~(const LaneVec<W>& a) {
  return LaneVec<W>{~a.v};
}

/// (a & ~x) | (b & x): the Shannon mux step of the LUT settle loop.
template <unsigned W>
inline LaneVec<W> mux(const LaneVec<W>& a, const LaneVec<W>& b, const LaneVec<W>& x) {
  return LaneVec<W>{(a.v & ~x.v) | (b.v & x.v)};
}

constexpr u64 mux(u64 a, u64 b, u64 x) { return (a & ~x) | (b & x); }

/// mux with lane-uniform table words: a and b hold the same value in every
/// lane (a shared golden truth-table entry), so they stay 8-byte scalars
/// broadcast into registers — the leaf level of the mux tree then reads 16
/// bytes per entry pair instead of 2*sizeof(LV).
template <unsigned W>
inline LaneVec<W> mux_word(u64 a, u64 b, const LaneVec<W>& x) {
  return LaneVec<W>{(a & ~x.v) | (b & x.v)};
}

constexpr u64 mux_word(u64 a, u64 b, u64 x) { return (a & ~x) | (b & x); }

template <class LV>
inline LV zero() {
  return LV{};
}

template <class LV>
inline LV ones() {
  LV r{};
  for (unsigned i = 0; i < lane_traits<LV>::kWords; ++i) lane_traits<LV>::word(r, i) = ~u64{0};
  return r;
}

template <class LV>
inline LV broadcast(bool v) {
  return v ? ones<LV>() : zero<LV>();
}

/// Replicates one 64-lane word into every word of the vector (used to widen
/// the lane-transposed golden tables, whose words are all-ones or all-zero).
template <class LV>
inline LV broadcast_word(u64 w) {
  LV r{};
  for (unsigned i = 0; i < lane_traits<LV>::kWords; ++i) lane_traits<LV>::word(r, i) = w;
  return r;
}

template <class LV>
inline bool get_lane(const LV& v, unsigned lane) {
  return ((lane_traits<LV>::word(v, lane >> 6) >> (lane & 63)) & 1) != 0;
}

template <class LV>
inline void set_lane(LV& v, unsigned lane, bool b) {
  u64& w = lane_traits<LV>::word(v, lane >> 6);
  const u64 mask = u64{1} << (lane & 63);
  w = b ? (w | mask) : (w & ~mask);
}

template <class LV>
inline void or_lane(LV& v, unsigned lane) {
  lane_traits<LV>::word(v, lane >> 6) |= u64{1} << (lane & 63);
}

}  // namespace sbm::simd
