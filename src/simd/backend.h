// SIMD backend selection for the batch oracle.
//
// Two backends cover the bit-sliced simulators: the portable scalar u64
// reference (64 lanes) and AVX2 (256 lanes).  The active backend is fixed
// once per process from CPUID: AVX2 when its kernel TU was compiled in and
// the host supports it, else scalar.  There is no override — a chunk's lane
// count alone picks its device (best_fit_backend), so callers choose a
// device by batch width.  Results are bit-identical across backends — the
// choice is pure wall-clock (tests/test_simd.cpp enforces this).
#pragma once

#include "common/bits.h"

namespace sbm::simd {

enum class Backend : u8 { kScalar = 0, kAvx2 = 1 };

/// Widest lane count any backend can offer; the oracle clamps its batch
/// width to the active backend's lane count.
inline constexpr unsigned kMaxLanes = 256;

/// Lanes per batch chunk under `b` (64 / 256).
constexpr unsigned backend_lanes(Backend b) { return b == Backend::kAvx2 ? 256u : 64u; }

const char* backend_name(Backend b);

/// The device a chunk of `lanes` runs on: the scalar u64 device when one
/// word holds it, else `active`.
constexpr Backend best_fit_backend(unsigned lanes, Backend active) {
  return lanes <= backend_lanes(Backend::kScalar) ? Backend::kScalar : active;
}

/// The backend the oracle batches with, from CPUID on first use: AVX2 when
/// compiled in and supported by the host, else scalar.
Backend active_backend();

}  // namespace sbm::simd
