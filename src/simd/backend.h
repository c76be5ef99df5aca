// Runtime-dispatched SIMD backend selection for the batch oracle.
//
// Three backends cover the bit-sliced simulators: the portable scalar u64
// reference (64 lanes), AVX2 (256 lanes) and AVX-512 (512 lanes).  A backend
// is *usable* when its kernel TU was compiled in (every one the compiler
// accepts is) AND the host CPU reports the feature; resolution always falls
// back to the widest usable backend at or below the request, bottoming out
// at scalar, which is always usable.  Results are bit-identical across
// backends — the choice is pure wall-clock (tests/test_simd.cpp enforces
// this).
//
// The process-wide active backend is the widest usable one (CPUID), and the
// oracle narrows it per chunk with best_fit_backend.  There is no user
// override; set_active_backend / ScopedBackend exist so tests and the
// per-backend bench entries can pin a backend in-process.
#pragma once

#include "common/bits.h"

namespace sbm::simd {

enum class Backend : u8 { kScalar = 0, kAvx2 = 1, kAvx512 = 2 };

/// Widest lane count any backend can offer; the batch-width knobs accept
/// 1..kMaxLanes and the oracle clamps to the active backend's width.
inline constexpr unsigned kMaxLanes = 512;

/// Lanes per batch chunk under `b` (64 / 256 / 512).
constexpr unsigned backend_lanes(Backend b) {
  return b == Backend::kAvx512 ? 512u : b == Backend::kAvx2 ? 256u : 64u;
}

const char* backend_name(Backend b);

/// True when the backend's kernel TU was compiled into this binary.
bool compiled(Backend b);
/// True when the host CPU supports the backend's instruction set.
bool host_supports(Backend b);

/// Pure resolution rule (unit-testable without CPUID): the widest backend at
/// or below `requested` whose availability flag is set; scalar always wins
/// when nothing wider is available.
constexpr Backend resolve_backend(Backend requested, bool avx2_usable, bool avx512_usable) {
  if (requested == Backend::kAvx512 && avx512_usable) return Backend::kAvx512;
  if (requested != Backend::kScalar && avx2_usable) return Backend::kAvx2;
  return Backend::kScalar;
}

/// The "auto" rule: widest compiled-in backend the host supports.
Backend auto_backend();

/// Narrowest usable backend at or below `active` whose lane count covers
/// `lanes`.  The oracle picks this per chunk so a ragged 100-lane tail runs
/// on a 256-lane device instead of paying for 512 mostly-empty lanes;
/// full-width chunks still get the widest device.
Backend best_fit_backend(unsigned lanes, Backend active);

/// The process-wide backend the oracle batches with: auto_backend() unless
/// set_active_backend pinned another.
Backend active_backend();

/// Forces the active backend to the best usable backend at or below
/// `requested` and returns what was actually selected (graceful fallback on
/// hosts or builds without the requested instruction set).
Backend set_active_backend(Backend requested);

/// Scoped override for tests and per-entry bench runs.
class ScopedBackend {
 public:
  explicit ScopedBackend(Backend requested)
      : saved_(active_backend()), actual_(set_active_backend(requested)) {}
  ~ScopedBackend() { set_active_backend(saved_); }
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;
  /// The backend actually selected (== requested unless it fell back).
  Backend actual() const { return actual_; }

 private:
  Backend saved_;
  Backend actual_;
};

}  // namespace sbm::simd
