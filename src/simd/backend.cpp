#include "simd/backend.h"

#include <atomic>

namespace sbm::simd {

namespace {

Backend resolve_usable(Backend requested) {
  return resolve_backend(requested,
                         compiled(Backend::kAvx2) && host_supports(Backend::kAvx2),
                         compiled(Backend::kAvx512) && host_supports(Backend::kAvx512));
}

// The active Backend value, resolved from CPUID on first use.
std::atomic<int>& active_slot() {
  static std::atomic<int> slot{static_cast<int>(auto_backend())};
  return slot;
}

}  // namespace

const char* backend_name(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return "scalar";
    case Backend::kAvx2:
      return "avx2";
    case Backend::kAvx512:
      return "avx512";
  }
  return "scalar";
}

bool compiled(Backend b) {
  switch (b) {
    case Backend::kScalar:
      return true;
    case Backend::kAvx2:
#if defined(SBM_SIMD_HAS_AVX2)
      return true;
#else
      return false;
#endif
    case Backend::kAvx512:
#if defined(SBM_SIMD_HAS_AVX512)
      return true;
#else
      return false;
#endif
  }
  return false;
}

bool host_supports(Backend b) {
  if (b == Backend::kScalar) return true;
#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
  if (b == Backend::kAvx2) return __builtin_cpu_supports("avx2") != 0;
  // Every feature kernels_avx512.cpp is compiled with (-mavx512f/bw/vl):
  // the compiler may emit any of them in that TU.
  return __builtin_cpu_supports("avx512f") != 0 && __builtin_cpu_supports("avx512bw") != 0 &&
         __builtin_cpu_supports("avx512vl") != 0;
#else
  return false;
#endif
}

Backend auto_backend() { return resolve_usable(Backend::kAvx512); }

Backend best_fit_backend(unsigned lanes, Backend active) {
  if (lanes <= backend_lanes(Backend::kScalar)) return Backend::kScalar;
  if (lanes <= backend_lanes(Backend::kAvx2) && active == Backend::kAvx512 &&
      compiled(Backend::kAvx2) && host_supports(Backend::kAvx2)) {
    return Backend::kAvx2;
  }
  return active;
}

Backend active_backend() {
  return static_cast<Backend>(active_slot().load(std::memory_order_acquire));
}

Backend set_active_backend(Backend requested) {
  const Backend b = resolve_usable(requested);
  active_slot().store(static_cast<int>(b), std::memory_order_release);
  return b;
}

}  // namespace sbm::simd
