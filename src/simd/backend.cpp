#include "simd/backend.h"

namespace sbm::simd {

namespace {

/// True when kernels_avx2.cpp was compiled into this binary.
constexpr bool avx2_compiled() {
#if defined(SBM_SIMD_HAS_AVX2)
  return true;
#else
  return false;
#endif
}

/// True when the host CPU supports AVX2.
bool host_supports_avx2() {
#if (defined(__x86_64__) || defined(__i386__)) && (defined(__GNUC__) || defined(__clang__))
  return __builtin_cpu_supports("avx2") != 0;
#else
  return false;
#endif
}

}  // namespace

const char* backend_name(Backend b) { return b == Backend::kAvx2 ? "avx2" : "scalar"; }

Backend active_backend() {
  static const Backend active =
      avx2_compiled() && host_supports_avx2() ? Backend::kAvx2 : Backend::kScalar;
  return active;
}

}  // namespace sbm::simd
