#include "simd/wide.h"

#include "simd/kernels.h"

namespace sbm::simd {

std::unique_ptr<WideDevice> make_wide_device(const fpga::System& system, Backend backend) {
  switch (backend) {
#if defined(SBM_SIMD_HAS_AVX2)
    case Backend::kAvx2:
      return make_wide_device_avx2(system);
#endif
#if defined(SBM_SIMD_HAS_AVX512)
    case Backend::kAvx512:
      return make_wide_device_avx512(system);
#endif
    default:
      return nullptr;
  }
}

}  // namespace sbm::simd
