#include "simd/wide.h"

#include "simd/kernels.h"

namespace sbm::simd {

std::unique_ptr<WideDevice> make_wide_device(const fpga::System& system, Backend backend) {
#if defined(SBM_SIMD_HAS_AVX2)
  if (backend == Backend::kAvx2) return make_wide_device_avx2(system);
#else
  (void)system;
  (void)backend;
#endif
  return nullptr;
}

}  // namespace sbm::simd
