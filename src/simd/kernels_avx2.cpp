// AVX2 kernel TU: the only place LaneVec<4> (256 lanes) is instantiated.
// Compiled with -mavx2 (see simd/CMakeLists.txt), which turns the
// lane_vec.h word loops into 256-bit VPAND/VPOR/VPXOR sequences.
#include "simd/kernels.h"
#include "simd/wide_impl.h"

namespace sbm::simd {

std::unique_ptr<WideDevice> make_wide_device_avx2(const fpga::System& sys) {
  return std::make_unique<WideDeviceImpl<LaneVec<4>>>(sys);
}

}  // namespace sbm::simd
