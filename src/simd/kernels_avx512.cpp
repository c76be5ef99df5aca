// AVX-512 kernel TU: the only place LaneVec<8> (512 lanes) is instantiated.
// Compiled with -mavx512f -mavx512bw -mavx512vl (see simd/CMakeLists.txt);
// the Shannon mux step in lane_vec.h collapses into single VPTERNLOGQ
// instructions at this width.
#include "simd/kernels.h"
#include "simd/wide_impl.h"

namespace sbm::simd {

std::unique_ptr<WideDevice> make_wide_device_avx512(const fpga::System& sys) {
  return std::make_unique<WideDeviceImpl<LaneVec<8>>>(sys);
}

}  // namespace sbm::simd
