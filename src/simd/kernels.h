// Internal: the factory entry point implemented by the AVX2 kernel TU.
// Declared unconditionally; kernels_avx2.cpp is built only when the compiler
// accepts -mavx2 (src/simd/CMakeLists.txt), and wide.cpp references it behind
// the matching SBM_SIMD_HAS_AVX2 macro.
#pragma once

#include "simd/wide.h"

namespace sbm::simd {

std::unique_ptr<WideDevice> make_wide_device_avx2(const fpga::System& sys);

}  // namespace sbm::simd
