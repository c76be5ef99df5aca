// Internal: per-backend factory entry points implemented by the kernel TUs.
// Declared unconditionally; only the TUs the compiler accepts are built
// (src/simd/CMakeLists.txt), and wide.cpp references each one behind the
// matching SBM_SIMD_HAS_* macro.
#pragma once

#include "simd/wide.h"

namespace sbm::simd {

std::unique_ptr<WideDevice> make_wide_device_avx2(const fpga::System& sys);
std::unique_ptr<WideDevice> make_wide_device_avx512(const fpga::System& sys);

}  // namespace sbm::simd
