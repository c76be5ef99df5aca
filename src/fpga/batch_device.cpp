#include "fpga/batch_device.h"

namespace sbm::fpga {

// The 64-lane scalar reference.  The 256-lane instantiation lives in
// src/simd/kernels_avx2.cpp, which is compiled with -mavx2.
template class BatchDeviceT<u64>;

}  // namespace sbm::fpga
