// Template adapter behind the simd/wide.h interface.
//
// Included ONLY by the kernel TU (kernels_avx2.cpp): instantiating this
// template pulls in the full wide simulator bodies, which must be compiled
// with -mavx2.
#pragma once

#include "fpga/batch_device.h"
#include "fpga/system.h"
#include "simd/wide.h"

namespace sbm::simd {

template <class LV>
class WideDeviceImpl final : public WideDevice {
 public:
  explicit WideDeviceImpl(const fpga::System& sys)
      : dev_(sys.design, sys.placed, sys.golden.layout, *sys.snapshot) {}
  unsigned lanes() const override { return fpga::BatchDeviceT<LV>::kLanes; }
  bool configure_lane(unsigned lane, std::span<const u8> bytes) override {
    return dev_.configure_lane(lane, bytes);
  }
  std::vector<std::optional<std::vector<u32>>> keystream(const snow3g::Iv& iv, size_t n,
                                                         unsigned lanes) override {
    return dev_.keystream(iv, n, lanes);
  }

 private:
  fpga::BatchDeviceT<LV> dev_;
};

}  // namespace sbm::simd
