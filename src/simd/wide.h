// Type-erased access to the 256-lane batch device instantiation.
//
// The wide instantiation of BatchLutSimulatorT / BatchDeviceT must only be
// compiled inside the kernel TU that carries -mavx2 (see simd/lane_vec.h).
// Everything else — the oracle's chunk loop, the equivalence tests —
// reaches it through the virtual interface below.
// The factory returns nullptr when the requested backend's kernels are not
// compiled into this binary; the active backend (simd/backend.h) is AVX2
// only when they are, so it always gets a device.
//
// The virtual-call overhead is irrelevant: every call amortizes over up to
// 256 lanes of simulation work.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "simd/backend.h"
#include "snow3g/snow3g.h"

namespace sbm::fpga {
struct System;
}

namespace sbm::simd {

/// Wide fpga::BatchDeviceT — the oracle's batch chunk executor.
class WideDevice {
 public:
  virtual ~WideDevice() = default;
  virtual unsigned lanes() const = 0;
  virtual bool configure_lane(unsigned lane, std::span<const u8> bytes) = 0;
  virtual std::vector<std::optional<std::vector<u32>>> keystream(const snow3g::Iv& iv, size_t n,
                                                                 unsigned lanes) = 0;
};

/// Returns nullptr when `backend` is kScalar (use the concrete 64-lane
/// fpga::BatchDevice directly) or its kernels are not compiled in.
std::unique_ptr<WideDevice> make_wide_device(const fpga::System& system, Backend backend);

}  // namespace sbm::simd
