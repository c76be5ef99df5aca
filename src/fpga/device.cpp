#include "fpga/device.h"

#include <stdexcept>

#include "fpga/snapshot.h"
#include "mapper/lut_network.h"

namespace sbm::fpga {

Device::Device(const netlist::Snow3gDesign& design, const mapper::PlacedDesign& placed,
               const bitstream::Layout& layout)
    : design_(design), placed_(placed), layout_(layout) {}

bool Device::configure(std::span<const u8> bytes) {
  functions_.resize(placed_.mapped.lut_count());
  error_ = decode_configuration(
      placed_, layout_, bytes, key_,
      [&](size_t lut, const logic::TruthTable6& f) { functions_[lut] = f; });
  configured_ = error_.empty();
  return configured_;
}

bool Device::configure_encrypted(std::span<const u8> bytes, const crypto::Aes256Key& k_e) {
  const bitstream::UnprotectResult res = bitstream::unprotect_bitstream(bytes, k_e);
  if (!res.ok) {
    configured_ = false;
    error_ = res.error;
    return false;
  }
  return configure(res.plain);
}

std::vector<u32> Device::keystream(const snow3g::Iv& iv, size_t n) {
  if (!configured_) throw std::logic_error("device not configured");
  mapper::Simulator sim(design_.net, placed_.mapped, functions_);
  for (size_t i = 0; i < 4; ++i) {
    sim.set_input_word(design_.key[i], key_[i]);
    sim.set_input_word(design_.iv[i], iv[i]);
  }
  std::vector<u32> z;
  z.reserve(n);
  netlist::drive_keystream(design_, sim, n, [&] { z.push_back(sim.read_word(design_.z)); });
  return z;
}

}  // namespace sbm::fpga
