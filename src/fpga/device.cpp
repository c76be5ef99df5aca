#include "fpga/device.h"

#include <stdexcept>

#include "fpga/snapshot.h"
#include "mapper/lut_network.h"

namespace sbm::fpga {

Device::Device(const netlist::Snow3gDesign& design, const mapper::PlacedDesign& placed,
               const bitstream::Layout& layout, const DeviceSnapshot* snapshot)
    : design_(design), placed_(placed), layout_(layout), snapshot_(snapshot) {}

bool Device::configure(std::span<const u8> bytes) {
  configured_ = false;
  error_.clear();

  if (snapshot_) {
    const std::shared_ptr<const ParentImage> base = snapshot_->base_for(placed_, bytes);
    if (const auto diff = diff_against(*snapshot_, *base, bytes)) {
      configured_luts_ = base->luts;
      for (const auto& [site, init] : diff->sites) {
        for_each_site_lut(placed_, site, init, [&](size_t lut, const logic::TruthTable6& f) {
          configured_luts_.luts[lut].function = f;
        });
      }
      key_ = diff->key;
      configured_ = true;
      return true;
    }
  }

  // Full parse: rebuild every logical function from the (possibly
  // modified) frame data.
  configured_luts_ = placed_.mapped;
  error_ = decode_configuration(placed_, layout_, bytes, key_,
                                [&](size_t lut, const logic::TruthTable6& f) {
                                  configured_luts_.luts[lut].function = f;
                                });
  if (!error_.empty()) return false;
  if (snapshot_) snapshot_->note_sites_decoded(placed_.phys.size());
  configured_ = true;
  return true;
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
  mapper::LutSimulator sim(design_.net, configured_luts_);
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
