#include "fpga/device.h"

#include <stdexcept>

#include "bitstream/parser.h"
#include "bitstream/patcher.h"
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

  const bitstream::ParseResult parsed = bitstream::parse_bitstream(bytes);
  if (!parsed.ok) {
    error_ = parsed.error;
    return false;
  }
  if (parsed.frame_data.size() < layout_.frame_count * bitstream::kFrameBytes) {
    error_ = "frame data too short for device geometry";
    return false;
  }

  // Configure LUTs: read every site's INIT out of the (possibly modified)
  // frame data and rebuild the logical functions.
  configured_luts_ = placed_.mapped;
  for (size_t site = 0; site < placed_.phys.size(); ++site) {
    const size_t l = layout_.site_byte_index(site) - layout_.fdri_byte_offset;
    const auto order = bitstream::chunk_order(placed_.slice_of(site));
    const u64 init = bitstream::read_lut_init(parsed.frame_data, l, bitstream::Layout::chunk_stride(),
                                              order);
    for_each_site_lut(placed_, site, init, [&](size_t lut, const logic::TruthTable6& f) {
      configured_luts_.luts[lut].function = f;
    });
  }
  if (snapshot_) snapshot_->note_sites_decoded(placed_.phys.size());

  // Load the embedded key.
  const size_t key_off = layout_.key_byte_index() - layout_.fdri_byte_offset;
  for (int w = 0; w < 4; ++w) {
    key_[static_cast<size_t>(w)] = load_be32(parsed.frame_data.data() + key_off + 4 * w);
  }
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
  for (int i = 0; i < 4; ++i) {
    sim.set_input_word(design_.key[static_cast<size_t>(i)], key_[static_cast<size_t>(i)]);
    sim.set_input_word(design_.iv[static_cast<size_t>(i)], iv[static_cast<size_t>(i)]);
  }
  auto drive = [&](bool load, bool init, bool gen) {
    sim.set_input(design_.load, load);
    sim.set_input(design_.init, init);
    sim.set_input(design_.gen, gen);
  };
  // One warm-up cycle lets the gamma pipeline registers capture K/IV.
  drive(false, false, false);
  sim.step();
  drive(true, false, false);
  sim.step();
  for (int round = 0; round < 32; ++round) {
    drive(false, true, false);
    sim.step();
  }
  drive(false, false, true);
  sim.step();  // discarded clock
  std::vector<u32> z;
  z.reserve(n);
  for (size_t t = 0; t < n; ++t) {
    drive(false, false, true);
    sim.settle();
    z.push_back(sim.read_word(design_.z));
    sim.clock();
  }
  return z;
}

}  // namespace sbm::fpga
