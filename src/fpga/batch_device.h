// Lane-parallel batch view of the victim FPGA: up to kLanes independent
// candidate bitstreams configure the lanes of one bit-sliced simulator, then
// a single simulation run produces every lane's keystream.
//
// Each lane is configured exactly like a scalar Device — the same parse /
// CRC semantics, the same per-site INIT decode — but configuration starts
// from a parent image of the snapshot (fpga/snapshot.h), chosen once per
// device by its first lane, and only re-decodes the sites where a
// candidate's frame bytes differ from that parent's.  Candidates the fast
// path cannot prove safe go through the full parser for that lane alone;
// rejected lanes simply yield no keystream.  Lane keys may differ (a probe
// can patch the embedded key); the IV is broadcast, matching the oracle's
// fixed host IV.
//
// BatchDevice = BatchDeviceT<u64> is the 64-lane scalar reference; the
// 256-lane instantiation is confined to the src/simd/ kernel TU and reached
// through simd::make_wide_device (see simd/wide.h).
#pragma once

#include <array>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "fpga/snapshot.h"

namespace sbm::fpga {

template <class LV>
class BatchDeviceT {
 public:
  static constexpr unsigned kLanes = mapper::BatchLutSimulatorT<LV>::kLanes;

  BatchDeviceT(const netlist::Snow3gDesign& design, const mapper::PlacedDesign& placed,
               const bitstream::Layout& layout, const DeviceSnapshot& snapshot);

  /// Configures lane `lane` from a candidate bitstream.  Returns false when
  /// the device rejects it (the lane then yields nullopt from keystream()).
  bool configure_lane(unsigned lane, std::span<const u8> bytes);

  /// Runs the cipher once for all configured lanes; element i is lane i's
  /// keystream (nullopt for rejected lanes).  `lanes` is the number of
  /// lanes the caller configured (accepted or not).
  std::vector<std::optional<std::vector<u32>>> keystream(const snow3g::Iv& iv, size_t n,
                                                         unsigned lanes);

 private:
  const netlist::Snow3gDesign& design_;
  const mapper::PlacedDesign& placed_;
  bitstream::Layout layout_;
  const DeviceSnapshot& snap_;
  mapper::BatchLutSimulatorT<LV> sim_;
  std::shared_ptr<const ParentImage> base_;  // chosen by the first configure_lane
  std::array<snow3g::Key, kLanes> keys_{};
  LV ok_mask_{};
};

/// The 64-lane scalar reference instantiation (defined in batch_device.cpp).
using BatchDevice = BatchDeviceT<u64>;
extern template class BatchDeviceT<u64>;

template <class LV>
BatchDeviceT<LV>::BatchDeviceT(const netlist::Snow3gDesign& design,
                               const mapper::PlacedDesign& placed,
                               const bitstream::Layout& layout, const DeviceSnapshot& snapshot)
    : design_(design), placed_(placed), layout_(layout), snap_(snapshot), sim_(snapshot.tape) {}

template <class LV>
bool BatchDeviceT<LV>::configure_lane(unsigned lane, std::span<const u8> bytes) {
  if (base_ == nullptr) {
    // The first lane picks the parent every lane of this device is diffed
    // against; a chunk's probes share their base image, so its neighbours
    // sit a site or two away from the same parent.
    base_ = snap_.base_for(placed_, bytes);
    sim_.set_tables(base_->tables);
  }
  if (const auto diff = diff_against(snap_, *base_, bytes)) {
    for (const auto& [site, init] : diff->sites) {
      for_each_site_lut(placed_, site, init, [&](size_t lut, const logic::TruthTable6& f) {
        sim_.set_lut_table(lut, lane, f.bits());
      });
    }
    keys_[lane] = diff->key;
    simd::set_lane(ok_mask_, lane, true);
    return true;
  }

  // Full-parse fallback: Device::configure's decoder.  The lane starts from
  // the base's tables, so only functions that differ from the base's need a
  // lane write.
  const bool ok = decode_configuration(placed_, layout_, bytes, keys_[lane],
                                       [&](size_t lut, const logic::TruthTable6& f) {
                                         if (f != base_->functions[lut]) {
                                           sim_.set_lut_table(lut, lane, f.bits());
                                         }
                                       }).empty();
  if (ok) snap_.note_sites_decoded(placed_.phys.size());
  simd::set_lane(ok_mask_, lane, ok);
  return ok;
}

template <class LV>
std::vector<std::optional<std::vector<u32>>> BatchDeviceT<LV>::keystream(const snow3g::Iv& iv,
                                                                         size_t n,
                                                                         unsigned lanes) {
  // Rejected lanes run on the base's tables; their results are discarded.
  sim_.reset();
  for (unsigned lane = 0; lane < lanes; ++lane) {
    for (size_t i = 0; i < 4; ++i) sim_.set_input_word_lane(design_.key[i], lane, keys_[lane][i]);
  }
  for (size_t i = 0; i < 4; ++i) sim_.set_input_word(design_.iv[i], iv[i]);
  std::vector<std::optional<std::vector<u32>>> out(lanes);
  for (unsigned lane = 0; lane < lanes; ++lane) {
    if (simd::get_lane(ok_mask_, lane)) {
      out[lane].emplace();
      out[lane]->reserve(n);
    }
  }
  netlist::drive_keystream(design_, sim_, n, [&] {
    for (unsigned lane = 0; lane < lanes; ++lane) {
      if (out[lane]) out[lane]->push_back(sim_.read_word_lane(design_.z, lane));
    }
  });
  return out;
}

}  // namespace sbm::fpga
