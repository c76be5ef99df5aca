// End-to-end system bundle: design -> mapping -> placement -> bitstream ->
// device, with the golden bitstream and the planted secrets kept together.
// This is the "victim product" the examples, tests and benches instantiate.
#pragma once

#include <memory>

#include "bitstream/assembler.h"
#include "fpga/batch_device.h"
#include "fpga/device.h"
#include "fpga/snapshot.h"
#include "mapper/mapper.h"
#include "mapper/packing.h"
#include "netlist/snow3g_design.h"

namespace sbm::fpga {

struct SystemOptions {
  bool protected_variant = false;       // Section VII countermeasure
  /// Response-equalized countermeasure: three kept copies of each target
  /// XOR recombined through an unkept 3-input XOR, so every copy shares one
  /// fault-response class.  Implies protected_variant.
  bool equalized = false;
  snow3g::Key key = {0x2bd6459f, 0x82c5b300, 0x952c4910, 0x4881ff48};
  mapper::MapperOptions mapper;
  mapper::PackingOptions packing;
};

/// A fully built victim: netlist, mapped/placed design, golden bitstream.
struct System {
  netlist::Snow3gDesign design;
  mapper::LutNetwork mapped;
  mapper::PlacedDesign placed;
  bitstream::AssembledBitstream golden;
  SystemOptions options;

  /// Golden-configuration snapshot behind the batch devices' incremental
  /// reconfiguration and bit-sliced simulator (built once per system).
  std::shared_ptr<const DeviceSnapshot> snapshot;

  /// Fresh scalar reference device bound to this system's geometry (not yet
  /// configured); it full-parses every bitstream.
  Device make_device() const { return Device(design, placed, golden.layout); }

  /// Fresh 64-lane batch device (requires the snapshot, always built).
  BatchDevice make_batch_device() const {
    return BatchDevice(design, placed, golden.layout, *snapshot);
  }

  /// Ground truth for evaluating the attack: byte indexes (FINDLUT's l) of
  /// every LUT whose cone contains the target node v[bit], split by path.
  struct TruthLut {
    size_t byte_index;
    unsigned bit;       // which of the 32 XORs of v
    bool on_z_path;     // LUT1 vs LUT2/LUT3 role
    size_t lut_index;   // into mapped.luts
  };
  std::vector<TruthLut> target_luts() const;

  /// Ground truth for evaluating the cracker: for each target bit, the byte
  /// indexes of the LUTs that *are* the bit's source — the single kept XOR2
  /// implementing v[bit] in the plain protected variant, or the three kept
  /// copies in the equalized variant.  Only sensible on protected systems
  /// (the cracker's candidate model assumes trivially-cut XOR2 sites).
  std::vector<std::vector<size_t>> crack_truth() const;
};

System build_system(const SystemOptions& options = {});

}  // namespace sbm::fpga
