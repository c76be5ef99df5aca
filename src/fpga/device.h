// The victim FPGA: configures itself from a bitstream and generates
// keystream words on demand.
//
// Routing and placement are fixed (they are properties of the device's
// configured interconnect that our model keeps static); the bitstream
// carries the LUT INIT contents and the embedded cipher key.  Every byte the
// attacker flips in the bitstream therefore lands exactly where it would on
// the real part: in some LUT's truth table (or in the CRC words, in which
// case configuration aborts unless the check was disabled or recomputed).
//
// This is the scalar reference device: configure() re-derives every LUT
// from the bytes it is given, the way the part's configuration logic does,
// and keystream() runs the scalar simulator.  Incremental configuration
// lives only in the batch devices (fpga/batch_device.h), which the
// width-1 runs check against this one.
#pragma once

#include <string>
#include <vector>

#include "bitstream/assembler.h"
#include "bitstream/secure.h"
#include "mapper/packing.h"
#include "netlist/snow3g_design.h"
#include "snow3g/snow3g.h"

namespace sbm::fpga {

class Device {
 public:
  Device(const netlist::Snow3gDesign& design, const mapper::PlacedDesign& placed,
         const bitstream::Layout& layout);

  /// Loads a plain bitstream.  Returns false (see error()) on malformed
  /// packets, IDCODE mismatch or CRC failure.
  bool configure(std::span<const u8> bytes);

  /// Loads an encrypted bitstream: decrypt with K_E, verify HMAC, configure.
  bool configure_encrypted(std::span<const u8> bytes, const crypto::Aes256Key& k_e);

  const std::string& error() const { return error_; }
  bool configured() const { return configured_; }

  /// Runs the cipher: load gamma(K_bitstream, iv), 32 init rounds, one
  /// discarded clock, then n keystream words.
  std::vector<u32> keystream(const snow3g::Iv& iv, size_t n);

  /// The key the device loaded from the bitstream (test instrumentation; a
  /// real attacker has no such port).
  const snow3g::Key& loaded_key() const { return key_; }

 private:
  const netlist::Snow3gDesign& design_;
  const mapper::PlacedDesign& placed_;
  bitstream::Layout layout_;
  std::vector<logic::TruthTable6> functions_;  // per mapped LUT, from the last configure
  snow3g::Key key_{};
  bool configured_ = false;
  std::string error_;
};

}  // namespace sbm::fpga
