// Mapped 6-LUT network (the output of technology mapping) and the one scalar
// simulator, which runs a Network gate by gate or through a LUT mapping.
#pragma once

#include <span>
#include <vector>

#include "logic/truth_table.h"
#include "netlist/netlist.h"

namespace sbm::mapper {

/// One mapped LUT.  `inputs` reference netlist nodes that are either mapping
/// sources (PIs, DFF outputs, BRAM outputs, constants) or roots of other
/// LUTs; input j corresponds to truth-table variable a_{j+1}.
struct MappedLut {
  netlist::NodeId root = netlist::kNoNode;
  std::vector<netlist::NodeId> inputs;  // <= 6
  logic::TruthTable6 function;          // vacuous in variables >= inputs.size()
};

/// The mapped design.  LUTs are stored in topological order (every LUT's
/// inputs precede it).
struct LutNetwork {
  static constexpr u32 kNoLut = 0xffffffffu;

  std::vector<MappedLut> luts;
  std::vector<u32> lut_of_node;  // netlist node -> index into luts, kNoLut off roots

  size_t lut_count() const { return luts.size(); }
  /// Index into `luts` of the LUT rooted at node `n`; kNoLut when `n` is
  /// no LUT's root.
  u32 lut_at(netlist::NodeId n) const {
    return n < lut_of_node.size() ? lut_of_node[n] : kNoLut;
  }
};

/// Cycle-accurate two-valued simulator of a Network: primary inputs are
/// driven by the testbench, DFFs expose their current state as sources, all
/// combinational logic (BRAM lookups included, each block evaluated once per
/// settle) settles within the cycle, and clock() latches every DFF's D input
/// simultaneously.  Without a mapping every gate is evaluated; with one the
/// mapped LUTs are, and the gates inside their cones are skipped.  This is
/// the scalar reference every batched simulator is tested against.
class Simulator {
 public:
  /// Gate level.
  explicit Simulator(const netlist::Network& net);
  /// LUT level, each LUT computing its mapped function.
  Simulator(const netlist::Network& net, const LutNetwork& mapped);
  /// LUT level, LUT i computing functions[i] (a configured device's table).
  Simulator(const netlist::Network& net, const LutNetwork& mapped,
            std::span<const logic::TruthTable6> functions);

  void set_input(netlist::NodeId input, bool value);
  void set_input_word(const netlist::Word& w, u32 value);

  /// Settles combinational logic for the current inputs and register state.
  void settle();
  /// Latches all DFFs (call after settle()).
  void clock();
  void step() {
    settle();
    clock();
  }
  bool value(netlist::NodeId id) const { return value_[id] != 0; }
  u32 read_word(const netlist::Word& w) const;
  /// Resets all registers to 0 and clears inputs.
  void reset();

 private:
  const netlist::Network& net_;
  const LutNetwork* mapped_ = nullptr;         // null at gate level
  std::vector<logic::TruthTable6> functions_;  // per mapped LUT
  std::vector<u8> value_;                      // indexed by netlist NodeId
  std::vector<u8> state_;                      // DFF state
  std::vector<u32> bram_word_;                 // per BRAM: this settle's read
  std::vector<u8> bram_settled_;               // per BRAM: read this settle yet
};

}  // namespace sbm::mapper
