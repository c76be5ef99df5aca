#include "mapper/lut_network.h"

#include <algorithm>

namespace sbm::mapper {

using netlist::Node;
using netlist::NodeId;
using netlist::NodeKind;

namespace {

u8 gate_value(const Node& n, const std::vector<u8>& v) {
  switch (n.kind) {
    case NodeKind::kAnd:
      return v[n.fanin[0]] & v[n.fanin[1]];
    case NodeKind::kOr:
      return v[n.fanin[0]] | v[n.fanin[1]];
    case NodeKind::kXor:
      return v[n.fanin[0]] ^ v[n.fanin[1]];
    default:  // kNot
      return v[n.fanin[0]] ^ 1;
  }
}

u8 lut_value(const MappedLut& lut, const logic::TruthTable6& f, const std::vector<u8>& v) {
  unsigned index = 0;
  for (size_t j = 0; j < lut.inputs.size(); ++j) index |= unsigned{v[lut.inputs[j]]} << j;
  return static_cast<u8>(f.eval(index));
}

}  // namespace

Simulator::Simulator(const netlist::Network& net)
    : net_(net),
      value_(net.node_count(), 0),
      state_(net.node_count(), 0),
      bram_word_(net.brams().size(), 0),
      bram_settled_(net.brams().size(), 0) {
  net_.topo_order();  // force cache construction up front
}

Simulator::Simulator(const netlist::Network& net, const LutNetwork& mapped) : Simulator(net) {
  mapped_ = &mapped;
  for (const MappedLut& lut : mapped.luts) functions_.push_back(lut.function);
}

Simulator::Simulator(const netlist::Network& net, const LutNetwork& mapped,
                     std::span<const logic::TruthTable6> functions)
    : Simulator(net) {
  mapped_ = &mapped;
  functions_.assign(functions.begin(), functions.end());
}

void Simulator::set_input(NodeId input, bool v) { value_[input] = v ? 1 : 0; }

void Simulator::set_input_word(const netlist::Word& w, u32 v) {
  for (unsigned i = 0; i < 32; ++i) set_input(w[i], bit_of(v, i) != 0);
}

void Simulator::settle() {
  std::fill(bram_settled_.begin(), bram_settled_.end(), 0);
  for (NodeId id : net_.topo_order()) {
    const Node& n = net_.node(id);
    switch (n.kind) {
      case NodeKind::kConst0:
        value_[id] = 0;
        break;
      case NodeKind::kConst1:
        value_[id] = 1;
        break;
      case NodeKind::kInput:
        break;  // testbench-driven
      case NodeKind::kDff:
        value_[id] = state_[id];
        break;
      case NodeKind::kCarry: {
        const u8 a = value_[n.fanin[0]], b = value_[n.fanin[1]], c = value_[n.fanin[2]];
        value_[id] = static_cast<u8>((a & b) | (c & (a ^ b)));
        break;
      }
      case NodeKind::kBramOut: {
        // Every input of the block precedes its outputs in topo order, so
        // the first output reached reads the block for all 32.
        if (!bram_settled_[n.bram]) {
          const netlist::Bram& b = net_.brams()[n.bram];
          u32 addr = 0;
          for (unsigned i = 0; i < 32; ++i) addr |= u32{value_[b.inputs[i]]} << i;
          bram_word_[n.bram] = b.eval(addr);
          bram_settled_[n.bram] = 1;
        }
        value_[id] = bit_of(bram_word_[n.bram], n.bram_bit);
        break;
      }
      case NodeKind::kAnd:
      case NodeKind::kOr:
      case NodeKind::kXor:
      case NodeKind::kNot:
        if (mapped_ == nullptr) {
          value_[id] = gate_value(n, value_);
        } else if (const u32 l = mapped_->lut_at(id); l != LutNetwork::kNoLut) {
          value_[id] = lut_value(mapped_->luts[l], functions_[l], value_);
        }  // else: inside some LUT's cone, never read
        break;
    }
  }
}

void Simulator::clock() {
  for (NodeId dff : net_.dffs()) {
    const NodeId d = net_.node(dff).fanin[0];
    state_[dff] = d == netlist::kNoNode ? 0 : value_[d];
  }
}

u32 Simulator::read_word(const netlist::Word& w) const {
  u32 v = 0;
  for (unsigned i = 0; i < 32; ++i) v |= u32{value(w[i])} << i;
  return v;
}

void Simulator::reset() {
  std::fill(value_.begin(), value_.end(), 0);
  std::fill(state_.begin(), state_.end(), 0);
}

}  // namespace sbm::mapper
