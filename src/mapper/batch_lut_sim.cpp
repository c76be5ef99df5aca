#include "mapper/batch_lut_sim.h"

namespace sbm::mapper {

using netlist::Node;
using netlist::NodeId;
using netlist::NodeKind;

BatchLutTape::BatchLutTape(const netlist::Network& net, const LutNetwork& mapped) : net_(net) {
  table_offset_.resize(mapped.luts.size());
  k_of_.resize(mapped.luts.size());
  for (size_t i = 0; i < mapped.luts.size(); ++i) {
    const u8 k = static_cast<u8>(mapped.luts[i].inputs.size());
    table_offset_[i] = static_cast<u32>(table_words_);
    k_of_[i] = k;
    table_words_ += size_t{1} << k;
  }

  auto start_run = [this](Kind kind, u32 begin) {
    if (!runs_.empty() && runs_.back().kind == kind) return;
    runs_.push_back({kind, begin, begin});
  };
  for (NodeId id : net.topo_order()) {
    const Node& n = net.node(id);
    switch (n.kind) {
      case NodeKind::kConst0:
      case NodeKind::kConst1:
      case NodeKind::kInput:
      case NodeKind::kDff:
        break;  // constants set at reset, inputs testbench-driven, DFFs preloaded
      case NodeKind::kBramOut:
        start_run(Kind::kBram, static_cast<u32>(bram_ops_.size()));
        bram_ops_.push_back({id, n.bram, n.bram_bit});
        runs_.back().end = static_cast<u32>(bram_ops_.size());
        break;
      case NodeKind::kCarry:
        start_run(Kind::kCarry, static_cast<u32>(carry_ops_.size()));
        carry_ops_.push_back({id, n.fanin[0], n.fanin[1], n.fanin[2]});
        runs_.back().end = static_cast<u32>(carry_ops_.size());
        break;
      default: {
        // Gate node: only LUT roots carry logic in the mapped view; interior
        // nodes are covered by some LUT's cone and never evaluated.
        const u32 l = mapped.lut_at(id);
        if (l == LutNetwork::kNoLut) break;
        const MappedLut& lut = mapped.luts[l];
        LutOp op;
        op.dst = id;
        op.table_offset = table_offset_[l];
        op.lut_index = l;
        op.k = k_of_[l];
        op.in.fill(netlist::kNoNode);
        for (size_t j = 0; j < lut.inputs.size(); ++j) op.in[j] = lut.inputs[j];
        start_run(Kind::kLut, static_cast<u32>(lut_ops_.size()));
        lut_ops_.push_back(op);
        runs_.back().end = static_cast<u32>(lut_ops_.size());
        break;
      }
    }
  }
}

std::vector<u64> BatchLutTape::transpose_tables(
    std::span<const logic::TruthTable6> functions) const {
  std::vector<u64> out(table_words_, 0);
  for (size_t i = 0; i < functions.size(); ++i) {
    const u64 bits = functions[i].bits();
    u64* t = &out[table_offset_[i]];
    const unsigned n = 1u << k_of_[i];
    for (unsigned m = 0; m < n; ++m) t[m] = ((bits >> m) & 1) ? ~u64{0} : 0;
  }
  return out;
}

// The portable scalar reference.  The 256-lane instantiation lives in
// src/simd/kernels_avx2.cpp, which is compiled with -mavx2.
template class BatchLutSimulatorT<u64>;

}  // namespace sbm::mapper
