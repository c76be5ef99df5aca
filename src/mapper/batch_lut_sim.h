// Bit-sliced lane-parallel simulator for the mapped 6-LUT network.
//
// The scalar mapper::Simulator walks every netlist node each settle and
// skips the interior ones — ~4x more dispatches than there are LUTs.  Here
// the (Network, LutNetwork) pair is compiled once into a flat
// struct-of-arrays tape holding only the nodes that carry state or logic:
// DFF loads, LUT evaluations, carry cells and BRAM lookups, grouped into
// same-kind runs so the settle loop dispatches once per run.
//
// Truth tables are stored lane-transposed: a k-input LUT owns 2^k
// consecutive lane vectors, vector m holding minterm m's value across all
// lanes.  Evaluation is a bottom-up Shannon mux tree over the lane vectors —
// 2^k - 1 select steps evaluate the LUT for every lane at once — and each
// lane may carry a different table (the batch oracle's per-probe INIT
// patches), which is exactly what set_lut_table(lut, lane, bits) edits.
//
// Table storage is two-tier so wide simulators stay cache-resident: the
// shared configuration lives as one u64 word per minterm (lane-uniform — a
// golden table entry is all-ones or all-zero across every lane), and the mux
// tree's leaf level broadcasts those words in-register.  Only LUTs a probe
// actually patches via set_lut_table get their table materialized at full
// lane width.  At W words per vector this keeps the per-settle table stream
// at ~1/W the naive footprint (the 256-lane tables for this design would
// otherwise be ~4x the L2-resident scalar table block) and makes
// construction and set_tables width-independent.
//
// BatchLutSimulator = BatchLutSimulatorT<u64> is the portable 64-lane
// reference; the 256-lane instantiation is confined to the src/simd/
// kernel TU (see simd/lane_vec.h for the ODR discipline).  The tape is not
// templated — one compiled tape is shared by simulators of every width.
//
// Lane semantics match mapper::Simulator bit-for-bit: lane l of this
// simulator equals a scalar simulator configured with lane l's tables and
// driven with lane l's inputs (tests/test_batch_sim.cpp, tests/test_simd.cpp).
#pragma once

#include <algorithm>
#include <array>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "mapper/lut_network.h"
#include "simd/lane_vec.h"
#include "simd/transpose.h"

namespace sbm::mapper {

/// Immutable evaluation tape compiled from one (Network, LutNetwork) pair.
/// Construction walks the topo order once; instances are shared read-only by
/// every BatchLutSimulatorT of the same victim (one per worker thread),
/// regardless of lane width.
class BatchLutTape {
 public:
  BatchLutTape(const netlist::Network& net, const LutNetwork& mapped);

  struct LutOp {
    netlist::NodeId dst;
    u32 table_offset;  // first of 2^k lane-transposed table words
    u32 lut_index;     // index into LutNetwork::luts (per-LUT wide flag key)
    u8 k;              // structural input count (table width log2)
    std::array<netlist::NodeId, 6> in;
  };
  struct CarryOp {
    netlist::NodeId dst;
    netlist::NodeId a, b, c;
  };
  struct BramOp {
    netlist::NodeId dst;
    u32 bram;
    u8 bit;
  };
  enum class Kind : u8 { kLut, kCarry, kBram };
  struct Run {
    Kind kind;
    u32 begin;
    u32 end;
  };

  const netlist::Network& net() const { return net_; }
  size_t lut_count() const { return table_offset_.size(); }
  size_t table_words() const { return table_words_; }
  /// Table geometry of mapped LUT `lut_index` (index into LutNetwork::luts).
  u32 table_offset(size_t lut_index) const { return table_offset_[lut_index]; }
  u8 table_log2(size_t lut_index) const { return k_of_[lut_index]; }

  std::span<const Run> runs() const { return runs_; }
  std::span<const LutOp> lut_ops() const { return lut_ops_; }
  std::span<const CarryOp> carry_ops() const { return carry_ops_; }
  std::span<const BramOp> bram_ops() const { return bram_ops_; }

  /// Lane-transposed broadcast of a configuration: word m of LUT i is
  /// all-ones iff bit m of functions[i] is set.  Each word seeds one lane
  /// vector of a simulator of any width (see set_tables).
  std::vector<u64> transpose_tables(std::span<const logic::TruthTable6> functions) const;

 private:
  const netlist::Network& net_;
  std::vector<Run> runs_;
  std::vector<LutOp> lut_ops_;
  std::vector<CarryOp> carry_ops_;
  std::vector<BramOp> bram_ops_;
  std::vector<u32> table_offset_;  // per mapped-LUT index
  std::vector<u8> k_of_;           // per mapped-LUT index
  size_t table_words_ = 0;
};

template <class LV>
class BatchLutSimulatorT {
 public:
  static constexpr unsigned kLanes = simd::lane_count<LV>;

  explicit BatchLutSimulatorT(std::shared_ptr<const BatchLutTape> tape);

  /// Loads a precomputed lane-transposed table block as the shared scalar
  /// tier (see BatchLutTape::transpose_tables) and drops any per-lane
  /// overrides.  Cost is one memcpy regardless of lane width.
  void set_tables(std::span<const u64> transposed);
  /// Overrides one lane's table for one mapped LUT (per-probe INIT patch).
  /// Touches one u64 word per minterm — O(1) per lane at any width.
  void set_lut_table(size_t lut_index, unsigned lane, u64 function_bits);

  void set_input(netlist::NodeId input, bool value) {  // broadcast
    value_[input] = simd::broadcast<LV>(value);
  }
  void set_input_word(const netlist::Word& w, u32 value) {
    for (unsigned i = 0; i < 32; ++i) set_input(w[i], bit_of(value, i) != 0);
  }
  void set_input_lane(netlist::NodeId input, unsigned lane, bool value) {
    simd::set_lane(value_[input], lane, value);
  }
  void set_input_word_lane(const netlist::Word& w, unsigned lane, u32 value) {
    for (unsigned i = 0; i < 32; ++i) set_input_lane(w[i], lane, bit_of(value, i) != 0);
  }

  void settle();
  void clock();
  void step() {
    settle();
    clock();
  }

  bool value(netlist::NodeId id, unsigned lane) const {
    return simd::get_lane(value_[id], lane);
  }
  u32 read_word_lane(const netlist::Word& w, unsigned lane) const {
    u32 v = 0;
    for (unsigned i = 0; i < 32; ++i) v |= u32{value(w[i], lane)} << i;
    return v;
  }

  void reset();

 private:
  void eval_bram(u32 index);

  static constexpr u32 kNotWide = ~u32{0};

  std::shared_ptr<const BatchLutTape> tape_;
  std::vector<LV> value_;
  std::vector<LV> state_;
  std::vector<u64> shared_tables_;  // lane-uniform tier, tape layout
  std::vector<LV> wide_pool_;       // full-width tables of patched LUTs only
  std::vector<u32> wide_off_;       // per mapped-LUT: offset into the pool
  std::vector<u32> dirty_luts_;     // LUTs materialized in the pool
  std::vector<LV> bram_out_;
  std::vector<u32> bram_stamp_;
  u32 stamp_ = 0;
};

/// The portable 64-lane reference instantiation (defined in batch_lut_sim.cpp).
using BatchLutSimulator = BatchLutSimulatorT<u64>;
extern template class BatchLutSimulatorT<u64>;

template <class LV>
BatchLutSimulatorT<LV>::BatchLutSimulatorT(std::shared_ptr<const BatchLutTape> tape)
    : tape_(std::move(tape)),
      value_(tape_->net().node_count(), LV{}),
      state_(tape_->net().node_count(), LV{}),
      shared_tables_(tape_->table_words(), 0),
      wide_off_(tape_->lut_count(), kNotWide),
      bram_out_(tape_->net().brams().size() * 32, LV{}),
      bram_stamp_(tape_->net().brams().size(), 0) {
  reset();
}

template <class LV>
void BatchLutSimulatorT<LV>::set_tables(std::span<const u64> transposed) {
  std::copy(transposed.begin(), transposed.end(), shared_tables_.begin());
  for (const u32 lut : dirty_luts_) wide_off_[lut] = kNotWide;
  dirty_luts_.clear();
  wide_pool_.clear();
}

template <class LV>
void BatchLutSimulatorT<LV>::set_lut_table(size_t lut_index, unsigned lane, u64 function_bits) {
  const u32 off = tape_->table_offset(lut_index);
  const unsigned n = 1u << tape_->table_log2(lut_index);
  if (wide_off_[lut_index] == kNotWide) {
    // First per-lane divergence for this LUT: append a full-width table
    // seeded from the shared tier, then patch the one lane below.
    wide_off_[lut_index] = static_cast<u32>(wide_pool_.size());
    for (unsigned m = 0; m < n; ++m) {
      wide_pool_.push_back(simd::broadcast_word<LV>(shared_tables_[off + m]));
    }
    dirty_luts_.push_back(static_cast<u32>(lut_index));
  }
  LV* t = &wide_pool_[wide_off_[lut_index]];
  const unsigned word = lane >> 6;
  const u64 mask = u64{1} << (lane & 63);
  for (unsigned m = 0; m < n; ++m) {
    u64& w = simd::lane_traits<LV>::word(t[m], word);
    w = ((function_bits >> m) & 1) ? (w | mask) : (w & ~mask);
  }
}

template <class LV>
void BatchLutSimulatorT<LV>::eval_bram(u32 index) {
  // Per 64-lane word: transpose the 32 input vectors into per-lane
  // addresses, evaluate the opaque table per lane, transpose back (see
  // simd/transpose.h — the naive per-lane bit gather is ~10x slower).
  const netlist::Bram& b = tape_->net().brams()[index];
  LV* out = &bram_out_[size_t{index} * 32];
  for (unsigned w = 0; w < simd::lane_traits<LV>::kWords; ++w) {
    u64 in[32];
    for (unsigned i = 0; i < 32; ++i) {
      in[i] = simd::lane_traits<LV>::word(value_[b.inputs[i]], w);
    }
    u32 addr[64];
    simd::gather_addresses(in, addr);
    u32 o[64];
    for (unsigned l = 0; l < 64; ++l) o[l] = b.eval(addr[l]);
    u64 ow[32];
    simd::scatter_outputs(o, ow);
    for (unsigned i = 0; i < 32; ++i) simd::lane_traits<LV>::word(out[i], w) = ow[i];
  }
}

template <class LV>
void BatchLutSimulatorT<LV>::settle() {
  ++stamp_;
  const netlist::Network& net = tape_->net();
  for (netlist::NodeId dff : net.dffs()) value_[dff] = state_[dff];
  for (const BatchLutTape::Run& r : tape_->runs()) {
    switch (r.kind) {
      case BatchLutTape::Kind::kLut:
        for (u32 i = r.begin; i < r.end; ++i) {
          const BatchLutTape::LutOp& op = tape_->lut_ops()[i];
          // Shannon mux tree over the lane-transposed table: level v halves
          // the live table by selecting on input v's lane vector.  The leaf
          // level reads whichever table tier the LUT currently lives in.
          LV s[32];
          unsigned n = 1u << op.k;
          unsigned v = 0;
          const u32 wide_off = wide_off_[op.lut_index];
          if (wide_off == kNotWide) {
            const u64* t = &shared_tables_[op.table_offset];
            if (op.k == 0) {
              value_[op.dst] = simd::broadcast_word<LV>(t[0]);
              continue;
            }
            const LV x = value_[op.in[0]];
            n >>= 1;
            for (unsigned j = 0; j < n; ++j) s[j] = simd::mux_word(t[2 * j], t[2 * j + 1], x);
            v = 1;
          } else {
            const LV* t = &wide_pool_[wide_off];
            if (op.k == 0) {
              value_[op.dst] = t[0];
              continue;
            }
            const LV x = value_[op.in[0]];
            n >>= 1;
            for (unsigned j = 0; j < n; ++j) s[j] = simd::mux(t[2 * j], t[2 * j + 1], x);
            v = 1;
          }
          for (; v < op.k; ++v) {
            const LV x = value_[op.in[v]];
            n >>= 1;
            // In-place halving: s[j] is written after s[2j], s[2j+1] are read.
            for (unsigned j = 0; j < n; ++j) s[j] = simd::mux(s[2 * j], s[2 * j + 1], x);
          }
          value_[op.dst] = s[0];
        }
        break;
      case BatchLutTape::Kind::kCarry:
        for (u32 i = r.begin; i < r.end; ++i) {
          const BatchLutTape::CarryOp& op = tape_->carry_ops()[i];
          const LV a = value_[op.a], b = value_[op.b], c = value_[op.c];
          value_[op.dst] = (a & b) | (c & (a ^ b));
        }
        break;
      case BatchLutTape::Kind::kBram:
        for (u32 i = r.begin; i < r.end; ++i) {
          const BatchLutTape::BramOp& op = tape_->bram_ops()[i];
          if (bram_stamp_[op.bram] != stamp_) {
            eval_bram(op.bram);
            bram_stamp_[op.bram] = stamp_;
          }
          value_[op.dst] = bram_out_[size_t{op.bram} * 32 + op.bit];
        }
        break;
    }
  }
}

template <class LV>
void BatchLutSimulatorT<LV>::clock() {
  const netlist::Network& net = tape_->net();
  for (netlist::NodeId dff : net.dffs()) {
    const netlist::NodeId d = net.node(dff).fanin[0];
    state_[dff] = d == netlist::kNoNode ? LV{} : value_[d];
  }
}

template <class LV>
void BatchLutSimulatorT<LV>::reset() {
  std::fill(value_.begin(), value_.end(), LV{});
  std::fill(state_.begin(), state_.end(), LV{});
  value_[tape_->net().const1()] = simd::ones<LV>();
}

}  // namespace sbm::mapper
