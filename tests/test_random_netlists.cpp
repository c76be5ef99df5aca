// Differential property tests on randomly generated netlists: whatever the
// generator produces, technology mapping, dual-output packing and the
// bitstream round trip must all preserve the sequential behaviour.
//
// This is the strongest correctness argument for the mapper/packer: the
// SNOW 3G equivalence tests exercise one fixed design; these exercise a
// family of random DAGs with registers, wide/narrow gates, inverter chains,
// carry cells and keep-marked nodes.
#include <gtest/gtest.h>

#include <vector>

#include "common/rng.h"
#include "mapper/lut_network.h"
#include "mapper/mapper.h"
#include "mapper/packing.h"
#include "netlist/netlist.h"

namespace sbm::netlist {
namespace {

struct RandomDesign {
  Network net;
  std::vector<NodeId> inputs;
  std::vector<NodeId> dffs;
  std::vector<NodeId> outputs;
};

/// Builds a random sequential netlist: `n_inputs` PIs, `n_dffs` registers,
/// `n_gates` gates wired to random earlier nodes, a few keep marks, DFF D
/// inputs and POs drawn from the gate pool.
RandomDesign random_design(u64 seed, size_t n_inputs = 6, size_t n_dffs = 4,
                           size_t n_gates = 120, bool with_keep = false) {
  RandomDesign d;
  Rng rng(seed);
  for (size_t i = 0; i < n_inputs; ++i) {
    d.inputs.push_back(d.net.add_input("in" + std::to_string(i)));
  }
  for (size_t i = 0; i < n_dffs; ++i) {
    d.dffs.push_back(d.net.add_dff("r" + std::to_string(i)));
  }
  std::vector<NodeId> pool = d.inputs;
  for (const NodeId q : d.dffs) pool.push_back(q);

  for (size_t i = 0; i < n_gates; ++i) {
    const NodeId a = pool[rng.next_below(pool.size())];
    const NodeId b = pool[rng.next_below(pool.size())];
    NodeId g;
    switch (rng.next_below(6)) {
      case 0:
        g = d.net.add_gate(NodeKind::kAnd, a, b);
        break;
      case 1:
        g = d.net.add_gate(NodeKind::kOr, a, b);
        break;
      case 2:
      case 3:
        g = d.net.add_gate(NodeKind::kXor, a, b);
        break;
      case 4:
        g = d.net.add_not(a);
        break;
      default: {
        const NodeId c = pool[rng.next_below(pool.size())];
        g = d.net.add_carry(a, b, c);
        break;
      }
    }
    if (with_keep && d.net.node(g).kind == NodeKind::kXor && rng.next_below(8) == 0) {
      d.net.set_keep(g);
    }
    pool.push_back(g);
  }
  for (size_t i = 0; i < d.dffs.size(); ++i) {
    d.net.connect_dff(d.dffs[i], pool[pool.size() - 1 - i]);
  }
  for (size_t i = 0; i < 4 && i + 8 < pool.size(); ++i) {
    const NodeId po = pool[pool.size() - 5 - i];
    d.outputs.push_back(po);
    d.net.add_output("po" + std::to_string(i), po);
  }
  return d;
}

/// Clocks both simulators with the same random input sequence and compares
/// every PO on every cycle.
template <typename SimA, typename SimB>
void compare_sims(const RandomDesign& d, SimA& a, SimB& b, u64 seed, int cycles) {
  Rng rng(seed);
  for (int cycle = 0; cycle < cycles; ++cycle) {
    for (const NodeId in : d.inputs) {
      const bool v = rng.next_bool();
      a.set_input(in, v);
      b.set_input(in, v);
    }
    a.settle();
    b.settle();
    for (const NodeId po : d.outputs) {
      ASSERT_EQ(a.value(po), b.value(po)) << "cycle " << cycle << " po " << po;
    }
    a.clock();
    b.clock();
  }
}

class RandomNetlist : public ::testing::TestWithParam<u64> {};

TEST_P(RandomNetlist, MappingPreservesBehavior) {
  RandomDesign d = random_design(GetParam());
  const mapper::LutNetwork mapped = mapper::map_network(d.net);
  mapper::Simulator ref(d.net);
  mapper::Simulator lut(d.net, mapped);
  compare_sims(d, ref, lut, GetParam() ^ 0x1234, 40);
}

TEST_P(RandomNetlist, PackingPreservesBehavior) {
  RandomDesign d = random_design(GetParam() + 1000);
  const mapper::PlacedDesign placed = mapper::pack_and_place(mapper::map_network(d.net));
  mapper::Simulator ref(d.net);
  mapper::Simulator lut(d.net, placed.mapped);
  compare_sims(d, ref, lut, GetParam() ^ 0x5678, 40);
}

TEST_P(RandomNetlist, KeepConstraintsPreserveBehavior) {
  RandomDesign d = random_design(GetParam() + 2000, 6, 4, 120, /*with_keep=*/true);
  const mapper::LutNetwork mapped = mapper::map_network(d.net);
  mapper::Simulator ref(d.net);
  mapper::Simulator lut(d.net, mapped);
  compare_sims(d, ref, lut, GetParam() ^ 0x9abc, 40);
}

TEST_P(RandomNetlist, InitRoundTripPreservesFunctions) {
  // Every physical site's INIT, decoded back through function_from_init,
  // must equal the packed logical function.
  RandomDesign d = random_design(GetParam() + 3000);
  const mapper::PlacedDesign placed = mapper::pack_and_place(mapper::map_network(d.net));
  for (size_t site = 0; site < placed.phys.size(); ++site) {
    const u64 init = placed.init_of(site);
    const auto& p = placed.phys[site];
    if (p.o6_lut >= 0) {
      ASSERT_EQ(placed.function_from_init(site, false, init),
                placed.mapped.luts[static_cast<size_t>(p.o6_lut)].function);
    }
    if (p.o5_lut >= 0) {
      ASSERT_EQ(placed.function_from_init(site, true, init),
                placed.mapped.luts[static_cast<size_t>(p.o5_lut)].function);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomNetlist,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15,
                                           16, 17, 18, 19, 20));

}  // namespace
}  // namespace sbm::netlist
