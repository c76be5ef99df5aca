// Technology-mapper, packing and STA tests.
#include <gtest/gtest.h>

#include <set>
#include <unordered_set>

#include "common/rng.h"
#include "harness.h"
#include "mapper/mapper.h"
#include "mapper/packing.h"
#include "mapper/sta.h"
#include "netlist/snow3g_design.h"

namespace sbm::mapper {
namespace {

using netlist::Network;
using netlist::NodeId;
using netlist::NodeKind;
using netlist::Word;

TEST(Mapper, SingleLutForSmallCone) {
  Network net;
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId c = net.add_input("c");
  const NodeId g = net.add_gate(NodeKind::kXor, net.add_gate(NodeKind::kXor, a, b), c);
  net.add_output("o", g);
  const LutNetwork mapped = map_network(net);
  ASSERT_EQ(mapped.lut_count(), 1u);
  EXPECT_EQ(mapped.luts[0].inputs.size(), 3u);
  // The LUT computes XOR3 over its inputs.
  EXPECT_EQ(mapped.luts[0].function,
            logic::TruthTable6::var(0) ^ logic::TruthTable6::var(1) ^ logic::TruthTable6::var(2));
}

TEST(Mapper, WideXorNeedsTwoLevels) {
  Network net;
  std::vector<NodeId> ins;
  for (int i = 0; i < 9; ++i) ins.push_back(net.add_input("i" + std::to_string(i)));
  net.add_output("o", net.xor_tree(ins));
  const LutNetwork mapped = map_network(net);
  EXPECT_GE(mapped.lut_count(), 2u);
  const MappingStats st = mapping_stats(net, mapped);
  EXPECT_EQ(st.max_depth, 2u);
}

TEST(Mapper, InvertersAreAlwaysAbsorbed) {
  Network net;
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId g = net.add_gate(NodeKind::kAnd, net.add_not(a), b);
  net.add_output("o", g);
  const LutNetwork mapped = map_network(net);
  ASSERT_EQ(mapped.lut_count(), 1u);
  for (const NodeId in : mapped.luts[0].inputs) {
    EXPECT_NE(net.node(in).kind, NodeKind::kNot);
  }
}

TEST(Mapper, KeepNodeGetsTrivialCut) {
  Network net;
  const NodeId a = net.add_input("a");
  const NodeId b = net.add_input("b");
  const NodeId c = net.add_input("c");
  const NodeId x = net.add_gate(NodeKind::kXor, a, b);
  net.set_keep(x);
  const NodeId g = net.add_gate(NodeKind::kAnd, x, c);
  net.add_output("o", g);
  const LutNetwork mapped = map_network(net);
  // x must be its own root implementing exactly a^b, and g's LUT must use x
  // as a leaf rather than absorbing it.
  ASSERT_NE(mapped.lut_at(x), LutNetwork::kNoLut);
  const MappedLut& xl = mapped.luts[mapped.lut_at(x)];
  EXPECT_EQ(xl.inputs.size(), 2u);
  EXPECT_EQ(xl.function, logic::TruthTable6::var(0) ^ logic::TruthTable6::var(1));
  ASSERT_NE(mapped.lut_at(g), LutNetwork::kNoLut);
  const MappedLut& gl = mapped.luts[mapped.lut_at(g)];
  EXPECT_NE(std::find(gl.inputs.begin(), gl.inputs.end(), x), gl.inputs.end());
}

class MappedEquivalence : public ::testing::TestWithParam<u64> {};

TEST_P(MappedEquivalence, LutNetworkMatchesSoftwareModel) {
  Rng rng(GetParam());
  const snow3g::Key k = {rng.next_u32(), rng.next_u32(), rng.next_u32(), rng.next_u32()};
  const snow3g::Iv iv = {rng.next_u32(), rng.next_u32(), rng.next_u32(), rng.next_u32()};
  auto design = netlist::build_snow3g_design();
  const LutNetwork mapped = map_network(design.net);
  Simulator sim(design.net, mapped);
  const std::vector<u32> hw = sbm::testing::run_design(design, sim, k, iv, 10);
  snow3g::Snow3g ref(k, iv);
  EXPECT_EQ(hw, ref.keystream(10));
}

TEST_P(MappedEquivalence, PackedDesignStillMatches) {
  Rng rng(GetParam() + 77);
  const snow3g::Key k = {rng.next_u32(), rng.next_u32(), rng.next_u32(), rng.next_u32()};
  const snow3g::Iv iv = {rng.next_u32(), rng.next_u32(), rng.next_u32(), rng.next_u32()};
  auto design = netlist::build_snow3g_design();
  const PlacedDesign placed = pack_and_place(map_network(design.net));
  Simulator sim(design.net, placed.mapped);
  const std::vector<u32> hw = sbm::testing::run_design(design, sim, k, iv, 8);
  snow3g::Snow3g ref(k, iv);
  EXPECT_EQ(hw, ref.keystream(8));
}

INSTANTIATE_TEST_SUITE_P(Sweep, MappedEquivalence, ::testing::Values(1, 2, 3));

TEST(Mapper, ProtectedMappingKeepsTargetsAsRoots) {
  auto design = netlist::build_protected_snow3g_design();
  const LutNetwork mapped = map_network(design.net);
  for (const NodeId v : design.target_v) {
    ASSERT_NE(mapped.lut_at(v), LutNetwork::kNoLut);
    const MappedLut& lut = mapped.luts[mapped.lut_at(v)];
    EXPECT_LE(lut.inputs.size(), 2u);
  }
  // No other LUT may cover a kept node internally: every LUT referencing a
  // kept node does so only through its input list.
  std::unordered_set<NodeId> kept;
  for (NodeId id = 0; id < design.net.node_count(); ++id) {
    if (design.net.node(id).keep) kept.insert(id);
  }
  for (const MappedLut& lut : mapped.luts) {
    if (kept.count(lut.root)) continue;
    // Walk the covered cone and assert no kept interior node.
    std::set<NodeId> leaves(lut.inputs.begin(), lut.inputs.end());
    std::vector<NodeId> stack{lut.root};
    std::set<NodeId> seen;
    while (!stack.empty()) {
      const NodeId id = stack.back();
      stack.pop_back();
      if (!seen.insert(id).second || leaves.count(id)) continue;
      EXPECT_FALSE(kept.count(id)) << "kept node absorbed into another LUT";
      const netlist::Node& n = design.net.node(id);
      if (n.kind == NodeKind::kAnd || n.kind == NodeKind::kOr || n.kind == NodeKind::kXor) {
        stack.push_back(n.fanin[0]);
        stack.push_back(n.fanin[1]);
      } else if (n.kind == NodeKind::kNot) {
        stack.push_back(n.fanin[0]);
      }
    }
  }
}

TEST(Mapper, NodeReuseAblationReducesCoverage) {
  auto design = netlist::build_snow3g_design();
  MapperOptions with_reuse;
  MapperOptions without;
  without.allow_node_reuse = false;
  const MappingStats a = mapping_stats(design.net, map_network(design.net, with_reuse));
  const MappingStats b = mapping_stats(design.net, map_network(design.net, without));
  // Without reuse, shared nodes become barriers: no duplication, so the
  // average cone is smaller or equal and depth never improves.
  EXPECT_GE(b.max_depth, a.max_depth);
}

TEST(Packing, DualSitesShareAtMostFivePins) {
  auto design = netlist::build_snow3g_design();
  const PlacedDesign placed = pack_and_place(map_network(design.net));
  size_t dual = 0;
  for (const PhysicalLut& p : placed.phys) {
    if (p.dual()) {
      ++dual;
      EXPECT_LE(p.pins.size(), 5u);
    } else {
      EXPECT_LE(p.pins.size(), 6u);
    }
  }
  EXPECT_GT(dual, 0u);
}

TEST(Packing, InitRoundTripsThroughFunctionFromInit) {
  auto design = netlist::build_snow3g_design();
  const PlacedDesign placed = pack_and_place(map_network(design.net));
  for (size_t site = 0; site < placed.phys.size(); ++site) {
    const u64 init = placed.init_of(site);
    const PhysicalLut& p = placed.phys[site];
    if (p.o6_lut >= 0) {
      EXPECT_EQ(placed.function_from_init(site, false, init),
                placed.mapped.luts[static_cast<size_t>(p.o6_lut)].function);
    }
    if (p.o5_lut >= 0) {
      EXPECT_EQ(placed.function_from_init(site, true, init),
                placed.mapped.luts[static_cast<size_t>(p.o5_lut)].function);
    }
  }
}

TEST(Packing, SiteOfLutIsInverseOfAssignment) {
  auto design = netlist::build_snow3g_design();
  const PlacedDesign placed = pack_and_place(map_network(design.net));
  for (size_t site = 0; site < placed.phys.size(); ++site) {
    const PhysicalLut& p = placed.phys[site];
    if (p.o6_lut >= 0) {
      const auto s = placed.site_of_lut(static_cast<size_t>(p.o6_lut));
      EXPECT_EQ(s.phys_index, site);
      EXPECT_FALSE(s.is_o5);
    }
    if (p.o5_lut >= 0) {
      const auto s = placed.site_of_lut(static_cast<size_t>(p.o5_lut));
      EXPECT_EQ(s.phys_index, site);
      EXPECT_TRUE(s.is_o5);
    }
  }
}

TEST(Packing, SliceTypesMixLAndM) {
  auto design = netlist::build_snow3g_design();
  const PlacedDesign placed = pack_and_place(map_network(design.net));
  size_t l = 0, m = 0;
  for (const SliceType t : placed.slice_types) (t == SliceType::kSliceL ? l : m)++;
  EXPECT_GT(l, 0u);
  EXPECT_GT(m, 0u);
}

TEST(Packing, UnconnectedPinsTieHigh) {
  // A 2-input single-output LUT whose INIT is overwritten with a function of
  // "absent" pins must behave as if those pins read 1.
  auto design = netlist::build_snow3g_design();
  PlacedDesign placed = pack_and_place(map_network(design.net), {false, 0x5eed, 3});
  // Find a single-output site with < 6 pins.
  for (size_t site = 0; site < placed.phys.size(); ++site) {
    const PhysicalLut& p = placed.phys[site];
    if (p.dual() || p.pins.size() >= 6) continue;
    const unsigned missing = static_cast<unsigned>(p.pins.size());
    // INIT = var(missing): with the pin tied high the function is const 1.
    const u64 init = logic::TruthTable6::var(missing).bits();
    EXPECT_EQ(placed.function_from_init(site, false, init), logic::TruthTable6::one());
    return;
  }
  GTEST_SKIP() << "no small single-output site found";
}

TEST(Sta, ChainDelayArithmetic) {
  // Deterministic 4-level LUT chain: keep markers pin each XOR into its own
  // LUT, so the register-to-register delay is exactly computable.
  Network net;
  const NodeId q = net.add_dff("q");
  NodeId x = q;
  constexpr int kLevels = 4;
  for (int i = 0; i < kLevels; ++i) {
    const NodeId fresh = net.add_input("p" + std::to_string(i));
    x = net.add_gate(NodeKind::kXor, x, fresh);
    net.set_keep(x);
  }
  net.connect_dff(q, x);
  const LutNetwork mapped = map_network(net);
  EXPECT_EQ(mapped.lut_count(), static_cast<size_t>(kLevels));
  const TimingModel model;
  const StaResult sta = run_sta(net, mapped, model);
  const double expect = model.clk_to_q_ns +
                        kLevels * (model.net_delay_ns + model.lut_delay_ns) +
                        model.net_delay_ns + model.setup_ns;
  EXPECT_NEAR(sta.critical_delay_ns, expect, 1e-9);
  EXPECT_EQ(sta.critical.start, "q");
  EXPECT_EQ(sta.critical.end, "q");
}

TEST(Sta, ProtectedDesignIsSlowerAndFeedbackCritical) {
  auto plain = netlist::build_snow3g_design();
  auto prot = netlist::build_protected_snow3g_design();
  const StaResult a = run_sta(plain.net, map_network(plain.net));
  const StaResult b = run_sta(prot.net, map_network(prot.net));
  EXPECT_GT(b.critical_delay_ns, a.critical_delay_ns);
  // Section VII-A: in the protected design the path into s15 becomes
  // critical.
  EXPECT_NE(b.critical.end.find("s15"), std::string::npos);
}

TEST(Sta, ReportsUpToTenSlowestPaths) {
  auto design = netlist::build_snow3g_design();
  const StaResult sta = run_sta(design.net, map_network(design.net));
  EXPECT_LE(sta.slowest.size(), 10u);
  ASSERT_FALSE(sta.slowest.empty());
  for (size_t i = 1; i < sta.slowest.size(); ++i) {
    EXPECT_GE(sta.slowest[i - 1].delay_ns, sta.slowest[i].delay_ns);
  }
}

}  // namespace
}  // namespace sbm::mapper
