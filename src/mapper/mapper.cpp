#include "mapper/mapper.h"

#include <algorithm>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>

namespace sbm::mapper {

using logic::TruthTable6;
using netlist::kNoNode;
using netlist::Node;
using netlist::NodeId;
using netlist::NodeKind;

namespace {

constexpr unsigned kMaxCutSize = 6;

struct Cut {
  std::array<NodeId, kMaxCutSize> leaves{};
  u8 size = 0;
  u16 depth = 0;  // max node_depth over leaves

  bool operator==(const Cut& o) const {
    return size == o.size && std::equal(leaves.begin(), leaves.begin() + size, o.leaves.begin());
  }
};

bool is_source(const Node& n) {
  // Carry cells are mapping barriers like BRAM outputs: they provide a value
  // to the LUT fabric but are never absorbed into a LUT.
  switch (n.kind) {
    case NodeKind::kConst0:
    case NodeKind::kConst1:
    case NodeKind::kInput:
    case NodeKind::kDff:
    case NodeKind::kBramOut:
    case NodeKind::kCarry:
      return true;
    default:
      return false;
  }
}

bool is_gate(const Node& n) {
  switch (n.kind) {
    case NodeKind::kAnd:
    case NodeKind::kOr:
    case NodeKind::kXor:
    case NodeKind::kNot:
      return true;
    default:
      return false;
  }
}

/// Merges two sorted leaf sets; returns false on overflow.
bool merge_cuts(const Cut& a, const Cut& b, Cut& out) {
  unsigned i = 0, j = 0, k = 0;
  while (i < a.size || j < b.size) {
    NodeId next;
    if (j >= b.size || (i < a.size && a.leaves[i] <= b.leaves[j])) {
      next = a.leaves[i];
      if (j < b.size && b.leaves[j] == next) ++j;
      ++i;
    } else {
      next = b.leaves[j];
      ++j;
    }
    if (k == kMaxCutSize) return false;
    out.leaves[k++] = next;
  }
  out.size = static_cast<u8>(k);
  return true;
}

struct NodeCuts {
  std::vector<Cut> impl;  // implementation candidates (leaves != {self})
  u16 depth = 0;          // best implementation depth (sources: 0)
};

/// Computes the truth table of the cone rooted at `root` over the cut
/// leaves.
TruthTable6 cone_function(const netlist::Network& net, NodeId root,
                          const std::vector<NodeId>& leaves) {
  std::unordered_map<NodeId, TruthTable6> memo;
  for (size_t j = 0; j < leaves.size(); ++j) {
    memo.emplace(leaves[j], TruthTable6::var(static_cast<unsigned>(j)));
  }
  // Depth-first evaluation with an explicit stack (carry chains are deep).
  std::vector<NodeId> stack{root};
  while (!stack.empty()) {
    const NodeId id = stack.back();
    if (memo.count(id)) {
      stack.pop_back();
      continue;
    }
    const Node& n = net.node(id);
    if (n.kind == NodeKind::kConst0) {
      memo.emplace(id, TruthTable6::zero());
      stack.pop_back();
      continue;
    }
    if (n.kind == NodeKind::kConst1) {
      memo.emplace(id, TruthTable6::one());
      stack.pop_back();
      continue;
    }
    if (!is_gate(n)) {
      throw std::logic_error("cone crosses a source that is not a cut leaf");
    }
    const NodeId a = n.fanin[0];
    const NodeId b = n.kind == NodeKind::kNot ? kNoNode : n.fanin[1];
    bool ready = true;
    if (!memo.count(a)) {
      stack.push_back(a);
      ready = false;
    }
    if (b != kNoNode && !memo.count(b)) {
      stack.push_back(b);
      ready = false;
    }
    if (!ready) continue;
    TruthTable6 out;
    switch (n.kind) {
      case NodeKind::kAnd:
        out = memo.at(a) & memo.at(b);
        break;
      case NodeKind::kOr:
        out = memo.at(a) | memo.at(b);
        break;
      case NodeKind::kXor:
        out = memo.at(a) ^ memo.at(b);
        break;
      default:
        out = ~memo.at(a);
        break;
    }
    memo.emplace(id, out);
    stack.pop_back();
  }
  return memo.at(root);
}

}  // namespace

LutNetwork map_network(const netlist::Network& net, const MapperOptions& options) {
  if (options.lut_inputs != kMaxCutSize) {
    throw std::invalid_argument("only 6-LUT mapping is supported");
  }
  const auto& topo = net.topo_order();

  // Fanout counts (for the node-reuse ablation).
  std::vector<u32> fanout(net.node_count(), 0);
  for (NodeId id = 0; id < net.node_count(); ++id) {
    const Node& n = net.node(id);
    if (n.kind == NodeKind::kCarry) {
      for (NodeId f : n.fanin) ++fanout[f];
      continue;
    }
    if (!is_gate(n)) continue;
    ++fanout[n.fanin[0]];
    if (n.kind != NodeKind::kNot) ++fanout[n.fanin[1]];
  }
  for (const auto& [name, po] : net.outputs()) ++fanout[po];
  for (NodeId dff : net.dffs()) {
    const NodeId d = net.node(dff).fanin[0];
    if (d != kNoNode) ++fanout[d];
  }
  for (const auto& bram : net.brams()) {
    for (NodeId in : bram.inputs) ++fanout[in];
  }

  // ---- cut enumeration (priority cuts) ------------------------------------
  std::vector<NodeCuts> cuts(net.node_count());
  std::vector<std::vector<Cut>> exposed(net.node_count());

  auto trivial = [&cuts](NodeId id) {
    Cut c;
    c.leaves[0] = id;
    c.size = 1;
    c.depth = cuts[id].depth;
    return c;
  };

  for (NodeId id : topo) {
    const Node& n = net.node(id);
    if (is_source(n)) {
      cuts[id].depth = 0;
      exposed[id] = {trivial(id)};
      continue;
    }
    if (!is_gate(n)) continue;

    const bool barrier =
        n.keep || (!options.allow_node_reuse && fanout[id] > 1);

    std::vector<Cut> merged;
    if (n.keep) {
      // Countermeasure: the kept node is implemented by its own fanins only.
      Cut c;
      std::vector<NodeId> fi{n.fanin[0]};
      if (n.kind != NodeKind::kNot) fi.push_back(n.fanin[1]);
      std::sort(fi.begin(), fi.end());
      fi.erase(std::unique(fi.begin(), fi.end()), fi.end());
      if (fi.size() > kMaxCutSize) throw std::logic_error("kept node with too many fanins");
      for (size_t i = 0; i < fi.size(); ++i) c.leaves[i] = fi[i];
      c.size = static_cast<u8>(fi.size());
      u16 dep = 0;
      for (size_t i = 0; i < fi.size(); ++i) dep = std::max(dep, cuts[fi[i]].depth);
      c.depth = dep;
      merged.push_back(c);
    } else {
      const auto& la = exposed[n.fanin[0]];
      if (n.kind == NodeKind::kNot) {
        merged = la;
      } else {
        const auto& lb = exposed[n.fanin[1]];
        for (const Cut& ca : la) {
          for (const Cut& cb : lb) {
            Cut c;
            if (!merge_cuts(ca, cb, c)) continue;
            u16 dep = 0;
            for (unsigned i = 0; i < c.size; ++i) dep = std::max(dep, cuts[c.leaves[i]].depth);
            c.depth = dep;
            merged.push_back(c);
          }
        }
      }
      std::sort(merged.begin(), merged.end(), [](const Cut& x, const Cut& y) {
        if (x.depth != y.depth) return x.depth < y.depth;
        if (x.size != y.size) return x.size > y.size;  // prefer absorption
        return std::lexicographical_compare(x.leaves.begin(), x.leaves.begin() + x.size,
                                            y.leaves.begin(), y.leaves.begin() + y.size);
      });
      merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
      if (merged.size() > options.max_cuts) {
        // Priority pruning must never starve fanouts of small cuts: keep the
        // smallest structural cut alive alongside the best-ranked ones, or a
        // later merge may find no 6-feasible combination at all.
        const Cut smallest = *std::min_element(
            merged.begin(), merged.end(),
            [](const Cut& x, const Cut& y) { return x.size < y.size; });
        merged.resize(options.max_cuts);
        if (std::find(merged.begin(), merged.end(), smallest) == merged.end()) {
          merged.back() = smallest;
        }
      }
    }

    cuts[id].impl = merged;
    cuts[id].depth = static_cast<u16>(merged.empty() ? 0 : merged.front().depth + 1);
    if (barrier) {
      exposed[id] = {trivial(id)};
    } else {
      exposed[id] = merged;
      // Inverters are free in LUT fabrics; a real mapper never routes an
      // inverter output to a LUT pin, so NOT nodes expose no trivial cut.
      if (n.kind != NodeKind::kNot) exposed[id].push_back(trivial(id));
    }
  }

  // ---- covering ------------------------------------------------------------
  std::vector<NodeId> required;
  auto require = [&required](NodeId id) { required.push_back(id); };
  for (const auto& [name, po] : net.outputs()) require(po);
  for (NodeId dff : net.dffs()) {
    const NodeId d = net.node(dff).fanin[0];
    if (d != kNoNode) require(d);
  }
  for (const auto& bram : net.brams()) {
    for (NodeId in : bram.inputs) require(in);
  }
  for (NodeId id = 0; id < net.node_count(); ++id) {
    if (net.node(id).keep) require(id);
  }

  LutNetwork out;
  std::unordered_set<NodeId> mapped;
  while (!required.empty()) {
    const NodeId id = required.back();
    required.pop_back();
    if (mapped.count(id)) continue;
    const Node& n = net.node(id);
    if (n.kind == NodeKind::kCarry) {
      // Carry cells need no LUT but their operands must be implemented.
      if (mapped.count(id)) continue;
      mapped.insert(id);
      require(n.fanin[0]);
      require(n.fanin[1]);
      require(n.fanin[2]);
      continue;
    }
    if (is_source(n)) continue;  // direct connection, no LUT
    if (!is_gate(n)) continue;
    mapped.insert(id);
    if (cuts[id].impl.empty()) throw std::logic_error("gate without implementation cut");
    const Cut& c = cuts[id].impl.front();
    MappedLut lut;
    lut.root = id;
    lut.inputs.assign(c.leaves.begin(), c.leaves.begin() + c.size);
    lut.function = cone_function(net, id, lut.inputs);
    out.luts.push_back(std::move(lut));
    for (unsigned i = 0; i < c.size; ++i) require(c.leaves[i]);
  }

  // Topological storage order: increasing root id is fanin-first by
  // construction of the Network.
  std::sort(out.luts.begin(), out.luts.end(),
            [](const MappedLut& a, const MappedLut& b) { return a.root < b.root; });
  out.lut_of_node.assign(net.node_count(), LutNetwork::kNoLut);
  for (size_t i = 0; i < out.luts.size(); ++i) {
    out.lut_of_node[out.luts[i].root] = static_cast<u32>(i);
  }
  return out;
}

MappingStats mapping_stats(const netlist::Network& net, const LutNetwork& mapped) {
  MappingStats st;
  st.luts = mapped.lut_count();
  std::unordered_map<NodeId, size_t> level;
  size_t input_sum = 0;
  for (const MappedLut& lut : mapped.luts) {
    size_t lv = 0;
    for (NodeId in : lut.inputs) {
      auto it = level.find(in);
      if (it != level.end()) lv = std::max(lv, it->second);
    }
    level[lut.root] = lv + 1;
    st.max_depth = std::max(st.max_depth, lv + 1);
    for (size_t j = 0; j < lut.inputs.size(); ++j) {
      if (lut.function.depends_on(static_cast<unsigned>(j))) ++input_sum;
    }
  }
  (void)net;
  st.avg_inputs = mapped.lut_count() ? static_cast<double>(input_sum) / mapped.lut_count() : 0.0;
  return st;
}

}  // namespace sbm::mapper
