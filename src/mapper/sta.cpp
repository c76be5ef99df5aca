#include "mapper/sta.h"

#include <algorithm>
#include <unordered_map>

namespace sbm::mapper {

using netlist::kNoNode;
using netlist::Node;
using netlist::NodeId;
using netlist::NodeKind;

namespace {

struct Arrival {
  double time = 0;
  NodeId source = kNoNode;  // launching register / input for traceback
  size_t levels = 0;
};

std::string describe(const netlist::Network& net, NodeId id) {
  const std::string& name = net.name_of(id);
  if (!name.empty()) return name;
  const Node& n = net.node(id);
  if (n.kind == NodeKind::kBramOut) {
    return net.brams()[n.bram].name + ".dout[" + std::to_string(n.bram_bit) + "]";
  }
  return "n" + std::to_string(id);
}

}  // namespace

StaResult run_sta(const netlist::Network& net, const LutNetwork& mapped,
                  const TimingModel& model) {
  std::unordered_map<NodeId, Arrival> arrival;

  auto source_arrival = [&](NodeId id) -> Arrival {
    const Node& n = net.node(id);
    switch (n.kind) {
      case NodeKind::kDff:
        return {model.clk_to_q_ns, id, 0};
      case NodeKind::kInput:
        return {0.0, id, 0};
      default:
        return {0.0, id, 0};
    }
  };

  auto get = [&](NodeId id) -> Arrival {
    const auto it = arrival.find(id);
    if (it != arrival.end()) return it->second;
    return source_arrival(id);
  };

  // BRAM outputs: inputs settle first (they are LUT roots or sources), then
  // one net delay into the BRAM and the access delay.
  // LUT roots: max input arrival + net + LUT delay.  Process in topological
  // (id) order with BRAMs interleaved at their output-node ids.
  for (NodeId id : net.topo_order()) {
    const Node& n = net.node(id);
    if (n.kind == NodeKind::kBramOut) {
      Arrival worst{};
      const netlist::Bram& b = net.brams()[n.bram];
      for (NodeId in : b.inputs) {
        const Arrival a = get(in);
        if (a.time >= worst.time) worst = a;
      }
      arrival[id] = {worst.time + model.net_delay_ns + model.bram_delay_ns, worst.source,
                     worst.levels};
      continue;
    }
    if (n.kind == NodeKind::kCarry) {
      Arrival worst{};
      for (NodeId in : n.fanin) {
        const Arrival a = get(in);
        if (a.time >= worst.time) worst = a;
      }
      arrival[id] = {worst.time + model.carry_delay_ns, worst.source, worst.levels};
      continue;
    }
    const u32 l = mapped.lut_at(id);
    if (l == LutNetwork::kNoLut) continue;
    const MappedLut& lut = mapped.luts[l];
    Arrival worst{};
    for (NodeId in : lut.inputs) {
      const Arrival a = get(in);
      if (a.time >= worst.time) worst = a;
    }
    arrival[id] = {worst.time + model.net_delay_ns + model.lut_delay_ns, worst.source,
                   worst.levels + 1};
  }

  // Endpoints: DFF D inputs and primary outputs.
  std::vector<TimingPath> paths;
  auto add_endpoint = [&](NodeId data, const std::string& end_name) {
    if (data == kNoNode) return;
    const Arrival a = get(data);
    TimingPath p;
    p.delay_ns = a.time + model.net_delay_ns + model.setup_ns;
    p.start = a.source == kNoNode ? "<const>" : describe(net, a.source);
    p.end = end_name;
    p.logic_levels = a.levels;
    paths.push_back(std::move(p));
  };
  for (NodeId dff : net.dffs()) add_endpoint(net.node(dff).fanin[0], describe(net, dff));
  for (const auto& [name, po] : net.outputs()) add_endpoint(po, name);

  std::sort(paths.begin(), paths.end(),
            [](const TimingPath& a, const TimingPath& b) { return a.delay_ns > b.delay_ns; });

  StaResult res;
  if (!paths.empty()) {
    res.critical = paths.front();
    res.critical_delay_ns = paths.front().delay_ns;
    paths.resize(std::min<size_t>(paths.size(), 10));
    res.slowest = std::move(paths);
  }
  return res;
}

}  // namespace sbm::mapper
