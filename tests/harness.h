// Shared test harness: drives a SNOW 3G design (netlist- or LUT-level
// simulator) through the warm-up / load / init / discard / generate
// sequence and collects keystream words.
#pragma once

#include <vector>

#include "mapper/lut_network.h"
#include "netlist/snow3g_design.h"
#include "snow3g/snow3g.h"

namespace sbm::testing {

template <typename Sim>
std::vector<u32> run_design(const netlist::Snow3gDesign& d, Sim& sim, const snow3g::Key& key,
                            const snow3g::Iv& iv, size_t words) {
  for (size_t i = 0; i < 4; ++i) {
    sim.set_input_word(d.key[i], key[i]);
    sim.set_input_word(d.iv[i], iv[i]);
  }
  std::vector<u32> z;
  netlist::drive_keystream(d, sim, words, [&] { z.push_back(sim.read_word(d.z)); });
  return z;
}

}  // namespace sbm::testing
