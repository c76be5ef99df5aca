// Structural (gate-level) SNOW 3G design generator — the "VHDL
// implementation" under attack, expressed as a Boolean network.
//
// Architecture (Fig. 2/3 of the paper):
//   * 16 x 32 LFSR stage registers s0..s15, 3 x 32 FSM registers R1..R3.
//   * Control inputs `load`, `init`, `gen` driven by the host, exactly one
//     asserted per cycle:
//       load: S <- gamma(K, IV) (built from the key/IV inputs), FSM <- 0.
//       init: LFSR feedback consumes the FSM word W (initialization round).
//       gen : keystream mode; z = s0 xor W is valid on the output.
//   * The target node v of the paper is the 32 2-input XOR gates
//     v[i] = add2[i] xor R2[i] computing the FSM output word
//     W = (s15 boxplus R1) xor R2, shared by the z_t path and (gated by
//     `init`) by the LFSR feedback path.
//   * MUL_alpha / DIV_alpha are GF(2)-linear and are instantiated as XOR
//     trees; S1/S2 are BRAM lookups (kept out of the LUT fabric).
//   * Key and IV enter as inputs; the key is stored in the bitstream (attack
//     model assumption 2) and wired to these inputs by the device model.
//
// The protected variant additionally marks the 32 target XORs v and five
// other 32-bit XOR vectors with DONT_TOUCH (keep), forcing the mapper to
// cover them with trivial cuts (the countermeasure of Section VII).
#pragma once

#include "netlist/netlist.h"

namespace sbm::netlist {

struct Snow3gDesign {
  Network net;

  // Interface nets.
  std::array<Word, 4> key;  // k0..k3
  std::array<Word, 4> iv;   // iv0..iv3
  NodeId load = kNoNode;
  NodeId init = kNoNode;
  NodeId gen = kNoNode;
  Word z{};  // keystream output

  // Ground-truth bookkeeping for evaluating the attack (never consulted by
  // the attack code itself).
  std::array<NodeId, 32> target_v{};        // the paper's node v, bit i
  std::vector<NodeId> decoy_xors;           // protected variant: 5 x 32 XORs
  std::array<NodeId, 32> zpath_xor{};       // z[i] = s0[i] xor v[i] gates
  std::array<NodeId, 32> feedback_inject{}; // s15.D path XOR consuming v
  // Equalized variant: the three kept XOR2 copies c1..c3 per bit whose XOR
  // reconstitutes v[i]; empty otherwise.
  std::array<std::array<NodeId, 3>, 32> target_copies{};
  bool protected_variant = false;
  bool equalized = false;
};

/// The host's keystream transaction, shared by every simulator of the design
/// (netlist, scalar LUT, bit-sliced LUT): one warm-up clock so the gamma
/// pipeline registers capture K/IV, load, 32 init rounds and one discarded
/// clock, then `words` times settle / read() / clock, where read() takes z
/// off the settled outputs.  The caller sets the key and IV inputs first.
template <class Sim, class Read>
void drive_keystream(const Snow3gDesign& d, Sim& sim, size_t words, Read&& read) {
  auto drive = [&](bool load, bool init, bool gen) {
    sim.set_input(d.load, load);
    sim.set_input(d.init, init);
    sim.set_input(d.gen, gen);
  };
  drive(false, false, false);
  sim.step();
  drive(true, false, false);
  sim.step();
  for (int round = 0; round < 32; ++round) {
    drive(false, true, false);
    sim.step();
  }
  drive(false, false, true);
  sim.step();  // discarded clock
  for (size_t t = 0; t < words; ++t) {
    drive(false, false, true);
    sim.settle();
    read();
    sim.clock();
  }
}

/// Builds the unprotected design (Section VI).
Snow3gDesign build_snow3g_design();

/// Builds the protected design (Section VII): target + decoy XORs are marked
/// keep so the mapper covers them with trivial cuts.
Snow3gDesign build_protected_snow3g_design();

/// Builds the response-equalized protected design: instead of one kept
/// target XOR per bit, three kept copies c1..c3 = add2[i] xor R2[i] feed an
/// unkept 3-input XOR that reconstitutes v[i].  Zeroing any one copy zeroes
/// v[i] (c_j ^ c_k = 0 for the surviving pair), so every copy produces the
/// *same* source-cut keystream response — an adaptive oracle cannot tell
/// which placement is "the" target, only identify the 3-element class.
Snow3gDesign build_equalized_snow3g_design();

}  // namespace sbm::netlist
