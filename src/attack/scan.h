// Candidate-family scanning: the step that produces the paper's Tables II
// and VI (number of target-LUT candidates per guessed Boolean function).
#pragma once

#include <span>
#include <string>
#include <vector>

#include "attack/findlut.h"
#include "logic/families.h"

namespace sbm::attack {

struct FamilyCount {
  logic::Candidate candidate;
  std::vector<LutMatch> matches;
  size_t count() const { return matches.size(); }
};

/// Runs FINDLUT for every candidate in the family in a single bitstream
/// pass: the whole family's pattern sets are compiled into one shared
/// first-chunk PatternIndex (attack/scan_engine.h, cached across calls and
/// campaign trials), so the cost is O(positions + bucket hits) instead of
/// O(candidates x positions x orders).  Element c is bit-identical to
/// find_lut(bitstream, family[c].function, options), for any thread count.
std::vector<FamilyCount> scan_family(std::span<const u8> bitstream,
                                     const std::vector<logic::Candidate>& family,
                                     const FindLutOptions& options = {});

/// The attack's working family: the paper's Table II candidates plus the
/// generalized gated-XOR shapes (every control polarity count for 2- and
/// 3-input XORs, with and without a linear pass-through input) that cover
/// implementations whose control encoding differs from the paper's victim.
const std::vector<logic::Candidate>& attack_family();

/// Candidates for the LFSR-load MUX LUTs (Section VI-D.2): f_MUX2, the
/// single 3-variable MUX and the MUX-with-feedback-fold shapes.
const std::vector<logic::Candidate>& mux_scan_family();

/// attack_family() filtered to one target path, in family order.  The
/// pipeline phases scan these subsets; exposing them as stable statics keeps
/// the compiled-index cache keyed on one canonical function list per phase.
const std::vector<logic::Candidate>& keystream_family();
const std::vector<logic::Candidate>& feedback_family();

/// Pre-compiles the shared pattern indexes of the three families every
/// pipeline phase scans (keystream, load-MUX, feedback), so campaign trials
/// fanning out across a pool find them cached instead of racing to compile
/// the same indexes.
void warm_scan_indexes(const FindLutOptions& options = {});

}  // namespace sbm::attack
