#include "attack/resistance.h"

#include <algorithm>

#include "attack/countermeasure.h"
#include "attack/scan.h"
#include "bitstream/patcher.h"

namespace sbm::attack {

std::string ResistanceReport::summary() const {
  std::string s;
  s += "occupied LUTs: " + std::to_string(occupied_luts) + " (" +
       std::to_string(p_class_histogram.size()) + " P classes)\n";
  s += "largest z-path candidate family: " + std::to_string(keystream_family_max) + "\n";
  s += "feedback family total: " + std::to_string(feedback_family_total) + "\n";
  s += "XOR2-half candidates: " + std::to_string(xor2_half_candidates) +
       " (exhaustive isolation ~2^" +
       std::to_string(static_cast<long>(log2_exhaustive_search)) + ")\n";
  s += attackable ? "verdict: ATTACKABLE via whole-table family scans\n"
                  : "verdict: whole-table scans insufficient; attacker falls back to "
                    "half-table exhaustion\n";
  return s;
}

ResistanceReport evaluate_resistance(std::span<const u8> bitstream,
                                     const FindLutOptions& options) {
  ResistanceReport report;

  // LUT census over the frame geometry.
  const bitstream::LutSlots slots(bitstream);
  const std::vector<size_t> occupied = slots.occupied(bitstream, options.offset_d);
  report.occupied_luts = occupied.size();
  report.empty_slots = slots.positions().size() - occupied.size();
  for (const size_t l : occupied) {
    const u64 init = bitstream::read_lut_init(bitstream, l, options.offset_d,
                                              bitstream::device_chunk_orders()[0]);
    report.p_class_histogram[logic::p_canonical(logic::TruthTable6(init)).bits()]++;
  }
  for (const auto& [tt, count] : report.p_class_histogram) {
    report.top_classes.emplace_back(count, tt);
  }
  std::sort(report.top_classes.rbegin(), report.top_classes.rend());

  // Attack-family exposure.
  for (const FamilyCount& fc : scan_family(bitstream, logic::table2_family(), options)) {
    report.table2_counts[fc.candidate.name] = fc.count();
    if (fc.candidate.path == logic::TargetPath::kFeedback) {
      report.feedback_family_total += fc.count();
    }
  }
  for (const FamilyCount& fc : scan_family(bitstream, attack_family(), options)) {
    if (fc.candidate.path == logic::TargetPath::kKeystream) {
      report.keystream_family_max = std::max(report.keystream_family_max, fc.count());
    }
  }
  report.attackable = report.keystream_family_max >= 32;

  // Half-table fallback cost.  Count physical (site, half) placements, not
  // raw (position, permutation) matches: an XOR2 matches under several input
  // permutations and a vacuous single-output table matches as both halves,
  // so the raw count tallies decoy placements with replacement and inflates
  // the C(n, 32) bound the defender reports.
  report.xor2_half_candidates = unique_xor2_half_sites(bitstream, options).size();
  if (report.xor2_half_candidates >= 64) {
    report.log2_exhaustive_search =
        log2_binomial(static_cast<unsigned>(report.xor2_half_candidates) - 32, 32);
  }
  return report;
}

}  // namespace sbm::attack
