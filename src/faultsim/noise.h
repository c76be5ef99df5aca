// Deterministic unreliable-hardware model for the attack pipeline.
//
// Two ways to specify faults:
//   * NoiseProfile — seeded stochastic noise: every physical run draws its
//     faults from mix(seed, run_index) only, so a given profile produces the
//     exact same fault sequence for the same probe order, regardless of
//     thread count or wall clock.  Profiles model the obstacles reported by
//     real bitstream-modification campaigns (Puschner et al., "Patching
//     FPGAs"; Ender et al., "The Unpatchable Silicon"): transient
//     configuration rejections, keystream capture bit-flips, truncated
//     reads, timeouts, and escalating-to-permanent device death.
//   * FaultPlan — a scripted schedule of exact faults at exact physical run
//     indexes, for tests that need one specific fault in one specific
//     pipeline phase.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/bits.h"
#include "common/rng.h"
#include "runtime/probe_controller.h"

namespace sbm::faultsim {

/// Per-run fault rates.  All-zero (the default) is a perfect board.
struct NoiseProfile {
  /// P(configuration transiently rejected) per run — the glitch class the
  /// retry layer absorbs by re-trying.
  double transient_reject = 0;
  /// P(flip) per generated keystream bit — silent corruption, only
  /// detectable by agreement voting.
  double bit_flip = 0;
  /// P(read truncated) per run — detectable corruption (short read).
  double truncate = 0;
  /// P(no answer) per run — transient timeout.
  double timeout = 0;
  /// P(device dies permanently) per run.  After death every run times out;
  /// the retry layer escalates the persistent timeouts to kDead.
  double death = 0;
  /// Noise stream seed; campaigns re-seed per trial for independence.
  u64 seed = 0xfa017;

  /// No noise configured: the FaultyOracle becomes a pass-through.
  bool quiet() const {
    return transient_reject == 0 && bit_flip == 0 && truncate == 0 && timeout == 0 &&
           death == 0;
  }

  /// Perfect board.
  static NoiseProfile none() { return {}; }
  /// Default flaky board: 2% transient configuration failures, 1e-3
  /// keystream bit-flip rate, 0.5% truncated reads, 0.5% timeouts.  Meets
  /// the acceptance floor (>= 1e-3 flips, >= 2% transient rejections).
  static NoiseProfile mild();
  /// Aggressively flaky board for stress tests.
  static NoiseProfile harsh();
  /// Named profile lookup ("none" | "mild" | "harsh"), with an optional
  /// "@<seed>" suffix to re-seed the noise stream.  nullopt on unknown name.
  static std::optional<NoiseProfile> named(std::string_view spec);

  /// This profile with every fault rate multiplied by `factor` (clamped to
  /// [0, 1]); the seed is unchanged.  Used by the bench noise-level sweep.
  NoiseProfile scaled(double factor) const;

  friend bool operator==(const NoiseProfile&, const NoiseProfile&) = default;
};

/// Bernoulli(rate) from one u64 draw x: true iff double(x) < rate * 2^64.
/// The u64 -> double conversion is monotone, so that holds exactly for the x
/// below a threshold found once, and a draw is one integer compare.  A rate
/// <= 0 or >= 1 decides without drawing.
class Chance {
 public:
  Chance() = default;  // never
  explicit Chance(double rate);
  bool operator()(Rng& rng) const { return always_ || (below_ != 0 && rng.next_u64() < below_); }
  /// Draws below this succeed (0 when the rate is <= 0 or >= 1).
  u64 below() const { return below_; }

 private:
  u64 below_ = 0;
  bool always_ = false;
};

/// Adaptive-controller tuning seeded from a *known* noise profile: the
/// corruption-rate prior is the exact per-read probability that at least one
/// of the 32*words keystream bits flipped, weighted strongly enough that the
/// cheap stopping depth applies from the first probe, and the collision odds
/// follow the single-bit-flip physics (two corrupted reads agree only when
/// both flipped the same bit).  With an unknown profile keep the
/// AdaptiveConfig defaults instead — the estimator starts uninformed and
/// learns the rate online.
runtime::AdaptiveConfig adaptive_config_for(const NoiseProfile& profile, size_t words);

/// One scripted fault, applied to the physical run it is scheduled at.
struct FaultAction {
  enum class Kind : u8 {
    kNone = 0,
    kReject,    // transient configuration rejection
    kFlipBit,   // flip `bit` of keystream word `word` (silent corruption)
    kTruncate,  // return only `keep_words` words (detectable corruption)
    kTimeout,   // no answer this run
    kKill,      // device dies: this run and every later one times out
  };
  Kind kind = Kind::kNone;
  u32 word = 0;        // kFlipBit: word index
  u32 bit = 0;         // kFlipBit: bit 0..31
  u32 keep_words = 0;  // kTruncate: words returned
};

/// Exact fault schedule keyed by physical run index (0-based, in the
/// FaultyOracle's own run order).  Unlisted runs are fault-free.
class FaultPlan {
 public:
  FaultPlan& at(size_t run_index, FaultAction action) {
    schedule_[run_index] = action;
    return *this;
  }
  FaultPlan& reject_at(size_t i) { return at(i, {FaultAction::Kind::kReject, 0, 0, 0}); }
  FaultPlan& flip_at(size_t i, u32 word, u32 bit) {
    return at(i, {FaultAction::Kind::kFlipBit, word, bit, 0});
  }
  FaultPlan& truncate_at(size_t i, u32 keep_words) {
    return at(i, {FaultAction::Kind::kTruncate, 0, 0, keep_words});
  }
  FaultPlan& timeout_at(size_t i) { return at(i, {FaultAction::Kind::kTimeout, 0, 0, 0}); }
  FaultPlan& kill_at(size_t i) { return at(i, {FaultAction::Kind::kKill, 0, 0, 0}); }

  FaultAction action_at(size_t run_index) const {
    const auto it = schedule_.find(run_index);
    return it == schedule_.end() ? FaultAction{} : it->second;
  }
  bool empty() const { return schedule_.empty(); }

 private:
  std::unordered_map<size_t, FaultAction> schedule_;
};

}  // namespace sbm::faultsim
