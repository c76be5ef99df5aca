// Pluggable per-probe confirmation controllers (DESIGN.md §4j).
//
// The attack layer wraps every *logical* probe in a sequential decision
// procedure: keep issuing physical reads until the probe's outcome is
// settled — a confirmed keystream value, a genuine (persistent) rejection,
// an unconfirmable read (kCorrupt) or device death.  A ProbeController owns
// that decision; the scheduler in ProbeSession::confirm_batch owns *when* the
// demanded reads actually run (it packs them into the oracle's bit-sliced
// batch lanes, refilling partially-settled chunks instead of re-running
// stragglers one by one).
//
// Two implementations:
//   * StaticVotingController — the RetryPolicy r-repetition vote, unchanged
//     from the original inline implementation: accept after `confirm`
//     bit-identical reads, demand one read at a time.  Kept as the
//     reference; the adaptive controller is differential-tested against it.
//   * AdaptiveController — a sequential probability ratio test: accept a
//     value with k agreeing reads as soon as the posterior odds that all k
//     are corrupted-and-colliding drop below a configured error bound,
//     with the per-read corruption rate estimated online from the live
//     outcome stream (optionally seeded from a known noise profile).  On a
//     mildly noisy board this settles most probes with 2 reads where the
//     static vote always pays for 3, cutting physical runs ~2x.
//
// Determinism contract: controller decisions are a pure function of the
// absorbed read sequence (absorb order), never of wall clock or thread
// count.  The scheduler absorbs on its own calling thread in issue order,
// so the full decision ledger replays exactly for the same (seed,
// run-index) fault stream.
#pragma once

#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "common/bits.h"
#include "runtime/retry.h"

namespace sbm::runtime {

/// Which confirmation controller the pipeline runs.
enum class ControllerKind : u8 { kStatic = 0, kAdaptive = 1 };

const char* controller_kind_name(ControllerKind kind);
/// "static" | "adaptive" -> kind; nullopt on anything else.
std::optional<ControllerKind> parse_controller_kind(std::string_view name);

/// Tuning for the adaptive sequential test.  The defaults are safe when
/// nothing is known about the board: the corruption-rate estimate starts at
/// the uninformative 0.5 (demanding 3-deep agreement) and relaxes toward
/// 2-deep agreement as clean evidence accumulates.  When the noise profile
/// is known, faultsim::adaptive_config_for() seeds the prior so the cheap
/// stopping depth applies from the first probe.
struct AdaptiveConfig {
  /// Accept a value once the odds that every agreeing read is corrupted
  /// (and all collided on the same wrong value) are at most this bound.
  double accept_error = 1e-3;
  /// P(two independently corrupted captures show the same value).  For
  /// capture bit-flip noise the dominant corruption is a single flipped bit
  /// among the 32*words keystream bits, so two corrupted reads collide only
  /// by flipping the same bit: ~(P(single flip | corrupted))^2 / bits, about
  /// 1.2e-3 for 16-word reads at mild flip rates.
  double collision_odds = 1.2e-3;
  /// Agreement-depth floor: never accept on fewer identical reads than
  /// this, however clean the board looks.  2 keeps a lucky first read from
  /// ever being trusted alone under noise.
  unsigned min_agree = 2;
  /// Value reads spent before declaring the probe unconfirmable (kCorrupt).
  unsigned max_reads = 24;
  /// Consecutive error attempts (rejection/timeout/truncation) absorbed
  /// before settling kRejected/kDead — identical semantics to
  /// RetryPolicy::max_attempts, and deliberately conservative so a sound
  /// but noisy board is never misdeclared dead.
  unsigned max_attempts = 6;
  /// Beta-prior seed for the per-read corruption estimate: the estimator
  /// starts as if `prior_weight` reads were already seen, `prior_corrupt`
  /// of them (as a fraction) corrupted.
  double prior_corrupt = 0.5;
  double prior_weight = 8;
  /// The stopping rule evaluates its odds at p_hat plus this many standard
  /// errors of the estimate, so early acceptance (while the estimate rests
  /// mostly on the prior) errs strict and relaxes as real reads accumulate.
  double confidence_z = 1.0;

  friend bool operator==(const AdaptiveConfig&, const AdaptiveConfig&) = default;
};

/// Sequential stopping rule for a batch of logical probes.  Usage protocol
/// (driven by ProbeSession::confirm_batch):
///
///   begin(n);                         // slots 0..n-1, no reads absorbed
///   while any slot unsettled:
///     issue reads_wanted(slot) physical reads for some unsettled slots
///     absorb(slot, read, ledger) for each answer, in issue order
///   take(slot)                        // settled outcome per slot
///
/// reads_wanted is a *demand*, never padding: the minimum further reads the
/// slot needs to settle in the best case, so honest physical-run accounting
/// is preserved (no speculative lanes are ever spent).
class ProbeController {
 public:
  virtual ~ProbeController() = default;

  virtual const char* name() const = 0;
  /// The first read is final: the scheduler returns raw oracle outcomes and
  /// skips the confirmation machinery entirely (noise-free fast path).
  virtual bool single_shot() const = 0;

  /// Starts a fresh confirmation session of `n` probes.
  virtual void begin(size_t n) = 0;
  /// Absorbs one physical read for `slot` (must be unsettled).  Updates the
  /// issue-independent parts of the run ledger (corruption detections,
  /// transient rejections) in `ledger`.
  virtual void absorb(size_t slot, const ProbeOutcome& read, RunLedger& ledger) = 0;
  virtual bool settled(size_t slot) const = 0;
  /// The settled outcome: a value, kRejected (persistent), kCorrupt
  /// (unconfirmable) or kDead.  Valid once settled(slot).
  virtual ProbeOutcome take(size_t slot) = 0;
  /// Additional physical reads the slot minimally needs (>= 1 while
  /// unsettled, 0 once settled).
  virtual unsigned reads_wanted(size_t slot) const = 0;
  /// True when the next read issued for `slot` re-tries an error — the
  /// issue-time retry-vs-vote accounting split of DESIGN.md §4f.
  virtual bool retrying(size_t slot) const = 0;
};

/// The r-repetition agreement vote of RetryPolicy, as a controller.  The
/// decision procedure is byte-identical to the original inline
/// implementation, including its one-read-at-a-time demand, so the physical
/// read ledger — and therefore every scripted-fault test built on exact
/// (seed, run-index) maps — is unchanged.
std::unique_ptr<ProbeController> make_static_controller(const RetryPolicy& policy);

/// The adaptive sequential-test controller.
std::unique_ptr<ProbeController> make_adaptive_controller(const AdaptiveConfig& config);

/// Factory keyed on kind; `retry` parameterizes the static controller,
/// `adaptive` the adaptive one.
std::unique_ptr<ProbeController> make_controller(ControllerKind kind, const RetryPolicy& retry,
                                                 const AdaptiveConfig& adaptive);

}  // namespace sbm::runtime
