// Oracle-guided countermeasure cracker (SAT-attack style).
//
// The Section VII countermeasure hides the 32 target XORs v[i] among ~10x
// as many identically-shaped XOR2 placements and reports the static
// exhaustive-search bound C(n - 32, 32) ~ 2^115.  That bound assumes the
// attacker must *choose* a 32-placement subset blindly.  An attacker with
// the device oracle is not blind: like a SAT attack on logic locking, it
// treats the decoy assignment as an unknown key, keeps the set of
// hypotheses consistent with every observed response, and each round
// issues the fault pattern that maximally splits the surviving set.
//
//   * Candidate model — every frame-aligned XOR2 half placement is a
//     potential source of some v[i] (DecoyHypothesisSet).
//   * Probe — zero a subset of candidate halves on top of the zero-load
//     (beta) baseline and classify the keystream against a 65-class
//     reference library: baseline, source-cut(i) (v[i] dead on both the
//     z and feedback paths) and column-dead(i) (only z[i] dead — the
//     z-path decoy's signature), everything else kOther.
//   * Round 1 (singletons) — a single-site zeroing is the maximal-entropy
//     split available: its outcome ranges over all 66 classes and is
//     independent of every other site, so one batched round classifies
//     the whole pool.  The hypothesis measure sum_i log2(u + |C_i|)
//     (u = unclassified sites, C_i = bit-i claimants) drops from the
//     static bound to ~0-50 bits.
//   * Round 2 (pairs) — bits with several source-cut claimants get every
//     intra-class pair zeroed together.  A baseline response proves the
//     pair cancels (an XOR-recombined copy class): if *all* pairs cancel,
//     the class is response-equalized and no adaptive probe whatsoever can
//     separate its members — the cracker terminates with that proof of
//     ambiguity instead of a unique identification.
//
// The engine is split so the logic is testable without a device: the
// DecoyHypothesisSet + run_crack_loop core speaks candidate *ids* against
// an abstract batch oracle; the Cracker binds it to a ProbeSession over
// the bit-sliced device oracle.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "attack/countermeasure.h"
#include "attack/oracle.h"
#include "attack/probe_session.h"

namespace sbm::attack {

/// Classified keystream response of a candidate-subset zeroing probe.
enum class ResponseClass : u8 {
  kBaseline,    // indistinguishable from the beta baseline
  kSourceCut,   // matches the source-cut(bit) reference: claims to be v[bit]
  kColumnDead,  // matches column-dead(bit): a z-path-only decoy signature
  kOther,       // some other corruption
  kRejected,    // device refused the patched bitstream
};

struct ClassifiedResponse {
  ResponseClass cls = ResponseClass::kOther;
  int bit = -1;  // for kSourceCut / kColumnDead, else -1
  bool operator==(const ClassifiedResponse&) const = default;
};

/// What a candidate id is currently believed to be.
enum class CandidateState : u8 {
  kUnknown,     // not probed yet: could still be any bit's source
  kClaimant,    // singleton gave source-cut(bit): possible source of `bit`
  kEliminated,  // baseline / column-dead / other / rejected: not a source
};

/// The surviving "which placements are the real v sources" hypothesis set.
///
/// Candidates are opaque ids 0..size-1.  The measure
///   log2_hypotheses() = sum_i log2(u + |C_i|)
/// (u = unknown candidates, C_i = claimants of bit i) upper-bounds the
/// log2 count of assignments consistent with the evidence so far, equals 0
/// exactly when the assignment is unique, and strictly decreases whenever
/// any candidate leaves kUnknown — the monotone-progress invariant the
/// property tests pin.
class DecoyHypothesisSet {
 public:
  explicit DecoyHypothesisSet(size_t candidates, unsigned bits = 32);

  size_t size() const { return state_.size(); }
  unsigned bits() const { return static_cast<unsigned>(claimants_.size()); }

  /// Records a singleton response for `id`.
  void classify(size_t id, const ClassifiedResponse& response);
  /// Records a pair response (both ids zeroed in one probe).
  void note_pair(size_t a, size_t b, const ClassifiedResponse& response);

  CandidateState state(size_t id) const { return state_[id]; }
  const std::vector<size_t>& claimants(unsigned bit) const { return claimants_[bit]; }
  size_t unknown() const { return unknown_; }

  double log2_hypotheses() const;

  /// Every bit has exactly one claimant and nothing is unclassified.
  bool unique() const;
  /// Some bit's claimant class is proven response-equalized: every
  /// intra-class pair cancels to baseline, so its members are
  /// interchangeable under any further fault pattern.
  bool proven_ambiguous() const;
  /// True when `bit` has > 1 claimants and all pairs probed baseline.
  bool bit_proven_ambiguous(unsigned bit) const;

  /// Greedy probe planning.  While unknowns remain, the next round is one
  /// singleton per unknown id (the maximal-entropy split).  Afterwards,
  /// bits with multiple claimants get their unprobed intra-class pairs.
  /// An empty plan means the loop is done (unique, proven ambiguous, or
  /// out of informative probes).
  std::vector<std::vector<size_t>> plan() const;

 private:
  std::vector<CandidateState> state_;
  std::vector<int> claimed_bit_;                 // per id, -1 unless kClaimant
  std::vector<std::vector<size_t>> claimants_;   // per bit, sorted ids
  std::map<std::pair<size_t, size_t>, ClassifiedResponse> pairs_;
  size_t unknown_ = 0;
};

/// Batch oracle abstraction: each entry is a set of candidate ids zeroed
/// together; nullopt marks an unanswerable probe (device lost).
using CrackProbeFn = std::function<std::vector<std::optional<ClassifiedResponse>>(
    const std::vector<std::vector<size_t>>&)>;

struct CrackLoopStats {
  size_t rounds = 0;
  size_t probes = 0;  // logical probes issued through the oracle fn
  std::vector<double> log2_by_round;
  bool aborted = false;  // oracle returned nullopt mid-round
};

/// Runs the greedy split loop until the hypothesis set is unique, proven
/// ambiguous, or no informative probe remains.  Deterministic: probe order
/// is a pure function of the hypothesis state.
CrackLoopStats run_crack_loop(DecoyHypothesisSet& hyp, const CrackProbeFn& probe);

/// The cracker runs on the shared probe policy.  `words` >= 16 keeps the 65
/// reference classes pairwise distinct.  It resumes exactly as the Attack
/// does: the caller's `cache` is the checkpoint — export_probes it (and
/// probes_to_json it) after a board dies, restore_probes a prior run's
/// outcomes into it first, and identical probes are then answered without
/// touching the board.
using CrackerConfig = ProbeSessionConfig;

/// Probe accounting is the RunLedger base, under the same contract as
/// AttackResult: oracle_runs counts the logical probes the cracker needed to
/// reach its verdict — the number the static C(n - 32, 32) bound claims must
/// be ~2^115.
struct CrackResult : runtime::RunLedger {
  bool success = false;  // ran to a verdict (unique or proven ambiguous)
  bool unique = false;
  bool proven_ambiguous = false;
  std::string failure;

  size_t candidates = 0;        // per-half candidate placements probed
  size_t unique_sites = 0;      // defender-metric site count (vacuous folded)
  double log2_static_bound = 0; // C(unique_sites - 32, 32), the defender claim
  double log2_hypotheses_final = 0;
  size_t rounds = 0;
  std::vector<double> log2_by_round;

  /// Per bit: byte indexes of the surviving source claimants (size 1 when
  /// unique; the whole equalized class otherwise).
  std::array<std::vector<size_t>, 32> claimant_bytes;

  std::vector<std::string> log;
};

/// Device-bound cracker: binds the hypothesis loop to a ProbeSession over
/// the batch oracle, with the same CRC / cache / controller plumbing as the
/// key-recovery Attack.
class Cracker {
 public:
  Cracker(Oracle& oracle, std::span<const u8> golden, const CrackerConfig& config);

  CrackResult execute();

 private:
  Oracle& oracle_;
  CrackerConfig config_;
  ProbeSession session_;
  std::vector<u8> golden_;
};

}  // namespace sbm::attack
