// The full bitstream-modification attack of Section VI, end to end:
//
//   1. z_t path      — scan the candidate family, verify each hit by
//                      patching it to constant 0 and checking that exactly
//                      one keystream bit goes dead (Section VI-C.1).
//   2. beta fault    — locate the LFSR-load MUX LUTs (full-table and
//                      half-table matching), zero their gamma branches and
//                      verify against the software model's key-independent
//                      zero-load reference (Section VI-D.2).
//   3. feedback path — with beta in place, classify every feedback-family
//                      hit by its key-independent signature: patching the
//                      LUT that carries v[i] makes the device reproduce the
//                      reference keystream with W bit i cut (Section VI-C.2,
//                      generalized per-bit).
//   4. alpha2        — two keystream computations resolve which pair of
//                      each LUT1's XOR trio is the FSM word, instead of
//                      3^32 exhaustive trials (Section VI-D.1).
//   5. extraction    — apply all faults to a pristine bitstream, read 16
//                      words (= S^33), reverse the LFSR 33 steps, recover
//                      K and IV, and confirm them against the unfaulted
//                      device (Section VI-D.3, Tables IV/V).
//
// The attacker's interface is strictly: bytes of the bitstream, plus the
// keystream oracle.  No netlist, placement or design knowledge is used.
//
// Fault tolerance (DESIGN.md §4f): every logical probe goes through the
// PipelineConfig::retry policy — transient oracle errors are absorbed by
// bounded retry, noisy reads are confirmed by r-repetition agreement voting,
// and an irrecoverable fault (device death, unconfirmable reads) makes the
// current phase return a *partial* AttackResult that carries the verified
// artifacts so far, instead of crashing or acting on a corrupt read.  The
// caller's probe cache is the checkpoint: export_probes it after a dead
// board, restore_probes it into the next run's cache, and the resumed run
// re-derives every artifact from cache hits.  The paper's oracle_runs
// metric counts logical probes only; retry/vote overhead is accounted
// separately.
#pragma once

#include <string>
#include <vector>

#include "attack/findlut.h"
#include "attack/oracle.h"
#include "attack/probe_session.h"
#include "runtime/probe_controller.h"
#include "runtime/retry.h"
#include "snow3g/reverse.h"

namespace sbm::attack {

/// The shared probe policy plus what only the key-recovery pipeline needs.
struct PipelineConfig : ProbeSessionConfig {
  /// Attacker-known IV the host uses (public parameter); needed only for
  /// the final confirmation of the recovered key.
  snow3g::Iv iv{};
  bool verbose = false;
};

struct ZPathLut {
  LutMatch match;
  unsigned bit = 0;           // keystream bit this LUT drives
  std::array<u8, 3> trio{};   // stored-table positions of the XOR trio
  int s0_var = -1;            // trio member carrying s0 (set by phase 4)
  bool operator==(const ZPathLut&) const = default;
};

/// A verified feedback-path rewrite.  The recipe is stored relative to the
/// site's current table so it can be replayed on any base bitstream (with
/// or without the beta patches): either the whole (half-)table is zeroed
/// (the LUT *is* v, possibly merged with the adder sum), or the variables
/// carrying the hypothesized XOR group are cofactored to 0 (Eq. (1)
/// generalized).
struct FeedbackLut {
  size_t byte_index = 0;
  std::array<u8, 4> order{};
  int half = -1;                // -1 = whole table, 0 = O5 half, 1 = O6 half
  bool zero_all = false;        // zero the selected (half-)table
  std::vector<u8> zero_vars;    // else cofactor these positions to 0
  unsigned bit = 0;             // W bit this rewrite cuts
  bool operator==(const FeedbackLut&) const = default;
};

/// The run's cost is its RunLedger base (DESIGN.md §4f): oracle_runs is the
/// paper's metric — one per logical probe however often retries and votes
/// re-ran it physically, so it is unchanged by the retry policy and the
/// noise level — and physical_runs = oracle_runs + retry_runs + vote_runs +
/// migration_runs.
struct AttackResult : runtime::RunLedger {
  bool success = false;
  /// An irrecoverable hardware fault (runtime::ProbeError::kDead or an
  /// unconfirmable oracle) stopped the pipeline early: `failure` names the
  /// phase, `abort_error` the underlying fault kind, `phase_runs` ends with
  /// the failing phase, and everything verified before the fault is retained
  /// here.  The settled probes live in the caller's cache (export_probes).
  bool partial = false;
  runtime::ProbeError abort_error = runtime::ProbeError::kNone;
  std::string failure;
  std::vector<std::string> log;

  std::vector<ZPathLut> lut1;         // 32 verified z-path LUTs
  std::vector<FeedbackLut> feedback;  // feedback covers of all 32 bits
  size_t mux_patches = 0;             // beta-fault LUT rewrites
  bool load_active_high = true;       // resolved polarity hypothesis

  std::vector<u32> faulty_keystream;    // Table IV analog
  snow3g::LfsrState recovered_state{};  // Table V analog (S^0)
  snow3g::RecoveredSecrets secrets{};
  bool key_confirmed = false;  // software model reproduces the clean device

  /// Logical probes spent per phase entered, in pipeline order (cost
  /// breakdown of oracle_runs); on a partial result the last is the phase
  /// the fault stopped.
  std::vector<std::pair<std::string, size_t>> phase_runs;
};

class Attack {
 public:
  Attack(Oracle& oracle, std::span<const u8> golden_bitstream, PipelineConfig config = {});

  AttackResult execute();

 private:
  /// Probing, caching and confirmation all live in the shared
  /// ProbeSession (attack/probe_session.h); the pipeline only adds the
  /// partial-result bookkeeping on top.
  runtime::ProbeOutcome probe(const std::vector<u8>& bytes) { return session_.probe(bytes); }
  std::vector<runtime::ProbeOutcome> probe_batch(std::span<const std::vector<u8>> batch) {
    return session_.probe_batch(batch);
  }
  /// When an irrecoverable fault is latched: marks `result` partial, names
  /// the phase in `failure`, and returns true (the phase must stop).
  bool lost(AttackResult& result);

  std::vector<u8> with_patches(const std::vector<u8>& base,
                               const std::vector<Patch>& patches) const {
    return session_.with_patches(base, patches);
  }
  /// Replays a verified feedback rewrite for application on `base`.  The
  /// rewrite recipe was verified on the beta-patched table, so it is applied
  /// in that context and the minterms the beta fault had zeroed (the gamma
  /// load branch of a folded s15 MUX) are restored from `base` afterwards —
  /// otherwise the final extraction bitstream would load a corrupted
  /// gamma(K, IV).
  Patch feedback_patch(const std::vector<u8>& base, const std::vector<u8>& base_beta,
                       const FeedbackLut& lut) const;
  void note(std::string message);

  bool phase_zpath(AttackResult& result);
  bool phase_beta(AttackResult& result);
  bool phase_feedback(AttackResult& result);
  bool phase_alpha2(AttackResult& result);
  bool phase_extract(AttackResult& result);

  Oracle& oracle_;
  PipelineConfig config_;
  /// The shared probe engine: one logical-probe contract (cache, confirmed
  /// reads, accounting) for this run.
  ProbeSession session_;
  const char* phase_ = "setup";
  std::vector<u8> golden_;     // pristine bitstream
  std::vector<u8> base_;       // golden with the CRC check disabled
  std::vector<u32> z_golden_;  // keystream of the unmodified device
  std::vector<Patch> beta_patches_;
  /// Sites whose beta match came from a MUX-with-feedback-fold shape: the
  /// s15 load MUXes that absorbed the top of the feedback tree, prime
  /// suspects for carrying the target XOR (probed first in phase 3).
  std::vector<size_t> fold_sites_;
  AttackResult* active_ = nullptr;
};

}  // namespace sbm::attack
