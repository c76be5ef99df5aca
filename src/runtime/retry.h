// Status-or-value probe results and bounded-attempt retry policy.
//
// Real bitstream-modification campaigns run against flaky hardware:
// reconfigurations glitch, keystream captures pick up bit errors, reads get
// truncated, boards time out and occasionally die for good (Puschner et al.,
// "Patching FPGAs"; Ender et al., "The Unpatchable Silicon" both report
// these as first-order obstacles).  The oracle therefore answers every probe
// with a ProbeOutcome — either the keystream words or a ProbeError — and the
// attack layer wraps each *logical* probe in a RetryPolicy: transient errors
// are retried with a bounded attempt budget, noisy value reads are confirmed
// by requiring `confirm` bit-identical repetitions (r-repetition agreement
// voting: two independently corrupted captures essentially never coincide,
// so an agreed value is the true one), and anything that cannot be confirmed
// escalates to kDead so the pipeline can stop with a partial result instead
// of acting on a corrupt read.
//
// Accounting contract: the paper's cost metric (RunLedger::oracle_runs)
// counts logical probes only.  Extra physical runs spent on retries and
// votes are tracked beside it in the same RunLedger, so the clean-run metric
// is unchanged by noise — see DESIGN.md §4f.
#pragma once

#include <concepts>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/bits.h"

namespace sbm::runtime {

/// Why a probe failed.
enum class ProbeError : u8 {
  kNone = 0,  // the probe succeeded (ProbeOutcome carries the keystream)
  /// The device refused the configuration.  Deterministic on a sound board
  /// (bad CRC, malformed packets) but also the observable of a transient
  /// configuration glitch — the retry layer disambiguates by re-trying:
  /// only a rejection that persists through every attempt is genuine.
  kRejected,
  /// The read came back detectably damaged (truncated capture), or a value
  /// could not be confirmed within the vote budget.
  kCorrupt,
  /// The device did not answer in time.  Transient unless it persists.
  kTimeout,
  /// The device is gone: timeouts/corruption exhausted the retry budget.
  /// Never retried; the pipeline phase containing it aborts with a partial
  /// result (its settled probes stay in the probe cache).
  kDead,
};

const char* probe_error_name(ProbeError e);

/// Status-or-value result of one oracle probe.  Mirrors the optional-like
/// API the pipeline historically used (operator bool / * / ->), with the
/// error taxonomy replacing the old undifferentiated nullopt.
class ProbeOutcome {
 public:
  ProbeOutcome() = default;  // rejected, like the old empty optional
  ProbeOutcome(std::vector<u32> keystream)
      : keystream_(std::move(keystream)), error_(ProbeError::kNone) {}
  ProbeOutcome(ProbeError error) : error_(error) {}
  ProbeOutcome(std::nullopt_t) {}
  ProbeOutcome(std::optional<std::vector<u32>> result) {
    if (result) {
      keystream_ = std::move(*result);
      error_ = ProbeError::kNone;
    }
  }

  bool ok() const { return error_ == ProbeError::kNone; }
  bool has_value() const { return ok(); }
  explicit operator bool() const { return ok(); }

  const std::vector<u32>& value() const { return keystream_; }
  const std::vector<u32>& operator*() const { return keystream_; }
  const std::vector<u32>* operator->() const { return &keystream_; }

  ProbeError error() const { return error_; }
  /// Worth another attempt: the fault is in the interaction, not the probe.
  bool transient() const {
    return error_ == ProbeError::kCorrupt || error_ == ProbeError::kTimeout;
  }

  friend bool operator==(const ProbeOutcome&, const ProbeOutcome&) = default;

 private:
  std::vector<u32> keystream_;
  ProbeError error_ = ProbeError::kRejected;
};

/// Bounded retry/vote budget for one logical probe.  The default policy is
/// single-shot: exactly one physical run per probe, no confirmation — the
/// noise-free fast path with zero overhead and byte-identical behavior to
/// the pre-fault-model pipeline.
struct RetryPolicy {
  /// Physical attempts absorbed per transient error (rejection, timeout,
  /// truncation) before the probe gives up.  1 = no retries.
  unsigned max_attempts = 1;
  /// Bit-identical value reads required to accept a keystream.  1 = accept
  /// the first read (noise-free deployment); r >= 2 enables agreement
  /// voting against capture bit-flips.
  unsigned confirm = 1;
  /// Value reads spent before declaring the oracle unconfirmable (kCorrupt
  /// -> escalated to kDead).  Only meaningful when confirm > 1.
  unsigned max_reads = 1;

  bool single_shot() const { return max_attempts <= 1 && confirm <= 1; }

  static RetryPolicy none() { return {}; }
  /// Voting policy for noisy hardware: confirm a value with `r` identical
  /// reads, absorb transients, and keep reading long enough that a sound
  /// (if noisy) board is never misdeclared dead.
  static RetryPolicy voting(unsigned r = 3) {
    RetryPolicy p;
    p.max_attempts = 6;
    p.confirm = r < 1 ? 1 : r;
    p.max_reads = 8 * p.confirm;
    return p;
  }

  friend bool operator==(const RetryPolicy&, const RetryPolicy&) = default;
};

/// The run ledger: every counter one probe run keeps, declared once and
/// carried as a base by every result, trial and report that records a run
/// (DESIGN.md §4f).  oracle_runs is the paper's cost metric (logical
/// probes); the rest is physical-layer overhead kept beside it:
/// physical_runs = oracle_runs + retry_runs + vote_runs + migration_runs.
struct RunLedger {
  size_t oracle_runs = 0;            // logical probes answered by the board
  size_t cache_hits = 0;             // probe requests answered by the cache
  size_t probe_calls = 0;            // probe requests (normally oracle_runs + cache_hits)
  size_t physical_runs = 0;          // reconfigurations the oracle performed
  size_t retry_runs = 0;             // re-issues after a transient error
  size_t vote_runs = 0;              // value reads beyond the first, for confirmation
  size_t migration_runs = 0;         // fleet replays and hedges (Oracle::internal_runs)
  size_t corruption_detections = 0;  // detectably damaged or disagreeing reads seen
  size_t transient_rejections = 0;   // rejections that vanished on retry

  RunLedger& operator+=(const RunLedger& o);
};

/// The ledger's fields in declaration order, with the names every JSON
/// record and registry counter uses.
inline constexpr std::pair<const char*, size_t RunLedger::*> kRunLedgerFields[] = {
    {"oracle_runs", &RunLedger::oracle_runs},
    {"cache_hits", &RunLedger::cache_hits},
    {"probe_calls", &RunLedger::probe_calls},
    {"physical_runs", &RunLedger::physical_runs},
    {"retry_runs", &RunLedger::retry_runs},
    {"vote_runs", &RunLedger::vote_runs},
    {"migration_runs", &RunLedger::migration_runs},
    {"corruption_detections", &RunLedger::corruption_detections},
    {"transient_rejections", &RunLedger::transient_rejections},
};

/// Calls fn(name, value&) for every ledger field, in declaration order.
/// `ledger` may be const and may be any type deriving from RunLedger.
template <typename Ledger, typename Fn>
  requires std::derived_from<std::remove_const_t<Ledger>, RunLedger>
void for_each_field(Ledger& ledger, Fn&& fn) {
  for (const auto& [name, member] : kRunLedgerFields) fn(name, ledger.*member);
}

inline RunLedger& RunLedger::operator+=(const RunLedger& o) {
  for (const auto& [name, member] : kRunLedgerFields) this->*member += o.*member;
  return *this;
}

inline const char* probe_error_name(ProbeError e) {
  switch (e) {
    case ProbeError::kNone: return "ok";
    case ProbeError::kRejected: return "rejected";
    case ProbeError::kCorrupt: return "corrupt";
    case ProbeError::kTimeout: return "timeout";
    case ProbeError::kDead: return "dead";
  }
  return "?";
}

}  // namespace sbm::runtime
