// FaultyOracle: decorator that makes any Oracle behave like flaky hardware.
//
// Wraps an inner oracle and injects faults — from a seeded NoiseProfile or a
// scripted FaultPlan — into every physical run.  Fault draws are a pure
// function of (seed, physical run index); run indexes are assigned in
// element order inside run_batch before the inner (possibly parallel,
// bit-sliced) execution, so the fault stream is identical for any batch
// width or thread count given the same probe order.
//
// The decorator is the hardware boundary for cost accounting: its runs()
// counter is the number of physical reconfiguration attempts the attacker
// paid for, including runs that ended in an injected fault.
//
// Inner-board contract: the inner oracle is an ideal board — its answer is
// a pure function of (image, words) and it only ever answers a keystream or
// kRejected.  The faults are this decorator's alone, so it draws every
// read's fault first and asks the inner board only for the reads whose
// answer it returns: a rejected, timed-out, truncated or post-death read
// needs no simulation, and a read whose image it has answered before (a
// confirmation vote re-reading the same probe) reuses the memoized clean
// answer under its own fault draw.  How much is simulated changes; what is
// answered, the fault stream and runs() do not.
#pragma once

#include "attack/oracle.h"
#include "common/flat_map.h"
#include "faultsim/noise.h"
#include "runtime/probe_cache.h"
#include "runtime/retry.h"

namespace sbm::faultsim {

class FaultyOracle : public attack::Oracle {
 public:
  /// Clean answers the memo holds at most.  Confirmation re-reads follow
  /// their first read within a call or two, so the memo only has to span
  /// the probes in flight; it is emptied when full.  Keys and outcomes
  /// only, never image copies: ~1.6 MB at the bound for 16-word reads.
  static constexpr size_t kMemoEntries = 8192;

  /// Stochastic noise drawn from `profile` (seeded, deterministic).
  FaultyOracle(attack::Oracle& inner, NoiseProfile profile)
      : inner_(inner),
        profile_(profile),
        death_(profile.death),
        reject_(profile.transient_reject),
        timeout_(profile.timeout),
        truncate_(profile.truncate),
        bit_flip_(profile.bit_flip) {}
  /// Scripted faults at exact physical run indexes; unlisted runs are clean.
  FaultyOracle(attack::Oracle& inner, FaultPlan plan)
      : inner_(inner), plan_(std::move(plan)), scripted_(true) {}

  /// A one-element run_batch: scalar callers get the same semantics.
  runtime::ProbeOutcome run(std::span<const u8> bitstream, size_t words) override;
  std::vector<runtime::ProbeOutcome> run_batch(std::span<const std::vector<u8>> bitstreams,
                                               size_t words) override;
  /// Fault injection is lane-agnostic; the scheduling grain is the inner
  /// device's, so confirmation re-reads keep riding the wide batch path.
  unsigned batch_lanes() const override { return inner_.batch_lanes(); }

  /// The device died permanently (kKill fired or profile.death triggered).
  bool dead() const { return dead_; }
  /// Physical run index the device died at (runs() order), or SIZE_MAX.
  size_t died_at() const { return died_at_; }

  // Injection counters (test/report instrumentation; a real attacker only
  // sees the observable outcomes).
  size_t injected_rejections() const { return injected_rejections_; }
  size_t injected_flips() const { return injected_flips_; }
  size_t injected_truncations() const { return injected_truncations_; }
  size_t injected_timeouts() const { return injected_timeouts_; }

  // Simulation ledger: runs() = inner_evaluations() + reused_reads() +
  // the reads a fault answered without the inner board.
  /// Images the inner board was asked to simulate.
  size_t inner_evaluations() const { return inner_evaluations_; }
  /// Reads answered from an earlier read of the same (image, words).
  size_t reused_reads() const { return reused_reads_; }
  /// Clean answers memoized now (at most kMemoEntries).
  size_t memo_entries() const { return memo_.size(); }

 private:
  /// Decides the fault for physical run `index` (does not apply it).
  FaultAction draw(size_t index) const;
  /// Applies `action` to the inner board's clean answer for run `index`
  /// (nullptr when the action needs none), updating the injection counters.
  /// `index` seeds the bit-flip position draws.
  runtime::ProbeOutcome apply(size_t index, FaultAction action,
                              const runtime::ProbeOutcome* clean, size_t words);

  attack::Oracle& inner_;
  NoiseProfile profile_{};
  FaultPlan plan_;
  bool scripted_ = false;
  Chance death_, reject_, timeout_, truncate_, bit_flip_;  // profile_'s rates
  bool dead_ = false;
  size_t died_at_ = static_cast<size_t>(-1);
  size_t injected_rejections_ = 0;
  size_t injected_flips_ = 0;
  size_t injected_truncations_ = 0;
  size_t injected_timeouts_ = 0;
  size_t inner_evaluations_ = 0;
  size_t reused_reads_ = 0;
  /// Clean inner answers by probe key (only values and kRejected).
  FlatMap<runtime::ProbeKey, runtime::ProbeOutcome, runtime::ProbeCache::KeyHash> memo_;
};

}  // namespace sbm::faultsim
