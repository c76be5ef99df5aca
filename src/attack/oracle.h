// The attacker's view of the victim: load a (modified) bitstream, get
// keystream words back.  Nothing else — no netlist, no placement database.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/bits.h"
#include "fpga/system.h"
#include "runtime/retry.h"
#include "runtime/thread_pool.h"
#include "simd/backend.h"
#include "snow3g/snow3g.h"

namespace sbm::attack {

class Oracle {
 public:
  virtual ~Oracle() = default;

  /// Loads `bitstream` into the victim and generates `words` keystream
  /// words.  The outcome is status-or-value (runtime::ProbeOutcome): the
  /// keystream on success, otherwise a ProbeError — kRejected when the
  /// device refuses the configuration, and on flaky hardware kCorrupt /
  /// kTimeout / kDead (see runtime/retry.h; an ideal simulated device only
  /// ever rejects).
  virtual runtime::ProbeOutcome run(std::span<const u8> bitstream, size_t words) = 0;

  /// Runs a batch of independent candidates; element i is run(bitstreams[i],
  /// words).  Each element still costs one reconfiguration in the paper's
  /// metric (runs() grows by bitstreams.size()) — batching only changes
  /// host-side wall clock, not attack cost.  The default loops over run().
  virtual std::vector<runtime::ProbeOutcome> run_batch(
      std::span<const std::vector<u8>> bitstreams, size_t words) {
    std::vector<runtime::ProbeOutcome> out;
    out.reserve(bitstreams.size());
    for (const auto& b : bitstreams) out.push_back(run(b, words));
    return out;
  }

  /// Number of configuration+keystream runs performed so far: every
  /// physical reconfiguration of the board, including the retries and
  /// confirmation votes the attack layer accounts separately from the
  /// paper's per-logical-probe cost metric.
  size_t runs() const { return runs_; }

  /// Lanes one run_batch chunk can execute together — the scheduling grain
  /// the attack layer packs confirmation re-reads into (a re-read riding a
  /// partially-filled chunk is wall-clock free).  1 means the oracle runs
  /// probes one at a time.
  virtual unsigned batch_lanes() const { return 1; }

  /// Physical runs the oracle spent on its own initiative, beyond what the
  /// attack layer demanded — a fleet's migration replays and hedge
  /// duplicates (fleet::FleetOracle).  Always <= runs(); the attack layer
  /// reports the delta as AttackResult::migration_runs so the ledger
  /// physical = oracle + retry + vote + migration stays balanced.
  virtual size_t internal_runs() const { return 0; }

  /// Health feedback from the retry/vote layer: `count` reads were found
  /// corrupt (truncated or vote-disagreeing) since the last note.  Silent
  /// bit-flips are invisible at the oracle boundary — only voting exposes
  /// them — so a health-tracking oracle needs this back-channel to
  /// quarantine a board that lies.  Default: ignore.
  virtual void note_corruptions(size_t count) { (void)count; }

 protected:
  size_t runs_ = 0;
};

/// Oracle backed by the simulated FPGA device.  The IV is whatever the host
/// application uses; the attacker only needs it to be stable across runs.
///
/// run_batch packs up to `batch_width` candidates into the lanes of one
/// bit-sliced batch device — chunks of at most 64 lanes use the scalar u64
/// reference, wider chunks the 256-lane AVX2 device (batch_width is clamped
/// to simd::active_backend()'s lane count, so a host without AVX2 runs
/// every chunk on u64).  Chunks shard across `pool` when given, the one
/// opt-in fan-out inside an attack (campaign trials pass none); results are
/// bit-identical to the scalar path for any width and thread count.
class DeviceOracle : public Oracle {
 public:
  DeviceOracle(const fpga::System& system, const snow3g::Iv& iv,
               runtime::ThreadPool* pool = nullptr, unsigned batch_width = simd::kMaxLanes)
      : system_(system), iv_(iv), pool_(pool), batch_width_(batch_width) {}

  runtime::ProbeOutcome run(std::span<const u8> bitstream, size_t words) override;
  std::vector<runtime::ProbeOutcome> run_batch(
      std::span<const std::vector<u8>> bitstreams, size_t words) override;
  unsigned batch_lanes() const override;

 private:
  runtime::ProbeOutcome run_one(std::span<const u8> bitstream, size_t words) const;

  const fpga::System& system_;
  snow3g::Iv iv_;
  runtime::ThreadPool* pool_ = nullptr;
  unsigned batch_width_ = simd::kMaxLanes;
};

}  // namespace sbm::attack
