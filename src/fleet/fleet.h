// Multi-board device fleet: survive board death without aborting the attack.
//
// A FleetOracle owns a pool of N simulated boards, each a DeviceOracle
// wrapped in its own faultsim::FaultyOracle whose noise stream is seeded
// per board — fault draws are a pure function of (fleet seed, board id,
// board-local physical run index), so a fleet campaign is bit-reproducible
// for any batch width, thread count, or scheduling order.
//
// A health tracker watches every board's outcome stream: an EWMA over
// timeout/truncation errors (plus the attack controller's corruption
// detections, fed back through Oracle::note_corruptions) quarantines a
// degrading board before its reads poison confirmation votes, and a run of
// consecutive timeouts presumes the board dead.  On presumed death the
// fleet re-flashes the in-flight chunk onto a spare and replays only the
// probes the dead board never answered — the pipeline continues mid-phase,
// the logical oracle_runs metric is untouched, and every replayed run is
// accounted in migration_runs so the physical ledger stays balanced:
//
//   physical = oracle + retry + vote + migration
//
// Optional hedged probes duplicate straggler chunks (ragged tails smaller
// than one batch) on a second healthy board; the merge is first-answer-wins
// with a deterministic tie-break (the primary board's answer wins whenever
// usable).  Hedge duplicates are accounted as migration_runs too.
//
// See DESIGN.md §4k for the migration protocol and determinism contract.
#pragma once

#include <memory>
#include <vector>

#include "attack/oracle.h"
#include "faultsim/faulty_oracle.h"
#include "faultsim/noise.h"
#include "obs/metrics.h"

namespace sbm::fleet {

/// Health states a board moves through (strictly forward: a quarantined
/// board never recovers within a campaign, a dead one never serves again).
enum class BoardState : u8 { kHealthy = 0, kQuarantined = 1, kDead = 2 };

/// Per-board health ledger, updated once per observed outcome.
struct BoardHealth {
  BoardState state = BoardState::kHealthy;
  /// EWMA over error observations (timeout/truncation outcomes and
  /// controller-reported vote corruptions), in [0, 1].
  double ewma_error = 0;
  /// Outcomes observed on this board (physical runs it answered for).
  size_t samples = 0;
  /// Current run of back-to-back timeouts; crossing
  /// kPresumedDeadAfter presumes the board dead.
  unsigned consecutive_timeouts = 0;
  /// Fleet-wide physical run count when the board was presumed dead.
  size_t died_at = static_cast<size_t>(-1);
};

struct FleetOptions {
  /// Pool size.  1 degenerates to a single FaultyOracle (no failover).
  unsigned boards = 4;
  /// Base noise profile; board i runs noise.scaled(noise_factors[i]) with a
  /// per-board seed derived from noise.seed and the board id.
  faultsim::NoiseProfile noise{};
  /// Per-board fault-rate multipliers (missing entries default to 1.0), so
  /// a fleet can mix sound and degraded boards deterministically.
  std::vector<double> noise_factors;
  /// Duplicate ragged tail chunks on a second healthy board and take the
  /// first usable answer (deterministic tie-break: primary wins).
  bool hedge = false;
};

/// EWMA smoothing factor for the per-board error rate.
inline constexpr double kEwmaAlpha = 0.08;
/// EWMA error rate above which a board is quarantined (once it has
/// kMinHealthSamples observations and a healthy peer exists).
inline constexpr double kQuarantineErrorRate = 0.25;
/// Observations required before the EWMA is trusted for quarantine.
inline constexpr size_t kMinHealthSamples = 64;
/// Consecutive timeouts that presume a board dead.  Deliberately below the
/// retry layer's attempt budget (RetryPolicy::voting max_attempts = 6,
/// AdaptiveConfig::max_attempts = 6) so the fleet migrates before the
/// controller escalates the probe to kDead.
inline constexpr unsigned kPresumedDeadAfter = 4;

/// Oracle that fans one probe stream across a health-tracked board pool.
/// Logical semantics match a single board exactly (same ProbeOutcome
/// stream for settled probes); the physical ledger grows by the replayed
/// and hedged runs, reported via internal_runs()/migration_runs().
class FleetOracle : public attack::Oracle {
 public:
  FleetOracle(const fpga::System& system, const snow3g::Iv& iv, FleetOptions options,
              unsigned batch_width = simd::kMaxLanes);

  runtime::ProbeOutcome run(std::span<const u8> bitstream, size_t words) override;
  std::vector<runtime::ProbeOutcome> run_batch(
      std::span<const std::vector<u8>> bitstreams, size_t words) override;
  unsigned batch_lanes() const override;
  /// Physical runs the fleet spent beyond the attack's demand: migration
  /// replays plus hedge duplicates.
  size_t internal_runs() const override { return migration_runs_; }
  /// Controller feedback: vote-detected corruptions are charged to the
  /// board that served the most recent chunk (a heuristic — votes can span
  /// a migration boundary — but a sound one for quarantine purposes).
  void note_corruptions(size_t count) override;

  // Fleet ledger.
  size_t migrations() const { return migrations_; }
  size_t quarantines() const { return quarantines_; }
  size_t hedged_wins() const { return hedged_wins_; }
  size_t migration_runs() const { return migration_runs_; }
  /// Probes that settled as timeouts because every board was dead.
  size_t lost_probes() const { return lost_probes_; }

  unsigned boards() const { return static_cast<unsigned>(boards_.size()); }
  unsigned alive_boards() const;
  const BoardHealth& board_health(unsigned i) const { return boards_[i]->health; }
  /// Physical runs board i executed (its FaultyOracle's counter); the sum
  /// over boards equals runs().
  size_t board_runs(unsigned i) const { return boards_[i]->faulty.runs(); }

 private:
  struct Board {
    Board(const fpga::System& system, const snow3g::Iv& iv,
          faultsim::NoiseProfile profile, unsigned batch_width, unsigned id);
    attack::DeviceOracle device;
    faultsim::FaultyOracle faulty;
    BoardHealth health;
    unsigned id = 0;
    obs::Gauge* g_error_ppm = nullptr;  // fleet.board<i>.error_ppm
    obs::Gauge* g_state = nullptr;      // fleet.board<i>.state
  };

  /// Next serving board: healthy boards first, then quarantined, each in
  /// index order; nullptr when all are dead.
  Board* pick_board();
  /// A usable (non-dead) board other than `not_this`, same order; nullptr
  /// when none exists.
  Board* pick_peer(const Board* not_this);
  /// Folds one outcome into the board's health ledger.
  void observe(Board& b, const runtime::ProbeOutcome& outcome);
  void fold_error(Board& b, bool is_error);
  void maybe_quarantine(Board& b);
  void declare_dead(Board& b);
  void publish_gauges(Board& b);

  FleetOptions options_;
  std::vector<std::unique_ptr<Board>> boards_;
  size_t last_serving_ = 0;  // board index of the most recent chunk
  size_t migration_runs_ = 0;
  size_t migrations_ = 0;
  size_t quarantines_ = 0;
  size_t hedged_wins_ = 0;
  size_t lost_probes_ = 0;
};

}  // namespace sbm::fleet
