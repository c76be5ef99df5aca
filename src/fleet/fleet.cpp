#include "fleet/fleet.h"

#include <string>
#include <utility>

#include "common/bits.h"

namespace sbm::fleet {

namespace {

obs::Counter& c_migrations() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("fleet.migrations");
  return c;
}
obs::Counter& c_migration_runs() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("fleet.migration_runs");
  return c;
}
obs::Counter& c_quarantines() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("fleet.quarantines");
  return c;
}
obs::Counter& c_hedged_wins() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("fleet.hedged_wins");
  return c;
}
obs::Counter& c_lost_probes() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("fleet.lost_probes");
  return c;
}

/// A genuine answer the attack layer can settle on: a keystream or a real
/// rejection.  Timeouts and truncations are the board's problem, not the
/// probe's, and are what migration/hedging exist to paper over.
bool usable(const runtime::ProbeOutcome& o) {
  return o.ok() || o.error() == runtime::ProbeError::kRejected;
}

}  // namespace

FleetOracle::Board::Board(const fpga::System& system, const snow3g::Iv& iv,
                          faultsim::NoiseProfile profile, unsigned batch_width,
                          unsigned board_id)
    : device(system, iv, nullptr, batch_width), faulty(device, profile), id(board_id) {
  const std::string prefix = "fleet.board" + std::to_string(board_id);
  auto& reg = obs::MetricsRegistry::global();
  g_error_ppm = &reg.gauge(prefix + ".error_ppm");
  g_state = &reg.gauge(prefix + ".state");
}

FleetOracle::FleetOracle(const fpga::System& system, const snow3g::Iv& iv,
                         FleetOptions options, unsigned batch_width)
    : options_(std::move(options)) {
  const unsigned n = options_.boards == 0 ? 1 : options_.boards;
  boards_.reserve(n);
  for (unsigned i = 0; i < n; ++i) {
    // Per-board fault stream: same profile shape (scaled per board), seeded
    // as a pure function of (fleet seed, board id) so the board's draws
    // depend only on its own run order.
    const double factor =
        i < options_.noise_factors.size() ? options_.noise_factors[i] : 1.0;
    faultsim::NoiseProfile profile = options_.noise.scaled(factor);
    profile.seed = mix64(options_.noise.seed ^ (0x9e3779b97f4a7c15ull * (i + 1)));
    boards_.push_back(
        std::make_unique<Board>(system, iv, profile, batch_width, i));
    publish_gauges(*boards_.back());
  }
}

unsigned FleetOracle::batch_lanes() const { return boards_[0]->faulty.batch_lanes(); }

unsigned FleetOracle::alive_boards() const {
  unsigned alive = 0;
  for (const auto& b : boards_)
    if (b->health.state != BoardState::kDead) ++alive;
  return alive;
}

FleetOracle::Board* FleetOracle::pick_board() { return pick_peer(nullptr); }

FleetOracle::Board* FleetOracle::pick_peer(const Board* not_this) {
  for (BoardState want : {BoardState::kHealthy, BoardState::kQuarantined}) {
    for (const auto& b : boards_) {
      if (b.get() != not_this && b->health.state == want) return b.get();
    }
  }
  return nullptr;
}

void FleetOracle::fold_error(Board& b, bool is_error) {
  b.health.ewma_error =
      (1.0 - kEwmaAlpha) * b.health.ewma_error + (is_error ? kEwmaAlpha : 0.0);
}

void FleetOracle::observe(Board& b, const runtime::ProbeOutcome& outcome) {
  ++b.health.samples;
  const bool timeout = !outcome.ok() && (outcome.error() == runtime::ProbeError::kTimeout ||
                                         outcome.error() == runtime::ProbeError::kDead);
  const bool corrupt = !outcome.ok() && outcome.error() == runtime::ProbeError::kCorrupt;
  fold_error(b, timeout || corrupt);
  if (timeout) {
    if (++b.health.consecutive_timeouts >= kPresumedDeadAfter &&
        b.health.state != BoardState::kDead) {
      declare_dead(b);
    }
  } else {
    b.health.consecutive_timeouts = 0;
  }
  maybe_quarantine(b);
}

void FleetOracle::maybe_quarantine(Board& b) {
  if (b.health.state != BoardState::kHealthy) return;
  if (b.health.samples < kMinHealthSamples) return;
  if (b.health.ewma_error <= kQuarantineErrorRate) return;
  // Keep the last healthy board in service: quarantine exists to steer work
  // to a better peer, and with no peer the degraded board is still the best
  // (only) option.
  bool peer = false;
  for (const auto& other : boards_)
    if (other.get() != &b && other->health.state == BoardState::kHealthy) peer = true;
  if (!peer) return;
  b.health.state = BoardState::kQuarantined;
  ++quarantines_;
  c_quarantines().add();
  publish_gauges(b);
}

void FleetOracle::declare_dead(Board& b) {
  b.health.state = BoardState::kDead;
  b.health.died_at = runs_;
  publish_gauges(b);
}

void FleetOracle::publish_gauges(Board& b) {
  b.g_error_ppm->set(static_cast<u64>(b.health.ewma_error * 1e6));
  b.g_state->set(static_cast<u64>(b.health.state));
}

void FleetOracle::note_corruptions(size_t count) {
  Board& b = *boards_[last_serving_];
  // Silent corruptions are only visible to the vote layer; fold them into
  // the error EWMA (without inflating the sample count — these reads were
  // already counted when observed) so a board that lies often enough gets
  // quarantined even though its outcomes looked fine at the fleet boundary.
  for (size_t i = 0; i < count; ++i) fold_error(b, true);
  maybe_quarantine(b);
  publish_gauges(b);
}

runtime::ProbeOutcome FleetOracle::run(std::span<const u8> bitstream, size_t words) {
  std::vector<std::vector<u8>> one;
  one.emplace_back(bitstream.begin(), bitstream.end());
  auto out = run_batch(one, words);
  return std::move(out[0]);
}

std::vector<runtime::ProbeOutcome> FleetOracle::run_batch(
    std::span<const std::vector<u8>> bitstreams, size_t words) {
  const size_t n = bitstreams.size();
  std::vector<runtime::ProbeOutcome> out(
      n, runtime::ProbeOutcome(runtime::ProbeError::kTimeout));
  std::vector<size_t> work(n);
  for (size_t i = 0; i < n; ++i) work[i] = i;

  bool replaying = false;
  while (!work.empty()) {
    Board* board = pick_board();
    const bool all_dead = board == nullptr;
    if (all_dead) {
      // Every board is gone.  Mimic a dead single board exactly: route the
      // attempts to the last serving board anyway (a dead board still eats
      // the reconfiguration attempt and times out), so the attack layer
      // sees persistent timeouts and escalates to kDead as it would have
      // without a fleet.
      board = boards_[last_serving_].get();
      lost_probes_ += work.size();
      c_lost_probes().add(work.size());
    } else {
      last_serving_ = board->id;
    }

    std::vector<std::vector<u8>> chunk;
    chunk.reserve(work.size());
    for (size_t idx : work) chunk.emplace_back(bitstreams[idx]);
    std::vector<runtime::ProbeOutcome> answers = board->faulty.run_batch(chunk, words);
    runs_ += chunk.size();
    if (replaying) {
      migration_runs_ += chunk.size();
      c_migration_runs().add(chunk.size());
    }
    for (const auto& a : answers) observe(*board, a);

    // Hedge ragged tails: a chunk smaller than one batch leaves lanes idle,
    // so duplicating it on a peer costs no extra wall clock on real
    // hardware while rescuing transient timeouts/truncations.  The merge
    // is deterministic: the primary's answer wins whenever usable.
    if (options_.hedge && !all_dead && chunk.size() < batch_lanes()) {
      if (Board* peer = pick_peer(board)) {
        std::vector<runtime::ProbeOutcome> hedged = peer->faulty.run_batch(chunk, words);
        runs_ += chunk.size();
        migration_runs_ += chunk.size();
        c_migration_runs().add(chunk.size());
        for (const auto& a : hedged) observe(*peer, a);
        for (size_t i = 0; i < answers.size(); ++i) {
          if (!usable(answers[i]) && usable(hedged[i])) {
            answers[i] = std::move(hedged[i]);
            ++hedged_wins_;
            c_hedged_wins().add();
          }
        }
      }
    }

    for (size_t i = 0; i < work.size(); ++i) out[work[i]] = std::move(answers[i]);

    // Migration: the serving board was presumed dead during this chunk and
    // a spare remains — re-flash only the probes it never answered (the
    // timeouts) onto the spare and keep going mid-phase.  Probes it did
    // answer are settled; their outcomes stand.
    if (!all_dead && board->health.state == BoardState::kDead && pick_board() != nullptr) {
      std::vector<size_t> replay;
      for (size_t idx : work) {
        if (!out[idx].ok() && out[idx].error() == runtime::ProbeError::kTimeout)
          replay.push_back(idx);
      }
      if (!replay.empty()) {
        ++migrations_;
        c_migrations().add();
        work = std::move(replay);
        replaying = true;
        continue;
      }
    }
    break;
  }

  publish_gauges(*boards_[last_serving_]);
  return out;
}

}  // namespace sbm::fleet
