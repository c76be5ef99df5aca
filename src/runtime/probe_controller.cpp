#include "runtime/probe_controller.h"

#include <algorithm>
#include <cmath>
#include <string>

#include "obs/metrics.h"

namespace sbm::runtime {

namespace {

/// Per-slot confirmation state shared by both controllers: the original
/// inline Vote struct of Attack::confirm_batch, lifted unchanged.
struct Slot {
  unsigned errors = 0;   // consecutive error attempts (reset on any value)
  unsigned reads = 0;    // value reads spent so far
  unsigned rejects = 0;  // rejected attempts seen so far
  bool last_was_error = false;
  bool settled = false;
  std::vector<std::pair<std::vector<u32>, unsigned>> tally;  // value -> votes
  ProbeOutcome out;
};

/// Error-attempt bookkeeping shared by both controllers (byte-identical to
/// the original absorb lambda's error branch): bounded consecutive-error
/// budget, with a rejection that persisted through every attempt — and never
/// saw a value read — reported as the genuine answer.
void absorb_error(Slot& v, const ProbeOutcome& r, unsigned max_attempts, RunLedger& ledger) {
  v.last_was_error = true;
  if (r.error() == ProbeError::kCorrupt) ++ledger.corruption_detections;
  if (r.error() == ProbeError::kRejected) ++v.rejects;
  if (r.error() == ProbeError::kDead || ++v.errors >= max_attempts) {
    v.settled = true;
    // A rejection that persisted through every attempt with no value read
    // in between is the genuine answer; anything else that exhausted the
    // budget means the board is gone.
    v.out = (v.reads == 0 && v.rejects > 0 && r.error() == ProbeError::kRejected)
                ? ProbeError::kRejected
                : ProbeError::kDead;
  }
}

/// Inserts a value read into the slot's tally, counting a disagreement, and
/// returns the read's updated vote count.
unsigned tally_value(Slot& v, const ProbeOutcome& r, RunLedger& ledger) {
  v.errors = 0;
  v.last_was_error = false;
  ++v.reads;
  auto it = std::find_if(v.tally.begin(), v.tally.end(),
                         [&](const auto& e) { return e.first == *r; });
  if (it == v.tally.end()) {
    if (!v.tally.empty()) ++ledger.corruption_detections;  // disagreeing read
    v.tally.emplace_back(*r, 0u);
    it = std::prev(v.tally.end());
  }
  ++it->second;
  v.out = ProbeOutcome(it->first);  // provisional; only meaningful at settle
  return it->second;
}

/// The RetryPolicy r-repetition vote, decision-for-decision identical to the
/// historical inline implementation, demanding one read at a time so the
/// physical read order (and every scripted-fault index map built on it) is
/// unchanged.
class StaticVotingController final : public ProbeController {
 public:
  explicit StaticVotingController(const RetryPolicy& policy) : policy_(policy) {}

  const char* name() const override { return "static"; }
  bool single_shot() const override { return policy_.single_shot(); }

  void begin(size_t n) override {
    slots_.clear();
    slots_.resize(n);
  }

  void absorb(size_t slot, const ProbeOutcome& r, RunLedger& ledger) override {
    Slot& v = slots_[slot];
    if (r.ok()) {
      // A value read: the board is alive, so the consecutive-error count
      // resets; confirmation requires `confirm` bit-identical reads (two
      // independently corrupted captures essentially never coincide).
      const unsigned votes = tally_value(v, r, ledger);
      if (votes >= policy_.confirm) {
        v.settled = true;
        ledger.transient_rejections += v.rejects;
      } else if (v.reads >= policy_.max_reads) {
        // The board answers but never twice alike: unconfirmable.
        v.settled = true;
        v.out = ProbeError::kCorrupt;
      }
      return;
    }
    absorb_error(v, r, policy_.max_attempts, ledger);
  }

  bool settled(size_t slot) const override { return slots_[slot].settled; }
  ProbeOutcome take(size_t slot) override { return std::move(slots_[slot].out); }
  unsigned reads_wanted(size_t slot) const override { return slots_[slot].settled ? 0 : 1; }
  bool retrying(size_t slot) const override { return slots_[slot].last_was_error; }

 private:
  RetryPolicy policy_;
  std::vector<Slot> slots_;
};

/// Sequential-test controller: accept a value with k agreeing reads as soon
/// as the posterior odds that all k are corrupted (and collided on the same
/// wrong value) drop below the configured bound, with the per-read
/// corruption rate estimated online.  All state transitions are a pure
/// function of the absorbed read sequence.
class AdaptiveController final : public ProbeController {
 public:
  explicit AdaptiveController(const AdaptiveConfig& config)
      : config_(config),
        corrupt_(config.prior_corrupt * config.prior_weight + 0.5),
        total_(config.prior_weight + 1.0) {}

  const char* name() const override { return "adaptive"; }
  bool single_shot() const override { return false; }

  void begin(size_t n) override {
    slots_.clear();
    slots_.resize(n);
  }

  void absorb(size_t slot, const ProbeOutcome& r, RunLedger& ledger) override {
    Slot& v = slots_[slot];
    if (r.ok()) {
      const unsigned votes = tally_value(v, r, ledger);
      if (votes >= agree_target()) {
        v.settled = true;
        ledger.transient_rejections += v.rejects;
        learn(v, votes);
      } else if (v.reads >= config_.max_reads) {
        // The board answers but never agrees deeply enough: unconfirmable.
        v.settled = true;
        v.out = ProbeError::kCorrupt;
        learn(v, best_tally(v));
      }
      return;
    }
    absorb_error(v, r, config_.max_attempts, ledger);
  }

  bool settled(size_t slot) const override { return slots_[slot].settled; }
  ProbeOutcome take(size_t slot) override { return std::move(slots_[slot].out); }

  unsigned reads_wanted(size_t slot) const override {
    const Slot& v = slots_[slot];
    if (v.settled) return 0;
    // After an error the next read is a retry probing whether the board is
    // alive at all — bundling more reads behind it would spend lanes on a
    // possibly-dead board.
    if (v.last_was_error) return 1;
    // Demand exactly the reads the leading value still needs to reach the
    // stopping depth: the whole bundle rides one batch chunk instead of
    // trickling through reads_wanted()==1 rounds.
    const unsigned target = agree_target();
    const unsigned best = best_tally(v);
    const unsigned want = target > best ? target - best : 1;
    const unsigned left = config_.max_reads > v.reads ? config_.max_reads - v.reads : 1;
    return std::max(1u, std::min(want, left));
  }

  bool retrying(size_t slot) const override { return slots_[slot].last_was_error; }

 private:
  /// Current corruption-rate estimate, clamped away from the degenerate
  /// endpoints (a fully-clean estimate must never unlock 1-read acceptance
  /// below min_agree; a saturated one must never demand unbounded depth).
  double p_hat() const { return std::clamp(corrupt_ / total_, 1e-6, 0.95); }

  /// Upper confidence bound on the corruption rate: the stopping rule tests
  /// against p_hat plus confidence_z standard errors, so the controller is
  /// strict while the estimate rests mostly on the prior and relaxes to the
  /// point estimate as real reads accumulate.  Accepting on an uncertain
  /// low estimate is the one mistake the test cannot recover from.
  double p_ucb() const {
    const double p = p_hat();
    const double se = std::sqrt(p * (1.0 - p) / total_);
    return std::clamp(p + config_.confidence_z * se, 1e-6, 0.95);
  }

  /// Odds that k agreeing reads are all corrupted: each read is corrupted
  /// with odds p/(1-p) against being clean, and every corrupted pair must
  /// additionally have collided on the same wrong value.
  double wrong_odds(unsigned k) const {
    const double p = p_ucb();
    return std::pow(p / (1.0 - p), static_cast<int>(k)) *
           std::pow(config_.collision_odds, static_cast<int>(k) - 1);
  }

  /// Smallest agreement depth whose wrong-accept odds meet the bound, under
  /// the current estimate.  Monotone in p_hat: a noisier board demands
  /// deeper agreement.  Never below min_agree, never above max_reads.
  unsigned agree_target() const {
    for (unsigned k = std::max(1u, config_.min_agree); k < config_.max_reads; ++k) {
      if (wrong_odds(k) <= config_.accept_error) return k;
    }
    return config_.max_reads;
  }

  static unsigned best_tally(const Slot& v) {
    unsigned best = 0;
    for (const auto& [value, votes] : v.tally) best = std::max(best, votes);
    return best;
  }

  /// Folds a settled slot's value reads into the corruption estimate: every
  /// read disagreeing with the winning value was a corrupted capture.
  /// Called only at settle time, on the scheduler's (serial) absorb thread,
  /// so the estimate trajectory is a pure function of the read sequence.
  void learn(const Slot& v, unsigned winning_votes) {
    corrupt_ += static_cast<double>(v.reads - std::min(v.reads, winning_votes));
    total_ += static_cast<double>(v.reads);
    static obs::Gauge& rate =
        obs::MetricsRegistry::global().gauge("adaptive.corruption_rate_ppm");
    static obs::Histogram& reads =
        obs::MetricsRegistry::global().histogram("adaptive.reads_per_probe");
    static obs::Histogram& depth =
        obs::MetricsRegistry::global().histogram("adaptive.agreement_depth");
    rate.set(static_cast<u64>(p_hat() * 1e6));
    reads.observe(v.reads);
    depth.observe(winning_votes);
  }

  AdaptiveConfig config_;
  double corrupt_;  // corrupted-read evidence (prior + observed), Beta-style
  double total_;    // total-read evidence
  std::vector<Slot> slots_;
};

}  // namespace

const char* controller_kind_name(ControllerKind kind) {
  return kind == ControllerKind::kAdaptive ? "adaptive" : "static";
}

std::optional<ControllerKind> parse_controller_kind(std::string_view name) {
  if (name == "static") return ControllerKind::kStatic;
  if (name == "adaptive") return ControllerKind::kAdaptive;
  return std::nullopt;
}

std::unique_ptr<ProbeController> make_static_controller(const RetryPolicy& policy) {
  return std::make_unique<StaticVotingController>(policy);
}

std::unique_ptr<ProbeController> make_adaptive_controller(const AdaptiveConfig& config) {
  return std::make_unique<AdaptiveController>(config);
}

std::unique_ptr<ProbeController> make_controller(ControllerKind kind, const RetryPolicy& retry,
                                                 const AdaptiveConfig& adaptive) {
  if (kind == ControllerKind::kAdaptive) return make_adaptive_controller(adaptive);
  return make_static_controller(retry);
}

}  // namespace sbm::runtime
