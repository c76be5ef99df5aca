#include "faultsim/faulty_oracle.h"

#include "common/rng.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace sbm::faultsim {

using runtime::ProbeError;
using runtime::ProbeOutcome;

namespace {

obs::Counter& injected_fault_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("faultsim.injected_faults");
  return c;
}

/// Bernoulli(rate) from one u64 draw: compare against rate * 2^64.
bool chance(Rng& rng, double rate) {
  if (rate <= 0) return false;
  if (rate >= 1) return true;
  return static_cast<double>(rng.next_u64()) < rate * 18446744073709551616.0;
}

}  // namespace

FaultAction FaultyOracle::draw(size_t index) const {
  if (scripted_) return plan_.action_at(index);
  // One class draw per run, consumed in a fixed order so the fault stream is
  // a pure function of (seed, index).  Bit-flips are drawn separately in
  // apply() (they are per-bit, not per-run).
  Rng rng(mix64(profile_.seed ^ (0x9e3779b97f4a7c15ull * (index + 1))));
  if (chance(rng, profile_.death)) return {FaultAction::Kind::kKill, 0, 0, 0};
  if (chance(rng, profile_.transient_reject)) return {FaultAction::Kind::kReject, 0, 0, 0};
  if (chance(rng, profile_.timeout)) return {FaultAction::Kind::kTimeout, 0, 0, 0};
  if (chance(rng, profile_.truncate)) return {FaultAction::Kind::kTruncate, 0, 0, 0};
  return {};
}

ProbeOutcome FaultyOracle::apply(size_t index, FaultAction action, ProbeOutcome inner,
                                 size_t words) {
  if (dead_) {
    // A dead board answers nothing, ever.  The retry layer escalates the
    // persistent timeouts to kDead.
    ++injected_timeouts_;
    return ProbeError::kTimeout;
  }
  switch (action.kind) {
    case FaultAction::Kind::kKill:
      dead_ = true;
      died_at_ = index;
      ++injected_timeouts_;
      injected_fault_counter().add();
      if (obs::trace_enabled()) {
        obs::Tracer::global().instant("faultsim", "device_death", {{"run", index}});
      }
      return ProbeError::kTimeout;
    case FaultAction::Kind::kReject:
      ++injected_rejections_;
      injected_fault_counter().add();
      return ProbeError::kRejected;
    case FaultAction::Kind::kTimeout:
      ++injected_timeouts_;
      injected_fault_counter().add();
      return ProbeError::kTimeout;
    case FaultAction::Kind::kTruncate:
      // The capture layer length-checks every read, so a short read is
      // observable as detectable corruption rather than a bogus value.
      ++injected_truncations_;
      injected_fault_counter().add();
      return ProbeError::kCorrupt;
    case FaultAction::Kind::kFlipBit:
      if (inner.ok() && action.word < inner->size()) {
        std::vector<u32> z = *inner;
        z[action.word] ^= u32{1} << (action.bit & 31);
        ++injected_flips_;
        injected_fault_counter().add();
        return z;
      }
      return inner;
    case FaultAction::Kind::kNone:
      break;
  }
  // Stochastic capture noise: independent per-bit flips of a successful read.
  if (!scripted_ && profile_.bit_flip > 0 && inner.ok()) {
    Rng rng(mix64(profile_.seed ^ 0x6e01335ull ^ (0xd1b54a32d192ed03ull * (index + 1))));
    std::vector<u32> z = *inner;
    bool flipped = false;
    for (size_t w = 0; w < z.size() && w < words; ++w) {
      for (unsigned b = 0; b < 32; ++b) {
        if (chance(rng, profile_.bit_flip)) {
          z[w] ^= u32{1} << b;
          ++injected_flips_;
          injected_fault_counter().add();
          flipped = true;
        }
      }
    }
    if (flipped) return z;
  }
  return inner;
}

ProbeOutcome FaultyOracle::run(std::span<const u8> bitstream, size_t words) {
  const size_t index = runs_++;
  const FaultAction action = draw(index);
  // The inner device is exercised even for runs whose outcome a fault will
  // override — a glitched physical reconfiguration still happened — but its
  // result is simply discarded in that case.
  return apply(index, action, inner_.run(bitstream, words), words);
}

std::vector<ProbeOutcome> FaultyOracle::run_batch(std::span<const std::vector<u8>> bitstreams,
                                                  size_t words) {
  const size_t n = bitstreams.size();
  const size_t base = runs_;
  runs_ += n;
  // Inner execution may shard across threads; fault injection happens on the
  // calling thread afterwards, in element order, so the fault stream only
  // depends on the probe order.
  std::vector<ProbeOutcome> out = inner_.run_batch(bitstreams, words);
  for (size_t i = 0; i < n; ++i) {
    out[i] = apply(base + i, draw(base + i), std::move(out[i]), words);
  }
  return out;
}

}  // namespace sbm::faultsim
