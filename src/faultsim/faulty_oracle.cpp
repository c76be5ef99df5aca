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

/// Images the inner boards simulated, and reads answered from an earlier
/// read of the same image instead (see FaultyOracle's inner-board contract).
obs::Counter& inner_evaluation_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("faultsim.inner_evaluations");
  return c;
}
obs::Counter& reused_read_counter() {
  static obs::Counter& c = obs::MetricsRegistry::global().counter("faultsim.reused_reads");
  return c;
}

/// The read's answer comes from the inner board (possibly bit-flipped), not
/// from the fault.
bool needs_answer(FaultAction::Kind kind) {
  return kind == FaultAction::Kind::kNone || kind == FaultAction::Kind::kFlipBit;
}

/// What an ideal board can answer, and so what the memo may keep.
bool memoizable(const ProbeOutcome& o) { return o.ok() || o.error() == ProbeError::kRejected; }

}  // namespace

FaultAction FaultyOracle::draw(size_t index) const {
  if (scripted_) return plan_.action_at(index);
  // One class draw per run, consumed in a fixed order so the fault stream is
  // a pure function of (seed, index).  Bit-flips are drawn separately in
  // apply() (they are per-bit, not per-run).
  Rng rng(mix64(profile_.seed ^ (0x9e3779b97f4a7c15ull * (index + 1))));
  if (death_(rng)) return {FaultAction::Kind::kKill, 0, 0, 0};
  if (reject_(rng)) return {FaultAction::Kind::kReject, 0, 0, 0};
  if (timeout_(rng)) return {FaultAction::Kind::kTimeout, 0, 0, 0};
  if (truncate_(rng)) return {FaultAction::Kind::kTruncate, 0, 0, 0};
  return {};
}

ProbeOutcome FaultyOracle::apply(size_t index, FaultAction action, const ProbeOutcome* clean,
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
      if (clean->ok() && action.word < (*clean)->size()) {
        std::vector<u32> z = **clean;
        z[action.word] ^= u32{1} << (action.bit & 31);
        ++injected_flips_;
        injected_fault_counter().add();
        return z;
      }
      return *clean;
    case FaultAction::Kind::kNone:
      break;
  }
  // Stochastic capture noise: independent per-bit flips of a successful read.
  if (!scripted_ && profile_.bit_flip > 0 && clean->ok()) {
    Rng rng(mix64(profile_.seed ^ 0x6e01335ull ^ (0xd1b54a32d192ed03ull * (index + 1))));
    std::vector<u32> z = **clean;
    bool flipped = false;
    for (size_t w = 0; w < z.size() && w < words; ++w) {
      for (unsigned b = 0; b < 32; ++b) {
        if (bit_flip_(rng)) {
          z[w] ^= u32{1} << b;
          ++injected_flips_;
          injected_fault_counter().add();
          flipped = true;
        }
      }
    }
    if (flipped) return z;
  }
  return *clean;
}

ProbeOutcome FaultyOracle::run(std::span<const u8> bitstream, size_t words) {
  const std::vector<u8> image(bitstream.begin(), bitstream.end());
  return std::move(run_batch(std::span(&image, 1), words)[0]);
}

std::vector<ProbeOutcome> FaultyOracle::run_batch(std::span<const std::vector<u8>> bitstreams,
                                                  size_t words) {
  const size_t n = bitstreams.size();
  const size_t base = runs_;
  runs_ += n;
  if (n == 0) return {};
  if (!scripted_ && profile_.quiet()) {
    // A quiet board never faults: every read is the inner board's answer.
    inner_evaluations_ += n;
    inner_evaluation_counter().add(n);
    return inner_.run_batch(bitstreams, words);
  }

  // Draw every read's fault first, in element order, so the fault stream
  // only depends on the probe order.  A read that a fault answers, or that
  // comes after the board died, needs no inner answer.  The others are
  // keyed by content: a repeat of a memoized image is answered from the
  // memo, a repeat within this call shares one simulation.
  constexpr size_t kNoMiss = static_cast<size_t>(-1);
  std::vector<FaultAction> actions(n);
  std::vector<const ProbeOutcome*> clean(n, nullptr);
  std::vector<size_t> miss_of(n, kNoMiss);  // index into `misses`, if any
  std::vector<size_t> misses;               // element of each distinct miss
  std::vector<runtime::ProbeKey> miss_keys;
  FlatMap<runtime::ProbeKey, size_t, runtime::ProbeCache::KeyHash> pending;
  runtime::ProbeKey key;
  size_t keyed = n;  // element `key` was computed for
  size_t reused = 0;
  bool dead = dead_;
  for (size_t i = 0; i < n; ++i) {
    actions[i] = draw(base + i);
    const bool answered = !dead && needs_answer(actions[i].kind);
    dead = dead || actions[i].kind == FaultAction::Kind::kKill;
    if (!answered) continue;
    // The controller enqueues a probe's demanded reads side by side, so a
    // read byte-identical to the previous element reuses its key.
    if (i == 0 || keyed != i - 1 || bitstreams[i] != bitstreams[i - 1]) {
      key = runtime::make_probe_key(bitstreams[i], words);
    }
    keyed = i;
    if (const ProbeOutcome* hit = memo_.find(key)) {
      clean[i] = hit;
      ++reused;
      continue;
    }
    const auto [slot, inserted] = pending.try_emplace(key, misses.size());
    if (inserted) {
      misses.push_back(i);
      miss_keys.push_back(key);
    } else {
      ++reused;
    }
    miss_of[i] = *slot;
  }
  reused_reads_ += reused;
  reused_read_counter().add(reused);

  // One inner call for the distinct misses.
  std::vector<ProbeOutcome> fresh;
  if (misses.size() == n) {
    fresh = inner_.run_batch(bitstreams, words);
  } else if (!misses.empty()) {
    std::vector<std::vector<u8>> images;
    images.reserve(misses.size());
    for (const size_t i : misses) images.push_back(bitstreams[i]);
    fresh = inner_.run_batch(images, words);
  }
  inner_evaluations_ += misses.size();
  inner_evaluation_counter().add(misses.size());

  std::vector<ProbeOutcome> out(n);
  for (size_t i = 0; i < n; ++i) {
    if (miss_of[i] != kNoMiss) clean[i] = &fresh[miss_of[i]];
    out[i] = apply(base + i, actions[i], clean[i], words);
  }
  // Memoize only after the faults are applied: an insertion may move the
  // memo slots `clean` points into.
  for (size_t m = 0; m < misses.size(); ++m) {
    if (!memoizable(fresh[m])) continue;
    if (memo_.size() >= kMemoEntries) memo_.clear();
    memo_.try_emplace(miss_keys[m], std::move(fresh[m]));
  }
  return out;
}

}  // namespace sbm::faultsim
