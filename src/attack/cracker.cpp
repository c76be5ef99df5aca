#include "attack/cracker.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "bitstream/patcher.h"
#include "obs/trace.h"

namespace sbm::attack {

DecoyHypothesisSet::DecoyHypothesisSet(size_t candidates, unsigned bits)
    : state_(candidates, CandidateState::kUnknown),
      claimed_bit_(candidates, -1),
      claimants_(bits),
      unknown_(candidates) {}

void DecoyHypothesisSet::classify(size_t id, const ClassifiedResponse& response) {
  if (state_[id] != CandidateState::kUnknown) return;
  --unknown_;
  if (response.cls == ResponseClass::kSourceCut && response.bit >= 0 &&
      response.bit < static_cast<int>(bits())) {
    state_[id] = CandidateState::kClaimant;
    claimed_bit_[id] = response.bit;
    auto& c = claimants_[static_cast<size_t>(response.bit)];
    c.insert(std::lower_bound(c.begin(), c.end(), id), id);
  } else {
    // baseline: the site has no effect on v.  column-dead: it kills z[i]
    // but not the feedback image of v[i] — the z-path decoy's signature,
    // provably not the source.  other/rejected: inconsistent with being a
    // lone v copy.
    state_[id] = CandidateState::kEliminated;
  }
}

void DecoyHypothesisSet::note_pair(size_t a, size_t b, const ClassifiedResponse& response) {
  if (a > b) std::swap(a, b);
  pairs_[{a, b}] = response;
}

double DecoyHypothesisSet::log2_hypotheses() const {
  // Each bit's source could be any current claimant or any still-unknown
  // candidate; the product over bits upper-bounds the consistent
  // assignments.  0 exactly when every bit is pinned to one claimant.
  double sum = 0;
  for (const auto& c : claimants_) {
    sum += std::log2(static_cast<double>(unknown_ + std::max<size_t>(c.size(), 1)));
  }
  return sum;
}

bool DecoyHypothesisSet::unique() const {
  if (unknown_ != 0) return false;
  for (const auto& c : claimants_) {
    if (c.size() != 1) return false;
  }
  return true;
}

bool DecoyHypothesisSet::bit_proven_ambiguous(unsigned bit) const {
  const auto& c = claimants_[bit];
  if (c.size() < 2) return false;
  for (size_t i = 0; i < c.size(); ++i) {
    for (size_t j = i + 1; j < c.size(); ++j) {
      const auto it = pairs_.find({c[i], c[j]});
      if (it == pairs_.end() || it->second.cls != ResponseClass::kBaseline) return false;
    }
  }
  return true;
}

bool DecoyHypothesisSet::proven_ambiguous() const {
  if (unknown_ != 0) return false;
  // A verdict of "ambiguous" is only a proof when every multi-claimant
  // class is pairwise-cancelling — a class that is merely unprobed or
  // inconsistent is unfinished business, not a proof.
  bool any_multi = false;
  for (unsigned i = 0; i < bits(); ++i) {
    if (claimants_[i].size() > 1) {
      any_multi = true;
      if (!bit_proven_ambiguous(i)) return false;
    }
  }
  return any_multi;
}

std::vector<std::vector<size_t>> DecoyHypothesisSet::plan() const {
  std::vector<std::vector<size_t>> round;
  // Greedy split: an unprobed singleton's response ranges over all 2b + 2
  // classes and is independent of every other candidate, so while unknowns
  // remain the singleton sweep is the maximal-entropy round.
  for (size_t id = 0; id < state_.size(); ++id) {
    if (state_[id] == CandidateState::kUnknown) round.push_back({id});
  }
  if (!round.empty()) return round;
  // Residual multi-claimant classes: the only remaining split is the
  // intra-class pair probe (does the pair cancel back to baseline?).
  for (const auto& c : claimants_) {
    if (c.size() < 2) continue;
    for (size_t i = 0; i < c.size(); ++i) {
      for (size_t j = i + 1; j < c.size(); ++j) {
        if (!pairs_.count({c[i], c[j]})) round.push_back({c[i], c[j]});
      }
    }
  }
  return round;
}

CrackLoopStats run_crack_loop(DecoyHypothesisSet& hyp, const CrackProbeFn& probe) {
  CrackLoopStats stats;
  while (true) {
    const auto round = hyp.plan();
    if (round.empty()) break;
    const auto responses = probe(round);
    ++stats.rounds;
    stats.probes += round.size();
    for (size_t k = 0; k < round.size() && k < responses.size(); ++k) {
      if (!responses[k]) {
        stats.aborted = true;
        return stats;
      }
      if (round[k].size() == 1) {
        hyp.classify(round[k][0], *responses[k]);
      } else if (round[k].size() == 2) {
        hyp.note_pair(round[k][0], round[k][1], *responses[k]);
      }
    }
    stats.log2_by_round.push_back(hyp.log2_hypotheses());
    if (hyp.unique() || hyp.proven_ambiguous()) break;
  }
  return stats;
}

Cracker::Cracker(Oracle& oracle, std::span<const u8> golden, const CrackerConfig& config)
    : oracle_(oracle),
      config_(config),
      session_(oracle, config),
      golden_(golden.begin(), golden.end()) {}

CrackResult Cracker::execute() {
  CrackResult result;
  obs::Span exec_span("cracker", "execute");
  auto note = [&result](std::string msg) { result.log.push_back(std::move(msg)); };
  auto finish = [&](bool ok) {
    result.success = ok;
    static_cast<runtime::RunLedger&>(result) = session_.ledger();
    return result;
  };

  // Setup: baseline keystream + CRC neutralization (same contract as the
  // key-recovery pipeline).
  const auto z0 = session_.probe(golden_);
  if (session_.device_lost() || !z0) {
    result.failure =
        session_.device_lost() ? "device lost during setup" : "golden bitstream rejected";
    return finish(false);
  }
  std::vector<u8> base = golden_;
  if (config_.crc == CrcHandling::kDisable) {
    const size_t disabled = bitstream::disable_crc(base);
    note("disabled " + std::to_string(disabled) + " CRC check(s)");
    const auto z1 = session_.probe(base);
    if (session_.device_lost() || !z1 || *z1 != *z0) {
      result.failure = "CRC-disabled bitstream does not behave like the original";
      return finish(false);
    }
  }

  // Candidate pool: every frame-aligned XOR2 half placement, per half (a
  // vacuous dual site is two independently zeroable placements), plus the
  // defender's folded site count for the static bound it advertises.
  const auto sites = unique_xor2_half_sites(base, config_.find, /*fold_vacuous=*/false);
  result.candidates = sites.size();
  result.unique_sites = unique_xor2_half_sites(base, config_.find, /*fold_vacuous=*/true).size();
  if (result.unique_sites >= 64) {
    result.log2_static_bound =
        log2_binomial(static_cast<unsigned>(result.unique_sites) - 32, 32);
  }
  if (sites.size() < 32) {
    result.failure = "fewer than 32 XOR2 candidate placements: not a protected victim";
    return finish(false);
  }
  note("candidates: " + std::to_string(sites.size()) + " XOR2 half placements (" +
       std::to_string(result.unique_sites) + " sites; defender bound 2^" +
       std::to_string(static_cast<long>(result.log2_static_bound)) + ")");

  // Beta: zero-load fault so every reference class is computable offline.
  const auto beta = establish_beta(session_, base, config_.find);
  if (!beta) {
    result.failure = session_.device_lost() ? "device lost during beta"
                                      : "beta fault (all-zero LFSR load) could not be established";
    return finish(false);
  }
  note("beta established with " + std::to_string(beta->patches.size()) + " MUX rewrites");
  const std::vector<u8> base_beta = session_.with_patches(base, beta->patches);

  // Reference library: baseline, source-cut(i), column-dead(i) — 65
  // pairwise-distinct keystream prefixes under the zero-load state.
  const std::vector<u32> baseline = model_reference({0, false, true}, config_.words);
  {
    const auto zb = session_.probe(base_beta);
    if (session_.device_lost() || !zb || *zb != baseline) {
      result.failure = "zero-load baseline does not match the model reference";
      return finish(false);
    }
  }
  std::map<std::vector<u32>, ClassifiedResponse> classes;
  classes[baseline] = {ResponseClass::kBaseline, -1};
  bool distinct = true;
  for (unsigned i = 0; i < 32; ++i) {
    // Cutting v[i] at the source removes it from both consumers: the
    // feedback image is the mask-i fault model, and z[i] collapses to the
    // raw LFSR column s0[i].
    snow3g::Snow3g m({}, {}, {u32{1} << i, false, true});
    std::vector<u32> sourcecut;
    for (size_t t = 0; t < config_.words; ++t) {
      const u32 s0 = m.lfsr()[0];
      const u32 z = m.next();
      sourcecut.push_back((z & ~(u32{1} << i)) | (s0 & (u32{1} << i)));
    }
    // A z-path decoy only kills the output column; the feedback stays
    // intact, so the response is the baseline with column i forced low.
    std::vector<u32> columndead = baseline;
    for (u32& w : columndead) w &= ~(u32{1} << i);
    distinct &= classes
                    .emplace(std::move(sourcecut),
                             ClassifiedResponse{ResponseClass::kSourceCut, static_cast<int>(i)})
                    .second;
    distinct &= classes
                    .emplace(std::move(columndead),
                             ClassifiedResponse{ResponseClass::kColumnDead, static_cast<int>(i)})
                    .second;
  }
  if (!distinct) {
    result.failure = "reference classes collide at words=" + std::to_string(config_.words) +
                     "; increase CrackerConfig::words";
    return finish(false);
  }

  // Patch builder: zero the matched halves of a candidate subset on top of
  // the beta baseline (merging subsets that share a physical byte).
  auto patched = [&](const std::vector<size_t>& ids) {
    std::map<size_t, Patch> by_byte;
    for (const size_t id : ids) {
      const HalfMatch& h = sites[id];
      auto it = by_byte.find(h.byte_index);
      if (it == by_byte.end()) {
        const u64 stored =
            bitstream::read_lut_init(base_beta, h.byte_index, config_.find.offset_d, h.order);
        it = by_byte.emplace(h.byte_index, Patch{h.byte_index, h.order, stored}).first;
      }
      it->second.init &= h.o5_half ? 0xffffffff00000000ull : 0x00000000ffffffffull;
    }
    std::vector<Patch> patches;
    patches.reserve(by_byte.size());
    for (const auto& [l, p] : by_byte) patches.push_back(p);
    return session_.with_patches(base_beta, patches);
  };

  DecoyHypothesisSet hyp(sites.size());
  const double initial = hyp.log2_hypotheses();
  bool lost = false;
  const CrackLoopStats stats =
      run_crack_loop(hyp, [&](const std::vector<std::vector<size_t>>& round) {
        std::vector<std::vector<u8>> probes;
        probes.reserve(round.size());
        for (const auto& ids : round) probes.push_back(patched(ids));
        const auto outs = session_.probe_batch(probes);
        std::vector<std::optional<ClassifiedResponse>> responses(round.size());
        for (size_t k = 0; k < outs.size(); ++k) {
          if (session_.device_lost()) {
            lost = true;
            break;
          }
          if (!outs[k]) {
            responses[k] = ClassifiedResponse{ResponseClass::kRejected, -1};
            continue;
          }
          const auto it = classes.find(*outs[k]);
          responses[k] =
              it != classes.end() ? it->second : ClassifiedResponse{ResponseClass::kOther, -1};
        }
        if (lost) responses.assign(round.size(), std::nullopt);
        return responses;
      });
  result.rounds = stats.rounds;
  result.log2_by_round = stats.log2_by_round;
  result.log2_hypotheses_final = hyp.log2_hypotheses();
  if (lost || stats.aborted) {
    result.failure = "device lost during hypothesis pruning";
    return finish(false);
  }
  note("pruned 2^" + std::to_string(static_cast<long>(initial)) + " initial -> 2^" +
       std::to_string(static_cast<long>(result.log2_hypotheses_final)) + " in " +
       std::to_string(stats.rounds) + " round(s), " + std::to_string(stats.probes) + " probes");

  for (unsigned i = 0; i < 32; ++i) {
    for (const size_t id : hyp.claimants(i)) {
      result.claimant_bytes[i].push_back(sites[id].byte_index);
    }
  }
  result.unique = hyp.unique();
  result.proven_ambiguous = hyp.proven_ambiguous();
  if (result.unique) {
    note("verdict: UNIQUE — all 32 sources identified adaptively");
  } else if (result.proven_ambiguous) {
    size_t eq_bits = 0;
    for (unsigned i = 0; i < 32; ++i) eq_bits += hyp.bit_proven_ambiguous(i) ? 1 : 0;
    note("verdict: PROVEN AMBIGUOUS — " + std::to_string(eq_bits) +
         " bit(s) have response-equalized claimant classes");
  } else {
    result.failure = "hypothesis loop exhausted informative probes without a verdict";
    return finish(false);
  }
  return finish(true);
}

}  // namespace sbm::attack
