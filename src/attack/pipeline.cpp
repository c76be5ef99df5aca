#include "attack/pipeline.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <map>
#include <set>

#include "attack/countermeasure.h"
#include "attack/scan.h"
#include "bitstream/patcher.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "snow3g/snow3g.h"

namespace sbm::attack {

using logic::Candidate;
using logic::TruthTable6;
using runtime::ProbeError;
using runtime::ProbeOutcome;

Attack::Attack(Oracle& oracle, std::span<const u8> golden_bitstream, PipelineConfig config)
    : oracle_(oracle),
      config_(config),
      session_(oracle, config),
      golden_(golden_bitstream.begin(), golden_bitstream.end()) {}

void Attack::note(std::string message) {
  if (config_.verbose) std::printf("[attack] %s\n", message.c_str());
  if (active_ != nullptr) active_->log.push_back(std::move(message));
}

bool Attack::lost(AttackResult& result) {
  const ProbeError fatal = session_.fatal();
  if (fatal == ProbeError::kNone) return false;
  if (!result.partial) {
    result.partial = true;
    result.abort_error = fatal;
    result.failure = std::string(phase_) + ": device lost (" +
                     runtime::probe_error_name(fatal) + ")";
    note("irrecoverable fault during " + std::string(phase_) + " (" +
         runtime::probe_error_name(fatal) + "); stopping with a partial result");
  }
  return true;
}

AttackResult Attack::execute() {
  AttackResult result;
  active_ = &result;
  phase_ = "setup";
  obs::Span exec_span("attack", "execute");

  // Step 0: baseline keystream and CRC neutralization.
  bool ok = true;
  {
    obs::Span span("attack", "setup");
    const auto z0 = probe(golden_);
    if (lost(result)) {
      ok = false;
    } else if (!z0) {
      result.failure = "golden bitstream rejected by device";
      ok = false;
    } else {
      z_golden_ = *z0;
      base_ = golden_;
      if (config_.crc == CrcHandling::kDisable) {
        const size_t disabled = bitstream::disable_crc(base_);
        note("disabled " + std::to_string(disabled) + " CRC check(s)");
        const auto z1 = probe(base_);
        if (lost(result)) {
          ok = false;
        } else if (!z1 || *z1 != z_golden_) {
          result.failure = "CRC-disabled bitstream does not behave like the original";
          ok = false;
        }
      } else {
        note("CRC handling: recompute-and-replace on every probe");
      }
    }
  }

  auto runs = [this] { return session_.ledger().oracle_runs; };
  size_t mark = runs();
  result.phase_runs.emplace_back("setup", mark);
  if (ok) {
    struct PhaseFn {
      const char* name;
      bool (Attack::*fn)(AttackResult&);
    };
    static constexpr PhaseFn kPhases[] = {{"z-path", &Attack::phase_zpath},
                                          {"beta", &Attack::phase_beta},
                                          {"feedback", &Attack::phase_feedback},
                                          {"alpha2", &Attack::phase_alpha2},
                                          {"extract", &Attack::phase_extract}};
    for (const PhaseFn& ph : kPhases) {
      phase_ = ph.name;
      {
        obs::Span span("attack", ph.name);
        ok = (this->*ph.fn)(result);
        span.arg("oracle_runs", runs() - mark);
      }
      result.phase_runs.emplace_back(ph.name, runs() - mark);
      mark = runs();
      if (!ok) break;
    }
  }
  result.success = ok;
  static_cast<runtime::RunLedger&>(result) = session_.ledger();
  active_ = nullptr;

  // Mirror the per-run record into the process-wide registry (DESIGN.md
  // §4g): one "attack.<field>" counter per ledger field, one bulk add per
  // metric at the end of the run.  The registry is the cross-cutting view,
  // AttackResult stays the deterministic record.
  auto& registry = obs::MetricsRegistry::global();
  static obs::Counter& c_executions = registry.counter("attack.executions");
  static obs::Counter& c_successes = registry.counter("attack.successes");
  static obs::Counter& c_partials = registry.counter("attack.partial_results");
  c_executions.add();
  if (result.success) c_successes.add();
  if (result.partial) c_partials.add();
  for_each_field(result, [&registry](const char* name, size_t value) {
    registry.counter(std::string("attack.") + name).add(value);
  });
  exec_span.arg("oracle_runs", result.oracle_runs);
  return result;
}

bool Attack::phase_zpath(AttackResult& result) {
  // Scan the keystream-path family (one compiled pattern index, one pass over
  // the bitstream) and sort candidates by match count, largest first
  // (Section VI-C: "starting from the ones with the largest number of
  // matches n").
  std::vector<FamilyCount> counts = scan_family(base_, keystream_family(), config_.find);
  std::sort(counts.begin(), counts.end(),
            [](const FamilyCount& a, const FamilyCount& b) { return a.count() > b.count(); });

  std::set<size_t> probed;
  std::set<unsigned> covered;
  // The one keystream bit in which probe answer `z` differs from the golden
  // words, when that bit reads `level` in every word of `z`; -1 otherwise.
  auto stuck_bit = [&](const ProbeOutcome& z, unsigned level) {
    u32 diff_mask = 0;
    for (size_t t = 0; t < z->size(); ++t) diff_mask |= (*z)[t] ^ z_golden_[t];
    if (std::popcount(diff_mask) != 1) return -1;
    const unsigned bit = static_cast<unsigned>(std::countr_zero(diff_mask));
    for (const u32 w : *z) {
      if (bit_of(w, bit) != level) return -1;
    }
    return static_cast<int>(bit);
  };
  auto accept = [&](const LutMatch& m, const logic::Candidate& c, int bit) {
    if (bit < 0 || !covered.insert(static_cast<unsigned>(bit)).second) return;  // overlap pruning
    ZPathLut lut;
    lut.match = m;
    lut.bit = static_cast<unsigned>(bit);
    for (size_t k = 0; k < 3 && k < c.xor_vars.size(); ++k) lut.trio[k] = m.perm[c.xor_vars[k]];
    result.lut1.push_back(lut);
  };
  // Matches whose alpha probe changed nothing, in probe order.
  std::vector<std::pair<const LutMatch*, const logic::Candidate*>> silent;
  for (const FamilyCount& fc : counts) {
    if (covered.size() == 32) break;
    for (const LutMatch& m : fc.matches) {
      if (covered.size() == 32) break;
      if (!probed.insert(m.byte_index).second) continue;
      // alpha: f = 0 — stuck the whole LUT at 0 and watch which bit dies.
      const auto z = probe(with_patches(base_, {{m.byte_index, m.order, 0}}));
      if (lost(result)) return false;
      if (!z) continue;
      if (*z == z_golden_) {
        silent.emplace_back(&m, &fc.candidate);
        continue;
      }
      accept(m, fc.candidate, stuck_bit(z, 0));
    }
  }
  // A bit that is 0 in all w golden words hides its LUT1 from the alpha
  // probe (about 32 * 2^-w per board).  Stick the silent matches at 1
  // instead, in order, until every bit is covered.
  for (const auto& [m, c] : silent) {
    if (covered.size() == 32) break;
    const auto z = probe(with_patches(base_, {{m->byte_index, m->order, ~u64{0}}}));
    if (lost(result)) return false;
    if (z) accept(*m, *c, stuck_bit(z, 1));
  }
  note("z-path: verified " + std::to_string(result.lut1.size()) + "/32 LUT1 positions");
  if (result.lut1.size() != 32) {
    result.failure = "could not identify all 32 z-path LUTs";
    return false;
  }
  return true;
}

bool Attack::phase_beta(AttackResult& result) {
  // The MUX search, zero-load rewrites and polarity refinement are shared
  // with the countermeasure cracker (attack/probe_session.h).
  auto stage = establish_beta(session_, base_, config_.find);
  if (lost(result)) return false;
  if (!stage) {
    result.failure = "beta fault (all-zero LFSR load) could not be established";
    return false;
  }
  note("beta: " + std::to_string(stage->candidates) + " load-MUX candidates");
  beta_patches_ = std::move(stage->patches);
  fold_sites_ = std::move(stage->fold_sites);
  result.load_active_high = stage->load_active_high;
  result.mux_patches = beta_patches_.size();
  note(std::string("beta established with ") + std::to_string(beta_patches_.size()) +
       " MUX rewrites, load active-" + (stage->load_active_high ? "high" : "low"));
  return true;
}

namespace {

/// Applies a feedback rewrite recipe to a stored 64-bit table.
u64 apply_feedback_rewrite(u64 stored, const FeedbackLut& lut) {
  if (lut.half < 0) {
    if (lut.zero_all) return 0;
    TruthTable6 t(stored);
    for (const u8 v : lut.zero_vars) t = t.cofactor(v, 0);
    return t.bits();
  }
  const u32 keep = lut.half == 0 ? static_cast<u32>(stored >> 32) : static_cast<u32>(stored);
  u32 h = lut.half == 0 ? static_cast<u32>(stored) : static_cast<u32>(stored >> 32);
  if (lut.zero_all) {
    h = 0;
  } else {
    TruthTable6 t(u64{h} | (u64{h} << 32));
    for (const u8 v : lut.zero_vars) t = t.cofactor(v, 0);
    h = t.half(0);
  }
  return lut.half == 0 ? (u64{h} | (u64{keep} << 32)) : (u64{keep} | (u64{h} << 32));
}

}  // namespace

Patch Attack::feedback_patch(const std::vector<u8>& base,
                             const std::vector<u8>& base_beta,
                             const FeedbackLut& lut) const {
  const u64 original =
      bitstream::read_lut_init(base, lut.byte_index, config_.find.offset_d, lut.order);
  const u64 beta =
      bitstream::read_lut_init(base_beta, lut.byte_index, config_.find.offset_d, lut.order);
  const u64 rewritten = apply_feedback_rewrite(beta, lut);
  // Minterms the beta fault zeroed (the load branch) come back from the
  // original; everywhere else the verified rewrite governs.
  const u64 branch = original ^ beta;
  return {lut.byte_index, lut.order, (rewritten & ~branch) | (original & branch)};
}

bool Attack::phase_feedback(AttackResult& result) {
  // Per-bit key-independent signatures: the reference keystream with the W
  // injection cut on exactly one bit, simulated with the attacker's model.
  std::map<std::vector<u32>, unsigned> signature_to_bit;
  for (unsigned i = 0; i < 32; ++i) {
    signature_to_bit.emplace(model_reference({u32{1} << i, false, true}, config_.words), i);
  }
  const std::vector<u32> no_effect = model_reference({0, false, true}, config_.words);
  const std::vector<u8> base_beta = with_patches(base_, beta_patches_);

  std::set<unsigned> covered;
  std::set<size_t> z_claimed;
  for (const ZPathLut& z : result.lut1) z_claimed.insert(z.match.byte_index);
  // Classification of one probe result; the probes themselves run in
  // batched rounds (probe_batch) because no rewrite's outcome influences
  // which other rewrites of the same round are probed.
  auto classify = [&](FeedbackLut lut, const ProbeOutcome& z) {
    if (!z || *z == no_effect) return false;
    const auto it = signature_to_bit.find(*z);
    if (it == signature_to_bit.end()) return false;
    lut.bit = it->second;
    covered.insert(it->second);
    result.feedback.push_back(std::move(lut));
    return true;
  };

  // Stage 1 — precise probes on family matches: the candidate says exactly
  // which stored variables form the hypothesized XOR group; cofactor them
  // all to 0 (the generalization of the paper's Eq. (1)).  The probes batch
  // per candidate — each match list is planned up front, probed in 64-lane
  // batches, and classified in match order, so the outcome is independent
  // of batch width and threads.
  const std::vector<Candidate>& fb_family = feedback_family();
  const std::vector<FamilyCount> fb_counts = scan_family(base_beta, fb_family, config_.find);
  for (size_t ci = 0; ci < fb_counts.size(); ++ci) {
    const Candidate& c = fb_family[ci];
    if (covered.size() == 32) break;
    std::vector<FeedbackLut> round;
    std::vector<std::vector<u8>> probes;
    auto plan = [&](FeedbackLut lut) {
      const u64 stored =
          bitstream::read_lut_init(base_beta, lut.byte_index, config_.find.offset_d, lut.order);
      if (apply_feedback_rewrite(stored, lut) == stored) return;  // no-op: probe-free
      probes.push_back(with_patches(base_beta, {feedback_patch(base_beta, base_beta, lut)}));
      round.push_back(std::move(lut));
    };
    for (const LutMatch& m : fb_counts[ci].matches) {
      if (z_claimed.count(m.byte_index)) continue;
      FeedbackLut lut{m.byte_index, m.order, -1, false, {}, 0};
      for (const u8 xv : c.xor_vars) lut.zero_vars.push_back(m.perm[xv]);
      plan(std::move(lut));
    }
    if (c.function.support_size() <= 5 && !c.function.depends_on(5)) {
      for (const HalfMatch& h : find_lut_half(base_beta, c.function.half(0), config_.find)) {
        if (z_claimed.count(h.byte_index)) continue;
        FeedbackLut lut{h.byte_index, h.order, h.o5_half ? 0 : 1, false, {}, 0};
        for (const u8 xv : c.xor_vars) lut.zero_vars.push_back(h.perm[xv]);
        plan(std::move(lut));
      }
    }
    const auto zs = probe_batch(probes);
    for (size_t i = 0; i < round.size(); ++i) classify(std::move(round[i]), zs[i]);
    if (lost(result)) return false;
  }

  // Stage 2 — generic sweep over every occupied, frame-aligned site, trying
  // the v = 0 rewrites from cheapest to deepest: the LUT *is* v (zero it),
  // v is a leaf (single cofactor), or v is an absorbed XOR group of 2..4
  // variables.  Run only while W bits remain unaccounted for.
  std::vector<size_t> sites;
  std::set<size_t> queued;
  auto enqueue = [&](size_t l) {
    if (!z_claimed.count(l) && queued.insert(l).second) sites.push_back(l);
  };
  for (const Patch& p : beta_patches_) enqueue(p.byte_index);
  for (const size_t l : bitstream::LutSlots(base_).occupied(base_, config_.find.offset_d)) {
    enqueue(l);
  }

  auto groups_of = [](const TruthTable6& t, unsigned vars, unsigned size) {
    std::vector<u8> support;
    for (u8 x = 0; x < vars; ++x) {
      if (t.depends_on(x)) support.push_back(x);
    }
    std::vector<std::vector<u8>> groups;
    const size_t n = support.size();
    if (size > n) return groups;
    std::vector<u8> idx(size);
    for (u8 i = 0; i < size; ++i) idx[i] = i;
    while (true) {
      std::vector<u8> g;
      for (const u8 i : idx) g.push_back(support[i]);
      groups.push_back(std::move(g));
      int k = static_cast<int>(size) - 1;
      while (k >= 0 && idx[static_cast<size_t>(k)] == n - size + static_cast<size_t>(k)) --k;
      if (k < 0) break;
      ++idx[static_cast<size_t>(k)];
      for (size_t j = static_cast<size_t>(k) + 1; j < size; ++j) idx[j] = idx[j - 1] + 1;
    }
    return groups;
  };
  // Depth-major sweep: cheap rewrites first (the LUT is v, or v is a leaf),
  // deeper XOR groups only while W bits remain unaccounted for.  The probes
  // run in fixed windows of kWindowSites sites: every window's probe plan is
  // a pure function of the state at window start (covered/classified sets,
  // the immutable base_beta tables), so the same rewrites run — and the same
  // hits are recorded, in the same site/segment/group order — regardless of
  // batch width or thread count.  Within a window, the first recorded hit
  // per (site, segment) wins and a hit at chunk order p exempts the site
  // from order pass p+1, mirroring the serial sweep's settle-and-break.
  std::set<size_t> classified_sites;
  // Stage 1.5 — the s15 load MUXes that folded with the feedback tree (their
  // beta match used a mux_fold shape) are the prime suspects; sweep them to
  // full depth first so the broad fabric scan is usually never needed.
  std::vector<size_t> priority = fold_sites_;
  std::vector<size_t> broad = sites;
  constexpr size_t kWindowSites = 16;
  const auto orders = bitstream::device_chunk_orders();
  for (const bool widened : {false, true}) {
    if (covered.size() == 32) break;
    for (unsigned group_size = 0; group_size <= 4 && covered.size() != 32; ++group_size) {
      const std::vector<size_t>& pool_sites = widened ? broad : priority;
      size_t cursor = 0;
      while (covered.size() != 32) {
        std::vector<size_t> window;
        while (cursor < pool_sites.size() && window.size() < kWindowSites) {
          const size_t l = pool_sites[cursor++];
          if (!classified_sites.count(l)) window.push_back(l);
        }
        if (window.empty()) break;
        std::vector<char> site_hit(window.size(), 0);
        for (size_t pass = 0; pass < orders.size() && covered.size() != 32; ++pass) {
          const auto& order = orders[pass];
          struct Gate {
            size_t slot;  // index into window
            int segment;  // 0 = whole table, 1 = O5 half, 2 = O6 half
          };
          std::vector<FeedbackLut> round;
          std::vector<Gate> gates;
          std::vector<std::vector<u8>> probes;
          auto plan = [&](size_t slot, int segment, FeedbackLut lut, u64 stored) {
            if (apply_feedback_rewrite(stored, lut) == stored) return;  // no-op: probe-free
            probes.push_back(with_patches(base_beta, {feedback_patch(base_beta, base_beta, lut)}));
            gates.push_back({slot, segment});
            round.push_back(std::move(lut));
          };
          for (size_t slot = 0; slot < window.size(); ++slot) {
            if (site_hit[slot]) continue;  // chunk order settled by an earlier pass
            const size_t l = window[slot];
            const u64 stored = bitstream::read_lut_init(base_beta, l, config_.find.offset_d, order);
            if (stored == 0) continue;
            const u32 lo = static_cast<u32>(stored);
            const u32 hi = static_cast<u32>(stored >> 32);
            auto plan_segment = [&](int segment, int half, const TruthTable6& t, unsigned vars) {
              if (group_size == 0) {
                plan(slot, segment, {l, order, half, true, {}, 0}, stored);
              } else {
                for (const auto& g : groups_of(t, vars, group_size)) {
                  plan(slot, segment, {l, order, half, false, g, 0}, stored);
                }
              }
            };
            plan_segment(0, -1, TruthTable6(stored), 6);
            if (lo != hi) {
              // The attacker cannot tell a 6-input single-output LUT from a
              // dual-output site, so try both interpretations: whole-table
              // rewrites over 6 variables and per-half rewrites over 5.
              plan_segment(1, 0, TruthTable6(u64{lo} | (u64{lo} << 32)), 5);
              plan_segment(2, 1, TruthTable6(u64{hi} | (u64{hi} << 32)), 5);
            }
          }
          if (probes.empty()) continue;
          const auto zs = probe_batch(probes);
          std::set<std::pair<size_t, int>> segment_hit;
          for (size_t i = 0; i < round.size(); ++i) {
            if (covered.size() == 32) break;
            if (segment_hit.count({gates[i].slot, gates[i].segment})) continue;
            if (classify(std::move(round[i]), zs[i])) {
              segment_hit.insert({gates[i].slot, gates[i].segment});
              site_hit[gates[i].slot] = 1;
              classified_sites.insert(window[gates[i].slot]);
            }
          }
          if (lost(result)) return false;
        }
      }
    }
  }
  note("feedback: covered " + std::to_string(covered.size()) + "/32 W bits with " +
       std::to_string(result.feedback.size()) + " LUT rewrites");
  if (covered.size() != 32) {
    result.failure = "feedback path: not all 32 W bits could be cut";
    return false;
  }

  // Paper's consistency check: all feedback cuts + beta must reproduce the
  // key-independent keystream of Table III.
  std::vector<Patch> all;
  for (const FeedbackLut& f : result.feedback) {
    all.push_back(feedback_patch(base_beta, base_beta, f));
  }
  const auto z = probe(with_patches(base_beta, all));
  if (lost(result)) return false;
  const std::vector<u32> table3 =
      model_reference(snow3g::FaultConfig::key_independent(), config_.words);
  if (!z || *z != table3) {
    result.failure = "combined feedback cut does not reproduce the Table III keystream";
    return false;
  }
  note("feedback cut verified against the key-independent keystream (Table III)");
  return true;
}

bool Attack::phase_alpha2(AttackResult& result) {
  // Base configuration: beta + full feedback cut; then test pair hypotheses
  // on all 32 LUT1s at once.  Two runs resolve all 3^32 combinations.
  const std::vector<u8> base_beta = with_patches(base_, beta_patches_);
  std::vector<Patch> base_patches = beta_patches_;
  for (const FeedbackLut& f : result.feedback) {
    base_patches.push_back(feedback_patch(base_beta, base_beta, f));
  }

  auto hypothesis_pair = [](const ZPathLut& lut, int h) -> std::array<u8, 2> {
    if (h == 0) return {lut.trio[0], lut.trio[1]};
    if (h == 1) return {lut.trio[0], lut.trio[2]};
    return {lut.trio[1], lut.trio[2]};
  };

  std::set<unsigned> resolved;
  for (int h = 0; h < 2; ++h) {
    std::vector<Patch> patches = base_patches;
    for (const ZPathLut& lut : result.lut1) {
      const u64 stored =
          bitstream::read_lut_init(base_, lut.match.byte_index, config_.find.offset_d,
                                   lut.match.order);
      const auto pair = hypothesis_pair(lut, h);
      const TruthTable6 rewrite =
          TruthTable6(stored).cofactor(pair[0], 0).cofactor(pair[1], 0);
      patches.push_back({lut.match.byte_index, lut.match.order, rewrite.bits()});
    }
    const auto z = probe(with_patches(base_, patches));
    if (lost(result)) return false;
    if (!z) continue;
    for (ZPathLut& lut : result.lut1) {
      if (lut.s0_var >= 0) continue;
      bool zero = true;
      for (const u32 w : *z) zero = zero && bit_of(w, lut.bit) == 0;
      if (zero) {
        const auto pair = hypothesis_pair(lut, h);
        lut.s0_var = lut.trio[0] + lut.trio[1] + lut.trio[2] - pair[0] - pair[1];
        resolved.insert(lut.bit);
      }
    }
  }
  // Bits resolved by neither run carry the third pair.
  for (ZPathLut& lut : result.lut1) {
    if (lut.s0_var < 0) {
      lut.s0_var = lut.trio[0];
      resolved.insert(lut.bit);
    }
  }
  note("alpha2: XOR input pairs resolved with 2 keystream computations");
  return resolved.size() == 32;
}

bool Attack::phase_extract(AttackResult& result) {
  // Final faulty bitstream: feedback cut + z = s0; gamma loads normally (no
  // beta patches), so S^0 = gamma(K, IV) is recoverable.
  const std::vector<u8> base_beta = with_patches(base_, beta_patches_);
  std::vector<Patch> patches;
  for (const FeedbackLut& f : result.feedback) {
    patches.push_back(feedback_patch(base_, base_beta, f));
  }
  for (const ZPathLut& lut : result.lut1) {
    const u64 stored = bitstream::read_lut_init(base_, lut.match.byte_index,
                                                config_.find.offset_d, lut.match.order);
    std::array<u8, 2> pair{};
    size_t k = 0;
    for (const u8 v : lut.trio) {
      if (static_cast<int>(v) != lut.s0_var) pair[k++] = v;
    }
    const TruthTable6 rewrite = TruthTable6(stored).cofactor(pair[0], 0).cofactor(pair[1], 0);
    patches.push_back({lut.match.byte_index, lut.match.order, rewrite.bits()});
  }
  const auto z = probe(with_patches(base_, patches));
  if (lost(result)) return false;
  if (!z || z->size() < 16) {
    result.failure = "final faulty bitstream rejected";
    return false;
  }
  result.faulty_keystream = *z;

  result.recovered_state = snow3g::state_from_faulty_keystream(*z);
  const auto secrets = snow3g::extract_key(result.recovered_state);
  if (!secrets) {
    result.failure = "recovered state violates the gamma(K, IV) redundancies";
    return false;
  }
  result.secrets = *secrets;
  note("key recovered; verifying against the unmodified device");

  // Paper step 6: simulate the keystream with the recovered key and compare
  // with the clean device.
  snow3g::Snow3g model(result.secrets.key, config_.iv);
  const std::vector<u32> predicted = model.keystream(z_golden_.size());
  result.key_confirmed = predicted == z_golden_;
  if (!result.key_confirmed) {
    result.failure = "recovered key does not reproduce the clean keystream";
    return false;
  }
  return true;
}

}  // namespace sbm::attack
